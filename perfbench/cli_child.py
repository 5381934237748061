"""Run one acokit command with the tracer installed.

Usage: ``python perfbench/cli_child.py STATS.json ARGS...``, where
``ARGS`` are what ``python -m acokit.cli`` would take.  Writes the
tracer's summary plus the time ``import acokit.cli`` took to
``STATS.json`` and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

import tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import acokit.cli
    import_ms = (perf_counter() - t0) * 1e3
    tr = tracer.Tracer()
    tr.install()
    try:
        return acokit.cli.main(argv)
    finally:
        summary = tr.summary()
        summary["import_ms"] = import_ms
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
