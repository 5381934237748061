"""Benchmark entry point.

    python3 perfbench/run.py --workload campaign|exhaustive|cli \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See ``perfbench/README.md``.

The measuring is done by ``worker.py`` in fresh interpreters with a fixed
hash seed and single-threaded numpy.  Set-up is repeated: ``SETUPS``
workers stop right after set-up, each timed between two start references
(:func:`calibrate.start_ref_time`), and ``setup_s`` is the median of
their normalised times.  Then one more worker sets up and measures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "exhaustive", "cli")
# Fixed per workload, so that runs without --seed repeat identical work.
DEFAULT_SEEDS = {"campaign": 101, "exhaustive": 202, "cli": 303}
SETUPS = 9
DEADLINE_S = 170  # the whole run, set-ups included


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "ACOKIT_"))}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_worker(args, extra, timeout) -> dict:
    """Start one worker in its own process group and return its last
    stdout line as JSON; on a timeout the whole group is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(args.workdir),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f}s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timed_setups(args, left) -> list:
    """Set-up times in reference seconds.  Interpreter start and imports
    vary by 10% from one process to the next and drift with the machine;
    a fresh interpreter importing numpy, timed just before and after each
    set-up, tracks both (normalising cut the spread of the median of five
    set-ups from about 10% to 6%)."""
    env = worker_env()
    refs = [calibrate.start_ref_time(env)]
    times = []
    for _ in range(SETUPS):
        times.append(run_worker(args, ["--setup-only"], left())["setup_s"])
        refs.append(calibrate.start_ref_time(env))
    return [calibrate.normalized(t, (before + after) / 2,
                                 calibrate.START_REF_S)
            for t, before, after in zip(times, refs, refs[1:])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "acokit" / "__init__.py").is_file():
        print(f"error: no acokit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    started = time.monotonic()
    # Byte-compile up front so that no set-up pays for compiling.
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"error: {tree} does not compile", file=sys.stderr)
            return 2

    out_dir = HERE / "out"
    args.workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    extra = []
    if args.trace:
        extra = ["--trace-out",
                 str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    def left():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = [] if args.trace else timed_setups(args, left)
        result = run_worker(args, extra, left())
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {"throughput_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    print(f"rounds: {result['rounds']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
