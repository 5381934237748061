"""Machine speed, measured with a fixed pure-Python reference computation.

The shared machines this benchmark runs on change speed by up to 2x
within tens of seconds (CPU time and wall time alike, so it is not
scheduling).  A run that falls into a slow phase would read as a slower
program.  The workers therefore time :func:`reference` next to every
measured call and express the call's time in reference units:
``seconds * REF_S / reference_seconds``.  On a machine where the
reference takes ``REF_S`` the figures are plain seconds; everywhere else
the machine's own speed cancels out.  Calls that start a process (the
``cli`` workload) use :func:`start_ref_time` instead.
"""

import random
import subprocess
import sys
from time import perf_counter

REF_S = 0.003  # what one reference() call takes on the reference machine
START_REF_S = 0.17  # the same for start_ref_time()


def reference() -> int:
    """Seeded draws, tuples, frozensets, dict and set updates, a sort: the
    mix of interpreter work the program does, at a fixed size."""
    rng = random.Random(12345)
    table: dict = {}
    for i in range(1000):
        key = (rng.randint(0, 50), rng.randint(0, 50))
        table.setdefault(key, set()).add(frozenset((i % 7, i % 11)))
    total = 0
    for key, members in sorted(table.items()):
        total += len(members) + key[0]
    return total


def ref_time() -> float:
    """The fastest of three reference calls.  The first call after a
    large numpy computation runs on cold caches and reads slow; the
    fastest one reads the machine's speed."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return min(times)


def start_ref_time(env=None) -> float:
    """A fresh interpreter importing numpy and the standard modules the CLI
    loads: the reference for calls that start a process, whose cost is
    mostly interpreter start and imports.  Over 100 s of alternating
    ``acokit`` commands it cut their coefficient of variation from 17% to
    8-12%, where :func:`reference` raised it to 19-22%."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, argparse, csv, "
                    "json, logging, fractions, dataclasses"], env=env,
                   check=True)
    return perf_counter() - t0


def normalized(seconds: float, ref_seconds: float,
               nominal: float = REF_S) -> float:
    return seconds * nominal / ref_seconds
