"""Reference-only scaling series; prints a markdown table per series.

    PYTHONHASHSEED=0 python3 perfbench/scaling.py

Not part of any workload and not compared between runs: the figures go
into the README to show how the layers grow with input size.

* asynchronous campaign time per run against processor count (rings,
  one processor per path, so the k x k delay tables grow with k);
* box search time against domain size, certified and refuted operators;
* ``verify_strict_contraction`` at 8 to 11 paths, certificate and
  refutation.
"""

import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
from acokit import aco, routing  # noqa: E402
from acokit.iteration import DecomposedOperator  # noqa: E402


def timed(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def campaign_series():
    print("| processors (paths) | ms per async run |\n| --- | --- |")
    for n in range(2, 13, 2):
        nodes, arcs = gen.ring(gen.rng_for(0, "scaling", n), n)
        inst = routing.make_instance(nodes, "d", arcs)
        t = timed(lambda: routing.solve(inst, "async", granularity="per-path",
                                        schedules=5))
        print(f"| {len(inst.paths)} | {t / 5 * 1e3:.1f} |")


def box_series():
    print("| domain | candidate boxes | certified ms | refuted ms |\n"
          "| --- | --- | --- | --- |")
    rng = gen.rng_for(0, "scaling-box")
    for sizes in ((2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 3), (3, 2, 2),
                  (4, 4), (5, 4), (6, 6)):
        domains = tuple(tuple(range(s)) for s in sizes)
        boxes = 1
        for s in sizes:
            boxes *= 2 ** s - 1
        row = []
        for make in (gen.certified_table, gen.one_fixed_point_table):
            ts = []
            for _ in range(5):
                table = make(rng, domains)
                if make is gen.one_fixed_point_table:
                    while oracles.box_hull_fixed_point(domains, table):
                        table = make(rng, domains)
                op = DecomposedOperator.from_table(domains, table)
                ts.append(timed(lambda: aco.search_box_sequence(op), 1))
            row.append(statistics.median(ts) * 1e3)
        print(f"| {'x'.join(map(str, sizes))} | {boxes} | {row[0]:.2f} | "
              f"{row[1]:.2f} |")


def strict_series():
    print("| instance | paths | certificate s | refutation s | peak RSS so far MB |\n"
          "| --- | --- | --- | --- | --- |")
    rng = gen.rng_for(0, "scaling-strict")
    for shape, n in (("gated_ring", 4), ("ring", 5), ("gated_ring", 5),
                     ("ring", 6), ("gated_ring", 6)):
        nodes, arcs = getattr(gen, shape)(rng, n)
        hop = routing.make_instance(nodes, "d", arcs)
        cert = timed(lambda: routing.verify_strict_contraction(hop), 1)
        paths = len(hop.paths)
        refute = "not run"
        if paths <= 11:
            rev = routing.make_instance(
                nodes, "d", arcs,
                preference=gen.longest_first_pairs(nodes, arcs))
            refute = f"{timed(lambda: routing.verify_strict_contraction(rev), 1):.3f}"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"| {shape}({n}) | {paths} | {cert:.3f} | {refute} | {rss:.0f} |")


if __name__ == "__main__":
    campaign_series()
    print()
    box_series()
    print()
    strict_series()
