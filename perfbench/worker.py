"""One measured process: set up a workload, time whole rounds, check.

Started by ``run.py`` in a fresh interpreter whose environment fixes the
noise sources.  Prints one JSON line on stdout.  With ``--setup-only`` it
stops where the timed part would begin and reports only its set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import calibrate
import tracer as tracing
import workloads

MIN_ROUNDS = 3


class Rounds:
    """Per-item times and outcomes over whole rounds."""

    def __init__(self, items, reference):
        self.items = items
        self.ref_time, self.ref_nominal = reference
        self.times = [[] for _ in items]
        self.count = 0
        self.units = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds, tracer=None):
        """Whole rounds until ``seconds`` have passed, and at least
        ``MIN_ROUNDS`` so that each item's median ignores a first round
        that fills the program's caches.

        Every call is followed by a reference computation, and unless the
        item says otherwise its time is normalised by the mean of the
        references before and after it (see :mod:`calibrate`; the
        workload picks the reference).  A tracer,
        when given, scales what it sums by the speed measured just before
        each call.
        """
        start = perf_counter()
        ref = self.ref_time()
        while True:
            for k, item in enumerate(self.items):
                if tracer is not None:
                    tracer.scale = calibrate.normalized(
                        1.0, ref, self.ref_nominal) if item.normalize else 1.0
                t0 = perf_counter()
                result = item.call()
                elapsed = perf_counter() - t0
                after = self.ref_time()
                if item.normalize:
                    elapsed = calibrate.normalized(
                        elapsed, (ref + after) / 2, self.ref_nominal)
                self.times[k].append(elapsed)
                ref = after
                units, failed, problems = item.check(result)
                self.units += units
                self.failed += failed
                self.problems += [f"{item.label}: {p}" for p in problems]
            self.count += 1
            if self.count >= MIN_ROUNDS and perf_counter() - start >= seconds:
                return

    def parts(self) -> str:
        """Median seconds per round of each kind of item (label prefix)."""
        sums: dict = {}
        for item, times in zip(self.items, self.times):
            kind = item.label.split(":")[0]
            sums[kind] = sums.get(kind, 0.0) + statistics.median(times)
        return " ".join(f"{k}={v:.3f}" for k, v in sums.items())

    def throughput(self) -> float:
        """Units of one round over the sum of each item's median
        normalised time.

        Every round repeats the same calls, so an item's median across
        rounds is its typical cost; a stall that hits one item in one round
        does not move it.
        """
        per_round = self.units / self.count
        return per_round / sum(statistics.median(t) for t in self.times)


def peak_rss_mb(wl) -> float:
    if wl.name == "cli":
        return wl.child_peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_values(tr, rounds, wl, import_ms, plain, traced):
    n = rounds.count
    untraced, traced = plain.throughput(), traced.throughput()

    def ms(name, field="total"):
        return getattr(tr, field).get(name, 0.0) * 1e3 / n

    def calls(name):
        return tr.calls.get(name, 0) / n

    if wl.name == "cli":
        import_ms = statistics.median(wl.child_import_ms)
        invocations = [t * 1e3 for ts in plain.times for t in ts]
    else:
        invocations = [d * 1e3 for d in tr.span_durations("cli.main")]
    return {
        "iteration.sample_schedule.ms": ms("iteration.sample_schedule"),
        "iteration.sample_schedule.calls": calls("iteration.sample_schedule"),
        "iteration.check_admissible_prefix.ms":
            ms("iteration.check_admissible_prefix"),
        "iteration.run_async.self_ms": ms("iteration.run_async", "self_time"),
        "iteration.run_async.calls": calls("iteration.run_async"),
        "iteration.ticks_drawn": tr.ticks_drawn / n,
        "iteration.ticks_used": tr.ticks_used / n,
        "iteration.ticks_used_per_drawn":
            tr.ticks_used / tr.ticks_drawn if tr.ticks_drawn else 0.0,
        "iteration.apply.calls": calls("iteration.DecomposedOperator.apply"),
        "routing.sigma_step.calls": calls("routing.sigma_step"),
        "routing.sigma_step.ms": ms("routing.sigma_step"),
        "logic.immediate_consequence.calls":
            calls("logic.immediate_consequence"),
        "logic.immediate_consequence.ms": ms("logic.immediate_consequence"),
        "aco.search_ultrametric.ms": ms("aco.search_ultrametric"),
        "aco.search_box_sequence.ms": ms("aco.search_box_sequence"),
        "routing.verify_strict_contraction.ms":
            ms("routing.verify_strict_contraction"),
        "logic.classify_tp_contraction.ms": ms("logic.classify_tp_contraction"),
        "ultrametric.classify_contraction.ms":
            ms("ultrametric.classify_contraction"),
        "cli.import_ms": import_ms,
        "logic.find_stratification.ms": ms("logic.find_stratification"),
        "cli.invocation_ms.p50":
            statistics.median(invocations) if invocations else 0.0,
        "trace.untraced_throughput_per_s": untraced,
        "trace.traced_throughput_per_s": traced,
        "trace.overhead_pct": (untraced - traced) / untraced * 100,
        "trace.absent_names": len(tr.absent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import acokit.cli  # noqa: F401  (the import every CLI start pays)
    import_ms = (perf_counter() - t0) * 1e3
    wl = workloads.build(args.workload, args.seed, args.workdir)
    wl.warm_up()
    # Wall-clock; run.py normalises it with start references around this
    # process (the in-process reference does not track imports).
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        rounds = Rounds(wl.items, wl.reference)
        rounds.run(args.seconds)
        metrics = {
            "throughput_per_s": rounds.throughput(),
            "peak_rss_mb": peak_rss_mb(wl),
        }
        outcome = [rounds]
    else:
        plain = Rounds(wl.items, wl.reference)
        plain.run(args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        wl.tracer = tr
        traced = Rounds(wl.items, wl.reference)
        traced.run(args.seconds / 2, tracer=tr)
        tr.uninstall()
        metrics = layer_values(tr, traced, wl, import_ms, plain, traced)
        if tr.absent:
            print("absent: " + " ".join(sorted(tr.absent)), file=sys.stderr)
        if args.trace_out:
            args.trace_out.write_text(json.dumps({
                "workload": wl.name, "seed": args.seed,
                "rounds": traced.count, "metrics": metrics,
                "summary": tr.summary(),
                "spans": [list(s) for s in tr.spans],
            }))
        outcome = [plain, traced]

    for r in outcome:
        print(f"parts: {r.parts()}", file=sys.stderr)
    problems = [p for r in outcome for p in r.problems]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.units for r in outcome),
        "failed": sum(r.failed for r in outcome),
        "metrics": metrics,
        "rounds": sum(r.count for r in outcome),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
