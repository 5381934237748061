"""Run the benchmark in sets of runs and compare the sets.

    python3 perfbench/compare.py [--workloads campaign,exhaustive,cli]
        [--first-seed 1]

Each of ``SETS`` sets runs every workload ``RUNS`` times, each time with
another seed, through ``run.py`` with the ``run_seconds`` of
``BENCHMARK.json``.
For every end-to-end metric it prints each set's median, quartiles and
spread (quartile distance over the median) next to the metric's bound,
then how far the last set's median moved from the first set's in the
worse direction.  It also checks that the share of failed operations is
identical in every run.  Exit code 1 when a spread, a drift or a failed
share is out of line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    parts = [line for line in proc.stderr.splitlines()
             if line.startswith("parts:")]
    values = " ".join(f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items())
    print(f"  seed {seed}: {values}  {' '.join(parts)}", flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets for r in runs}
        wrong = sum(not r["correct"] for runs in sets for r in runs)
        print(f"== {workload}: failed share {sorted(map(str, shares))}, "
              f"{wrong} runs incorrect")
        ok &= len(shares) == 1 and not wrong
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                flag = "" if sp <= bound / 3 else "  (over bound/3)"
                print(f"  {name:18s} set {k + 1}: median {med:10.4f} "
                      f"q1 {q1:10.4f} q3 {q3:10.4f} spread {sp:6.2%} "
                      f"bound {bound:.0%}{flag}")
                ok &= sp <= bound
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            verdict = "ok" if drift <= bound else "WORSE THAN BOUND"
            print(f"  {name:18s} drift {drift:+.2%} {verdict}")
            ok &= drift <= bound
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
