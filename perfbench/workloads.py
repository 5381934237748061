"""The three workloads: inputs made from the seed, timed calls, checks.

A workload is a fixed list of :class:`Item` objects, one round.  Each
item's ``call`` is the timed part and goes through acokit's public entry
points only, looked up at call time so the tracer's wrappers are seen.
Its ``check`` runs untimed afterwards and compares the result with an
oracle from :mod:`oracles` or with a property the result must have.  It
returns ``(units, failed, problems)``: ``failed`` counts units hit by one
of the two known faults, ``problems`` any other wrong output.

Sizes below are chosen so that one round takes a few seconds and the
three parts of ``exhaustive`` take comparable time; the README gives the
make-up and the measured cost of each part.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calibrate
import gen
import oracles

HERE = Path(__file__).resolve().parent

# campaign: (generator in gen, its size arguments, granularity)
ROUTING_CAMPAIGNS = (
    ("ring", (3,), "per-node"),
    ("ring", (4,), "per-path"),
    ("ring", (6,), "per-node"),
    ("ring", (6,), "per-path"),
    ("ring", (9,), "per-path"),
    ("ring", (12,), "per-node"),
    ("ring", (12,), "per-path"),
    ("grid", (2, 2), "per-path"),
    ("grid", (2, 3), "per-node"),
    ("grid", (2, 3), "per-path"),
)
ROUTING_SCHEDULES = 3
CERTIFY_OPERATORS = ((gen.DOMAINS_3X2, 3), (gen.DOMAINS_2X2X2, 3))
CERTIFY_SCHEDULES = 30
LOGIC_CAMPAIGN_ATOMS = (8, 10)
LOGIC_SCHEDULES = 20

# exhaustive
SEARCH_REFUTED = 60
SEARCH_CERTIFIED = 18
STRICT_CERTIFIED = (("gated_ring", 6), ("gated_ring", 5), ("ring", 6))
STRICT_REFUTED = (("gated_ring", 5),)
# (atoms, negation only, the class gen.stratified_program gives it): one
# strict contraction and two plain contractions, so every run takes the
# same branches
CLASSIFY_PROGRAMS = ((10, True, "strict-contraction"),
                     (11, False, "contraction"),
                     (12, False, "contraction"))

ASYNC_CLI_SCHEDULES = 20


def _swap_second(table):
    flip = {(a, b): (a, 1 - b) for a, b in table}
    return {flip[s]: flip[t] for s, t in table.items()}


# Seed-independent: the operators on which the ultrametric search misses
# an existing box chain (ROADMAP open item 1).  Fixed inputs keep the
# failed share the same in every run.
GAP_OPERATORS = (gen.GAP_WITNESS, _swap_second(gen.GAP_WITNESS))


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    # False for calls dominated by numpy passes over large state-pair
    # matrices: the machine's slow phases barely touch them while they
    # slow the reference, so normalising them would add noise instead of
    # removing it.  Where that starts was measured per kind of call (see
    # RAW_FROM_STATES and README, "Noise").
    normalize: bool = True


# Per kind of call, the state count from which it is timed raw: strict
# checks from 2**12 paths' states (11 paths did better normalised),
# classification from 2**11 interpretations.
RAW_FROM_STATES = {"strict": 1 << 12, "classify": 1 << 11}


class Workload:
    """One round of items, the warm-up call, the speed reference and the
    tracing hook."""

    def __init__(self, name):
        self.name = name
        self.items: list[Item] = []
        self.warm_up: Callable[[], object] = lambda: None
        # (function timing the reference, its nominal seconds)
        self.reference = (calibrate.ref_time, calibrate.REF_S)
        # When set, cli runs its commands through cli_child.py and adds
        # what each child traced to this tracer.
        self.tracer = None
        self.child_import_ms: list[float] = []
        self.child_peak_rss_mb = 0.0  # cli: peak over the CLI children


def _ok(units, problems):
    return units, (units if problems else 0), problems


# -- campaign -----------------------------------------------------------------

def build_campaign(seed, workdir):
    from acokit import aco, cli, routing
    from acokit.iteration import DecomposedOperator

    items = []
    for k, (shape, size, granularity) in enumerate(ROUTING_CAMPAIGNS):
        rng = gen.rng_for(seed, "campaign-routing", k)
        nodes, arcs = getattr(gen, shape)(rng, *size)
        expected = oracles.shortest_path_state(nodes, arcs)
        run_seed = rng.randrange(1 << 30)

        def call(nodes=nodes, arcs=arcs, granularity=granularity,
                 run_seed=run_seed):
            inst = routing.make_instance(nodes, "d", arcs)
            return routing.solve(inst, "async", granularity=granularity,
                                 schedules=ROUTING_SCHEDULES, seed=run_seed)

        def check(result, expected=expected):
            problems = []
            if result.status != "converged" or result.fixed_point != expected:
                problems.append(f"status {result.status}, not the BFS state")
            bad = [r.seed for r in result.runs
                   if r.status != "converged" or r.final != expected]
            if bad:
                problems.append(f"runs {bad} missed the BFS state")
            return _ok(len(result.runs), problems)

        label = f"routing:{shape}{'x'.join(map(str, size))}:{granularity}"
        items.append(Item(label, call, check))

    for domains, count in CERTIFY_OPERATORS:
        for k in range(count):
            rng = gen.rng_for(seed, "campaign-certify", len(domains), k)
            table = gen.certified_table(rng, domains)
            fixed = oracles.box_hull_fixed_point(domains, table)
            run_seed = rng.randrange(1 << 30)

            def call(domains=domains, table=table, run_seed=run_seed):
                op = DecomposedOperator.from_table(domains, table)
                return aco.certify_aco(op, schedules=CERTIFY_SCHEDULES,
                                       seed=run_seed)

            def check(cert, domains=domains, table=table, fixed=fixed):
                problems = []
                runs = CERTIFY_SCHEDULES * len(table)
                if cert.verdict != "certified":
                    problems.append(f"verdict {cert.verdict}")
                    return _ok(runs, problems)
                seq = cert.box_sequence
                if tuple(seq.fixed_point) != fixed:
                    problems.append("fixed point differs from the box hull")
                error = oracles.recheck_box_chain(domains, table, seq.boxes,
                                                  seq.fixed_point)
                if error:
                    problems.append(error)
                s = cert.sampling
                if s["runs"] != runs or s["converged"] != runs:
                    problems.append(f"{s['converged']}/{s['runs']} runs "
                                    f"converged, expected {runs}")
                return _ok(runs, problems)

            items.append(Item(f"certify:{len(domains)}d:{k}", call, check))

    for k, n in enumerate(LOGIC_CAMPAIGN_ATOMS):
        rng = gen.rng_for(seed, "campaign-logic", k)
        clauses, model = gen.stratified_program(rng, n)
        path = workdir / f"campaign-logic-{k}.pl"
        path.write_text(gen.program_text(clauses))
        out = workdir / f"campaign-logic-{k}.json"
        argv = ["logic", "solve", str(path), "--mode", "async",
                "--schedules", str(LOGIC_SCHEDULES),
                "--seed", str(rng.randrange(1 << 30)), "--json", str(out)]

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code, out=out, model=model):
            doc = json.loads(out.read_text())
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if set(doc.get("model", ())) != model:
                problems.append("model differs from the stratified model")
            if doc.get("async_converged") != LOGIC_SCHEDULES:
                problems.append(f"{doc.get('async_converged')} runs reached "
                                "the model")
            return _ok(LOGIC_SCHEDULES, problems)

        items.append(Item(f"logic:{n}atoms", call, check))

    nodes, arcs = gen.ring(gen.rng_for(seed, "warm"), 3)
    warm = routing.make_instance(nodes, "d", arcs)
    return items, lambda: routing.solve(warm, "async", schedules=1)


# -- exhaustive ------------------------------------------------------------------

def build_exhaustive(seed):
    from acokit import aco, logic, routing
    from acokit.iteration import DecomposedOperator

    items = []
    census_certified = oracles.certified_count(((0, 1), (0, 1)))

    def census_check(census):
        problems = []
        if census.total != 256 or census.agreements != 256:
            problems.append(f"{census.agreements}/{census.total} agree")
        if census.aco_count != census_certified:
            problems.append(f"{census.aco_count} certified, box hull says "
                            f"{census_certified}")
        return _ok(1, problems)

    items.append(Item("census:2x2", lambda: aco.equivalence_census(),
                      census_check))

    domains = gen.DOMAINS_3X2
    family = oracles.HeightFamily(domains)
    rng = gen.rng_for(seed, "exhaustive-search")
    refuted, certified = [], []
    while len(refuted) < SEARCH_REFUTED:
        table = gen.one_fixed_point_table(rng, domains)
        if oracles.box_hull_fixed_point(domains, table) is None:
            refuted.append(table)
    while len(certified) < SEARCH_CERTIFIED:
        table = gen.certified_table(rng, domains)
        if family.qualifies(table):
            certified.append(table)
    tables = [(t, True) for t in GAP_OPERATORS]
    tables += [(t, False) for t in refuted + certified]
    for k, (table, known_gap) in enumerate(tables):
        fixed = oracles.box_hull_fixed_point(domains, table)

        def call(table=table):
            op = DecomposedOperator.from_table(domains, table)
            return aco.search_box_sequence(op), aco.search_ultrametric(op)

        def check(result, table=table, fixed=fixed, known_gap=known_gap):
            seq, metric = result
            problems, failed = [], 0
            if (seq is None) != (fixed is None):
                problems.append("box search verdict differs from the hull")
            elif seq is not None:
                error = oracles.recheck_box_chain(domains, table, seq.boxes,
                                                  seq.fixed_point)
                if error or tuple(seq.fixed_point) != fixed:
                    problems.append(error or "wrong fixed point")
            if metric is None and fixed is not None:
                if known_gap:
                    failed = 1
                else:
                    problems.append("ultrametric search missed a box chain")
            elif metric is not None and fixed is None:
                problems.append("ultrametric found where no box chain exists")
            elif metric is not None:
                states = gen.states_of(domains)
                dist = {(m, n): metric.distance_index(m, n)
                        for m in states for n in states}
                error = oracles.recheck_ultrametric(domains, table, dist)
                if error:
                    problems.append(error)
            return 2, (2 if problems else failed), problems

        items.append(Item(f"search:3x2:{k}", call, check))

    strict = [(shape, n, False) for shape, n in STRICT_CERTIFIED]
    strict += [(shape, n, True) for shape, n in STRICT_REFUTED]
    for k, (shape, n, longest_first) in enumerate(strict):
        rng = gen.rng_for(seed, "exhaustive-strict", k)
        nodes, arcs = getattr(gen, shape)(rng, n)
        paths = gen.simple_paths(nodes, arcs)
        pairs = gen.longest_first_pairs(nodes, arcs) if longest_first \
            else "hop-count"
        pref = oracles.PathPreference(paths, longest_first=longest_first)

        def call(nodes=nodes, arcs=arcs, pairs=pairs):
            inst = routing.make_instance(nodes, "d", arcs, preference=pairs)
            return routing.verify_strict_contraction(inst)

        def check(result, nodes=nodes, arcs=arcs, pref=pref,
                  longest_first=longest_first, size=1 << len(paths)):
            problems = []
            if result.pairs_checked != size * (size - 1) // 2:
                problems.append(f"{result.pairs_checked} pairs checked")
            if not longest_first and not result.ok:
                problems.append("hop-count instance refuted")
            if longest_first:
                if result.ok:
                    problems.append("longest-first instance certified")
                else:
                    error = oracles.recheck_violating_pair(
                        nodes, arcs, pref, result.witness)
                    if error:
                        problems.append(error)
            return _ok(1, problems)

        kind = "longest-first" if longest_first else "hop"
        raw = (1 << len(paths)) >= RAW_FROM_STATES["strict"]
        items.append(Item(f"strict:{shape}{n}:{len(paths)}paths:{kind}",
                          call, check, normalize=not raw))

    for k, (n, negation_only, expected) in enumerate(CLASSIFY_PROGRAMS):
        rng = gen.rng_for(seed, "exhaustive-classify", k)
        clauses, _ = gen.stratified_program(rng, n, negation_only=negation_only)
        text = gen.program_text(clauses)
        atoms = tuple(sorted({h for h, _ in clauses}))

        def call(text=text):
            return logic.classify_tp_contraction(logic.parse_program(text))

        def check(report, clauses=clauses, atoms=atoms, expected=expected):
            problems = []
            if report.classification != expected:
                problems.append(f"classified {report.classification}, "
                                f"the construction gives {expected}")
            error = oracles.recheck_classification(
                clauses, atoms, report.classification, report.witness)
            if error:
                problems.append(error)
            return _ok(1, problems)

        items.append(Item(f"classify:{n}atoms", call, check,
                          normalize=(1 << n) < RAW_FROM_STATES["classify"]))

    warm_op = DecomposedOperator.from_table(domains, certified[0])
    nodes, arcs = gen.gated_ring(rng, 3)
    warm_inst = routing.make_instance(nodes, "d", arcs)
    warm_prog = logic.parse_program(gen.program_text(
        gen.stratified_program(rng, 4)[0]))
    return items, lambda: (
        aco.search_box_sequence(warm_op), aco.search_ultrametric(warm_op),
        routing.verify_strict_contraction(warm_inst),
        logic.classify_tp_contraction(warm_prog))


# -- cli ---------------------------------------------------------------------------

def build_cli(seed, workdir, wl):
    root = HERE.parent
    corpus = root / "corpus"

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
        return str(path)

    def out(name):
        return str(workdir / name)

    rng = gen.rng_for(seed, "cli")
    items = []

    def run_child(cmd):
        """Run a CLI child and keep its peak memory apart from that of the
        reference processes, which RUSAGE_CHILDREN would mix in."""
        out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            child = subprocess.Popen(cmd, cwd=root, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wl.child_peak_rss_mb = max(wl.child_peak_rss_mb,
                                   usage.ru_maxrss / 1024)
        return subprocess.CompletedProcess(
            cmd, child.returncode, out_path.read_text(), err_path.read_text())

    def invoke(args):
        if wl.tracer is None:
            return run_child([sys.executable, "-m", "acokit.cli", *args])
        stats = workdir / "child-stats.json"
        proc = run_child(
            [sys.executable, str(HERE / "cli_child.py"), str(stats), *args])
        summary = json.loads(stats.read_text())
        wl.tracer.merge(summary)
        wl.child_import_ms.append(summary["import_ms"])
        return proc

    def add(label, args, check):
        items.append(Item(label, lambda: invoke(args), check))

    def expect(code, proc, problems):
        if proc.returncode != code:
            problems.append(f"exit {proc.returncode}, expected {code}: "
                            f"{proc.stderr.strip()[-200:]}")

    def routing_check(path, nodes, arcs):
        want = len(gen.simple_paths(nodes, arcs))

        def check(proc):
            problems = []
            expect(0, proc, problems)
            if "strictly inflationary: yes" not in proc.stdout:
                problems.append("hop-count instance not strictly inflationary")
            if f"paths: {want}\n" not in proc.stdout:
                problems.append(f"path count is not {want}")
            return _ok(1, problems)
        add(f"routing-check:{Path(path).name}", ["routing", "check", path],
            check)

    def routing_solve(path, nodes, arcs, extra=(), runs=0):
        """Sync unless ``extra`` says otherwise; async runs also write a
        trace, checked too."""
        expected = oracles.shortest_path_state(nodes, arcs)
        json_out = out(f"solve-{len(items)}.json")
        args = ["routing", "solve", path, "--json", json_out, *extra]
        trace_out = None
        if runs:
            trace_out = out(f"solve-{len(items)}.csv")
            args += ["--trace", trace_out]

        def check(proc):
            problems = []
            expect(0, proc, problems)
            doc = json.loads(Path(json_out).read_text())
            fixed = frozenset(tuple(p) for p in doc.get("fixed_point", ()))
            if doc["status"] != "converged" or fixed != expected:
                problems.append("fixed point differs from the BFS state")
            finals = [frozenset(tuple(p) for p in r["final"])
                      for r in doc.get("runs", ())]
            if len(finals) != runs or any(f != expected for f in finals):
                problems.append("async runs missed the BFS state")
            if trace_out:
                with open(trace_out, newline="") as fh:
                    last = list(csv.reader(fh))[-1]
                if last[0] != "summary" or "status=converged" not in last[3]:
                    problems.append(f"trace summary {last}")
            return _ok(1, problems)
        add(f"routing-solve:{Path(path).name}:{' '.join(extra[:2])}", args,
            check)

    nodes, arcs = gen.ring(rng, 6)
    routing_check(write("ring6.json", gen.instance_doc(nodes, arcs)),
                  nodes, arcs)
    multi2 = json.loads((corpus / "multi2.json").read_text())
    multi2_arcs = [tuple(a) for a in multi2["arcs"]]
    routing_check(str(corpus / "multi2.json"), multi2["nodes"], multi2_arcs)

    nodes, arcs = gen.grid(rng, 2, 3)
    routing_solve(write("grid2x3.json", gen.instance_doc(nodes, arcs)),
                  nodes, arcs)
    ring3 = json.loads((corpus / "ring3.json").read_text())
    routing_solve(str(corpus / "ring3.json"), ring3["nodes"],
                  [tuple(a) for a in ring3["arcs"]])
    nodes, arcs = gen.ring(rng, 5)
    routing_solve(write("ring5.json", gen.instance_doc(nodes, arcs)),
                  nodes, arcs,
                  ("--mode", "async", "--schedules", str(ASYNC_CLI_SCHEDULES),
                   "--seed", str(rng.randrange(1 << 30))),
                  runs=ASYNC_CLI_SCHEDULES)

    for n in (8, 12):
        clauses, model = gen.stratified_program(rng, n)
        path = write(f"program{n}.pl", gen.program_text(clauses))
        json_out = out(f"program{n}.json")

        def check(proc, json_out=json_out, model=model):
            problems = []
            expect(0, proc, problems)
            doc = json.loads(Path(json_out).read_text())
            if set(doc.get("model", ())) != model:
                problems.append("model differs from the stratified model")
            return _ok(1, problems)
        add(f"logic-solve:{n}atoms",
            ["logic", "solve", path, "--json", json_out], check)

    domains = gen.DOMAINS_3X2
    table = gen.certified_table(rng, domains)
    fixed = oracles.box_hull_fixed_point(domains, table)
    cert_path = write("certified.json", gen.operator_doc(domains, table))
    cert_out = out("certified-out.json")

    def certify_check(proc):
        problems = []
        expect(0, proc, problems)
        doc = json.loads(Path(cert_out).read_text())
        if doc["verdict"] != "certified":
            return _ok(1, [f"verdict {doc['verdict']}"])
        chain = doc["certificate"]
        boxes = [[tuple(c) for c in box] for box in chain["boxes"]]
        error = oracles.recheck_box_chain(domains, table, boxes,
                                          tuple(chain["fixed_point"]))
        if error or tuple(chain["fixed_point"]) != fixed:
            problems.append(error or "fixed point differs from the hull")
        s = doc["sampling"]
        if s["runs"] != 3 * len(table) or s["converged"] != s["runs"]:
            problems.append(f"{s['converged']}/{s['runs']} runs converged")
        return _ok(1, problems)
    add("aco-certify:certified", ["aco", "certify", cert_path, "--schedules",
                                  "3", "--seed", str(rng.randrange(1 << 30)),
                                  "--json", cert_out], certify_check)

    while True:
        refuted = gen.one_fixed_point_table(rng, domains)
        if oracles.box_hull_fixed_point(domains, refuted) is None:
            break
    ref_path = write("refuted.json", gen.operator_doc(domains, refuted))
    ref_out = out("refuted-out.json")

    def refute_check(proc):
        problems = []
        expect(1, proc, problems)
        if json.loads(Path(ref_out).read_text())["verdict"] != "refuted":
            problems.append("operator without a box chain certified")
        return _ok(1, problems)
    add("aco-certify:refuted", ["aco", "certify", ref_path, "--schedules",
                                "3", "--json", ref_out], refute_check)

    census_certified = oracles.certified_count(((0, 1), (0, 1)))
    census_out = out("census.json")

    def census_check(proc):
        problems = []
        expect(0, proc, problems)
        doc = json.loads(Path(census_out).read_text())
        if (doc["operators"], doc["agreements"], doc["certified"]) != \
                (256, 256, census_certified):
            problems.append(f"census {doc['agreements']}/{doc['operators']}, "
                            f"{doc['certified']} certified")
        return _ok(1, problems)
    add("aco-census", ["aco", "census", "--json", census_out], census_check)

    space_doc = gen.height_space_doc(rng, 12)
    space_path = write("space.json", space_doc)
    space_out = out("space-out.json")

    def space_check(proc):
        problems = []
        expect(0, proc, problems)
        doc = json.loads(Path(space_out).read_text())
        if not (doc["axioms_ok"] and doc["isosceles_ok"]
                and doc["spherically_complete"]):
            problems.append("valid height space rejected")
        return _ok(1, problems)
    add("space-check:valid", ["space", "check", space_path, "--json",
                              space_out], space_check)

    broken_doc = gen.broken_space_doc(rng, 12)
    broken_path = write("broken.json", broken_doc)
    broken_out = out("broken-out.json")

    def broken_check(proc):
        problems = []
        expect(1, proc, problems)
        doc = json.loads(Path(broken_out).read_text())
        triangles = [v["witness"] for v in doc["violations"]
                     if v["axiom"] == "strong-triangle"]
        if doc["axioms_ok"] or not triangles:
            problems.append("broken space passed the axiom check")
        for witness in triangles:
            error = oracles.recheck_triangle_violation(broken_doc, witness)
            if error:
                problems.append(error)
                break
        return _ok(1, problems)
    add("space-check:broken", ["space", "check", broken_path, "--json",
                               broken_out], broken_check)

    # ROADMAP item 5: the runs all converge (to two different states), yet
    # the status says the horizon ran out.  Fixed input, so this fails in
    # every round of every run.
    repaired_out = out("repaired.json")

    def repaired_check(proc):
        problems = []
        expect(1, proc, problems)
        doc = json.loads(Path(repaired_out).read_text())
        all_converged = all(r["status"] == "converged" for r in doc["runs"])
        failed = int(doc["status"] == "horizon-exhausted" and all_converged)
        return 1, (1 if problems else failed), problems
    add("routing-solve:disagree_repaired", [
        "routing", "solve", str(corpus / "disagree_repaired.json"),
        "--mode", "async", "--force", "--schedules", "20",
        "--json", repaired_out], repaired_check)

    return items, lambda: invoke(["routing", "check",
                                  str(corpus / "ring3.json")])


def build(name, seed, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name)
    if name == "campaign":
        wl.items, wl.warm_up = build_campaign(seed, workdir)
    elif name == "exhaustive":
        wl.items, wl.warm_up = build_exhaustive(seed)
    elif name == "cli":
        wl.items, wl.warm_up = build_cli(seed, workdir, wl)
        wl.reference = (calibrate.start_ref_time, calibrate.START_REF_S)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
