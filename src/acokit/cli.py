"""Command-line entry point.

Subcommands: ``space check``, ``aco certify``, ``aco census``,
``routing check``, ``routing solve``, ``logic solve``, ``run sync|async``.
Exit codes: 0 success or certified, 1 refuted or failed checks, 2
malformed input or size limits.

All randomness flows from the ``--seed`` flag (schedule ``i`` of a
campaign uses ``seed + i``); repeated invocations with the same
configuration produce byte-identical stdout and files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import sys

from . import aco, iteration, logic, routing, ultrametric
from .errors import PreconditionError, PreferenceCycleError
from .util import format_value, jsonable

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

log = logging.getLogger("acokit")

# what a handler returns: its exit code, its --trace text and its --json
# payload, None for no file
_Outcome = tuple[int, str | None, dict | None]


def trace_csv(trajectory, distances=None, value_format=format_value) -> str:
    """A run as CSV: one row per (tick, processor) plus a summary row.

    Columns: t, processor, activated, value, dist_to_fixpoint.  The
    distance column carries the state's distance label when given and is
    empty otherwise; it is recorded, never asserted monotone.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "processor", "activated", "value",
                     "dist_to_fixpoint"])
    for t, state in enumerate(trajectory.states):
        if t == 0:
            active = frozenset()
        elif trajectory.activations is not None:
            active = trajectory.activations[t - 1]
        else:
            active = frozenset(range(len(state)))
        dist = "" if distances is None else str(distances[t])
        for i, value in enumerate(state):
            writer.writerow(
                [t, i, "yes" if i in active else "no",
                 value_format(value), dist])
    conv = ("none" if trajectory.converged_at is None
            else str(trajectory.converged_at))
    writer.writerow(
        ["summary", "", "",
         f"converged_at={conv};status={trajectory.status}", ""])
    return out.getvalue()


def _campaign_args(args: argparse.Namespace) -> dict:
    """The campaign flags, passed the same way to every campaign.

    They are checked as a campaign checks them, also in the synchronous
    modes that run none, so a value is accepted or rejected alike in
    every mode.  A sampled schedule checks its flags when it is made and
    draws no tick until a run reads one.
    """
    iteration.check_schedules(args.schedules)
    iteration.sample_schedule(1, args.horizon, args.seed,
                              activation_prob=args.activation_prob,
                              max_staleness=args.staleness,
                              fairness_window=args.window)
    return dict(schedules=args.schedules, seed=args.seed,
                horizon=args.horizon, staleness=args.staleness,
                window=args.window, activation_prob=args.activation_prob)


def _write_files(files):
    """Write each ``(path, text)`` in order.  When a write fails, remove
    every file written so far, the failing one included once it exists,
    and re-raise."""
    written = []
    try:
        for path, text in files:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def _cmd_space_check(args: argparse.Namespace) -> _Outcome:
    space = ultrametric.load_space(args.instance)
    axioms = ultrametric.check_axioms(space)
    isosceles = ultrametric.check_isosceles(space)
    complete = ultrametric.check_spherical_completeness(space)
    print(f"file: {args.instance}")
    print(f"elements: {len(space.elements)}")
    print(f"scale: {' < '.join(str(v) for v in space.scale.values)}")
    print(f"axioms: {'ok' if axioms.ok else 'FAIL'}")
    for violation in axioms.violations[:10]:
        witness = " ".join(str(w) for w in violation.witness)
        print(f"  {violation.axiom} violated at: {witness}")
    print(f"isosceles: {'ok' if isosceles.ok else 'FAIL'}")
    print(f"spherically complete: {'ok' if complete.ok else 'FAIL'}")
    ok = axioms.ok and isosceles.ok and complete.ok
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL, None, {
        "file": args.instance,
        "elements": len(space.elements),
        "axioms_ok": axioms.ok,
        "isosceles_ok": isosceles.ok,
        "spherically_complete": complete.ok,
        "violations": [
            {"axiom": v.axiom, "witness": jsonable(v.witness)}
            for v in axioms.violations[:50]],
    }


def _render_box(box) -> str:
    return " x ".join(
        "{" + ",".join(format_value(v) for v in comp) + "}" for comp in box)


def _cmd_aco_certify(args: argparse.Namespace) -> _Outcome:
    op, _ = iteration.load_operator(args.instance)
    cert = aco.certify_aco(op, **_campaign_args(args))
    print(f"file: {args.instance}")
    print(f"verdict: {cert.verdict}")
    if cert.certified:
        seq = cert.box_sequence
        print(f"fixed point: {format_value(seq.fixed_point)}")
        print(f"boxes: {len(seq.boxes)}")
        for r, box in enumerate(seq.boxes):
            print(f"  box {r}: {_render_box(box)}")
        s = cert.sampling
        print(f"sampling: runs={s['runs']} converged={s['converged']} "
              f"horizon_exhausted={s['horizon_exhausted']} "
              f"max_tick={s['max_converged_tick']}")
    else:
        print(f"reason: {cert.refutation['reason']}")
        fps = cert.refutation["fixed_points"]
        rendered = ",".join(format_value(m) for m in fps) if fps else "none"
        print(f"fixed points: {rendered}")
        print(f"stalled at: {_render_box(cert.refutation['stalled_box'])}")
    return EXIT_OK if cert.certified else EXIT_FAIL, None, cert.to_json_dict()


def _cmd_aco_census(args: argparse.Namespace) -> _Outcome:
    census = aco.equivalence_census()
    print(f"operators: {census.total}")
    print(f"verdicts agree on {census.agreements}/{census.total} operators")
    print(f"certified: {census.aco_count}")
    print(f"result: {'PASS' if census.ok else 'FAIL'}")
    return EXIT_OK if census.ok else EXIT_FAIL, None, {
        "operators": census.total,
        "agreements": census.agreements,
        "certified": census.aco_count,
        "mismatches": jsonable(census.mismatches),
    }


def _cmd_routing_check(args: argparse.Namespace) -> _Outcome:
    try:
        instance = routing.load_instance(args.instance)
    except PreferenceCycleError as exc:
        print(f"file: {args.instance}")
        print("preference: REJECTED (strict preference cycle)")
        print("cycle: " + " -> ".join(routing.format_path(p) for p in exc.cycle))
        return EXIT_FAIL, None, None
    report = routing.check_strictly_inflationary(instance)
    print(f"file: {args.instance}")
    print(f"paths: {len(instance.paths)}")
    print(f"strictly inflationary: {'yes' if report.ok else 'NO'}")
    if not report.ok:
        arc, p = report.witness
        print(f"witness: arc ({arc[0]} {arc[1]}), path {routing.format_path(p)}")
    return EXIT_OK if report.ok else EXIT_FAIL, None, None


def _routing_distances(instance, trajectory, fixed_point):
    if fixed_point is None:
        return None
    out = []
    for comps in trajectory.states:
        state = routing.components_to_state(comps)
        out.append(routing.state_distance(instance, state, fixed_point))
    return out


def _routing_value(value) -> str:
    if isinstance(value, frozenset):
        return routing.format_state(value)
    return format_value(value)


def _cmd_routing_solve(args: argparse.Namespace) -> _Outcome:
    try:
        instance = routing.load_instance(args.instance)
    except PreferenceCycleError as exc:
        print("preference: REJECTED (strict preference cycle)")
        print("cycle: " + " -> ".join(routing.format_path(p) for p in exc.cycle))
        return EXIT_FAIL, None, None
    result = routing.solve(
        instance, args.mode, granularity=args.granularity,
        max_steps=args.max_steps, force=args.force,
        **_campaign_args(args))
    print(f"file: {args.instance}")
    print(f"mode: {args.mode}")
    print(f"granularity: {args.granularity}")
    print(f"status: {result.status}")
    payload = {
        "file": args.instance,
        "mode": args.mode,
        "granularity": args.granularity,
        "status": result.status,
    }
    if result.status == "converged":
        print(f"fixed point: {routing.format_state(result.fixed_point)}")
        print(f"stable: {'yes' if result.stable else 'NO'}")
        payload["fixed_point"] = jsonable(result.fixed_point)
        payload["stable"] = result.stable
    if result.status == "cycle":
        print(f"cycle length: {len(result.cycle)}")
        for state in result.cycle:
            print(f"  state: {routing.format_state(state)}")
        payload["cycle"] = jsonable(result.cycle)
    if result.status == "divergent":
        print(f"distinct finals: {len(result.finals)}")
        for state in result.finals:
            print(f"  final: {routing.format_state(state)}")
        payload["finals"] = jsonable(result.finals)
    if args.mode == "sync":
        conv = result.trajectory.converged_at
        print(f"converged_at: {'none' if conv is None else conv}")
        payload["converged_at"] = conv
    if args.mode == "async":
        converged = sum(1 for r in result.runs if r.status == "converged")
        print(f"schedules: {args.schedules}")
        print(f"converged: {converged}/{len(result.runs)}")
        ticks = [r.converged_at for r in result.runs
                 if r.converged_at is not None]
        if ticks:
            print(f"max convergence tick: {max(ticks)}")
            payload["max_convergence_tick"] = max(ticks)
        payload["runs"] = [
            {"seed": r.seed, "status": r.status,
             "converged_at": r.converged_at,
             "final": jsonable(r.final)} for r in result.runs]
        payload["stats"] = result.stats
    trace = None
    if args.trace:
        trajectory = result.trajectory
        if args.mode == "async":
            # a campaign keeps no trajectory: replay its first run, the
            # one under the schedule for --seed
            op = routing.decompose(instance, args.granularity)
            trajectory = iteration.run_async(
                op, routing.state_to_components(
                    instance, args.granularity, frozenset()),
                iteration.sample_schedule(
                    op.processors, args.horizon, args.seed,
                    activation_prob=args.activation_prob,
                    max_staleness=args.staleness,
                    fairness_window=args.window))
        trace = trace_csv(trajectory,
                          distances=_routing_distances(
                              instance, trajectory, result.fixed_point),
                          value_format=_routing_value)
    return EXIT_OK if result.status == "converged" else EXIT_FAIL, trace, payload


def _cmd_logic_solve(args: argparse.Namespace) -> _Outcome:
    campaign_args = _campaign_args(args)
    program = logic.load_program(args.instance)
    strat_result = logic.find_stratification(program)
    print(f"file: {args.instance}")
    print(f"atoms: {len(program.atoms)}")
    if not strat_result.ok:
        print("stratification: REJECTED")
        print("negative cycle: " + " -> ".join(strat_result.witness))
        return EXIT_FAIL, None, None
    strat = strat_result.stratification
    print("strata: " + " ".join(
        f"{a}={lvl}" for a, lvl in strat.levels))
    result = logic.compute_perfect_model(program)
    payload = {
        "file": args.instance,
        "atoms": list(program.atoms),
        "strata": {a: lvl for a, lvl in strat.levels},
        "status": result.status,
    }
    if result.status != "converged":
        print(f"status: {result.status}")
        return EXIT_FAIL, None, payload
    print(f"model: {_fmt_interp(result.model)}")
    print(f"steps: {result.steps}")
    print("trajectory: " + " -> ".join(
        _fmt_interp(i) for i in result.trajectory))
    payload["model"] = jsonable(result.model)
    payload["steps"] = result.steps
    ok = True
    if args.mode == "async":
        op = logic.decompose_program(program)
        start = tuple(False for _ in program.atoms)
        target = logic.interp_to_tuple(program, result.model)
        runs = iteration.campaign(op, [start], **campaign_args)
        ticks = [r.converged_at for r in runs
                 if r.status == "converged" and r.final == target]
        converged = len(ticks)
        print(f"schedules: {args.schedules}")
        print(f"converged to model: {converged}/{args.schedules}")
        if converged:
            print(f"max convergence tick: {max(ticks)}")
        payload["async_converged"] = converged
        payload["async_schedules"] = args.schedules
        payload["stats"] = iteration.campaign_stats(op, runs)
        ok = converged == args.schedules
    trace = None
    if args.trace:
        sync_traj = iteration.Trajectory(tuple(  # a converged iteration
            logic.interp_to_tuple(program, i) for i in result.trajectory),
            result.steps - 1, result.status)
        distances = [
            str(logic.interpretation_distance(strat, i, result.model))
            for i in result.trajectory]
        trace = trace_csv(sync_traj, distances=distances)
    return EXIT_OK if ok else EXIT_FAIL, trace, payload


def _fmt_interp(interp) -> str:
    return "{" + ",".join(sorted(interp)) + "}"


def _cmd_run(args: argparse.Namespace) -> _Outcome:
    op, start = iteration.load_operator(args.instance)
    if start is None:
        start = tuple(dom[0] for dom in op.domains)
    if args.mode == "sync":
        steps = args.max_steps if args.max_steps is not None \
            else op.size() + 1
        traj = iteration.run_sync(op, start, steps)
    else:
        if args.schedule_file:
            schedule = iteration.load_schedule(args.schedule_file)
        else:
            schedule = iteration.sample_schedule(
                op.processors, args.horizon, args.seed,
                activation_prob=args.activation_prob,
                max_staleness=args.staleness,
                fairness_window=args.window)
        traj = iteration.run_async(op, start, schedule)
    print(f"file: {args.instance}")
    print(f"processors: {op.processors}")
    print(f"mode: {args.mode}")
    print(f"status: {traj.status}")
    conv = traj.converged_at
    print(f"converged_at: {'none' if conv is None else conv}")
    print(f"final: {format_value(traj.final)}")
    if traj.status == "cycle":
        print(f"cycle: start={traj.cycle_start} length={traj.cycle_length}")
    trace = trace_csv(traj) if args.trace else None
    return EXIT_OK if traj.status == "converged" else EXIT_FAIL, trace, None


def _add_sampling_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=int, default=200)
    parser.add_argument("--max-staleness", type=int, default=5, dest="staleness")
    parser.add_argument("--fairness-window", type=int, default=8, dest="window")
    parser.add_argument("--activation-prob", type=float, default=0.5)


def _add_campaign_flags(parser: argparse.ArgumentParser):
    _add_sampling_flags(parser)
    parser.add_argument("--schedules", type=int, default=100,
                        help="number of sampled schedules in a campaign")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acokit",
        description="Certify and simulate asynchronously contracting operators")
    # each leaf names its handler; the dests only name a missing command
    # in argparse's usage error
    sub = parser.add_subparsers(dest="group", required=True)

    space = sub.add_parser("space", help="ultrametric space files")
    space_sub = space.add_subparsers(dest="action", required=True)
    p = space_sub.add_parser("check", help="verify the axioms of a space file")
    p.set_defaults(handler=_cmd_space_check)
    p.add_argument("instance")
    p.add_argument("--json", dest="json_out")

    aco_p = sub.add_parser("aco", help="operator certification")
    aco_sub = aco_p.add_subparsers(dest="action", required=True)
    p = aco_sub.add_parser("certify", help="certify an operator file")
    p.set_defaults(handler=_cmd_aco_certify)
    p.add_argument("instance")
    p.add_argument("--json", dest="json_out")
    _add_campaign_flags(p)
    p = aco_sub.add_parser("census",
                           help="cross-check both searches on all 2x2 operators")
    p.set_defaults(handler=_cmd_aco_census)
    p.add_argument("--json", dest="json_out")

    routing_p = sub.add_parser("routing", help="path selection instances")
    routing_sub = routing_p.add_subparsers(dest="action", required=True)
    p = routing_sub.add_parser("check", help="validate an instance file")
    p.set_defaults(handler=_cmd_routing_check)
    p.add_argument("instance")
    p = routing_sub.add_parser("solve", help="run an instance to stability")
    p.set_defaults(handler=_cmd_routing_solve)
    p.add_argument("instance")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--granularity", choices=routing.GRANULARITIES,
                   default=routing.PER_NODE)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="run even when the instance is not strictly inflationary")
    p.add_argument("--trace", help="write a CSV trace here")
    p.add_argument("--json", dest="json_out")
    _add_campaign_flags(p)

    logic_p = sub.add_parser("logic", help="stratified logic programs")
    logic_sub = logic_p.add_subparsers(dest="action", required=True)
    p = logic_sub.add_parser("solve", help="compute the perfect model")
    p.set_defaults(handler=_cmd_logic_solve)
    p.add_argument("instance")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--trace", help="write a CSV trace here")
    p.add_argument("--json", dest="json_out")
    _add_campaign_flags(p)

    run_p = sub.add_parser("run", help="iterate an operator file")
    run_sub = run_p.add_subparsers(dest="action", required=True)
    sync_p = run_sub.add_parser("sync")
    sync_p.add_argument("--max-steps", type=int, default=None)
    async_p = run_sub.add_parser("async")
    async_p.add_argument("--schedule", dest="schedule_file",
                         help="schedule file instead of sampling")
    _add_sampling_flags(async_p)
    for mode, p in (("sync", sync_p), ("async", async_p)):
        p.set_defaults(handler=_cmd_run, mode=mode)
        p.add_argument("instance")
        p.add_argument("--trace", help="write a CSV trace here")

    return parser


def main(argv=None) -> int:
    level = os.environ.get("ACOKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    # a handler prints its report into ``text``; a rejected command,
    # unwritable --trace and --json paths included, leaves stdout empty
    # and no file behind
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            code, trace, payload = args.handler(args)
        files = [] if trace is None else [(args.trace, trace)]
        if payload is not None and args.json_out:
            files.append((args.json_out, json.dumps(
                payload, indent=2, sort_keys=True) + "\n"))
        _write_files(files)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        # malformed input (bad JSON included), size limits, rejected
        # sampling parameters, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    sys.stdout.write(text.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
