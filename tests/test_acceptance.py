"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every check is exact; elapsed seconds are informational.
"""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from acokit import aco, logic, routing
from acokit.aco import box_members
from acokit.errors import PreferenceCycleError
from acokit.iteration import DecomposedOperator, campaign
from acokit.ultrametric import (
    ProductSpace,
    RadiusScale,
    check_axioms,
    check_isosceles,
    height_space,
    string_space,
)

from conftest import ball_from_labels, corpus_path, logic_corpus_paths

STATES22 = list(itertools.product((0, 1), (0, 1)))


def _report(number, name, elapsed):
    print(f"[criterion {number}] PASS {name} ({elapsed:.1f}s)")


def test_criterion_1_equivalence_census():
    t0 = time.time()
    census = aco.equivalence_census()
    assert census.total == 256
    assert census.agreements == 256
    assert census.mismatches == ()
    _report(1, "256-operator census: both searches agree", time.time() - t0)


def _corpus_operators():
    pairs = []
    for fname in ("ring3.json", "multi2.json", "single_arc.json"):
        inst = routing.load_instance(corpus_path(fname))
        for granularity in (routing.PER_NODE, routing.PER_PATH):
            op = routing.decompose(inst, granularity)
            space = routing.state_space(inst, granularity)
            pairs.append((f"{fname}:{granularity}", op,
                          aco.boxes_from_ultrametric(space, op)))
    return pairs


def test_criterion_2_construction_round_trip():
    t0 = time.time()
    cases = []
    for images in itertools.product(STATES22, repeat=4):
        table = dict(zip(STATES22, images))
        op = DecomposedOperator.from_table(((0, 1), (0, 1)), table)
        seq = aco.search_box_sequence(op)
        if seq is not None:
            cases.append(("census", op, seq))
    cases.extend(_corpus_operators())
    assert cases
    for name, op, seq in cases:
        assert aco.verify_box_sequence(op, seq).ok, name
        space = aco.ultrametric_from_boxes(seq)
        balls = []
        for r in range(len(space.scale)):
            members = ball_from_labels(space, seq.fixed_point, r)
            assert members == {
                e for e in space.elements
                if space.distance_index(seq.fixed_point, e) <= r}, name
            if members not in balls:
                balls.append(members)
        expected = [frozenset(box_members(b)) for b in seq.boxes]
        assert balls == expected, name
        again = aco.boxes_from_ultrametric(space, op)
        assert again.boxes == seq.boxes, name
        assert aco.verify_box_sequence(op, again).ok, name
    _report(2, f"round trips on {len(cases)} certified operators",
            time.time() - t0)


def test_criterion_3_ultrametric_axioms():
    t0 = time.time()
    spaces = []

    spaces.append(("strings", string_space(
        ("", "a", "b", "ab", "ba", "abc", "abd", "x", "yx"))))

    rng = random.Random(5)
    for trial in range(6):
        elements = tuple(f"e{trial}_{i}" for i in range(rng.randint(2, 8)))
        heights = {e: rng.randint(1, 5) for e in elements}
        spaces.append((f"heights-{trial}", height_space(elements, heights)))

    scale = RadiusScale((0, 1, 2, 3))
    for trial in range(4):
        comps = []
        for i in range(rng.randint(2, 3)):
            elements = tuple(
                f"p{trial}_{i}_{j}" for j in range(rng.randint(2, 3)))
            heights = {e: rng.randint(1, 3) for e in elements}
            comps.append(height_space(elements, heights, scale))
        spaces.append((f"product-{trial}", ProductSpace(tuple(comps))))

    for fname in ("ring3.json", "multi2.json"):
        inst = routing.load_instance(corpus_path(fname))
        for granularity in (routing.PER_NODE, routing.PER_PATH):
            spaces.append((f"{fname}:{granularity}",
                           routing.state_space(inst, granularity)))

    small_programs = 0
    for path in logic_corpus_paths():
        program = logic.load_program(path)
        if len(program.atoms) > 8:
            continue
        small_programs += 1
        strat = logic.find_stratification(program).stratification
        spaces.append((os.path.basename(path),
                       logic.interpretation_space(program, strat)))
    assert small_programs >= 8

    for name, space in spaces:
        assert check_axioms(space).ok, name
        assert check_isosceles(space).ok, name
    _report(3, f"axioms and isosceles on {len(spaces)} spaces",
            time.time() - t0)


def test_criterion_4_strict_contraction_exhaustive():
    t0 = time.time()
    for fname in ("ring3.json", "multi2.json", "single_arc.json"):
        inst = routing.load_instance(corpus_path(fname))
        report = routing.verify_strict_contraction(inst)
        assert report.ok, fname
    repaired = routing.load_instance(corpus_path("disagree_repaired.json"))
    report = routing.verify_strict_contraction(repaired)
    assert not report.ok
    m, n = report.witness
    before = routing.state_distance(repaired, m, n)
    after = routing.state_distance(
        repaired, routing.sigma_step(repaired, m),
        routing.sigma_step(repaired, n))
    assert after >= before > 0
    _report(4, "exhaustive strict-contraction checks", time.time() - t0)


def test_criterion_5_async_convergence_campaign():
    t0 = time.time()
    for fname in ("ring3.json", "multi2.json"):
        inst = routing.load_instance(corpus_path(fname))
        sync_fp = routing.solve(inst, "sync").fixed_point
        converged = 0
        total = 0
        for granularity in (routing.PER_NODE, routing.PER_PATH):
            op = routing.decompose(inst, granularity)
            start = routing.state_to_components(inst, granularity,
                                                frozenset())
            for run in campaign(op, [start], schedules=100, seed=0,
                                horizon=200, staleness=5, window=8,
                                activation_prob=0.5):
                total += 1
                if run.status == "converged" and \
                        routing.components_to_state(run.final) == sync_fp:
                    converged += 1
        assert (converged, total) == (200, 200), fname
    _report(5, "200/200 async runs per instance reach the sync fixed point",
            time.time() - t0)


def test_criterion_6_disagree_behavior():
    t0 = time.time()
    with pytest.raises(PreferenceCycleError) as exc:
        routing.load_instance(corpus_path("disagree.json"))
    assert exc.value.cycle[0] == exc.value.cycle[-1]

    repaired = routing.load_instance(corpus_path("disagree_repaired.json"))
    start = frozenset({("d",), ("1", "d"), ("2", "d")})
    result = routing.solve(repaired, "sync", start=start, force=True)
    assert result.status == "cycle"
    assert set(result.cycle) == {
        frozenset({("d",), ("1", "d"), ("2", "d")}),
        frozenset({("d",), ("1", "2", "d"), ("2", "1", "d")}),
    }
    _report(6, "cyclic preferences rejected; forced run oscillates with "
               "period 2", time.time() - t0)


def test_criterion_7_logic_semantics():
    t0 = time.time()
    programs = [(os.path.basename(p), logic.load_program(p))
                for p in logic_corpus_paths()]
    assert len(programs) >= 10
    for name, program in programs:
        assert len(program.atoms) <= 12, name
        result = logic.compute_perfect_model(program)
        assert result.status == "converged", name
        oracle = logic.perfect_model_by_strata(program,
                                               result.stratification)
        assert result.model == oracle, name
    three = logic.load_program(corpus_path("logic", "three_clause.pl"))
    result = logic.compute_perfect_model(three)
    assert [sorted(i) for i in result.trajectory] == [
        [], ["p", "q"], ["q", "r"], ["q"], ["q"]]
    _report(7, f"perfect model equals the stratified oracle on "
               f"{len(programs)} programs", time.time() - t0)


def test_criterion_8_per_atom_async_logic():
    t0 = time.time()
    qualifying = []
    for path in logic_corpus_paths():
        program = logic.load_program(path)
        report = logic.classify_tp_contraction(program)
        if report.qualifies():
            qualifying.append((os.path.basename(path), program))
    assert qualifying, "some corpus programs must classify as contracting"
    for name, program in qualifying:
        model = logic.compute_perfect_model(program).model
        target = logic.interp_to_tuple(program, model)
        op = logic.decompose_program(program)
        start = tuple(False for _ in program.atoms)
        runs = campaign(op, [start], schedules=100, seed=0, horizon=200,
                        staleness=5, window=8, activation_prob=0.5)
        assert len(runs) == 100
        for run in runs:
            assert run.status == "converged", (name, run.seed)
            assert run.final == target, (name, run.seed)
    _report(8, f"100/100 per-atom async runs on {len(qualifying)} "
               f"qualifying programs", time.time() - t0)


def test_criterion_9_campaign_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for run in range(2):
        trace = tmp_path / f"t{run}.csv"
        summary = tmp_path / f"s{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "acokit.cli", "routing", "solve",
             corpus_path("ring3.json"), "--mode", "async",
             "--schedules", "10", "--seed", "24",
             "--trace", str(trace), "--json", str(summary)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(run + 1)))
        outputs.append((proc.stdout, trace.read_bytes(),
                        summary.read_bytes()))
    assert outputs[0] == outputs[1]

    census = []
    for run in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "acokit.cli", "aco", "census"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(3 * run + 5)))
        census.append(proc.stdout)
    assert census[0] == census[1]

    logic_out = []
    for run in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "acokit.cli", "logic", "solve",
             corpus_path("logic", "eight_atoms.pl"), "--mode", "async",
             "--schedules", "5", "--seed", "9"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(11 * run + 2)))
        logic_out.append(proc.stdout)
    assert logic_out[0] == logic_out[1]
    _report(9, "byte-identical campaigns across hash seeds",
            time.time() - t0)
