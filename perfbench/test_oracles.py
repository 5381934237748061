"""Tests of the benchmark's own oracles against acokit and against
deliberately wrong witnesses.

Run from the repository root:
``python -m pytest perfbench/test_oracles.py -q``.
"""

import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
from acokit import aco, logic, routing  # noqa: E402
from acokit.iteration import DecomposedOperator  # noqa: E402

DOMAINS_2X2 = ((0, 1), (0, 1))


def _op(domains, table):
    return DecomposedOperator.from_table(domains, table)


def _random_tables(domains, count, seed):
    rng = random.Random(seed)
    states = gen.states_of(domains)
    for _ in range(count):
        yield {s: rng.choice(states) for s in states}


def _all_2x2_tables():
    states = gen.states_of(DOMAINS_2X2)
    for images in itertools.product(states, repeat=len(states)):
        yield dict(zip(states, images))


def _box_verdicts_agree(domains, tables):
    for table in tables:
        seq = aco.search_box_sequence(_op(domains, table))
        hull = oracles.box_hull_fixed_point(domains, table)
        assert (seq is None) == (hull is None), table
        if seq is not None:
            assert seq.fixed_point == hull
            assert oracles.recheck_box_chain(
                domains, table, seq.boxes, seq.fixed_point) is None


def test_box_hull_agrees_on_all_2x2():
    _box_verdicts_agree(DOMAINS_2X2, _all_2x2_tables())


def test_box_hull_agrees_on_random_3x2():
    _box_verdicts_agree(gen.DOMAINS_3X2,
                        _random_tables(gen.DOMAINS_3X2, 3000, 1))


def test_box_hull_agrees_on_random_2x2x2():
    _box_verdicts_agree(gen.DOMAINS_2X2X2,
                        _random_tables(gen.DOMAINS_2X2X2, 3000, 2))


def test_height_family_agrees_with_search_ultrametric():
    cases = [(DOMAINS_2X2, t) for t in _all_2x2_tables()]
    rng = random.Random(3)
    cases += [(gen.DOMAINS_3X2, gen.one_fixed_point_table(rng, gen.DOMAINS_3X2))
              for _ in range(150)]
    families = {}
    for domains, table in cases:
        family = families.setdefault(domains, oracles.HeightFamily(domains))
        found = aco.search_ultrametric(_op(domains, table))
        assert family.qualifies(table) == (found is not None), table
        if found is not None:
            states = gen.states_of(domains)
            dist = {(m, n): found.distance_index(m, n)
                    for m in states for n in states}
            assert oracles.recheck_ultrametric(domains, table, dist) is None


def test_gap_witness_is_the_known_disagreement():
    domains, table = gen.DOMAINS_3X2, gen.GAP_WITNESS
    assert oracles.box_hull_fixed_point(domains, table) == (2, 1)
    assert not oracles.HeightFamily(domains).qualifies(table)


def test_certified_generator():
    rng = random.Random(4)
    for domains in (gen.DOMAINS_3X2, gen.DOMAINS_2X2X2):
        for _ in range(200):
            table = gen.certified_table(rng, domains)
            assert set(table) == set(gen.states_of(domains))
            assert oracles.box_hull_fixed_point(domains, table) is not None


def test_shortest_paths_match_solve():
    rng = random.Random(5)
    shapes = [gen.ring(rng, 7), gen.ring(rng, 9), gen.ring(rng, 12),
              gen.grid(rng, 2, 3)]
    for nodes, arcs in shapes:
        inst = routing.make_instance(nodes, "d", arcs)
        assert 12 <= len(inst.paths) <= 23
        expected = oracles.shortest_path_state(nodes, arcs)
        assert routing.solve(inst, "sync").fixed_point == expected


def test_generated_models_match_perfect_model():
    rng = random.Random(6)
    for n in (4, 8, 12):
        for _ in range(30):
            clauses, model = gen.stratified_program(rng, n)
            program = logic.parse_program(gen.program_text(clauses))
            assert len(program.atoms) == n
            assert logic.compute_perfect_model(program).model == model
            strata = oracles.minimal_strata(clauses)
            found = logic.find_stratification(program).stratification
            assert dict(found.levels) == strata


def test_classification_witnesses_recheck():
    rng = random.Random(7)
    for k in range(20):
        negation_only = k % 2 == 0
        clauses, _ = gen.stratified_program(rng, 8, negation_only=negation_only)
        program = logic.parse_program(gen.program_text(clauses))
        report = logic.classify_tp_contraction(program)
        assert report.classification == (
            "strict-contraction" if negation_only else "contraction")
        assert oracles.recheck_classification(
            clauses, program.atoms, report.classification,
            report.witness) is None
    assert oracles.recheck_classification(
        clauses, program.atoms, "not-contraction", None) is not None


def test_violating_pair_recheck():
    rng = random.Random(8)
    nodes, arcs = gen.gated_ring(rng, 4)
    pairs = gen.longest_first_pairs(nodes, arcs)
    inst = routing.make_instance(nodes, "d", arcs, preference=pairs)
    check = routing.verify_strict_contraction(inst)
    assert not check.ok
    pref = oracles.PathPreference(gen.simple_paths(nodes, arcs),
                                  longest_first=True)
    assert oracles.recheck_violating_pair(nodes, arcs, pref,
                                          check.witness) is None
    hop = oracles.PathPreference(gen.simple_paths(nodes, arcs))
    everything = frozenset(hop.universe)
    assert oracles.recheck_violating_pair(
        nodes, arcs, hop, (frozenset(), everything)) is not None


def test_rechecks_reject_tampered_witnesses():
    domains = gen.DOMAINS_3X2
    table = gen.certified_table(random.Random(9), domains)
    seq = aco.search_box_sequence(_op(domains, table))
    boxes = list(seq.boxes)
    assert oracles.recheck_box_chain(domains, table, boxes[1:],
                                     seq.fixed_point) is not None
    moved = dict(table)
    moved[seq.fixed_point] = next(s for s in table if s != seq.fixed_point)
    assert oracles.recheck_box_chain(domains, moved, boxes,
                                     seq.fixed_point) is not None
    discrete = {(m, n): int(m != n) for m in gen.states_of(domains)
                for n in gen.states_of(domains)}
    assert oracles.recheck_ultrametric(domains, gen.GAP_WITNESS,
                                       discrete) is not None
    doc = gen.height_space_doc(random.Random(10), 5)
    assert oracles.recheck_triangle_violation(
        doc, ("e0", "e1", "e2")) is not None
