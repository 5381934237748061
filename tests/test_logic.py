import itertools
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acokit.errors import PreconditionError, SizeLimitError
from acokit.iteration import run_async, sample_schedule
from acokit.logic import (
    Clause,
    Literal,
    classify_tp_contraction,
    compute_perfect_model,
    decompose_program,
    find_stratification,
    immediate_consequence,
    interp_to_tuple,
    interpretation_distance,
    interpretation_labels,
    interpretation_space,
    parse_program,
    perfect_model_by_strata,
    program_from_clauses,
    tuple_to_interp,
)
from acokit.ultrametric import (check_axioms, check_isosceles,
                                classify_contraction)
from conftest import corpus_path
from pair_oracles import consequence_by_definition

THREE = parse_program("q.\np :- not q.\nr :- p.")


def test_parse_basics():
    program = parse_program("% a comment\n a. \n b :- a, not c. \n")
    assert program.atoms == ("a", "b", "c")
    assert program.clauses[0] == Clause("a", ())
    assert program.clauses[1] == Clause(
        "b", (Literal("a", True), Literal("c", False)))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_program("p :- q")  # missing period
    with pytest.raises(ValueError):
        parse_program("p q.")


def test_parse_strata_pragma():
    program = parse_program('% strata: {"q": 0, "p": 1, "r": 2}\n'
                            "q.\np :- not q.\nr :- p.")
    strat = find_stratification(program).stratification
    assert strat.of("r") == 2


def test_declared_strata_validated():
    program = parse_program('% strata: {"p": 0, "q": 1}\n'
                            "p :- not q.")
    with pytest.raises(ValueError):
        find_stratification(program)


def test_stratification_facts_only():
    program = parse_program("a.\nb.")
    strat = find_stratification(program).stratification
    assert dict(strat.levels) == {"a": 0, "b": 0}


def test_stratification_three_clause_minimal_levels():
    strat = find_stratification(THREE).stratification
    assert dict(strat.levels) == {"q": 0, "p": 1, "r": 1}


def test_stratification_rejects_negative_self_loop():
    result = find_stratification(parse_program("p :- not p."))
    assert not result.ok
    assert result.witness == ("p", "p")


def test_stratification_rejects_negative_cycle():
    result = find_stratification(parse_program("p :- not q.\nq :- p."))
    assert not result.ok
    assert set(result.witness) == {"p", "q"}


def test_stratification_witness_takes_the_shortest_way_back():
    # b depends on h through p (one step) and through q and r (two)
    result = find_stratification(parse_program(
        "h :- not b.\nb :- p.\nb :- q.\np :- h.\nq :- r.\nr :- h."))
    assert result.witness == ("h", "p", "b", "h")


def test_immediate_consequence_examples():
    facts = parse_program("a.\nb.")
    assert immediate_consequence(facts, frozenset()) == {"a", "b"}
    assert immediate_consequence(facts, frozenset({"a"})) == {"a", "b"}
    assert immediate_consequence(THREE, frozenset()) == {"q", "p"}
    assert immediate_consequence(THREE, frozenset({"q"})) == {"q"}


def test_interpretation_distance_examples():
    strat = find_stratification(THREE).stratification
    assert interpretation_distance(strat, {"q"}, {"q"}) == 0
    assert interpretation_distance(strat, {"q"}, {"q", "p"}) == Fraction(1, 2)
    assert interpretation_distance(strat, set(), {"q"}) == 1


def test_interpretation_space_matches_distance():
    strat = find_stratification(THREE).stratification
    space = interpretation_space(THREE, strat)
    for bits_a in itertools.product((False, True), repeat=3):
        for bits_b in itertools.product((False, True), repeat=3):
            expected = interpretation_distance(
                strat,
                tuple_to_interp(THREE, bits_a),
                tuple_to_interp(THREE, bits_b))
            assert space.distance(bits_a, bits_b) == expected


def test_interpretation_space_shares_one_component_per_stratum():
    program = parse_program("q.\ns.\np :- not q.\nr :- p, not s.")
    strat = find_stratification(program).stratification
    space = interpretation_space(program, strat)
    by_level = {}
    for atom, comp in zip(program.atoms, space.components):
        assert by_level.setdefault(strat.of(atom), comp) is comp
    assert len({id(comp) for comp in space.components}) == \
        len(set(dict(strat.levels).values())) < len(program.atoms)


def test_perfect_model_three_clause_trajectory():
    result = compute_perfect_model(THREE)
    assert result.status == "converged"
    assert result.model == {"q"}
    assert [sorted(i) for i in result.trajectory] == [
        [], ["p", "q"], ["q", "r"], ["q"], ["q"]]


def test_perfect_model_facts_only():
    result = compute_perfect_model(parse_program("a.\nb."))
    assert result.model == {"a", "b"}
    assert result.steps == 2  # one productive step plus the confirming one


def test_perfect_model_negation_default():
    result = compute_perfect_model(parse_program("p :- not q."))
    assert result.model == {"p"}


def test_perfect_model_requires_stratification():
    with pytest.raises(PreconditionError):
        compute_perfect_model(parse_program("p :- not p."))


def test_oracle_agreement_on_corpus(logic_corpus):
    assert len(logic_corpus) >= 10
    for name, program in logic_corpus:
        result = compute_perfect_model(program)
        assert result.status == "converged", name
        strat = result.stratification
        assert result.model == perfect_model_by_strata(program, strat), name
        # the model is genuinely a fixed point
        assert immediate_consequence(program, result.model) == result.model


def test_trajectory_length_bound(logic_corpus):
    for name, program in logic_corpus:
        result = compute_perfect_model(program)
        bound = (result.stratification.max_level + 2) * max(
            1, len(program.atoms))
        assert result.steps <= bound, name


def test_classification_examples(logic_corpus):
    by_name = dict(logic_corpus)
    facts = by_name["facts_only.pl"]
    assert classify_tp_contraction(facts).classification == \
        "strict-contraction"
    # the three-clause program under minimal strata: the exhaustive check
    # decides, nothing is assumed
    report = classify_tp_contraction(by_name["three_clause.pl"])
    assert report.classification in (
        "contraction", "contraction-strict-on-orbits", "strict-contraction")
    # under the taller declared strata it is strictly contracting
    declared = by_name["three_clause_declared.pl"]
    assert classify_tp_contraction(declared).classification == \
        "strict-contraction"


def test_classification_requires_stratification():
    with pytest.raises(PreconditionError):
        classify_tp_contraction(parse_program("p :- not p."))


def test_classification_size_limit():
    atoms = [f"a{i}" for i in range(13)]
    program = program_from_clauses(
        [Clause(a, ()) for a in atoms])
    with pytest.raises(SizeLimitError):
        classify_tp_contraction(program)


def test_classification_rejects_an_empty_atom_base():
    with pytest.raises(PreconditionError, match="empty atom base"):
        classify_tp_contraction(program_from_clauses([]))


def test_classification_leaves_fractions_unloaded():
    script = ("import sys\n"
              "from acokit import logic\n"
              "program = logic.load_program(sys.argv[1])\n"
              "print(logic.classify_tp_contraction(program).classification)\n"
              "print('fractions' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, corpus_path("logic", "eight_atoms.pl")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "contraction\nFalse\n"


def assert_labels_are_the_space_labels(program):
    strat = find_stratification(program).stratification
    labels = interpretation_labels(program, strat)
    expected = interpretation_space(program, strat).ball_labels()
    assert labels.dtype == expected.dtype
    np.testing.assert_array_equal(labels, expected)


def test_interpretation_labels_on_corpus(logic_corpus):
    for _, program in logic_corpus:
        assert_labels_are_the_space_labels(program)


def test_interpretation_metric_axioms_small(logic_corpus):
    for name, program in logic_corpus:
        if len(program.atoms) > 8:
            continue
        strat = find_stratification(program).stratification
        space = interpretation_space(program, strat)
        assert check_axioms(space).ok, name
        assert check_isosceles(space).ok, name


def test_per_atom_async_reaches_model():
    program = THREE
    result = compute_perfect_model(program)
    op = decompose_program(program)
    target = interp_to_tuple(program, result.model)
    start = tuple(False for _ in program.atoms)
    for seed in range(20):
        schedule = sample_schedule(op.processors, 200, seed,
                                   max_staleness=5, fairness_window=8)
        traj = run_async(op, start, schedule)
        assert traj.status == "converged"
        assert traj.final == target


@st.composite
def stratified_programs(draw):
    """Random programs stratified by construction: bodies only mention
    atoms from strictly lower layers (negated) or lower-or-same (positive
    from strictly lower here, keeping layers honest)."""
    layers = draw(st.integers(min_value=1, max_value=3))
    atoms = []
    per_layer = []
    for lvl in range(layers):
        count = draw(st.integers(min_value=1, max_value=2))
        layer = [f"x{lvl}_{i}" for i in range(count)]
        per_layer.append(layer)
        atoms.extend(layer)
    clauses = []
    for lvl, layer in enumerate(per_layer):
        below = [a for l in per_layer[:lvl] for a in l]
        for atom in layer:
            n_clauses = draw(st.integers(min_value=0, max_value=2))
            for _ in range(n_clauses):
                body = []
                for b in below:
                    kind = draw(st.sampled_from(("skip", "pos", "neg")))
                    if kind == "pos":
                        body.append(Literal(b, True))
                    elif kind == "neg":
                        body.append(Literal(b, False))
                if not below or draw(st.booleans()):
                    clauses.append(Clause(atom, tuple(body)))
    return program_from_clauses(clauses, extra_atoms=atoms)


@given(stratified_programs())
def test_random_stratified_programs_agree_with_oracle(program):
    result = compute_perfect_model(program)  # cross-checks internally
    assert result.status == "converged"
    assert immediate_consequence(program, result.model) == result.model


@st.composite
def arbitrary_programs(draw, max_atoms=6):
    """Random programs over a few atoms, with positive and negative
    dependency cycles allowed (self-loops included)."""
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    atoms = [f"a{i}" for i in range(n)]
    atom = st.sampled_from(atoms)
    literal = st.builds(Literal, atom, st.booleans())
    clause = st.builds(Clause, atom, st.lists(literal, max_size=3).map(tuple))
    clauses = draw(st.lists(clause, max_size=2 * n))
    return program_from_clauses(clauses, extra_atoms=atoms)


def relaxed_levels(program):
    """Least fixpoint of ``level[h] >= level[b] + negated`` over all
    literals, or None once a level exceeds the atom count (it diverges)."""
    level = dict.fromkeys(program.atoms, 0)
    changed = True
    while changed:
        changed = False
        for clause in program.clauses:
            for lit in clause.body:
                need = level[lit.atom] + (0 if lit.positive else 1)
                if need > level[clause.head]:
                    if need > len(program.atoms):
                        return None
                    level[clause.head] = need
                    changed = True
    return level


def edge_signs(program):
    """Body -> head edges, each with whether some literal on it is negated."""
    signs = {}
    for clause in program.clauses:
        for lit in clause.body:
            edge = (lit.atom, clause.head)
            signs[edge] = signs.get(edge, False) or not lit.positive
    return signs


def shortest_cycle_through(signs, body, head):
    """Edges on a shortest closed walk that takes the edge body -> head:
    one more than the distance from head back to body."""
    dist, frontier = {head: 0}, [head]
    while frontier and body not in dist:
        reached = []
        for atom in frontier:
            for b, h in signs:
                if b == atom and h not in dist:
                    dist[h] = dist[atom] + 1
                    reached.append(h)
        frontier = reached
    return dist[body] + 1


@settings(max_examples=300)
@given(arbitrary_programs())
def test_stratification_of_arbitrary_programs_matches_relaxation(program):
    result = find_stratification(program)
    expected = relaxed_levels(program)
    if result.ok:
        assert dict(result.stratification.levels) == expected
        return
    assert expected is None
    walk = result.witness
    assert len(walk) >= 2 and walk[0] == walk[-1]
    signs = edge_signs(program)
    steps = list(zip(walk, walk[1:]))
    assert all(step in signs for step in steps)
    negated = [step for step in steps if signs[step]]
    assert negated
    assert any(len(steps) == shortest_cycle_through(signs, *step)
               for step in negated)


@given(arbitrary_programs(max_atoms=8))
def test_consequence_routes_match_the_definition(program):
    images = program.consequence_rule.images()
    step = program.consequence_rule.step
    apply = decompose_program(program).apply
    space = itertools.product((False, True), repeat=len(program.atoms))
    for index, bits in enumerate(space):
        interp = tuple_to_interp(program, bits)
        expected = consequence_by_definition(program, interp)
        assert immediate_consequence(program, interp | {"outside"}) == expected
        target = interp_to_tuple(program, expected)
        assert apply(bits) == target
        assert step(index) == int("".join("01"[b] for b in target), 2)
        assert images[index] == step(index)


@given(arbitrary_programs(max_atoms=8).filter(
    lambda p: find_stratification(p).ok))
def test_tp_classification_matches_the_callable_route(program):
    space = interpretation_space(
        program, find_stratification(program).stratification)

    def step(bits):
        return interp_to_tuple(program, consequence_by_definition(
            program, tuple_to_interp(program, bits)))

    assert classify_tp_contraction(program) == \
        classify_contraction(space, step)


@given(arbitrary_programs(max_atoms=8).filter(
    lambda p: find_stratification(p).ok))
def test_interpretation_labels_on_arbitrary_programs(program):
    assert_labels_are_the_space_labels(program)
