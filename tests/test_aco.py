import itertools
import logging
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acokit import aco, iteration, logic, routing
from acokit.aco import (
    BoxSequence,
    HeightMetric,
    boxes_from_ultrametric,
    box_members,
    box_size,
    certify_aco,
    equivalence_census,
    search_box_sequence,
    search_ultrametric,
    ultrametric_from_boxes,
    verify_box_sequence,
)
from acokit.errors import (
    MalformedBoxError,
    PreconditionError,
    ScheduleRejectedError,
    SemanticsError,
    SizeLimitError,
)
from acokit.iteration import DecomposedOperator
from acokit.ultrametric import (
    FiniteUltrametricSpace,
    RadiusScale,
    check_axioms,
    classify_contraction,
)
from conftest import ball_from_labels, chain_table, corpus_path, gated_ring
from pair_oracles import (
    greatest_heights_by_sets,
    image_hulls_by_states,
    metric_space,
    qualifying_rows_on_all_rows,
    search_ultrametric_by_pairs,
    state_space,
    witness_space,
)

DOM22 = ((0, 1), (0, 1))
STATES22 = list(itertools.product((0, 1), (0, 1)))


def op_from_map(mapping):
    return DecomposedOperator.from_table(DOM22, mapping)


def constant_op(target=(0, 0)):
    return op_from_map({s: target for s in STATES22})


def identity_op():
    return op_from_map({s: s for s in STATES22})


def swap_op():
    return op_from_map({(a, b): (b, a) for a, b in STATES22})


def test_verify_accepts_constant_certificate():
    seq = BoxSequence(
        (((0,), (0,)), ((0, 1), (0, 1))), (0, 0))
    assert verify_box_sequence(constant_op(), seq).ok


def test_verify_rejects_identity_with_constant_boxes():
    seq = BoxSequence(
        (((0,), (0,)), ((0, 1), (0, 1))), (0, 0))
    report = verify_box_sequence(identity_op(), seq)
    assert not report.ok
    assert report.violated == "condition-4"


def test_verify_rejects_wrong_outer_box():
    seq = BoxSequence((((0,), (0,)), ((0, 1), (0,))), (0, 0))
    report = verify_box_sequence(constant_op(), seq)
    assert report.violated == "condition-2"


def test_verify_rejects_non_nested_boxes():
    seq = BoxSequence(
        (((0,), (0,)), ((1,), (0, 1)), ((0, 1), (0, 1))), (0, 0))
    report = verify_box_sequence(constant_op(), seq)
    assert report.violated == "condition-3"


def test_malformed_box_detected():
    with pytest.raises(MalformedBoxError):
        BoxSequence((((0,), ()),), (0, 0))
    seq = BoxSequence((((0,), (7,)), ((0, 1), (0, 1))), (0, 7))
    with pytest.raises(MalformedBoxError):
        verify_box_sequence(constant_op(), seq)


def test_search_finds_constant_chain():
    seq = search_box_sequence(constant_op())
    assert seq is not None
    assert seq.fixed_point == (0, 0)
    assert seq.boxes[0] == ((0,), (0,))
    assert seq.boxes[-1] == ((0, 1), (0, 1))
    assert verify_box_sequence(constant_op(), seq).ok


def test_search_refuses_swap_and_identity():
    assert search_box_sequence(swap_op()) is None
    assert search_box_sequence(identity_op()) is None


def test_search_box_sequence_logs_counters(caplog):
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        search_box_sequence(constant_op())
        search_box_sequence(swap_op())
    # the constant map's hulls: the whole domain, then {(0, 0)}
    assert caplog.messages == [
        "search_box_sequence: boxes=2 verdict=certified",
        "search_box_sequence: boxes=1 verdict=refuted"]


def test_certify_aco_logs_counters(caplog):
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        certify_aco(constant_op(), schedules=1)
        certify_aco(swap_op(), schedules=1)
    assert [m for m in caplog.messages if m.startswith("certify_aco")] == [
        "certify_aco: fixed_points=1 boxes=2 verdict=certified",
        "certify_aco: fixed_points=2 boxes=1 verdict=refuted"]


def test_search_refutes_wide_identity_without_a_cap():
    # 7^5 states and (2^7 - 1)^5 candidate boxes: the hulls stop at once
    wide = DecomposedOperator(
        (tuple(range(7)),) * 5, lambda s: s)
    assert search_box_sequence(wide) is None
    cert = certify_aco(wide)
    assert cert.refutation["boxes_examined"] == 1
    assert cert.refutation["stalled_box"] == (tuple(range(7)),) * 5


@pytest.mark.parametrize("image", [(0, 0, 1), (2, 0), (0,)],
                         ids=["long", "outside", "short"])
@pytest.mark.parametrize("use", [
    search_box_sequence, search_ultrametric, certify_aco,
    lambda op: iteration.run_sync(op, (0, 0), 10),
    lambda op: iteration.run_async(op, (0, 0),
                                   iteration.sample_schedule(2, 50, 0)),
], ids=["boxes", "ultrametric", "certify", "run_sync", "run_async"])
def test_search_rejects_images_outside_the_domain(image, use):
    leaky = DecomposedOperator(DOM22, lambda s: image)
    with pytest.raises(PreconditionError, match="outside itself"):
        use(leaky)


def _metric_without_the_chain_gate(op):
    """Whether some product height metric with one fixed point makes
    ``op`` a contraction strict on orbits, searched on every map with
    one fixed point, whether or not it has a box chain."""
    return len(aco._analysis(op).fixed_points) == 1 and aco._greatest_heights(
        aco._metric_sizes(op.domains), op.image_indices())[0] is not None


def test_box_census_3x2():
    # every self-map of the 3x2 domain through both searches, never
    # sampled down: every product height metric found has a box chain
    # (Proof A, which search_ultrametric's gate relies on, so the heights
    # are searched here without it), but not every box chain has one
    domains = ((0, 1, 2), (0, 1))
    states = list(itertools.product(*domains))
    total = certified = found = 0
    differ = []
    for images in itertools.product(states, repeat=len(states)):
        table = dict(zip(states, images))
        op = DecomposedOperator.from_table(domains, table)
        seq = search_box_sequence(op)
        total += 1
        if seq is not None:
            certified += 1
            assert verify_box_sequence(op, seq).ok
        metric = _metric_without_the_chain_gate(op)
        assert (search_ultrametric(op) is not None) == metric
        if metric:
            found += 1
            assert seq is not None
        if (seq is not None) != metric:
            differ.append((tuple(sorted(table.items())), seq is not None,
                           metric))
    assert (total, certified, found) == (46_656, 1_548, 1_116)
    # the census reads the same verdicts off every table
    census = equivalence_census(domains)
    assert (census.total, census.agreements, census.aco_count) == \
        (46_656, 46_224, 1_116)
    assert len(census.mismatches) == 432
    assert {m[1:] for m in census.mismatches} == {(True, False)}
    assert list(census.mismatches) == differ


@pytest.mark.parametrize("domains", [
    ((0, 1), (0, 1)), ((0, 1), (0,), (0, 1)), ((0, 1, 2), (0,)),
    ((0, 1, 2, 3), (0,)),
], ids=["2x2", "2x1x2", "3x1", "4x1"])
def test_equivalence_census_matches_a_walk_over_every_table(domains):
    # the census searches only the maps fixed at state 0, and their
    # heights only where they have a box chain, and multiplies; both
    # searches on every table, the heights with no chain gate, must give
    # the same counts and list
    states = list(itertools.product(*domains))
    total = agreements = both = 0
    differ = []
    for images in itertools.product(states, repeat=len(states)):
        table = dict(zip(states, images))
        op = DecomposedOperator.from_table(domains, table)
        by_boxes = search_box_sequence(op) is not None
        by_metric = _metric_without_the_chain_gate(op)
        assert by_boxes or not by_metric
        total += 1
        agreements += by_boxes == by_metric
        both += by_boxes and by_metric
        if by_boxes != by_metric:
            differ.append((tuple(sorted(table.items())), by_boxes,
                           by_metric))
    census = equivalence_census(domains)
    assert census == (total, agreements, both, tuple(differ))
    assert both > 0


def test_box_census_2x2x2():
    # 41,480 box chains, 13,832 of them with a product height metric
    census = equivalence_census(((0, 1),) * 3)
    assert census[:3] == (16_777_216, 16_749_568, 13_832)
    assert len(census.mismatches) == 27_648
    assert {m[1:] for m in census.mismatches} == {(True, False)}


def _image_array(domains, tables):
    states = list(itertools.product(*domains))
    index = {s: i for i, s in enumerate(states)}
    return np.array([[index[table[s]] for s in states] for table in tables])


SHAPES = (((0, 1),) * 3, ((0, 1, 2),) * 2, ((0, 1, 2, 3), (0, 1)))


@given(st.data())
def test_search_on_random_operators(data):
    domains = data.draw(st.sampled_from(SHAPES))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, fixed = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
    else:
        table = {s: data.draw(st.sampled_from(states)) for s in states}
        fixed = None
    op = DecomposedOperator.from_table(domains, table)
    seq = search_box_sequence(op)
    if fixed is not None:
        assert seq is not None and seq.fixed_point == fixed
    if seq is not None:
        assert verify_box_sequence(op, seq).ok
        return
    refutation = certify_aco(op, schedules=1).refutation
    stalled = refutation["stalled_box"]
    assert box_size(stalled) > 1
    images = [set() for _ in stalled]
    for m in box_members(stalled):
        for comp, v in zip(images, op.apply(m)):
            comp.add(v)
    assert images == [set(comp) for comp in stalled]
    assert 1 <= refutation["boxes_examined"] <= \
        sum(map(len, domains)) - len(domains) + 1


def _translate(domains, t):
    """The translation of states by state ``t``: each component's value
    moves on by ``t``'s value there, modulo the component's size."""
    def tau(s):
        return tuple(dom[(dom.index(v) + dom.index(w)) % len(dom)]
                     for dom, v, w in zip(domains, s, t))
    return tau


@given(st.data())
def test_translates_of_a_map_get_the_same_verdicts(data):
    # the census counts only the maps fixed at state 0 and multiplies by
    # the number of states: it rests on this symmetry
    domains = data.draw(st.sampled_from(SHAPES))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, fixed = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
    else:
        fixed = data.draw(st.sampled_from(states))
        table = {s: s if s == fixed else data.draw(
            st.sampled_from([f for f in states if f != s])) for s in states}
    op = DecomposedOperator.from_table(domains, table)
    seq = search_box_sequence(op)
    metric = search_ultrametric(op) is not None
    for t in states:
        tau = _translate(domains, t)
        moved = DecomposedOperator.from_table(
            domains, {tau(s): tau(f) for s, f in table.items()})
        moved_seq = search_box_sequence(moved)
        assert (moved_seq is None) == (seq is None)
        if seq is not None:
            assert moved_seq.fixed_point == tau(fixed)
        assert (search_ultrametric(moved) is not None) == metric


@given(st.data())
def test_batch_pass_matches_the_single_operator_searches(data):
    domains = data.draw(st.sampled_from(SHAPES))
    states = list(itertools.product(*domains))
    tables = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            table, _ = chain_table(
                domains, lambda xs: data.draw(st.sampled_from(xs)),
                lambda xs: data.draw(st.lists(
                    st.sampled_from(xs), min_size=1, max_size=len(xs) - 1,
                    unique=True)))
        else:
            table = {s: data.draw(st.sampled_from(states)) for s in states}
        tables.append(table)
    sizes = aco._metric_sizes(domains)
    images = _image_array(domains, tables)
    unique = _one_fixed_point(images)
    # the metric verdict against the height family it replaced
    found = unique & (qualifying_rows_on_all_rows(sizes, images) >= 0)
    for n, table in enumerate(tables):
        op = DecomposedOperator.from_table(domains, table)
        hulls = image_hulls_by_states(op)
        chain = box_size(hulls[-1]) == 1
        # the census's hulls over the image indices stop where the
        # state-tuple hulls do, and only a map with one fixed point has
        # a chain
        masks = aco._hulls(sizes, images[n].tolist())
        assert len(masks) == len(hulls)
        assert (masks[-1].bit_count() == len(sizes)) == chain
        assert unique[n] or not chain
        assert aco._analysis(op).boxes == hulls
        assert (search_box_sequence(op) is not None) == chain
        assert found[n] == (search_ultrametric(op) is not None)


def test_searches_and_certify_read_one_image_table(monkeypatch):
    # the first search evaluates each state once and iterates the hulls
    # once; the other search, the certificate and its sampled runs read
    # the same table and the same hulls
    domains = ((0, 1, 2), (0, 1))
    states = list(itertools.product(*domains))
    op = DecomposedOperator.from_table(
        domains, {(a, b): (max(a - 1, 0), min(a, 1)) for a, b in states})
    calls = []

    def hulls(sizes, image, iterate=aco._hulls):
        calls.append(sizes)
        return iterate(sizes, image)

    monkeypatch.setattr(aco, "_hulls", hulls)
    assert search_box_sequence(op) is not None
    table = op.image_indices()
    assert table == tuple(states.index(op.apply(s)) for s in states)
    assert search_ultrametric(op) is not None
    assert certify_aco(op, schedules=1).certified
    assert op.image_indices() is table
    assert op.evaluations == op.size()
    assert calls == [(3, 2)]


def _results(op, calls):
    """What each of the calls returns on ``op``, in a comparable form."""
    out = {}
    for name in calls:
        if name == "boxes":
            seq = search_box_sequence(op)
            out[name] = None if seq is None else (seq.boxes, seq.fixed_point)
        elif name == "metric":
            metric = search_ultrametric(op)
            out[name] = None if metric is None else \
                metric_space(metric).index_rows()
        else:
            out[name] = certify_aco(op, schedules=1).to_json_dict()
    return out


@given(st.data())
def test_searches_and_certify_answer_alike_in_any_order(data):
    # the analysis one call leaves on an operator gives every later call
    # what a fresh operator gives it
    domains = data.draw(st.sampled_from(
        (DOM22, ((0, 1, 2), (0, 1)), ((0, 1),) * 3)))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, _ = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(
                st.sampled_from(xs), min_size=1, max_size=len(xs) - 1,
                unique=True)))
    else:
        table = {s: data.draw(st.sampled_from(states)) for s in states}
    order = data.draw(st.permutations(("boxes", "metric", "certify")))
    shared = DecomposedOperator.from_table(domains, table)
    assert _results(shared, order) == {
        name: _results(DecomposedOperator.from_table(domains, table),
                       [name])[name] for name in order}


def test_a_capped_metric_search_leaves_the_analysis_whole():
    # the metric search reads the one fixed point before it refuses 2048
    # states; the box search and the certificate then read the same
    # analysis and answer as on a fresh operator
    def shift(s):
        return s[1:] + (0,)

    op = DecomposedOperator(((0, 1),) * 11, shift)
    with pytest.raises(SizeLimitError, match="2048 states exceed"):
        search_ultrametric(op)
    fresh = DecomposedOperator(((0, 1),) * 11, shift)
    assert _results(op, ["boxes", "certify"]) == _results(
        fresh, ["boxes", "certify"])
    assert len(search_box_sequence(op)) == 12


def _negation_ladder_op(atoms):
    return logic.decompose_program(logic.parse_program("a0.\n" + "".join(
        f"a{i} :- not a{i - 1}.\n" for i in range(1, atoms))))


def _gated_ring_per_path_op(n):
    # 2n paths, one processor each
    nodes, arcs = gated_ring(n)
    return routing.decompose(routing.make_instance(nodes, "d", arcs),
                             routing.PER_PATH)


@pytest.mark.parametrize("build, size, depth", [
    (_negation_ladder_op, 12, 13), (_gated_ring_per_path_op, 6, 6),
], ids=["negation-ladder-12", "gated-ring-6-per-path"])
def test_image_hulls_match_the_state_reference_on_deep_chains(build, size,
                                                              depth):
    op = build(size)
    assert op.size() == 4096
    hulls = aco._analysis(op).boxes
    assert len(hulls) == depth
    assert hulls == image_hulls_by_states(op)


@pytest.mark.parametrize("domains", [
    (("b", "a", 1), (2, 0)), ((2.5, -1, "x", 0), ("z", 0.5)),
], ids=["3x2", "4x2"])
def test_image_hulls_are_in_canonical_order_on_unsorted_domains(domains):
    # the hulls are read off each domain's values sorted once, whatever
    # order and types the domain lists them in; the maps are drawn on
    # value indices and relabelled
    rng = random.Random(29)
    index = tuple(tuple(range(len(dom))) for dom in domains)
    states = list(itertools.product(*index))

    def relabel(s):
        return tuple(dom[i] for dom, i in zip(domains, s))

    depths = set()
    for k in range(200):
        if k % 2:
            table, _ = chain_table(
                index, rng.choice,
                lambda xs: rng.sample(xs, rng.randint(1, len(xs) - 1)))
        else:
            table = {s: rng.choice(states) for s in states}
        op = DecomposedOperator.from_table(
            domains, {relabel(s): relabel(f) for s, f in table.items()})
        hulls = aco._analysis(op).boxes
        assert hulls == image_hulls_by_states(op)
        depths.add(len(hulls))
    assert len(depths) > 2


def test_equivalence_census_raises_when_the_classifier_disagrees(
        monkeypatch):
    # heights under which every two states are at distance 1: the second
    # map, (0, 0, 0, 1), moves state 3 to 1 and 1 to 0, which is no step
    # inward
    monkeypatch.setattr(aco, "_greatest_heights",
                        lambda sizes, sigma: ((0, 1, 0, 1), 0, 1))
    with pytest.raises(SemanticsError, match="disagrees with the height "
                       "search: not strict on the orbit of state 3"):
        equivalence_census()


@pytest.mark.parametrize("domains, message", [
    (((), (0, 1)), "nonempty domain"),
    ((), "nonempty domain"),
    (((0, 0), (1, 2)), "distinct"),
])
def test_equivalence_census_rejects_bad_domains(domains, message):
    with pytest.raises(PreconditionError, match=message):
        equivalence_census(domains)


def test_equivalence_census_logs_counters(caplog):
    # counted over the 27 maps whose one fixed point is state 0; the
    # heights are searched on the 7 with a box chain, and the 7 metrics
    # are confirmed by the height check, which builds no space and runs
    # no classifier
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        census = equivalence_census()
    assert census.aco_count == 4 * 7
    assert caplog.messages == [
        "equivalence_census: states=4 maps=27 translations=4 box_chains=7 "
        "metric_searches=7 metrics=7 mismatches=0"]


def test_search_ultrametric_examples():
    found = search_ultrametric(constant_op())
    assert found is not None
    assert classify_contraction(metric_space(found),
                                constant_op().apply).qualifies()
    assert search_ultrametric(swap_op()) is None
    # multiple fixed points disqualify regardless of metric
    assert search_ultrametric(identity_op()) is None


def test_search_ultrametric_logs_counters(caplog):
    # one fixed point and a 2-cycle, whose image hulls stop at the whole
    # domain; the 3x2 gap witness has a box chain but no metric
    cycling = op_from_map({(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1),
                           (1, 1): (0, 0)})
    gap = DecomposedOperator.from_table(((0, 1, 2), (0, 1)), {
        (0, 0): (1, 0), (0, 1): (2, 0), (1, 0): (2, 1),
        (1, 1): (2, 0), (2, 0): (2, 1), (2, 1): (2, 1)})
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        search_ultrametric(constant_op())
        search_ultrametric(swap_op())
        search_ultrametric(cycling)
        assert search_ultrametric(gap) is None
    # the constant map's images never differ and never move twice; the
    # cycle is turned away before any condition is built; the witness's
    # 14 conditions have no solution, which the fourth pass shows; the
    # metric found is confirmed by the height check, which logs nothing
    assert caplog.messages == [
        "search_ultrametric: states=4 conditions=0 rounds=1 verdict=found",
        "search_ultrametric: fixed_points=2 gate=unique-fixed-point",
        "search_ultrametric: states=4 gate=box-chain",
        "search_ultrametric: states=6 conditions=14 rounds=4 verdict=none"]


def heights_found(op):
    """search_ultrametric's answer in the shape of
    search_ultrametric_by_pairs: scale values and per-component
    distance tables, here read off the component spaces."""
    metric = search_ultrametric(op)
    if metric is None:
        return None
    space = metric_space(metric)
    return space.scale.values, tuple(
        [list(row) for row in comp.index_rows()]
        for comp in space.components)


def heights_expected(op):
    found = search_ultrametric_by_pairs(op)
    if found is None:
        return None
    scale, tables = found
    return scale, tuple(
        [[0 if m == n else max(t[m], t[n]) for n in t] for m in t]
        for t in tables)


def test_search_ultrametric_matches_reference_on_every_2x2_operator():
    found = 0
    for images in itertools.product(STATES22, repeat=4):
        op = op_from_map(dict(zip(STATES22, images)))
        expected = heights_expected(op)
        assert heights_found(op) == expected
        found += expected is not None
    assert found == 28


def test_search_ultrametric_matches_reference_on_seeded_samples():
    rng = random.Random(20261018)
    found = 0
    for domains, count in ((((0, 1, 2), (0, 1)), 40), (((0, 1),) * 3, 12)):
        states = list(itertools.product(*domains))
        for k in range(count):
            if k % 2:
                table, _ = chain_table(
                    domains, rng.choice,
                    lambda xs: rng.sample(xs, rng.randint(1, len(xs) - 1)))
            else:
                table = {s: rng.choice(states) for s in states}
            op = DecomposedOperator.from_table(domains, table)
            expected = heights_expected(op)
            assert heights_found(op) == expected
            found += expected is not None
    # both verdicts occur, so the sample is not all refutations
    assert 0 < found < 52


@pytest.mark.parametrize("domains", [
    ((0,),), ((0,), ("a",)), ((0,), (0, 1)), ((0, 1), (0,)),
    ((0, 1, 2), (0,)), ((0,), (0, 1), (0,)), ((0, 1), (0,), (0, 1)),
], ids=lambda domains: "x".join(str(len(dom)) for dom in domains))
def test_search_ultrametric_with_one_value_components_matches_the_full_family(
        domains):
    # the reference reads every component of each state pair, one-value
    # components included, and gives their values height 0
    states = list(itertools.product(*domains))
    found = 0
    for images in itertools.product(states, repeat=len(states)):
        op = DecomposedOperator.from_table(domains, dict(zip(states, images)))
        expected = heights_expected(op)
        assert heights_found(op) == expected
        found += expected is not None
    assert found > 0


def test_search_ultrametric_leaves_one_value_components_out_of_the_heights(
        caplog):
    domains = ((0,), (0,), (0,), (0,), (0, 1, 2, 3, 4))
    op = DecomposedOperator(domains, lambda s: s[:4] + (max(0, s[4] - 1),))
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        space = metric_space(search_ultrametric(op))
    # heights 0 .. 4 for the five values, the countdown's only order;
    # the one-value components get height 0
    assert caplog.messages[0] == \
        "search_ultrametric: states=5 conditions=12 rounds=4 verdict=found"
    assert space.scale.values == (0, 1, 2, 3, 4)
    assert [[list(row) for row in comp.index_rows()]
            for comp in space.components] == \
        [[[0]]] * 4 + [[[0 if m == n else max(m, n) for n in range(5)]
                         for m in range(5)]]


def _never(*args):
    raise AssertionError("built past the size cap")


def test_search_ultrametric_cap_is_checked_before_the_search(monkeypatch):
    domains = ((0, 1),) * 11
    op = DecomposedOperator(domains, lambda s: (0,) * 11)
    monkeypatch.setattr(aco, "_differing_values", _never)
    monkeypatch.setattr(aco, "_greatest_heights", _never)
    with pytest.raises(SizeLimitError, match="2048 states exceed"):
        search_ultrametric(op)


def test_search_ultrametric_gate_runs_before_the_cap(monkeypatch):
    # the identity on 2048 states has 2048 fixed points and is turned
    # away before the cap is checked or any condition is built
    monkeypatch.setattr(aco, "_differing_values", _never)
    monkeypatch.setattr(aco, "_greatest_heights", _never)
    identity = DecomposedOperator(((0, 1),) * 11, lambda s: s)
    assert search_ultrametric(identity) is None


@pytest.mark.parametrize("domains", [
    ((0, 1, 2),) * 2, ((0, 1, 2, 3, 4), (0, 1)), ((0, 1, 2), (0,), (0, 1, 2)),
], ids=["3x3", "5x2", "3x1x3"])
def test_equivalence_census_cap_is_checked_before_any_table(monkeypatch,
                                                            domains):
    for name in ("_value_masks", "_hulls", "_differing_values",
                 "_greatest_heights"):
        monkeypatch.setattr(aco, name, _never)
    with pytest.raises(SizeLimitError, match="states exceed the census cap 8"):
        equivalence_census(domains)


@pytest.mark.parametrize("domains", [((0, 1),) * 5, ((0, 1, 2),) * 3],
                         ids=["2^5", "3x3x3"])
def test_search_ultrametric_finds_metrics_for_shift_operators(domains):
    # component i takes component i + 1's value and the last one counts
    # down, so heights rising with i, and with the value in the last
    # component, make the map a strict contraction
    def shift(s):
        return s[1:] + (max(0, s[-1] - 1),)

    op = DecomposedOperator(domains, shift)
    metric = search_ultrametric(op)
    assert metric is not None
    assert classify_contraction(metric_space(metric), op.apply).qualifies()
    assert search_box_sequence(op) is not None


def test_equivalence_census_builds_the_height_family_once():
    # the heights of every map are solved over one per-shape table of
    # differing values: one table for 2x2, read by each of the 7 maps
    # whose one fixed point is state 0 and that have a box chain
    aco._differing_values.cache_clear()
    assert equivalence_census().ok
    info = aco._differing_values.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_height_family_is_shared_read_only():
    # states in product order: (0, 0), (0, 1), (1, 0), (1, 1); values 0,
    # 1 of the first component are columns 0, 1 and of the second 2, 3
    table = aco._differing_values((2, 2))
    assert aco._differing_values((2, 2)) is table
    assert table[0] == ((), (2, 3), (0, 1), (0, 1, 2, 3))
    assert table[0][1] is table[2][3]
    with pytest.raises(TypeError, match="does not support item assignment"):
        table[0][1] = ()


def _one_fixed_point(images):
    return (images == np.arange(images.shape[1])).sum(axis=1) == 1


def _found(sizes, sigma):
    return np.array([aco._greatest_heights(sizes, s.tolist())[0] is not None
                     for s in sigma])


def test_greatest_heights_match_the_family_on_every_2x2_operator():
    # every map, the identity (which qualifies under every metric) too
    sigma = np.array(list(itertools.product(range(4), repeat=4)))
    expected = qualifying_rows_on_all_rows((2, 2), sigma) >= 0
    assert np.array_equal(_found((2, 2), sigma), expected)
    gated = _one_fixed_point(sigma)
    assert np.count_nonzero(expected & gated) == 28
    # search_ultrametric is the gate and the same heights
    for n, images in enumerate(itertools.product(STATES22, repeat=4)):
        op = op_from_map(dict(zip(STATES22, images)))
        assert (search_ultrametric(op) is not None) == \
            (expected[n] and gated[n])


def test_greatest_heights_match_the_family_on_every_one_fixed_point_3x2_operator():
    sigma = np.array(list(itertools.product(range(6), repeat=6)))
    sigma = sigma[_one_fixed_point(sigma)]
    assert len(sigma) == 18_750
    found = _found((3, 2), sigma)
    for start in range(0, len(sigma), 1_000):
        part = sigma[start:start + 1_000]
        assert np.array_equal(found[start:start + 1_000],
                              qualifying_rows_on_all_rows((3, 2), part) >= 0)
    assert np.count_nonzero(found) == 1_116


def test_greatest_heights_when_no_assignment_is_strict_on_orbits():
    # states 0 and 1 swap, so d(F(0), F(F(0))) = d(0, F(0)) under every
    # assignment
    sigma = np.array([[1, 0, 5, 5, 5, 5], [1, 0, 0, 1, 2, 5],
                      [1, 0, 1, 0, 3, 5]])
    assert qualifying_rows_on_all_rows((3, 2), sigma).tolist() == [-1] * 3
    assert not _found((3, 2), sigma).any()


def test_search_ultrametric_witnesses_keep_value_types():
    # (False, True) == (0, 1): each domain's space keeps its own values,
    # whichever of the two is searched first
    bools = ((False, True), (0, 1))
    ints = ((0, 1), (0, 1))

    def constant(domains):
        states = itertools.product(*domains)
        return DecomposedOperator.from_table(
            domains, {s: (domains[0][0], domains[1][0]) for s in states})

    for order in ((bools, ints), (ints, bools)):
        for domains in order:
            space = metric_space(search_ultrametric(constant(domains)))
            assert [[type(v) for v in comp.elements]
                    for comp in space.components] == \
                [[type(v) for v in dom] for dom in domains]
            assert [type(v) for v in space.elements[-1]] == \
                [type(dom[-1]) for dom in domains]


def _sample_tables(domains, count, rng):
    """``count`` maps on ``domains``, every other one built on a box
    chain, so both verdicts occur."""
    states = list(itertools.product(*domains))
    for k in range(count):
        if k % 2:
            yield chain_table(
                domains, rng.choice,
                lambda xs: rng.sample(xs, rng.randint(1, len(xs) - 1)))[0]
        else:
            yield {s: rng.choice(states) for s in states}


def _metric_cases():
    """Every 2x2 table, seeded 3x2 and 2x2x2 samples, and seeded samples
    over str and bool domains, as (domains, table) pairs."""
    for images in itertools.product(STATES22, repeat=4):
        yield DOM22, dict(zip(STATES22, images))
    rng = random.Random(20261022)
    for domains, count in ((((0, 1, 2), (0, 1)), 120), (((0, 1),) * 3, 60),
                           ((("b", "a", "c"), (True, False)), 60),
                           (((False, True), ("x",), (0, 1)), 60)):
        for table in _sample_tables(domains, count, rng):
            yield domains, table


def test_height_metric_distances_match_the_witness_space():
    found = {}
    for domains, table in _metric_cases():
        metric = search_ultrametric(
            DecomposedOperator.from_table(domains, table))
        if metric is None:
            continue
        found[domains] = found.get(domains, 0) + 1
        assert metric.domains == domains
        assert [[type(v) for v in dom] for dom in metric.domains] == \
            [[type(v) for v in dom] for dom in domains]
        assert [len(hs) for hs in metric.heights] == list(map(len, domains))
        space = metric_space(metric)
        states = list(itertools.product(*domains))
        for m, n in itertools.product(states, repeat=2):
            assert metric.distance_index(m, n) == space.distance_index(m, n)
    # every 2x2 metric, and some in each sample
    assert found[DOM22] == 28
    assert len(found) == 5


def test_height_metric_record():
    metric = search_ultrametric(DecomposedOperator.from_table(
        ((0, 1), ("a",)), {(0, "a"): (0, "a"), (1, "a"): (0, "a")}))
    # no condition lowers either value from the top height, 1
    assert metric == HeightMetric(((0, 1), ("a",)), ((1, 1), (0,)))
    assert metric.to_json_dict() == {"domains": [[0, 1], ["a"]],
                                     "heights": [[1, 1], [0]]}
    assert metric.distance_index((1, "a"), (0, "a")) == 1
    assert metric.distance_index((1, "a"), (1, "a")) == 0
    with pytest.raises(AttributeError):
        metric.heights = ()


@pytest.mark.parametrize("state, message", [
    ((2, "a"), "2 not in component domain"),
    ((True, "a"), "True not in component domain"),
    ((0, "b"), "'b' not in component domain"),
    ((0,), "has the wrong shape"),
    ([0, "a"], "has the wrong shape"),
], ids=["value", "type", "second", "short", "list"])
def test_height_metric_rejects_states_outside_the_domain(state, message):
    domains = ((0, 1), ("a",))
    op = DecomposedOperator.from_table(
        domains, {(0, "a"): (0, "a"), (1, "a"): (0, "a")})
    metric = search_ultrametric(op)
    with pytest.raises(PreconditionError, match=message):
        op.check_state(state)
    for m, n in ((state, (0, "a")), ((0, "a"), state)):
        with pytest.raises(PreconditionError, match=message):
            metric.distance_index(m, n)


def test_search_ultrametric_loads_no_space_module():
    script = ("import sys\n"
              "from acokit import aco, iteration\n"
              "op, _ = iteration.load_operator(sys.argv[1])\n"
              "print(aco.search_ultrametric(op).heights)\n"
              "print('acokit.ultrametric' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script,
         corpus_path("operators", "shift2x2.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((2, 2), (1, 1))\nFalse\n"


@settings(max_examples=200)
@given(st.data())
def test_greatest_heights_match_the_set_reference(data):
    sizes = data.draw(st.sampled_from(
        ((2, 2), (3, 2), (2, 2, 2), (4, 2), (3, 3))))
    domains = tuple(tuple(range(size)) for size in sizes)
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, _ = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
        sigma = tuple(states.index(table[s]) for s in states)
    else:
        sigma = tuple(data.draw(st.lists(
            st.integers(0, len(states) - 1), min_size=len(states),
            max_size=len(states))))
    assert aco._greatest_heights(sizes, sigma) == \
        greatest_heights_by_sets(sizes, sigma)


def _chain_by_the_checked_constructor(op):
    seq = aco._analysis(op).chain
    if seq is None:
        return None
    checked = BoxSequence(seq.boxes, seq.fixed_point)
    assert (seq.boxes, seq.fixed_point) == \
        (checked.boxes, checked.fixed_point)
    return seq


def test_analysis_chain_matches_the_checked_constructor_on_every_2x2():
    chains = sum(_chain_by_the_checked_constructor(op_from_map(
        dict(zip(STATES22, images)))) is not None
        for images in itertools.product(STATES22, repeat=4))
    assert chains == 28


@given(st.data())
def test_analysis_chain_matches_the_checked_constructor(data):
    domains = data.draw(st.sampled_from(
        SHAPES + ((("b", "a", "c"), (2, 0)), ((False, True), ("x",)))))
    table, fixed = chain_table(
        domains, lambda xs: data.draw(st.sampled_from(xs)),
        lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                      max_size=len(xs) - 1, unique=True)))
    seq = _chain_by_the_checked_constructor(
        DecomposedOperator.from_table(domains, table))
    assert seq.fixed_point == fixed


def test_boxes_from_ultrametric_requires_qualifying_map(ring3):
    space = state_space(ring3, routing.PER_NODE)
    op = routing.decompose(ring3, routing.PER_NODE)
    swapped = swap_op()
    with pytest.raises(PreconditionError):
        boxes_from_ultrametric(space, swapped)
    seq = boxes_from_ultrametric(space, op)
    assert verify_box_sequence(op, seq).ok
    # one box per distinct ball radius about the fixed point
    fixed = seq.fixed_point
    distinct = {frozenset(
        e for e in space.elements
        if space.distance_index(fixed, e) <= r)
        for r in range(len(space.scale))}
    assert len(seq.boxes) == len(distinct)


def test_boxes_from_ultrametric_rejects_a_ball_that_is_not_a_box():
    # only (0, 0) and (1, 1) are at distance 1: the radius-1 ball about
    # the fixed point (0, 0) is that diagonal pair, which no box equals
    def dist(m, n):
        if m == n:
            return "0"
        return "1" if {m, n} == {(0, 0), (1, 1)} else "2"

    space = FiniteUltrametricSpace(STATES22, RadiusScale(("0", "1", "2")),
                                   dist)
    assert check_axioms(space).ok
    with pytest.raises(PreconditionError, match="not a box"):
        boxes_from_ultrametric(space, constant_op())


def test_ultrametric_from_boxes_distances():
    seq = BoxSequence(((("a",),), (("a", "b"),)), ("a",))
    space = ultrametric_from_boxes(seq)
    assert space.distance(("a",), ("b",)) == 1
    assert space.distance(("a",), ("a",)) == 0
    assert check_axioms(space).ok


def test_ultrametric_from_boxes_rejects_non_nested():
    seq = BoxSequence.__new__(BoxSequence)  # bypass normalization on purpose
    object.__setattr__(seq, "boxes", ((("a",),), (("b",),)))
    object.__setattr__(seq, "fixed_point", ("a",))
    with pytest.raises(PreconditionError):
        ultrametric_from_boxes(seq)


def _census_certified_ops():
    ops = []
    for images in itertools.product(STATES22, repeat=4):
        table = dict(zip(STATES22, images))
        op = op_from_map(table)
        seq = search_box_sequence(op)
        if seq is not None:
            ops.append((op, seq))
    return ops


def test_round_trip_on_census_certified():
    ops = _census_certified_ops()
    assert ops, "the census must certify someone"
    for op, seq in ops:
        space = ultrametric_from_boxes(seq)
        # balls about the fixed point reproduce the boxes exactly
        balls = []
        for r in range(len(space.scale)):
            members = ball_from_labels(space, seq.fixed_point, r)
            assert members == {
                e for e in space.elements
                if space.distance_index(seq.fixed_point, e) <= r}
            if members not in balls:
                balls.append(members)
        expected = [frozenset(box_members(b)) for b in seq.boxes]
        assert balls == expected
        again = boxes_from_ultrametric(space, op)
        assert again.boxes == seq.boxes
        assert again.fixed_point == seq.fixed_point
        assert verify_box_sequence(op, again).ok


def test_seeded_product_operator_roundtrip():
    rng = random.Random(13)
    # a random strictly contracting operator: send everything one box inward
    chain = [((0,), (0,)), ((0, 1), (0,)), ((0, 1), (0, 1))]
    mapping = {}
    for state in STATES22:
        depth = min(i for i, box in enumerate(chain)
                    if all(v in c for v, c in zip(state, box)))
        target_box = chain[max(depth - 1, 0)]
        mapping[state] = tuple(rng.choice(c) for c in target_box)
    op = op_from_map(mapping)
    seq = search_box_sequence(op)
    assert seq is not None
    assert verify_box_sequence(op, seq).ok


def test_certify_ring3_operator(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    cert = certify_aco(op, schedules=10, horizon=64)
    assert cert.certified
    assert cert.sampling["converged"] == cert.sampling["runs"]
    fixed = routing.components_to_state(cert.box_sequence.fixed_point)
    assert fixed == frozenset({("d",), ("1", "d"), ("2", "d")})


def test_certify_refutes_identity():
    cert = certify_aco(identity_op(), schedules=2, horizon=16)
    assert not cert.certified
    assert len(cert.refutation["fixed_points"]) == 4


def test_certify_refutes_oscillator(disagree_repaired):
    op = routing.decompose(disagree_repaired, routing.PER_NODE)
    cert = certify_aco(op, schedules=2, horizon=16)
    assert not cert.certified


def test_census_agreement():
    census = equivalence_census()
    assert census.total == 256
    assert census.agreements == 256
    assert not census.mismatches
    assert census.aco_count > 0


def test_sampling_necessity_every_start_hundred_seeds(single_arc):
    # certified operators must converge from every start under every
    # sampled schedule; run the full campaign on two cheap operators
    for op in (constant_op(), routing.decompose(single_arc,
                                                routing.PER_NODE)):
        cert = certify_aco(op, schedules=100, horizon=64)
        assert cert.certified
        assert cert.sampling["runs"] == 100 * op.size()
        assert cert.sampling["converged"] == cert.sampling["runs"]


def test_certify_counts_runs_that_hit_the_horizon():
    # the quiet window (staleness 5 + fairness 8) cannot fit in 3 ticks
    cert = certify_aco(constant_op(), schedules=4, horizon=3)
    assert cert.certified
    s = cert.sampling
    assert (s["runs"], s["converged"], s["horizon_exhausted"]) == (16, 0, 16)


def test_certify_records_activation_prob():
    cert = certify_aco(constant_op(), schedules=3, horizon=30,
                       activation_prob=1.0, staleness=1, window=1)
    assert cert.sampling["activation_prob"] == 1.0
    assert cert.sampling["converged"] == cert.sampling["runs"] == 12


def test_certify_raises_when_a_run_converges_elsewhere(monkeypatch):
    def wrong_final(op, starts, schedule):
        return [([start, (1, 1)], 14, "converged", 1) for start in starts]

    monkeypatch.setattr(iteration, "_lockstep", wrong_final)
    with pytest.raises(SemanticsError, match=r"converged to \(1, 1\)"):
        certify_aco(constant_op(), schedules=2, horizon=16)


def test_search_ultrametric_raises_when_the_classifier_disagrees(monkeypatch):
    assert search_ultrametric(constant_op()) is not None
    # the constant map contracts strictly under any metric, but two values
    # of component 0 at height 0 are no metric
    monkeypatch.setattr(aco, "_greatest_heights",
                        lambda sizes, sigma: ((0, 0, 0, 1), 0, 1))
    with pytest.raises(SemanticsError, match="disagrees with the height "
                       "search: two values of one component at height 0"):
        search_ultrametric(constant_op())


@pytest.mark.parametrize("sigma, heights, message", [
    ((0, 0, 1, 0), (0, 1, 0, 2), "not a contraction at radius 1"),
    ((0, 0, 0, 2), (0, 1, 0, 1), "not strict on the orbit of state 3"),
], ids=["contraction", "orbit"])
def test_confirm_names_the_condition_that_fails(sigma, heights, message):
    # (1, 0) is at distance 1 from (0, 0) and its image (0, 1) at 2; state
    # 3 moves to 2 and 2 to 0, each at distance 1
    with pytest.raises(SemanticsError, match=message):
        aco._confirm(DOM22, sigma, heights)


def test_confirm_rejects_two_zero_heights_the_classifier_passes():
    # the classifier reads two values of one component at height 0 as a
    # pseudometric, (0, 0) and (1, 0) at distance 0, and the constant map
    # still contracts strictly under it; such heights are no metric
    domains = ((0, 1, 2), (0, 1))
    sigma, heights = (4,) * 6, (0, 0, 1, 0, 1)
    space = witness_space(domains, heights)
    assert classify_contraction(space, np.array(sigma)).qualifies()
    with pytest.raises(SemanticsError, match="two values of one component"):
        aco._confirm(domains, sigma, heights)


def _two_zeros(sizes, heights) -> bool:
    return any(heights[lo:hi].count(0) > 1 for lo, hi in itertools.pairwise(
        itertools.accumulate(sizes, initial=0)))


@settings(max_examples=300)
@given(st.data())
def test_confirm_accepts_exactly_the_metrics_the_classifier_qualifies(data):
    domains = data.draw(st.sampled_from((
        DOM22, ((0, 1, 2), (0, 1)), ((0, 1),) * 3, ((0, 1, 2),) * 2,
        ((0, 1), (0,), (0, 1, 2)))))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, _ = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
    else:
        table = {s: data.draw(st.sampled_from(states)) for s in states}
    sigma = tuple(states.index(table[s]) for s in states)
    sizes = aco._metric_sizes(domains)
    values = sum(sizes)
    greatest = aco._greatest_heights(sizes, sigma)[0]
    kind = data.draw(st.sampled_from(("greatest", "random", "two zeros")))
    if kind == "greatest" and greatest is not None:
        heights = greatest
    else:
        heights = data.draw(st.lists(st.integers(0, values - 1),
                                     min_size=values, max_size=values))
        if kind == "two zeros":
            # the first two values of a component
            lo = data.draw(st.sampled_from(list(itertools.accumulate(
                sizes[:-1], initial=0))))
            heights[lo] = heights[lo + 1] = 0
        heights = tuple(heights)
    try:
        aco._confirm(domains, sigma, heights)
        accepted = True
    except SemanticsError:
        accepted = False
    qualifies = classify_contraction(witness_space(domains, heights),
                                     np.array(sigma)).qualifies()
    # two values of one component at height 0 are no metric, whatever the
    # classifier makes of them
    assert accepted == (qualifies and not _two_zeros(sizes, heights))
    if heights == greatest:
        assert accepted


def test_certificate_json_shape():
    cert = certify_aco(constant_op(), schedules=2, horizon=16)
    doc = cert.to_json_dict()
    assert doc["verdict"] == "certified"
    assert doc["certificate"]["fixed_point"] == [0, 0]
    assert doc["sampling"]["converged"] == doc["sampling"]["runs"]


@pytest.mark.parametrize("schedules", [0, -1])
def test_certify_rejects_fewer_than_one_schedule(schedules):
    op = constant_op()
    with pytest.raises(ScheduleRejectedError):
        certify_aco(op, schedules=schedules)
    assert op.evaluations == 0  # rejected before any search


def test_certify_stats_count_the_sampled_runs():
    op = constant_op()
    cert = certify_aco(op, schedules=3, horizon=30)
    stats = cert.to_json_dict()["stats"]
    assert stats["runs"] == cert.sampling["runs"] == 12
    # every state was evaluated once, by the fixed-point census
    assert stats["operator_evaluations"] == op.evaluations == 4
