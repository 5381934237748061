import itertools
import logging
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acokit import aco, iteration, routing
from acokit.aco import (
    BoxSequence,
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
    NOT_CONTRACTION,
    ContractionReport,
    FiniteUltrametricSpace,
    RadiusScale,
    check_axioms,
    classify_contraction,
)
from conftest import ball_from_labels, chain_table
from pair_oracles import search_ultrametric_by_pairs

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


def test_box_census_3x2():
    # every self-map of the 3x2 domain through both searches, never
    # sampled down: every product height metric found has a box chain,
    # but not every box chain has one
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
        metric = search_ultrametric(op) is not None
        if metric:
            found += 1
            assert seq is not None
        if (seq is not None) != metric:
            differ.append((tuple(sorted(table.items())), seq is not None,
                           metric))
    assert (total, certified, found) == (46_656, 1_548, 1_116)
    # the batched census reads the same verdicts off every table
    census = equivalence_census(domains)
    assert (census.total, census.agreements, census.aco_count) == \
        (46_656, 46_224, 1_116)
    assert len(census.mismatches) == 432
    assert {m[1:] for m in census.mismatches} == {(True, False)}
    assert list(census.mismatches) == differ


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
    certified = aco._batch_hulls(sizes, images)
    rows = aco._batch_metric(sizes, images)
    for n, table in enumerate(tables):
        op = DecomposedOperator.from_table(domains, table)
        assert certified[n] == (search_box_sequence(op) is not None)
        assert (rows[n] >= 0) == (search_ultrametric(op) is not None)


def test_equivalence_census_raises_when_the_classifier_disagrees(
        monkeypatch):
    monkeypatch.setattr(aco, "classify_contraction",
                        lambda space, sigma: ContractionReport(
                            NOT_CONTRACTION, None))
    with pytest.raises(SemanticsError, match="disagrees"):
        equivalence_census()


def test_equivalence_census_raises_when_a_recheck_contradicts_the_batch(
        monkeypatch):
    # a box side that certifies nothing disagrees with the metric side
    # on the 28 operators it finds, and the single-operator box search
    # certifies each of them
    def no_chains(sizes, images):
        return np.zeros(len(images), dtype=bool)

    monkeypatch.setattr(aco, "_batch_hulls", no_chains)
    with pytest.raises(SemanticsError, match="single-operator searches"):
        equivalence_census()


@pytest.mark.parametrize("domains, message", [
    (((), (0, 1)), "nonempty domain"),
    ((), "nonempty domain"),
    (((0, 0), (1, 2)), "distinct"),
])
def test_equivalence_census_rejects_bad_domains(domains, message):
    with pytest.raises(PreconditionError, match=message):
        equivalence_census(domains)


@pytest.mark.parametrize("cells", [1, 5_000, 100_000])
def test_equivalence_census_is_the_same_in_every_chunking(monkeypatch, cells):
    domains = ((0, 1), (0,), (0, 1))
    expected = equivalence_census(domains)
    chunks = []
    batch = aco._batch_metric

    def recording(sizes, images):
        chunks.append(len(images))
        return batch(sizes, images)

    monkeypatch.setattr(aco, "BATCH_CELLS", cells)
    monkeypatch.setattr(aco, "_batch_metric", recording)
    assert equivalence_census(domains) == expected
    # 115 rows times 6 state pairs per operator, and at least one operator
    chunk = max(1, cells // (115 * 6))
    assert aco._chunk_size((2, 2), 115) == chunk
    assert chunks == [chunk] * (256 // chunk) + [256 % chunk] * (
        256 % chunk > 0)


def test_search_ultrametric_examples():
    found = search_ultrametric(constant_op())
    assert found is not None
    assert classify_contraction(found, constant_op().apply).qualifies()
    assert search_ultrametric(swap_op()) is None
    # multiple fixed points disqualify regardless of metric
    assert search_ultrametric(identity_op()) is None


def test_search_ultrametric_logs_counters(caplog):
    # one fixed point and a 2-cycle, which no metric makes strict on orbits
    cycling = op_from_map({(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1),
                           (1, 1): (0, 0)})
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        search_ultrametric(constant_op())
        search_ultrametric(swap_op())
        search_ultrametric(cycling)
    # 115 canonical assignments of heights 0..3 to the four values of 2x2
    assert caplog.messages == [
        "search_ultrametric: assignments=115 verdict=found",
        "classify_contraction: states=4 radii=2 evaluations=4 "
        "verdict=strict-contraction",
        "search_ultrametric: fixed_points=2 gate=unique-fixed-point",
        "search_ultrametric: assignments=115 verdict=none"]


def heights_found(op):
    """search_ultrametric's answer in the shape of
    search_ultrametric_by_pairs: scale values and per-component
    distance tables, here read off the component spaces."""
    space = search_ultrametric(op)
    if space is None:
        return None
    return space.scale.values, tuple(
        comp.index_matrix().tolist() for comp in space.components)


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
    # the reference enumerates heights for every value, one-value
    # components included
    states = list(itertools.product(*domains))
    found = 0
    for images in itertools.product(states, repeat=len(states)):
        op = DecomposedOperator.from_table(domains, dict(zip(states, images)))
        expected = heights_expected(op)
        assert heights_found(op) == expected
        found += expected is not None
    assert found > 0


def test_search_ultrametric_leaves_one_value_components_out_of_the_family(
        caplog):
    domains = ((0,), (0,), (0,), (0,), (0, 1, 2, 3, 4))
    op = DecomposedOperator(domains, lambda s: s[:4] + (max(0, s[4] - 1),))
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        assert search_ultrametric(op) is not None
    # the family of (5,): the full one of (1, 1, 1, 1, 5) has 978,432 rows
    assert "search_ultrametric: assignments=796 verdict=found" \
        in caplog.messages


def test_search_ultrametric_cap_is_checked_before_the_search(monkeypatch):
    domains = ((0, 1, 2, 3, 4), (0, 1))
    op = DecomposedOperator.from_table(
        domains, {s: (0, 0) for s in itertools.product(*domains)})

    def build(*args):
        raise AssertionError("height assignments built past the cap")

    monkeypatch.setattr(aco, "_canonical_heights", build)
    # 10 states, heights 0 .. 9 on 7 values: 10**7 assignments
    with pytest.raises(SizeLimitError, match="10000000 height assignments"):
        search_ultrametric(op)


def test_equivalence_census_builds_the_height_family_once(monkeypatch):
    aco._height_family.cache_clear()
    calls = []
    build = aco._canonical_heights

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(aco, "_canonical_heights", counting)
    assert equivalence_census().ok
    assert calls == [((2, 2), 3)]


def test_height_family_is_shared_read_only():
    heights, pair_dist, a, b = aco._height_family((2, 2))
    assert aco._height_family((2, 2))[1] is pair_dist
    with pytest.raises(ValueError, match="read-only"):
        pair_dist[0, 0, 1] = 0


def test_search_ultrametric_gate_runs_before_the_cap():
    # 10 states on 7 values is over the cap, but the identity has ten
    # fixed points and is turned away before the family is asked for
    domains = ((0, 1, 2, 3, 4), (0, 1))
    aco._height_family.cache_clear()
    identity = DecomposedOperator(domains, lambda s: s)
    assert search_ultrametric(identity) is None
    constant = DecomposedOperator(domains, lambda s: (0, 0))
    with pytest.raises(SizeLimitError):
        search_ultrametric(constant)
    assert aco._height_family.cache_info().currsize == 0


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
            space = search_ultrametric(constant(domains))
            assert [[type(v) for v in comp.elements]
                    for comp in space.components] == \
                [[type(v) for v in dom] for dom in domains]
            assert [type(v) for v in space.elements[-1]] == \
                [type(dom[-1]) for dom in domains]


def test_boxes_from_ultrametric_requires_qualifying_map(ring3):
    space = routing.state_space(ring3, routing.PER_NODE)
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
    monkeypatch.setattr(aco, "classify_contraction",
                        lambda space, sigma: ContractionReport(
                            NOT_CONTRACTION, None))
    with pytest.raises(SemanticsError, match="disagrees"):
        search_ultrametric(constant_op())


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
