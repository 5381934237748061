import glob
import itertools
import logging
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acokit import routing
from acokit.errors import (
    PreconditionError,
    PreferenceCycleError,
    ScheduleRejectedError,
    SizeLimitError,
)
from acokit.iteration import run_async, sample_schedule
from acokit.routing import (
    PER_NEXTHOP,
    PER_NODE,
    PER_PATH,
    check_strictly_inflationary,
    components_to_state,
    decompose,
    format_path,
    make_instance,
    sigma_step,
    solve,
    state_distance,
    state_to_components,
    verify_strict_contraction,
)
from acokit.ultrametric import check_axioms, check_isosceles
from acokit.util import canonical_key
from conftest import corpus_path, gated_ring
from pair_oracles import (selection_round_by_definition, state_space,
                          strict_contraction_by_pairs)

EPS = ("d",)
P1D = ("1", "d")
P2D = ("2", "d")
P12D = ("1", "2", "d")
P21D = ("2", "1", "d")
RING3_FIXED = frozenset({EPS, P1D, P2D})


def test_paths_destination_only():
    inst = make_instance(["d"], "d", [])
    assert inst.paths == (("d",),)


def test_paths_ring3(ring3):
    assert set(ring3.paths) == {EPS, P1D, P2D, P12D, P21D}


def test_paths_multi2(multi2):
    assert set(multi2.paths) == {
        EPS, P1D, P2D, ("3", "1", "d"), ("3", "2", "d")}


def test_heights_by_direct_count(ring3):
    # independent oracle: count weakly-worse paths with raw hop comparisons
    paths = ring3.paths
    hops = {p: len(p) - 1 for p in paths}
    expected = {
        p: sum(1 for q in paths if hops[p] <= hops[q]) for p in paths}
    assert ring3.path_heights == expected
    assert expected[EPS] == 5
    assert expected[P1D] == expected[P2D] == 4
    assert expected[P12D] == expected[P21D] == 2


def test_heights_single_arc(single_arc):
    assert single_arc.path_heights == {EPS: 2, P1D: 1}


def _heights_by_leq(inst):
    """The definition: per path, one ``leq`` call for every path."""
    leq = inst.preference.leq
    return {p: sum(1 for q in inst.paths if leq(p, q)) for p in inst.paths}


def test_heights_are_the_leq_counts_on_the_corpus():
    instances = _loadable_corpus() + [
        make_instance(nodes, "d", arcs) for nodes, arcs in
        (gated_ring(5), gated_ring(6), _ring(6))]
    assert len(instances) == 7
    for inst in instances:
        heights = inst.path_heights
        assert heights == _heights_by_leq(inst)
        assert list(heights) == list(inst.paths)
        assert all(type(h) is int for h in heights.values())


def test_height_monotone_under_strict_preference(ring3):
    h = ring3.path_heights
    pref = ring3.preference
    for p, q in itertools.permutations(ring3.paths, 2):
        if pref.lt(p, q):
            assert h[p] > h[q]


def test_state_distance_does_not_hash_the_instance(ring3, monkeypatch):
    # the heights live on the instance; hashing it on every call would
    # cost time that grows with the preference matrix, paths squared
    def refuse(self):
        raise AssertionError("the instance was hashed")

    monkeypatch.setattr(routing.SppInstance, "__hash__", refuse)
    assert state_distance(ring3, {EPS}, {EPS, P1D}) == 4
    assert ring3.path_heights is ring3.path_heights


def test_inflationary_ring3_and_single_arc(ring3, single_arc):
    assert check_strictly_inflationary(ring3).ok
    assert check_strictly_inflationary(single_arc).ok


def test_inflationary_fails_on_repaired_disagree(disagree_repaired):
    report = check_strictly_inflationary(disagree_repaired)
    assert not report.ok
    arc, path = report.witness
    assert arc == ("1", "2") and path == P2D


def test_preference_cycle_rejected():
    pairs = [(P12D, P1D), (P21D, P2D), (P2D, P12D), (P1D, P21D)]
    with pytest.raises(PreferenceCycleError) as exc:
        make_instance(["d", "1", "2"], "d",
                      [("1", "d"), ("2", "d"), ("1", "2"), ("2", "1")],
                      preference=pairs)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert len(cycle) == 5


def test_declared_ties_are_not_cycles():
    # both directions declared: a tie, accepted
    pairs = [(P1D, P2D), (P2D, P1D)]
    inst = make_instance(["d", "1", "2"], "d",
                         [("1", "d"), ("2", "d"), ("1", "2"), ("2", "1")],
                         preference=pairs)
    assert inst.preference.leq(P1D, P2D) and inst.preference.leq(P2D, P1D)


def test_sigma_step_examples(ring3, multi2):
    empty = frozenset()
    first = sigma_step(ring3, empty)
    assert first == frozenset({EPS})
    partial = frozenset({EPS, P2D})
    second = sigma_step(ring3, partial)
    # node 1 picks the direct path over the two-hop alternative
    assert {p for p in second if p[0] == "1"} == {P1D}
    state = frozenset({EPS, P1D, P2D})
    third = sigma_step(multi2, state)
    assert {p for p in third if p[0] == "3"} == {
        ("3", "1", "d"), ("3", "2", "d")}


def test_sigma_rejects_non_permitted_state(ring3):
    with pytest.raises(PreconditionError):
        sigma_step(ring3, frozenset({("9", "d")}))


@st.composite
def policy_instances(draw):
    """1-4 nodes besides ``d`` and a random arc subset; half the time a
    restricted ``permitted``, half the time explicit preference pairs,
    ties included; at most 10 permitted paths."""
    n = draw(st.integers(min_value=1, max_value=4))
    nodes = ["d"] + [str(i) for i in range(1, n + 1)]
    arcs = [(u, v) for u in nodes[1:] for v in nodes
            if u != v and draw(st.booleans())]
    paths = make_instance(nodes, "d", arcs).paths
    permitted = None
    if draw(st.booleans()):
        routes = [p for p in paths if len(p) > 1]
        chosen = draw(st.lists(st.sampled_from(routes), max_size=9,
                               unique=True)) if routes else []
        permitted = {v: [p for p in chosen if p[0] == v] for v in nodes[1:]}
    preference = "hop-count"
    if draw(st.booleans()):
        preference = draw(st.lists(
            st.tuples(st.sampled_from(paths), st.sampled_from(paths)),
            max_size=12))
    try:
        inst = make_instance(nodes, "d", arcs, permitted, preference)
    except PreferenceCycleError:
        assume(False)
    assume(len(inst.all_permitted) <= 10)
    return inst


@given(policy_instances())
def test_heights_are_the_leq_counts_under_preference_pairs(inst):
    # half of the instances declare explicit preference pairs, ties included
    assert inst.path_heights == _heights_by_leq(inst)


@given(policy_instances())
def test_sigma_step_matches_definition_on_every_state(inst):
    """``sigma_step``, and the rule table's ``step`` and ``images()`` on
    every mask, equal the frozenset selection round."""
    universe, bit = inst.all_permitted, inst.path_bit
    rules = inst.selection_rule
    images = rules.images()
    for mask in range(1 << len(universe)):
        state = frozenset(p for p in universe if mask & bit[p])
        expected = selection_round_by_definition(inst, state)
        assert sigma_step(inst, state) == expected
        assert rules.step(mask) == sum(bit[p] for p in expected)
        assert images[mask] == rules.step(mask)


def test_state_distance_examples(ring3):
    assert state_distance(ring3, frozenset(), frozenset()) == 0
    assert state_distance(ring3, frozenset(), RING3_FIXED) == 5
    a = frozenset({EPS, P12D})
    b = frozenset({EPS})
    assert state_distance(ring3, a, b) == 2


def test_state_space_matches_state_distance(ring3):
    space = state_space(ring3, PER_NODE)
    for m in space.elements[:12]:
        for n in space.elements[:12]:
            assert space.distance(m, n) == state_distance(
                ring3, components_to_state(m), components_to_state(n))


def test_state_metric_passes_axioms(ring3, multi2):
    for inst in (ring3, multi2):
        for granularity in (PER_NODE, PER_PATH):
            space = state_space(inst, granularity)
            assert check_axioms(space).ok
            assert check_isosceles(space).ok


def test_strict_contraction_exhaustive(ring3, multi2, single_arc):
    for inst in (ring3, multi2, single_arc):
        report = verify_strict_contraction(inst)
        assert report.ok, report.witness


def test_strict_contraction_counterexample(disagree_repaired):
    report = verify_strict_contraction(disagree_repaired)
    assert not report.ok
    m, n = report.witness
    # re-check the witness directly against the definitions
    d_before = state_distance(disagree_repaired, m, n)
    d_after = state_distance(
        disagree_repaired,
        sigma_step(disagree_repaired, m),
        sigma_step(disagree_repaired, n))
    assert d_after >= d_before > 0


def test_strict_contraction_witness_is_smallest_violating_pair(
        disagree_repaired):
    ok, expected, pairs = strict_contraction_by_pairs(disagree_repaired)
    assert not ok
    report = verify_strict_contraction(disagree_repaired)
    assert (report.witness, report.pairs_checked) == (expected, pairs)


def _ring(n):
    """Bidirectional ring through ``d`` and ``n - 1`` other nodes."""
    cycle = ["d"] + [str(i) for i in range(1, n)]
    arcs = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        arcs |= {(a, b), (b, a)}
    return cycle, sorted(arcs)


@settings(max_examples=30)
@given(st.sampled_from([(_ring, n) for n in (2, 3, 4)]
                       + [(gated_ring, n) for n in (1, 2, 3, 4)]),
       st.sampled_from(["hop-count", "longest-first", "all-tied"]))
def test_strict_contraction_matches_pair_oracle(shape, preference):
    build, n = shape
    nodes, arcs = build(n)
    paths = make_instance(nodes, "d", arcs).paths
    # all-tied paths share one height, so the round contracts strictly
    # only if it maps every state to one image, and weakly whatever it is
    pairs = {"hop-count": "hop-count",
             "longest-first": [(p, q) for p in paths for q in paths
                               if len(p) > len(q)],
             "all-tied": [(p, q) for p in paths for q in paths]}
    inst = make_instance(nodes, "d", arcs, preference=pairs[preference])
    assert len(inst.all_permitted) <= 8
    report = verify_strict_contraction(inst)
    assert (report.ok, report.witness, report.pairs_checked) == \
        strict_contraction_by_pairs(inst)


def test_strict_contraction_logs_counters(ring3, caplog):
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        verify_strict_contraction(ring3)
    # 5 permitted paths at heights 2, 4 and 5
    assert caplog.messages == [
        "verify_strict_contraction: states=32 radii=3 evaluations=32 "
        "verdict=certified"]


def test_strict_contraction_size_limit():
    nodes = ["d"] + [str(i) for i in range(1, 6)]
    arcs = []
    for i in range(1, 6):
        arcs.append((str(i), "d"))
        for j in range(1, 6):
            if i != j:
                arcs.append((str(i), str(j)))
    inst = make_instance(nodes, "d", arcs)
    with pytest.raises(SizeLimitError):
        verify_strict_contraction(inst)


def test_decompose_processor_counts(ring3):
    assert decompose(ring3, PER_NODE).processors == 3
    assert decompose(ring3, PER_PATH).processors == 5
    nexthop = decompose(ring3, PER_NEXTHOP)
    # groups: (d,), (1,2), (1,d), (2,1), (2,d)
    assert nexthop.processors == 5
    with pytest.raises(PreconditionError):
        decompose(ring3, "per-galaxy")


@pytest.mark.parametrize("granularity", [PER_NODE, PER_NEXTHOP, PER_PATH])
def test_assembled_operator_equals_sigma_step(ring3, multi2, disagree_repaired,
                                              granularity):
    """On every state of three corpus instances (5 paths each), and on
    2,000 seeded random states of the 2x3 grid's 2 ** 18."""
    for inst in (ring3, multi2, disagree_repaired, _grid(2, 3)):
        op = decompose(inst, granularity)
        universe = inst.all_permitted
        masks = range(1 << len(universe))
        if len(universe) > 5:
            masks = random.Random(7).sample(masks, 2000)
        for mask in masks:
            state = frozenset(
                p for k, p in enumerate(universe) if mask >> k & 1)
            comps = state_to_components(inst, granularity, state)
            assert components_to_state(op.apply(comps)) == \
                sigma_step(inst, state)


@pytest.mark.parametrize("value", [frozenset({("9", "d")}),
                                   frozenset({P1D}), (P2D,)])
def test_an_unknown_component_value_is_refused(ring3, value):
    # a path of no node, node 1's path, node 2's path outside a frozenset
    op = decompose(ring3, PER_NODE)
    d, _, n2 = state_to_components(ring3, PER_NODE, frozenset())
    with pytest.raises(PreconditionError, match="outside domain"):
        op.apply((d, n2, value))


def _sorted_domains(instance, granularity):
    """Each group's subsets sorted by size, then by canonical key."""
    return tuple(
        tuple(sorted((frozenset(comb) for size in range(len(members) + 1)
                      for comb in itertools.combinations(members, size)),
                     key=lambda s: (len(s), canonical_key(s))))
        for _, members in routing._groups(instance, granularity))


def _loadable_corpus():
    out = []
    for path in sorted(glob.glob(corpus_path("*.json"))):
        try:
            out.append(routing.load_instance(path))
        except PreferenceCycleError:
            pass
    return out


@pytest.mark.parametrize("granularity", [PER_NODE, PER_NEXTHOP, PER_PATH])
def test_domains_come_by_size_then_canonically(granularity):
    generated = [make_instance(nodes, "d", arcs)
                 for nodes, arcs in map(_ring, (3, 4, 6, 9))]
    generated += [_grid(2, 2), _grid(2, 3), _grid(3, 3)]
    for inst in _loadable_corpus() + generated:
        assert decompose(inst, granularity).domains == \
            _sorted_domains(inst, granularity)


def test_granularity_independent_fixed_points(ring3, multi2):
    for inst in (ring3, multi2):
        finals = set()
        for granularity in (PER_NODE, PER_NEXTHOP, PER_PATH):
            res = solve(inst, "sync", granularity=granularity)
            assert res.status == "converged"
            finals.add(res.fixed_point)
        assert len(finals) == 1


def test_solve_sync_examples(ring3, multi2):
    res = solve(ring3, "sync")
    assert res.status == "converged"
    assert res.fixed_point == RING3_FIXED
    assert res.stable
    assert res.trajectory.converged_at <= 3
    res2 = solve(multi2, "sync")
    assert {p for p in res2.fixed_point if p[0] == "3"} == {
        ("3", "1", "d"), ("3", "2", "d")}


def test_solve_refuses_non_inflationary(disagree_repaired):
    with pytest.raises(PreconditionError):
        solve(disagree_repaired, "sync")


def test_solve_forced_oscillation(disagree_repaired):
    start = frozenset({EPS, P1D, P2D})
    res = solve(disagree_repaired, "sync", start=start, force=True)
    assert res.status == "cycle"
    assert set(res.cycle) == {
        frozenset({EPS, P1D, P2D}),
        frozenset({EPS, P12D, P21D}),
    }
    # the same oscillation is reached from the empty state
    res2 = solve(disagree_repaired, "sync", force=True)
    assert res2.status == "cycle"
    assert set(res2.cycle) == set(res.cycle)


def test_solve_async_small_campaign(ring3):
    res = solve(ring3, "async", schedules=5, seed=11, horizon=120)
    assert res.status == "converged"
    assert res.fixed_point == RING3_FIXED
    assert all(r.status == "converged" for r in res.runs)


def test_async_agreement_per_nexthop(ring3):
    op = decompose(ring3, PER_NEXTHOP)
    start = state_to_components(ring3, PER_NEXTHOP, frozenset())
    for seed in range(20):
        sched = sample_schedule(op.processors, 200, seed,
                                max_staleness=5, fairness_window=8)
        traj = run_async(op, start, sched)
        assert traj.status == "converged"
        assert components_to_state(traj.final) == RING3_FIXED


def test_async_intermediate_states_may_hold_dominated_pairs(ring3):
    # the fixed point itself never keeps a dominated path
    res = solve(ring3, "sync")
    fixed = res.fixed_point
    for i in ring3.nodes:
        if i == ring3.dest:
            continue
        held = {p for p in fixed if p[0] == i}
        candidates = []
        for j in ring3.arcs_from[i]:
            for p in [q for q in fixed if q[0] == j]:
                if i not in p and (i,) + p in ring3.permitted_map[i]:
                    candidates.append((i,) + p)
        for p in held:
            assert not any(ring3.preference.lt(q, p) for q in candidates)


def test_destination_anchoring(ring3):
    state = frozenset()
    for _ in range(4):
        state = sigma_step(ring3, state)
        assert EPS in state


def test_permitted_filtering():
    inst = make_instance(
        ["d", "1", "2"], "d",
        [("1", "d"), ("2", "d"), ("1", "2"), ("2", "1")],
        permitted={"1": [P1D]})
    assert inst.permitted_map["1"] == {P1D}
    assert inst.permitted_map["2"] == {P2D, P21D}
    op = decompose(inst, PER_PATH)
    assert op.processors == 5  # all enumerated paths keep a processor
    sizes = sorted(len(dom) for dom in op.domains)
    assert sizes == [1, 2, 2, 2, 2]  # non-permitted path pinned to absent


def test_format_path():
    assert format_path(EPS) == "eps"
    assert format_path(P12D) == "(1 2 d)"


@st.composite
def random_instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    nodes = ["d"] + [str(i) for i in range(1, n + 1)]
    arcs = []
    for u in nodes:
        for v in nodes:
            if u != v and u != "d" and draw(st.booleans()):
                arcs.append((u, v))
    return make_instance(nodes, "d", arcs)


@given(random_instances())
def test_hop_count_instances_always_strictly_inflationary(inst):
    assert check_strictly_inflationary(inst).ok
    if len(inst.all_permitted) <= 8:
        assert verify_strict_contraction(inst).ok


def test_solve_async_rejects_fewer_than_one_schedule(disagree_repaired):
    # rejected before the inflationary check, which this instance fails
    for schedules in (0, -1):
        with pytest.raises(ScheduleRejectedError):
            solve(disagree_repaired, "async", schedules=schedules)
    assert solve(disagree_repaired, "sync", schedules=0,
                 force=True).status == "cycle"


def _grid(rows, cols):
    """Bidirectional grid with the destination ``d`` in a corner."""
    label = {(i, j): "d" if (i, j) == (0, 0) else f"n{i}{j}"
             for i in range(rows) for j in range(cols)}
    arcs = []
    for (i, j), u in label.items():
        for v in (label.get((i + 1, j)), label.get((i, j + 1))):
            if v is not None:
                arcs += [(u, v), (v, u)]
    return make_instance(list(label.values()), "d", arcs)


def test_a_processor_over_the_path_cap_is_refused_before_any_subset():
    # the busiest node of a 3x4 grid has 38 permitted paths, so 2 ** 38
    # subsets; the cap is checked before the first one is built
    grid = _grid(3, 4)
    assert max(len(paths) for _, paths in grid.permitted) == 38
    for granularity in (PER_NODE, PER_NEXTHOP):
        with pytest.raises(SizeLimitError, match="capped at 16 paths"):
            decompose(grid, granularity)
        with pytest.raises(SizeLimitError):
            state_space(grid, granularity)
    with pytest.raises(SizeLimitError):
        solve(grid, "async", schedules=1)
    op = decompose(grid, PER_PATH)
    assert op.processors == len(grid.paths)


def test_the_3x3_grid_stays_under_the_path_cap():
    grid = _grid(3, 3)
    assert max(len(paths) for _, paths in grid.permitted) == 12
    assert solve(grid).status == "converged"
