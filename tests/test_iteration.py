import contextlib
import itertools
import logging
import math
import tracemalloc
from unittest import mock

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acokit import iteration
from acokit.errors import (PreconditionError, ScheduleRejectedError,
                           SizeLimitError)
from acokit.iteration import (
    IMAGES_MAX_WIDTH,
    BitRules,
    DecomposedOperator,
    Schedule,
    campaign,
    campaign_stats,
    check_admissible_prefix,
    load_operator,
    load_schedule,
    make_synchronous_schedule,
    run_async,
    run_sync,
    sample_schedule,
)
from acokit import routing

from conftest import BAD_MAP_INPUTS, chain_table
from pair_oracles import (
    domain_check_by_typed_sets,
    from_table_by_checks,
    run_async_by_definition,
    sampled_ticks_by_choices,
    tick_violation_by_scan,
)


def constant_op():
    dom = ((0, 1), (0, 1))
    return DecomposedOperator.from_table(
        dom, {s: (0, 0) for s in [(0, 0), (0, 1), (1, 0), (1, 1)]})


def swap_op():
    dom = ((0, 1),) * 2
    return DecomposedOperator.from_table(
        dom, {(a, b): (b, a) for a in (0, 1) for b in (0, 1)})


def identity_op(k=2):
    dom = ((0, 1),) * k
    return DecomposedOperator(dom, lambda s: s)


def test_from_table_validates_totality():
    with pytest.raises(PreconditionError):
        DecomposedOperator.from_table(((0, 1),), {(0,): (0,)})
    with pytest.raises(PreconditionError):
        DecomposedOperator.from_table(((0, 1),), {(0,): (2,), (1,): (0,)})


def test_domain_checks_compare_types():
    op = constant_op()
    op.check_state((1, 1))
    with pytest.raises(PreconditionError, match="True not in component"):
        op.check_state((True, 1))
    with pytest.raises(PreconditionError, match="produced 0.0 outside"):
        DecomposedOperator.from_table(((0, 1),), {(0,): (0.0,), (1,): (0,)})


# equal values of different types (False, 0, 0.0, -0.0, Fraction(0)),
# unequal ones of one type, and strings and tuples beside them
MIXED_VALUES = st.one_of(
    st.booleans(), st.integers(-1, 2), st.sampled_from((0.0, -0.0, 1.0, 0.5)),
    st.fractions(-1, 2, max_denominator=2), st.sampled_from(("a", "1", "")),
    st.tuples(st.integers(0, 1)), st.tuples(st.booleans()))


@given(st.lists(st.lists(MIXED_VALUES, min_size=1, max_size=4),
                min_size=1, max_size=3), st.data())
def test_domain_check_equals_the_typed_set_reference(domains, data):
    state = tuple(data.draw(st.one_of(st.sampled_from(dom), MIXED_VALUES))
                  for dom in domains)
    expected = domain_check_by_typed_sets(domains, state)
    try:
        op = DecomposedOperator(domains, lambda s: s)
    except PreconditionError as exc:
        assert str(exc) == "domain elements must be distinct"
        assert expected == "duplicates"
        return
    try:
        op.check_state(state)
    except PreconditionError as exc:
        assert str(exc).endswith("not in component domain")
        assert expected is False
    else:
        assert expected is True


def test_domain_check_rejects_equal_values_of_two_types():
    with pytest.raises(PreconditionError, match="must be distinct"):
        DecomposedOperator(((1, True),), lambda s: s)
    op = DecomposedOperator(((1, Fraction(1, 2)),), lambda s: s)
    op.check_state((Fraction(1, 2),))
    for value in (True, 1.0, 0.5):
        with pytest.raises(PreconditionError, match="not in component"):
            op.check_state((value,))


def test_from_table_checks_every_input_state():
    dom = ((0, 1), (0, 1))
    table = {s: (0, 0) for s in [(0, 0), (0, 1), (1, 1)]}
    with pytest.raises(PreconditionError, match="input holds True outside"):
        DecomposedOperator.from_table(dom, {**table, (True, 0): (0, 0)})
    extra = {**table, (1, 0): (0, 0), (5, 5): (0, 0)}
    with pytest.raises(PreconditionError, match="input holds 5 outside"):
        DecomposedOperator.from_table(dom, extra)
    with pytest.raises(PreconditionError, match="wrong shape"):
        DecomposedOperator.from_table(dom, {**table, (1,): (0, 0)})


def test_from_table_keeps_its_own_copy():
    table = {(0,): (0,), (1,): (0,)}
    op = DecomposedOperator.from_table(((0, 1),), table)
    # the copy was checked when the operator was built, so apply does not
    # check it again; later changes to the caller's dict must not reach it
    table[(1,)] = (5,)
    del table[(0,)]
    assert [op.apply(s) for s in op.iter_states()] == [(0,), (0,)]
    assert op.evaluations == 2


class Pair(tuple):
    """A tuple subclass: accepted wherever a state is."""


# each fault made from a state, as a table key and as an image; a key
# must stay hashable, so its "not a tuple" is a string and it is never
# made unhashable
TABLE_FAULTS = {
    "wrong length": lambda s, key: s[:-1],
    "not a tuple": lambda s, key: str(s) if key else list(s),
    "outside": lambda s, key: s[:-1] + (7,),
    "True for 1": lambda s, key: (True,) + s[1:],
    "unhashable": lambda s, key: s if key else ([s[0]],) + s[1:],
    "tuple subclass": lambda s, key: Pair(s),
}


def _built(build, domains, entries):
    try:
        return build(domains, dict(entries))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=200)
@given(st.data())
def test_from_table_equals_the_entry_by_entry_check(data):
    domains = data.draw(st.sampled_from(RUN_SHAPES))
    states = list(itertools.product(*domains))
    entries = [[s, data.draw(st.sampled_from(states))] for s in states]
    entries = data.draw(st.permutations(entries))
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(entries) - 1))
        fault = data.draw(st.sampled_from([*TABLE_FAULTS, "missing state"]))
        if fault == "missing state":
            del entries[k]
        else:
            side = data.draw(st.integers(0, 1))
            entries[k][side] = TABLE_FAULTS[fault](
                data.draw(st.sampled_from(states)), side == 0)
    op = _built(DecomposedOperator.from_table, domains, entries)
    ref = _built(from_table_by_checks, domains, entries)
    if isinstance(ref, tuple):
        assert op == ref
        return
    assert isinstance(op, DecomposedOperator)
    for state in data.draw(st.lists(st.sampled_from(states), max_size=6)):
        assert op.apply(state) == ref.apply(state)
        assert op.evaluations == ref.evaluations
    assert op.image_indices() == ref.image_indices()
    assert op.evaluations == ref.evaluations == len(states)
    assert [op.apply(s) for s in states] == [ref.apply(s) for s in states]
    assert op.evaluations == len(states)


def test_table_image_indices_keep_the_images_without_calling_the_table():
    # the indices recorded when the table was checked give every image;
    # each state not yet kept still counts as one evaluation
    domains = ((0, 1, 2), (False, True))
    states = list(itertools.product(*domains))
    table = {s: states[(5 * k + 1) % 6] for k, s in enumerate(states)}
    op = DecomposedOperator.from_table(domains, table)
    assert op.apply(states[2]) == table[states[2]]
    op._global = mock.Mock(side_effect=AssertionError("table called"))
    assert op.image_indices() == tuple(states.index(table[s]) for s in states)
    assert op.evaluations == len(states)
    for s in states:
        assert op.known_image(s) == table[s]
        assert list(map(type, op.apply(s))) == [int, bool]
    assert op.evaluations == len(states)


def test_table_operators_of_equal_domains_keep_their_value_types():
    ints = DecomposedOperator.from_table(((0, 1),), {(0,): (1,), (1,): (1,)})
    bools = DecomposedOperator.from_table(
        ((False, True),), {(False,): (True,), (True,): (True,)})
    assert ints.image_indices() == bools.image_indices() == (1, 1)
    assert [type(bools.apply(s)[0]) for s in bools.iter_states()] == [bool] * 2
    with pytest.raises(PreconditionError, match="produced 1 outside"):
        DecomposedOperator.from_table(((False, True),),
                                      {(False,): (1,), (True,): (True,)})


@settings(max_examples=120)
@given(st.data())
def test_rule_images_equal_the_step_of_every_mask(data):
    width = data.draw(st.integers(0, 10))
    bits = st.integers(0, (1 << width) - 1)
    heads = data.draw(st.lists(bits, min_size=1, max_size=3))
    # facts, repeated heads, and pos and neg drawn apart, so they overlap
    # and may name a bit past the width
    body = st.one_of(st.just(0), st.integers(0, (2 << width) - 1))
    rules = data.draw(st.lists(
        st.tuples(st.sampled_from(heads), body, body), max_size=12))
    # and at least one rule whose neg names a bit past the width only
    head, pos = data.draw(st.sampled_from(heads)), data.draw(bits)
    rules = BitRules(width, (*rules, (head, pos, 1 << width)))
    images = rules.images()
    assert images.dtype == "int64"
    assert images.tolist() == [rules.step(m) for m in range(1 << width)]


def test_rule_images_above_the_cap_raise_before_allocating():
    import numpy as np
    rules = BitRules(IMAGES_MAX_WIDTH + 1, ((1, 0, 0),))
    with mock.patch.object(np, "zeros", side_effect=AssertionError), \
            mock.patch.object(np, "arange", side_effect=AssertionError), \
            pytest.raises(SizeLimitError, match="capped at 12 bits"):
        rules.images()


@pytest.mark.parametrize("inputs, message", BAD_MAP_INPUTS)
def test_load_operator_checks_map_inputs(inputs, message):
    doc = {"domains": [[0, 1], [0, 1]],
           "map": [[state, [0, 0]] for state in inputs]}
    with pytest.raises(PreconditionError) as exc:
        load_operator(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("image, message", [
    ([0] * 40, "table misses state " + repr((0,) * 39 + (1,))),
    ([0] * 39 + [2], "operator produced 2 outside its component domain"),
])
def test_a_short_map_over_a_large_domain_is_rejected_without_an_index(
        image, message):
    # 2**40 states: a state index would not fit, and a map with fewer
    # entries than states is rejected entry by entry, then for totality
    doc = {"domains": [[0, 1]] * 40, "map": [[[0] * 40, image]]}
    with mock.patch.object(iteration, "_state_index",
                           side_effect=AssertionError), \
            pytest.raises(PreconditionError) as exc:
        load_operator(doc)
    assert str(exc.value) == message


def test_a_large_table_leaves_no_state_index_behind():
    # 2**14 states: a kept index would hold about 460 bytes per state
    domains = [(0, 1)] * 14
    table = {s: s for s in itertools.product(*domains)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = DecomposedOperator.from_table(domains, table)
        assert op.image_indices() == tuple(range(len(table)))
        del op
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1 << 20, left


def test_tables_of_one_searchable_shape_share_one_state_index():
    from acokit.aco import MAX_SEARCH_STATES
    assert iteration.INDEX_CACHE_STATES >= MAX_SEARCH_STATES
    domains = ((0, 1, 2), (0, 1))
    states = list(itertools.product(*domains))
    DecomposedOperator.from_table(domains, {s: s for s in states})
    hits = iteration._state_index.cache_info().hits
    for image in states:
        op = DecomposedOperator.from_table(domains,
                                           {s: image for s in states})
        assert op.image_indices() == (states.index(image),) * len(states)
    assert iteration._state_index.cache_info().hits == hits + len(states)


def test_operators_of_one_shape_share_one_domain_record():
    domains = ((0, 1, 2), (0, 1))
    table = {s: (0, 0) for s in itertools.product(*domains)}
    first = DecomposedOperator.from_table(domains, table)
    hits = iteration._domain_record.cache_info().hits
    second = DecomposedOperator.from_table([list(d) for d in domains], table)
    assert iteration._domain_record.cache_info().hits == hits + 1
    assert second.domains is first.domains
    assert second._domain_types is first._domain_types


def test_equal_domains_of_other_types_keep_their_own_records():
    ints = DecomposedOperator.from_table(((0, 1),), {(0,): (1,), (1,): (0,)})
    bools = DecomposedOperator.from_table(
        ((False, True),), {(False,): (True,), (True,): (False,)})
    assert [type(v) for v in ints.domains[0]] == [int, int]
    assert [type(v) for v in bools.domains[0]] == [bool, bool]
    ints.check_state((1,))
    bools.check_state((True,))
    with pytest.raises(PreconditionError, match="not in component domain"):
        bools.check_state((1,))
    with pytest.raises(PreconditionError, match="not in component domain"):
        ints.check_state((True,))
    with pytest.raises(PreconditionError, match="distinct"):
        DecomposedOperator(((0, False),), lambda s: s)


def ticks(schedule, upto=None):
    upto = schedule.horizon if upto is None else upto
    return [schedule.tick(t) for t in range(1, upto + 1)]


def dense_table(schedule, upto=None):
    """The activation sets and delay rows of ticks ``1 .. upto`` of
    ``schedule`` as lists to edit, idle rows filled with ``t - 1``."""
    acts, delays = [], []
    for t, (active, rows) in enumerate(ticks(schedule, upto), 1):
        acts.append(active)
        delays.append([list(row or (t - 1,) * schedule.processors)
                       for row in rows])
    return acts, delays


def dense(acts, delays, staleness_bound=1, fairness_window=1):
    """A :class:`Schedule` reading its ticks from the given table."""
    rows = [tuple(tuple(r) for r in row) for row in delays]
    return Schedule(len(rows[0]), len(acts), staleness_bound,
                    fairness_window, zip(acts, rows))


def test_synchronous_schedule_shape():
    assert ticks(make_synchronous_schedule(1, 3)) == \
        [(frozenset({0}), ((t,),)) for t in (0, 1, 2)]
    sched2 = make_synchronous_schedule(2, 2)
    assert all(a == frozenset({0, 1}) for a, _ in ticks(sched2))
    assert check_admissible_prefix(sched2).ok


def test_sample_schedule_deterministic_and_admissible():
    a = sample_schedule(2, 50, 7, max_staleness=5, fairness_window=8)
    b = sample_schedule(2, 50, 7, max_staleness=5, fairness_window=8)
    b.tick(50)  # drawing the last tick first changes nothing
    assert ticks(a) == ticks(b)
    assert check_admissible_prefix(a).ok
    # the horizon caps the ticks a run may read, not what they are
    longer = sample_schedule(2, 200, 7, max_staleness=5, fairness_window=8)
    assert ticks(longer, 50) == ticks(a)


def test_sample_schedule_degenerate_parameters_are_synchronous():
    sampled = sample_schedule(3, 10, 123, activation_prob=1.0,
                              max_staleness=1, fairness_window=1)
    reference = make_synchronous_schedule(3, 10)
    assert ticks(sampled) == ticks(reference)


def test_sampled_tick_draws_rows_for_active_processors_only():
    sched = sample_schedule(4, 30, 5)
    for active, rows in ticks(sched):
        assert [i for i, row in enumerate(rows) if row is not None] == \
            sorted(active)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
def test_sampled_schedules_always_admissible(seed, k, staleness):
    sched = sample_schedule(k, 40, seed, max_staleness=staleness,
                            fairness_window=8)
    assert check_admissible_prefix(sched).ok


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("prob", [0.3, 0.5, 1.0])
def test_sampled_ticks_equal_ticks_drawn_with_choices(k, seed, prob):
    for staleness in (1, 3, 6):
        for window in (4, 8):
            sched = sample_schedule(k, 60, seed, activation_prob=prob,
                                    max_staleness=staleness,
                                    fairness_window=window)
            assert ticks(sched) == sampled_ticks_by_choices(
                k, seed, 60, prob, staleness, window)


@given(st.data())
def test_tick_check_reports_the_first_violation_of_the_scan(data):
    k = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(1, 12))
    staleness = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(1, 8))
    active = data.draw(st.frozensets(st.integers(0, k - 1)))
    # mostly admissible delays, some out of range either way
    delay = st.one_of(st.integers(max(0, t - staleness), t - 1),
                      st.integers(-2, t + 2))
    rows = tuple(
        tuple(data.draw(st.lists(delay, min_size=k, max_size=k)))
        if i in active or data.draw(st.booleans()) else None
        for i in range(k))
    last_active = data.draw(st.lists(st.integers(max(0, t - 10), t - 1),
                                     min_size=k, max_size=k))
    fast, scanned = list(last_active), list(last_active)
    assert iteration._tick_violation(t, active, rows, fast, staleness,
                                     window) == \
        tick_violation_by_scan(t, active, rows, scanned, staleness, window)
    assert fast == scanned


def test_sample_schedule_rejects_bad_parameters():
    # the last four come from Schedule, the one check of the counts and
    # bounds every schedule claims
    with pytest.raises(ScheduleRejectedError, match=r"in \(0, 1\]"):
        sample_schedule(2, 10, 0, activation_prob=0.0)
    with pytest.raises(ScheduleRejectedError,
                       match=r"fairness_window 3 below ceil\(1/activation_prob\)"
                             r" = 10"):
        sample_schedule(2, 10, 0, activation_prob=0.1, fairness_window=3)
    with pytest.raises(ScheduleRejectedError,
                       match="staleness bound and fairness window >= 1"):
        sample_schedule(2, 10, 0, max_staleness=0)
    with pytest.raises(ScheduleRejectedError,
                       match="need at least one processor"):
        sample_schedule(0, 10, 0)
    with pytest.raises(ScheduleRejectedError,
                       match="horizon must be at least 1, got 0"):
        sample_schedule(2, 0, 0)
    with pytest.raises(ScheduleRejectedError,
                       match="need at least one processor"):
        make_synchronous_schedule(0, 3)
    with pytest.raises(ScheduleRejectedError,
                       match="horizon must be at least 1, got 0"):
        make_synchronous_schedule(2, 0)


SYNC2 = ((frozenset({0, 1}), ((0, 0), (0, 0))),
         (frozenset({0, 1}), ((1, 1), (1, 1))))


@pytest.mark.parametrize("processors, horizon, bounds, source, message", [
    (0, 2, (1, 1), SYNC2, "at least one processor"),
    (2, -1, (1, 1), SYNC2, "horizon must be at least 1, got -1"),
    (2, 0, (1, 1), (), "horizon must be at least 1, got 0"),
    (2, 2, (0, 1), SYNC2, "fairness window >= 1"),
    (2, 2, (1, 0), SYNC2, "fairness window >= 1"),
    (2, 3, (1, 1), SYNC2, "must cover the horizon"),
    (2, 2, (1, 1), ((frozenset({0, 2}), ((0, 0), (0, 0))),),
     r"activation set \{0, 2\} out of range"),
    (2, 2, (1, 1), ((frozenset({-1}), ((0, 0), (0, 0))),),
     r"activation set \{-1\} out of range"),
    (2, 2, (1, 1), ((frozenset({0}), ((0, 0),)),), "k x k"),
    (2, 2, (1, 1), ((frozenset({0}), ((0, 0, 0), (0, 0))),), "k x k"),
], ids=["processors", "horizon", "zero-horizon", "staleness", "window",
        "short", "index", "negative-index", "rows", "row"])
def test_schedule_rejects_a_malformed_schedule(processors, horizon, bounds,
                                               source, message):
    def build():
        return Schedule(processors, horizon, *bounds, iter(source))

    if processors < 1 or horizon < 1 or min(bounds) < 1:
        with pytest.raises(ScheduleRejectedError, match=message):
            build()
        return
    sched = build()
    for _ in range(2):  # a rejected tick stays rejected
        with pytest.raises(ScheduleRejectedError, match=message):
            check_admissible_prefix(sched)
    with pytest.raises(ScheduleRejectedError, match=message):
        run_async(swap_op(), (0, 1), build())  # never settles


def test_checker_flags_causality_violation():
    acts, delays = dense_table(make_synchronous_schedule(2, 4))
    delays[2][0][1] = 3  # beta(3, 0, 1) = 3, not in the past
    report = check_admissible_prefix(dense(acts, delays))
    assert not report.ok
    assert report.violation[0] == "causality"
    assert report.violation[1:4] == (3, 0, 1)


def test_checker_flags_staleness_violation():
    acts, delays = dense_table(make_synchronous_schedule(2, 10))
    delays[7][1][0] = 2  # age 6 exceeds the claimed bound below
    report = check_admissible_prefix(dense(acts, delays, staleness_bound=3))
    assert not report.ok
    assert report.violation[0] == "staleness"


def test_checker_flags_fairness_violation():
    _, delays = dense_table(make_synchronous_schedule(2, 8))
    acts = [frozenset({0}) if t > 0 else frozenset({0, 1})
            for t in range(8)]
    report = check_admissible_prefix(dense(acts, delays, fairness_window=3))
    assert not report.ok
    kind, window, proc = report.violation
    assert kind == "fairness" and proc == 1 and window == (2, 4)


def test_run_sync_fixed_point_start():
    traj = run_sync(constant_op(), (0, 0), 10)
    assert traj.status == "converged"
    assert traj.converged_at == 0


def test_run_sync_detects_two_cycle():
    traj = run_sync(swap_op(), (0, 1), 10)
    assert traj.status == "cycle"
    assert traj.cycle_length == 2
    assert traj.converged_at is None


def test_run_sync_ring3_reaches_fixed_point(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    start = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    traj = run_sync(op, start, 20)
    assert traj.status == "converged"
    assert traj.converged_at <= 3
    assert routing.components_to_state(traj.final) == \
        frozenset({("d",), ("1", "d"), ("2", "d")})


def test_run_async_identity_constant_trajectory():
    sched = sample_schedule(2, 30, 5)
    traj = run_async(identity_op(), (1, 0), sched)
    assert set(traj.states) == {(1, 0)}
    assert traj.status == "converged"
    assert traj.converged_at == 0


def test_run_async_under_synchronous_schedule_equals_run_sync(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    start = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    sync_traj = run_sync(op, start, 30)
    sched = make_synchronous_schedule(op.processors, 30)
    async_traj = run_async(op, start, sched)
    n = len(sync_traj.states)
    assert async_traj.states[:n] == sync_traj.states
    assert async_traj.converged_at == sync_traj.converged_at


def test_run_async_ring3_seed7_matches_sync_fixed_point(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    start = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    sync_fp = run_sync(op, start, 30).final
    sched = sample_schedule(op.processors, 200, 7, max_staleness=5,
                            fairness_window=8)
    traj = run_async(op, start, sched)
    assert traj.status == "converged"
    assert traj.final == sync_fp


def test_run_async_requires_admissible_schedule():
    acts, delays = dense_table(make_synchronous_schedule(2, 4))
    delays[0][0][0] = 0
    delays[1][0][0] = 3
    with pytest.raises(PreconditionError):
        run_async(identity_op(), (0, 0), dense(acts, delays))


def test_frozen_processor_keeps_value():
    # processor 1 never activates after tick 1; its value must stay put
    op = DecomposedOperator(
        ((0, 1), (0, 1)), lambda s: (1, 1 - s[1]))
    acts = (frozenset({0, 1}),) + tuple(frozenset({0}) for _ in range(9))
    _, delays = dense_table(make_synchronous_schedule(2, 10))
    traj = run_async(op, (0, 0), dense(acts, delays, fairness_window=10))
    assert len({state[1] for state in traj.states[1:]}) == 1


def test_run_draws_only_the_ticks_it_uses(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    start = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    sched = sample_schedule(op.processors, 200, 7)
    traj = run_async(op, start, sched)
    assert traj.status == "converged"
    assert sched.ticks_drawn == len(traj.states) - 1 < sched.horizon


def test_shared_schedule_ticks_do_not_depend_on_run_order(ring3):
    op = routing.decompose(ring3, routing.PER_PATH)
    empty = routing.state_to_components(ring3, routing.PER_PATH, frozenset())
    fixed = run_sync(op, empty, 30).final
    first = sample_schedule(op.processors, 200, 3)
    second = sample_schedule(op.processors, 200, 3)
    short_a, long_a = run_async(op, fixed, first), run_async(op, empty, first)
    long_b, short_b = run_async(op, empty, second), run_async(op, fixed, second)
    assert len(short_a.states) < len(long_a.states)
    assert (short_a, long_a) == (short_b, long_b)
    assert first.ticks_drawn == second.ticks_drawn
    assert ticks(first, first.ticks_drawn) == ticks(second, second.ticks_drawn)


def assert_replays(run, trajectory):
    """A campaign run says what ``trajectory``, the run_async replay of its
    start, says: final state, status, converged_at and ticks spanned.  From
    the last tick the run evaluated on, the replay stays at the final
    state."""
    assert (run.final, run.status, run.converged_at, run.ticks) == (
        trajectory.final, trajectory.status, trajectory.converged_at,
        len(trajectory.states) - 1)
    assert set(trajectory.states[run.evaluated:]) == {run.final}


@contextlib.contextmanager
def drawing_schedules():
    """The schedules campaigns sample inside the block, each listing in
    ``reads`` the ticks read from it, in order."""
    schedules = []
    sample = iteration.sample_schedule

    def recording(*args, **kwargs):
        sched = sample(*args, **kwargs)
        sched.reads, tick = [], sched.tick

        def read(t):
            sched.reads.append(t)
            return tick(t)

        sched.tick = read
        schedules.append(sched)
        return sched

    with mock.patch.object(iteration, "sample_schedule", recording):
        yield schedules


def test_campaign_maps_seed_plus_s_to_schedule_s(ring3):
    op = routing.decompose(ring3, routing.PER_NODE)
    start = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    runs = campaign(op, [start], schedules=3, seed=40, horizon=200,
                    staleness=5, window=8, activation_prob=0.5)
    assert [r.seed for r in runs] == [40, 41, 42]
    for r in runs:
        sched = sample_schedule(op.processors, 200, r.seed)
        assert_replays(r, run_async(op, start, sched))


def test_run_async_determinism(ring3):
    op = routing.decompose(ring3, routing.PER_PATH)
    start = routing.state_to_components(ring3, routing.PER_PATH, frozenset())
    sched = sample_schedule(op.processors, 120, 99)
    t1 = run_async(op, start, sched)
    t2 = run_async(op, start, sched)
    assert t1 == t2


def test_horizon_exhausted_when_quiet_window_missing():
    op = constant_op()
    sched = sample_schedule(2, 3, 11, max_staleness=5, fairness_window=8)
    traj = run_async(op, (1, 1), sched)
    assert traj.status == "horizon-exhausted"
    assert traj.converged_at is None


def test_checker_reads_rows_of_active_processors_only():
    acts, delays = dense_table(make_synchronous_schedule(2, 4))
    delays[2][1][0] = 3  # not in the past, but processor 1 is idle at 3
    idle = acts[:2] + [frozenset({0})] + acts[3:]
    assert check_admissible_prefix(dense(idle, delays, fairness_window=2)).ok
    assert check_admissible_prefix(dense(acts, delays)).violation == \
        ("causality", 3, 1, 0, 3)


def test_load_schedule_rejects_whole_schedule_before_any_run():
    doc = {"horizon": 40, "processors": 1,
           "activations": [[0]] * 40, "delays": [[39, 0, 0, 39]]}
    with pytest.raises(PreconditionError):
        load_schedule(doc)


def test_load_schedule_defaults_and_roundtrip(tmp_path):
    doc = {
        "horizon": 3,
        "processors": 2,
        "activations": [[0, 1], [0], [0, 1]],
        "delays": [[2, 0, 1, 0]],
    }
    sched = load_schedule(doc)
    assert sched.horizon == 3
    assert sched.tick(2)[1][0][1] == 0   # the sparse entry
    assert sched.tick(3)[1][1][0] == 2   # defaulted to t-1
    assert check_admissible_prefix(sched).ok


def test_load_operator_roundtrip(tmp_path):
    doc = {
        "domains": [["x", "y"]],
        "map": [[["x"], ["y"]], [["y"], ["y"]]],
        "start": ["x"],
    }
    op, start = load_operator(doc)
    assert start == ("x",)
    assert op.apply(("x",)) == ("y",)
    traj = run_sync(op, start, 5)
    assert traj.status == "converged"
    assert traj.final == ("y",)


def test_apply_calls_the_callable_once_per_distinct_state():
    calls = []

    def step(state):
        calls.append(state)
        return (state[1], 1)

    op = DecomposedOperator(((0, 1), (0, 1)), step)
    for state in [(0, 0), (0, 1), (0, 0), (1, 1), (0, 1), (0, 0)]:
        assert op.apply(state) == (state[1], 1)
    assert op.apply((1, 1))[0] == 1
    assert calls == [(0, 0), (0, 1), (1, 1)]
    assert op.evaluations == 3


def test_apply_raises_for_an_out_of_domain_state_on_every_call():
    op = constant_op()
    for _ in range(3):
        with pytest.raises(PreconditionError):
            op.apply((2, 0))
    assert op.evaluations == 3
    assert op.apply((1, 1)) == (0, 0)


def _counting_checks(monkeypatch):
    """The states :meth:`DecomposedOperator._check` is called on, from
    now on."""
    checked = []
    check = DecomposedOperator._check

    def counting(self, state, *messages):
        checked.append(state)
        return check(self, state, *messages)

    monkeypatch.setattr(DecomposedOperator, "_check", counting)
    return checked


def test_built_operators_check_their_images_once(monkeypatch, ring3):
    # a table operator checks its images when it is built, and a rule
    # operator's images are read from its own value tables, so apply
    # checks neither again
    bad = {s: (0, 0) for s in itertools.product((0, 1), repeat=2)}
    bad[(1, 0)] = (0, 2)
    with pytest.raises(PreconditionError) as exc:
        DecomposedOperator.from_table(((0, 1), (0, 1)), bad)
    assert str(exc.value) == "operator produced 2 outside its component domain"
    checked = _counting_checks(monkeypatch)
    table = constant_op()
    rules = routing.decompose(ring3, routing.PER_PATH)
    assert checked == []
    for op in (table, rules):
        for state in op.iter_states():
            op.apply(state)
    assert checked == []


def test_a_callable_image_outside_the_domain_raises_on_every_call(
        monkeypatch):
    checked = _counting_checks(monkeypatch)
    op = DecomposedOperator(((0, 1), (0, 1)), lambda s: (s[0], 2))
    for _ in range(2):
        with pytest.raises(PreconditionError, match=(
                r"operator maps its domain outside itself: image holds 2")):
            op.apply((1, 0))
    assert checked == [(1, 2), (1, 2)] and op.evaluations == 2
    with pytest.raises(PreconditionError, match="image .* has the wrong "
                       "shape"):
        DecomposedOperator(((0, 1),), lambda s: s * 2).apply((0,))


def test_campaign_runs_equal_runs_with_fresh_operators(ring3):
    op = routing.decompose(ring3, routing.PER_PATH)
    empty = routing.state_to_components(ring3, routing.PER_PATH, frozenset())
    fixed = run_sync(op, empty, 30).final
    runs = campaign(op, [empty, fixed], schedules=6, seed=70, horizon=200,
                    staleness=5, window=8, activation_prob=0.5)
    for r in runs:
        fresh = routing.decompose(ring3, routing.PER_PATH)
        sched = sample_schedule(fresh.processors, 200, r.seed)
        assert_replays(r, run_async(fresh, r.start, sched))
    # the shared operator evaluated each distinct state once
    assert op.evaluations < sum(r.ticks + 1 for r in runs)


def test_shared_schedule_checks_each_tick_once(monkeypatch):
    checked = []
    real = iteration._tick_violation

    def counting(t, *args):
        checked.append(t)
        return real(t, *args)

    monkeypatch.setattr(iteration, "_tick_violation", counting)
    op = swap_op()
    sched = sample_schedule(2, 200, 12)
    trajectories = [run_async(op, start, sched) for start in op.iter_states()]
    used = [len(traj.states) - 1 for traj in trajectories]
    assert sum(used) > sched.ticks_drawn == max(used)
    assert checked == list(range(1, sched.ticks_drawn + 1))


def test_dense_schedule_with_a_bad_tick_raises_on_every_run():
    sched = make_synchronous_schedule(2, 6)
    acts, delays = dense_table(sched)
    delays[3][1][0] = 4  # tick 4 reads from its own tick
    # a staleness bound of 5 keeps the run going past tick 4
    bad = dense(acts, delays, staleness_bound=5)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="causality"):
            run_async(identity_op(), (0, 1), bad)
    assert bad.tick(3) == sched.tick(3)
    assert check_admissible_prefix(bad).violation == ("causality", 4, 1, 0, 4)


def test_settled_run_still_checks_every_tick():
    op = constant_op()
    op.apply((0, 0))  # the fixed point is known before any run
    acts, delays = dense_table(make_synchronous_schedule(2, 12))
    delays[4][1][0] = 5  # tick 5 reads from its own tick
    # staleness bound 5 and window 1: a quiet run stops at tick 6
    bad = dense(acts, delays, staleness_bound=5)
    for _ in range(3):
        with pytest.raises(PreconditionError, match="causality"):
            run_async(op, (0, 0), bad)
    assert op.evaluations == 1


def test_settled_run_evaluates_no_view(monkeypatch):
    op = constant_op()
    sched = sample_schedule(2, 200, 4)
    first = run_async(op, (0, 0), sched)  # learns F(0, 0) = (0, 0)
    calls = []
    monkeypatch.setattr(op, "apply", lambda state: calls.append(state))
    assert run_async(op, (0, 0), sched) == first
    assert calls == []
    assert len(first.states) == 1 + 5 + 8  # quiet for staleness + window


def test_run_does_not_settle_while_an_older_state_is_readable():
    # (0, 0) is a known fixed point, reached at tick 1; at tick 2 processor
    # 0 still reads its start value and leaves it
    table = {(0, 0): (0, 0), (1, 1): (0, 0), (1, 0): (1, 1), (0, 1): (1, 1)}
    op = DecomposedOperator.from_table(((0, 1),) * 2, table)
    ref = DecomposedOperator.from_table(((0, 1),) * 2, table)
    op.apply((0, 0))
    ref.apply((0, 0))
    acts, delays = dense_table(make_synchronous_schedule(2, 10))
    delays[1][0][0] = 0
    bad = dense(acts, delays, staleness_bound=2)
    traj = run_async(op, (1, 1), bad)
    assert traj.states[:3] == ((1, 1), (0, 0), (1, 0))
    assert traj == run_async_by_definition(ref, (1, 1), bad)
    assert op.evaluations == ref.evaluations


RUN_SHAPES = (((0, 1),) * 2, ((0, 1, 2), (0, 1)), ((0, 1),) * 3)


@settings(max_examples=150)
@given(st.data())
def test_run_async_equals_the_run_that_evaluates_every_view(data):
    domains = data.draw(st.sampled_from(RUN_SHAPES))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, _ = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
    else:
        table = {s: data.draw(st.sampled_from(states)) for s in states}
    prob = data.draw(st.sampled_from([0.3, 0.5, 1.0]))
    staleness = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(math.ceil(1 / prob), 8))
    horizon = data.draw(st.integers(1, 30))  # cuts off some runs
    seed = data.draw(st.integers(0, 10_000))
    kind = data.draw(st.sampled_from(["sampled", "dense", "synchronous"]))

    def schedule():
        if kind == "synchronous":
            return make_synchronous_schedule(len(domains), horizon)
        sched = sample_schedule(len(domains), horizon, seed,
                                activation_prob=prob,
                                max_staleness=staleness,
                                fairness_window=window)
        if kind == "sampled":
            return sched
        return dense(*dense_table(sched), sched.staleness_bound,
                     sched.fairness_window)

    # runs share one operator and one schedule, as in a campaign, so later
    # runs meet states whose image is already known
    op = DecomposedOperator.from_table(domains, table)
    ref = DecomposedOperator.from_table(domains, table)
    for state in data.draw(st.lists(st.sampled_from(states), max_size=4)):
        op.apply(state)  # images known before any run
        ref.apply(state)
    sched, ref_sched = schedule(), schedule()
    for start in data.draw(st.lists(st.sampled_from(states), min_size=1,
                                    max_size=8)):
        assert run_async(op, start, sched) == \
            run_async_by_definition(ref, start, ref_sched)
        assert op.evaluations == ref.evaluations


@settings(max_examples=100)
@given(st.data())
def test_lockstep_campaign_equals_its_runs_one_after_another(data):
    domains = data.draw(st.sampled_from(RUN_SHAPES))
    states = list(itertools.product(*domains))
    if data.draw(st.booleans()):
        table, _ = chain_table(
            domains, lambda xs: data.draw(st.sampled_from(xs)),
            lambda xs: data.draw(st.lists(st.sampled_from(xs), min_size=1,
                                          max_size=len(xs) - 1, unique=True)))
    else:
        table = {s: data.draw(st.sampled_from(states)) for s in states}
    prob = data.draw(st.sampled_from([0.3, 0.5, 1.0]))
    staleness = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(math.ceil(1 / prob), 8))
    horizon = data.draw(st.integers(1, 30))  # below staleness + window too
    seed = data.draw(st.integers(0, 10_000))
    count = data.draw(st.integers(1, 3))
    starts = data.draw(st.lists(st.sampled_from(states), min_size=1,
                                max_size=8))

    op = DecomposedOperator.from_table(domains, table)
    one_by_one = DecomposedOperator.from_table(domains, table)
    for state in data.draw(st.lists(st.sampled_from(states), max_size=4)):
        op.apply(state)  # images known before any run
        one_by_one.apply(state)
    with drawing_schedules() as schedules:
        runs = campaign(op, starts, schedules=count, seed=seed,
                        horizon=horizon, staleness=staleness, window=window,
                        activation_prob=prob)
    assert len(schedules) == count and len(runs) == count * len(starts)
    for s, sched in enumerate(schedules):
        replay = sample_schedule(len(domains), horizon, seed + s,
                                 activation_prob=prob,
                                 max_staleness=staleness,
                                 fairness_window=window)
        under = runs[s * len(starts):(s + 1) * len(starts)]
        for r, start in zip(under, starts):
            assert (r.seed, r.start) == (seed + s, start)
            assert_replays(r, run_async(one_by_one, start, replay))
        # each tick read once, and none past the last one a run evaluated
        last = max(r.evaluated for r in under)
        assert sched.reads == list(range(1, last + 1))
        assert sched.ticks_drawn == last
    assert op.evaluations == one_by_one.evaluations


@pytest.mark.parametrize("schedules", [0, -1])
def test_campaign_rejects_fewer_than_one_schedule(schedules):
    with pytest.raises(ScheduleRejectedError):
        campaign(constant_op(), [(0, 0)], schedules=schedules, seed=0,
                 horizon=50, staleness=5, window=8, activation_prob=0.5)


def test_campaign_checks_each_start_once(monkeypatch):
    checked = _counting_checks(monkeypatch)
    starts = [(0, 0), (1, 0), (0, 0)]
    campaign(swap_op(), starts, schedules=5, seed=3, horizon=50, staleness=5,
             window=8, activation_prob=0.5)
    assert checked == starts
    checked.clear()
    run_async(swap_op(), [1, 1], sample_schedule(2, 50, 3))
    assert checked == [(1, 1)]


def test_campaign_rejects_its_sampling_before_its_starts():
    def run(start, prob):
        campaign(swap_op(), [(0, 0), start], schedules=2, seed=0, horizon=50,
                 staleness=5, window=8, activation_prob=prob)

    with pytest.raises(ScheduleRejectedError, match="activation_prob"):
        run((0, 2), 0)
    with pytest.raises(PreconditionError, match="2 not in component"):
        run((0, 2), 0.5)


def test_campaign_stats_count_ticks_and_evaluations(ring3, caplog):
    op = routing.decompose(ring3, routing.PER_NODE)
    empty = routing.state_to_components(ring3, routing.PER_NODE, frozenset())
    fixed = run_sync(op, empty, 30).final
    with caplog.at_level(logging.INFO, logger="acokit"), \
            drawing_schedules() as schedules:
        runs = campaign(op, [empty, fixed], schedules=4, seed=8, horizon=200,
                        staleness=5, window=8, activation_prob=0.5)
    stats = campaign_stats(op, runs)
    used = spanned = 0
    for seed in range(8, 12):
        sched = sample_schedule(op.processors, 200, seed)
        for start in (empty, fixed):
            used += len(run_async(op, start, sched).states) - 1
        spanned += sched.ticks_drawn
    assert stats == {
        "runs": 8,
        "ticks_used": used,
        "ticks_drawn": sum(sched.ticks_drawn for sched in schedules),
        "operator_evaluations": op.evaluations,
    }
    # the fixed start settles at once and the other run before it stops
    assert stats["ticks_drawn"] < spanned
    assert caplog.messages == [
        "campaign: " + " ".join(f"{k}={v}" for k, v in stats.items())]
