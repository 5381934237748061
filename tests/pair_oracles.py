"""Brute-force pairwise oracles for the contraction checks.

They loop over every pair of states and compare distances as the
definitions read; the library decides the same questions from ball
labels without listing pairs, and searches height assignments all at
once.  The operators they check against are evaluated as their
definitions read too, not from the library's compiled bit-mask rules.

The asynchronous oracles at the end do the same for runs and schedules:
a run that evaluates every view, ticks drawn with ``random.choices`` and
an admissibility check that scans every delay.
"""

import functools
import itertools
import random

from acokit import routing
from acokit.errors import PreconditionError
from acokit.iteration import Trajectory
from acokit.ultrametric import (
    CONTRACTION,
    NOT_CONTRACTION,
    STRICT_CONTRACTION,
    STRICT_ON_ORBITS,
)


def classify_by_pairs(space, sigma):
    """(class, witness) as :func:`classify_contraction` must report them."""
    f = sigma if callable(sigma) else sigma.__getitem__
    d = space.distance_index
    pairs = list(itertools.combinations(space.elements, 2))
    for m, n in pairs:
        if d(f(m), f(n)) > d(m, n):
            return NOT_CONTRACTION, (m, n)
    for m in space.elements:
        if f(m) != m and d(f(m), f(f(m))) >= d(m, f(m)):
            return CONTRACTION, (m,)
    for m, n in pairs:
        if d(f(m), f(n)) >= d(m, n) > 0:
            return STRICT_ON_ORBITS, (m, n)
    return STRICT_CONTRACTION, None


def selection_round_by_definition(instance, state):
    """The selection round as :func:`routing.sigma_step` must compute it:
    each node collects the permitted one-arc extensions of its neighbors'
    paths and keeps those no other candidate is strictly preferred to."""
    state = routing.validate_state(instance, state)
    pref = instance.preference
    result = {instance.empty_path}
    for i in instance.nodes:
        if i == instance.dest:
            continue
        candidates = []
        for j in instance.arcs_from[i]:
            for p in state:
                if p[0] != j or i in p:
                    continue
                q = (i,) + p
                if q in instance.permitted_map[i]:
                    candidates.append(q)
        result.update(a for a in candidates
                      if not any(pref.lt(b, a) for b in candidates))
    return frozenset(result)


def consequence_by_definition(program, interp):
    """The consequence operator as :func:`logic.immediate_consequence`
    must compute it: the heads of the clauses whose positive body atoms
    are all held and whose negated ones are not."""
    interp = frozenset(interp)
    out = set()
    for clause in program.clauses:
        if clause.head in out:
            continue
        ok = True
        for lit in clause.body:
            holds = lit.atom in interp
            if holds != lit.positive:
                ok = False
                break
        if ok:
            out.add(clause.head)
    return frozenset(out)


def strict_contraction_by_pairs(instance):
    """(ok, witness, pairs_checked) as :func:`verify_strict_contraction`
    must report them; states in bit-mask order over the permitted paths."""
    universe = instance.all_permitted
    states = [frozenset(p for idx, p in enumerate(universe) if mask >> idx & 1)
              for mask in range(1 << len(universe))]
    images = [selection_round_by_definition(instance, s) for s in states]
    witness, pairs = None, 0
    for a, b in itertools.combinations(range(len(states)), 2):
        pairs += 1
        if witness is None:
            before = routing.state_distance(instance, states[a], states[b])
            after = routing.state_distance(instance, images[a], images[b])
            if after >= before > 0:
                witness = (states[a], states[b])
    return witness is None, witness, pairs


@functools.lru_cache(maxsize=None)
def _canonical_heights(sizes, top):
    """Assignments with at most one zero per component whose nonzero
    labels are exactly ``1 .. count``, in ``itertools.product`` order."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    rows = []
    for row in itertools.product(range(top + 1), repeat=sum(sizes)):
        labels = sorted(set(row) - {0})
        if labels == list(range(1, len(labels) + 1)) and all(
                row[lo:hi].count(0) <= 1 for lo, hi in zip(bounds, bounds[1:])):
            rows.append(row)
    return rows


def search_ultrametric_by_pairs(op):
    """(scale values, per-component {value: height}) as
    :func:`search_ultrametric` must find them, or ``None``.

    Tries order-canonical height assignments over ``0 .. states - 1`` in
    ``itertools.product`` order and takes the first under which the map
    contracts every pair and is strict on every orbit step, provided the
    map has exactly one fixed point.
    """
    states = list(op.iter_states())
    f = {m: op.apply(m) for m in states}
    if sum(f[m] == m for m in states) != 1:
        return None
    values = [(i, v) for i, dom in enumerate(op.domains) for v in dom]
    sizes = tuple(len(dom) for dom in op.domains)
    for row in _canonical_heights(sizes, max(1, len(states) - 1)):
        h = dict(zip(values, row))

        def d(m, n):
            return max((max(h[i, u], h[i, v])
                        for i, (u, v) in enumerate(zip(m, n)) if u != v),
                       default=0)

        if all(d(f[m], f[n]) <= d(m, n)
               for m, n in itertools.combinations(states, 2)) and \
                all(d(f[m], f[f[m]]) < d(m, f[m])
                    for m in states if f[m] != m):
            return (tuple(range(max(row) + 1)),
                    tuple({v: h[i, v] for v in dom}
                          for i, dom in enumerate(op.domains)))
    return None


def run_async_by_definition(op, start, schedule):
    """The run :func:`iteration.run_async` must produce, evaluating the
    view of every active processor at every tick it reads."""
    start = tuple(start)
    op.check_state(start)
    if schedule.processors != op.processors:
        raise PreconditionError(
            f"schedule has {schedule.processors} processors, "
            f"operator has {op.processors}")

    quiet_needed = schedule.staleness_bound + schedule.fairness_window
    states = [start]
    activations = []
    last_change = 0
    for t in range(1, schedule.horizon + 1):
        active, rows = schedule.tick(t)
        activations.append(active)
        prev = states[-1]
        nxt = list(prev)
        for i in active:
            # component j as processor i reads it: its value at tick b
            view = tuple([states[b][j] for j, b in enumerate(rows[i])])
            nxt[i] = op.apply(view)[i]
        nxt = tuple(nxt)
        states.append(nxt)
        if nxt != prev:
            last_change = t
        elif t - last_change >= quiet_needed:
            break
    if len(activations) - last_change >= quiet_needed:
        return Trajectory(tuple(states), last_change, "converged",
                          activations=tuple(activations))
    return Trajectory(tuple(states), None, "horizon-exhausted",
                      activations=tuple(activations))


def sampled_ticks_by_choices(k, seed, ticks, activation_prob, max_staleness,
                             fairness_window):
    """Ticks ``1 .. ticks`` of :func:`iteration.sample_schedule`, each
    delay row drawn with ``random.choices`` over the bounded past."""
    rng = random.Random(seed)
    last_active = [0] * k
    out = []
    for t in range(1, ticks + 1):
        active = [i for i in range(k)
                  if rng.random() < activation_prob
                  or t - last_active[i] >= fairness_window]
        past = range(max(0, t - max_staleness), t)
        rows = [None] * k
        for i in active:
            last_active[i] = t
            rows[i] = tuple(rng.choices(past, k=k))
        out.append((frozenset(active), tuple(rows)))
    return out


def tick_violation_by_scan(t, active, rows, last_active, staleness_bound,
                           fairness_window):
    """:func:`iteration._tick_violation` as a scan of every delay and every
    processor's last activation, updating ``last_active`` alike."""
    for i in sorted(active):
        for j, b in enumerate(rows[i]):
            if not 0 <= b <= t - 1:
                return ("causality", t, i, j, b)
            if t - b > staleness_bound:
                return ("staleness", t, i, j, b)
    for i, last in enumerate(last_active):
        if t - last > fairness_window:
            return ("fairness", (last + 1, last + fairness_window), i)
    for i in active:
        last_active[i] = t
    return None
