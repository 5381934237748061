"""Brute-force pairwise oracles for the contraction checks.

They loop over every pair of states and compare distances as the
definitions read; the library decides the same questions from ball
labels without listing pairs, and searches height assignments all at
once.  The operators they check against are evaluated as their
definitions read too, not from the library's compiled bit-mask rules.
"""

import functools
import itertools

from acokit import routing
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
