"""Brute-force pairwise oracles for the contraction checks.

They loop over every pair of states and compare distances as the
definitions read; the library decides the same questions from ball
labels without listing pairs.
"""

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


def strict_contraction_by_pairs(instance):
    """(ok, witness, pairs_checked) as :func:`verify_strict_contraction`
    must report them; states in bit-mask order over the permitted paths."""
    universe = instance.all_permitted
    states = [frozenset(p for idx, p in enumerate(universe) if mask >> idx & 1)
              for mask in range(1 << len(universe))]
    images = [routing.sigma_step(instance, s) for s in states]
    witness, pairs = None, 0
    for a, b in itertools.combinations(range(len(states)), 2):
        pairs += 1
        if witness is None:
            before = routing.state_distance(instance, states[a], states[b])
            after = routing.state_distance(instance, images[a], images[b])
            if after >= before > 0:
                witness = (states[a], states[b])
    return witness is None, witness, pairs
