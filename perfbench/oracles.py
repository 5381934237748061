"""Independent oracles and witness re-checks.

Each oracle decides a question the benchmark also puts to acokit, by a
different route and without importing acokit:

* :func:`box_hull_fixed_point`: iterate ``B <- hull(sigma(B))`` from the
  whole space; a box chain exists iff this ends on a fixed singleton.
* :class:`HeightFamily`: every max-product of per-component height
  metrics at once, as numpy arrays; decides whether one qualifies.
* :func:`shortest_path_state`: BFS over all shortest paths, the stable
  assignment of a hop-count instance with every simple path permitted.
* :func:`minimal_strata`, :func:`tp` and :func:`interp_distance`: the
  logic side, for re-checking classification witnesses.

The ``recheck_*`` functions take a witness acokit returned and confirm
it with the benchmark's own distances.  They return an error string, or
``None`` when the witness holds.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import numpy as np


# -- box chains ---------------------------------------------------------------

def _hull_image(box, table):
    comps = [set() for _ in box]
    for state in itertools.product(*box):
        for i, v in enumerate(table[state]):
            comps[i].add(v)
    return tuple(frozenset(c) for c in comps)


def box_hull_fixed_point(domains, table):
    """The fixed point a box chain converges to, or ``None`` if no chain
    exists."""
    box = tuple(frozenset(d) for d in domains)
    while True:
        nxt = _hull_image(box, table)
        if nxt == box:
            break
        box = nxt
    if all(len(c) == 1 for c in box):
        state = tuple(next(iter(c)) for c in box)
        if table[state] == state:
            return state
    return None


def certified_count(domains) -> int:
    """How many self-maps of the product domain have a box chain."""
    states = list(itertools.product(*domains))
    return sum(
        1 for images in itertools.product(states, repeat=len(states))
        if box_hull_fixed_point(domains, dict(zip(states, images)))
        is not None)


def recheck_box_chain(domains, table, boxes, fixed_point):
    """Confirm a certificate chain, innermost box first."""
    boxes = [tuple(frozenset(c) for c in b) for b in boxes]
    if boxes[0] != tuple(frozenset([v]) for v in fixed_point):
        return "innermost box is not the fixed point singleton"
    if table[tuple(fixed_point)] != tuple(fixed_point):
        return "claimed fixed point is not fixed"
    if boxes[-1] != tuple(frozenset(d) for d in domains):
        return "outermost box is not the whole space"
    for small, big in zip(boxes, boxes[1:]):
        if not all(a <= b for a, b in zip(small, big)) or small == big:
            return "boxes are not strictly nested"
        for state in itertools.product(*big):
            if not all(v in c for v, c in zip(table[state], small)):
                return f"{state} maps outside the next box inward"
    return None


# -- product height metrics ---------------------------------------------------

class HeightFamily:
    """All order-canonical height assignments over a product domain.

    A component's height metric puts distinct values at the larger of
    their two heights; the product takes the maximum over components that
    differ.  Heights run over ``0 .. size - 1`` with at most one zero per
    component, as in the family ``aco.search_ultrametric`` searches.
    ``distances[:, a * n + b]`` holds ``d(a, b)`` for every assignment.
    """

    def __init__(self, domains):
        self.domains = tuple(tuple(d) for d in domains)
        self.states = list(itertools.product(*self.domains))
        n = len(self.states)
        sizes = [len(d) for d in self.domains]
        positions = sum(sizes)
        top = max(1, n - 1)
        grid = np.array(list(itertools.product(range(top + 1),
                                               repeat=positions)),
                        dtype=np.int16)
        keep = np.ones(len(grid), dtype=bool)
        offset = 0
        for size in sizes:
            keep &= (grid[:, offset:offset + size] == 0).sum(axis=1) <= 1
            offset += size
        used = np.zeros((len(grid), top + 1), dtype=bool)
        used[np.arange(len(grid))[:, None], grid] = True
        count = used[:, 1:].sum(axis=1)
        # canonical: the nonzero labels used are exactly 1 .. count
        keep &= (used[:, 1:] == (np.arange(1, top + 1)[None, :]
                                 <= count[:, None])).all(axis=1)
        self.heights = grid[keep]

        offsets = np.cumsum([0] + sizes[:-1])
        index = [{v: k for k, v in enumerate(d)} for d in self.domains]
        cols = np.zeros((len(self.heights), n * n), dtype=np.int16)
        for a, sa in enumerate(self.states):
            for b, sb in enumerate(self.states):
                best = np.zeros(len(self.heights), dtype=np.int16)
                for i, (u, v) in enumerate(zip(sa, sb)):
                    if u != v:
                        hu = self.heights[:, offsets[i] + index[i][u]]
                        hv = self.heights[:, offsets[i] + index[i][v]]
                        best = np.maximum(best, np.maximum(hu, hv))
                cols[:, a * n + b] = best
        self.distances = cols
        self._pos = {s: k for k, s in enumerate(self.states)}

    def qualifies(self, table) -> bool:
        """Whether some assignment makes the map a contraction, strict on
        orbits, with exactly one fixed point."""
        n = len(self.states)
        sig = np.array([self._pos[table[s]] for s in self.states])
        if int((sig == np.arange(n)).sum()) != 1:
            return False
        a, b = np.divmod(np.arange(n * n), n)
        before = self.distances
        after = self.distances[:, sig[a] * n + sig[b]]
        ok = (after <= before).all(axis=1)
        for m in range(n):
            s = sig[m]
            if s != m:
                ok &= (self.distances[:, s * n + sig[s]]
                       < self.distances[:, m * n + s])
        return bool(ok.any())


def recheck_ultrametric(domains, table, dist):
    """Confirm an ultrametric witness on the whole state space.

    ``dist[(m, n)]`` is the rank of the distance the witness assigns to
    states ``m, n``.  The witness must be an ultrametric under which the
    map is a contraction, strict on orbits, with exactly one fixed point.
    """
    states = list(itertools.product(*domains))
    for m, n, e in itertools.product(states, repeat=3):
        if (dist[(m, n)] == 0) != (m == n) or dist[(m, n)] != dist[(n, m)]:
            return f"not a metric at {m}, {n}"
        if dist[(m, e)] > max(dist[(m, n)], dist[(n, e)]):
            return f"strong triangle fails at {m}, {n}, {e}"
    fixed = [s for s in states if table[s] == s]
    if len(fixed) != 1:
        return f"{len(fixed)} fixed points"
    for m, n in itertools.combinations(states, 2):
        if dist[(table[m], table[n])] > dist[(m, n)]:
            return f"not a contraction at {m}, {n}"
    for m in states:
        s = table[m]
        if s != m and not dist[(s, table[s])] < dist[(m, s)]:
            return f"not strict on the orbit of {m}"
    return None


# -- routing --------------------------------------------------------------------

def shortest_path_state(nodes, arcs, dest="d"):
    """Every shortest path from every node: the stable assignment of a
    hop-count instance that permits every simple path."""
    into = {u: [] for u in nodes}
    for u, v in arcs:
        into[v].append(u)
    hops = {dest: 0}
    queue = deque([dest])
    while queue:
        v = queue.popleft()
        for u in into[v]:
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
    paths = {dest: [(dest,)]}
    for u in sorted(hops, key=hops.get)[1:]:
        paths[u] = [(u,) + p for (a, b) in arcs if a == u
                    and hops.get(b) == hops[u] - 1 for p in paths[b]]
    return frozenset(p for ps in paths.values() for p in ps)


class PathPreference:
    """Hop count (shorter strictly better) or its reverse (longer strictly
    better; equal lengths incomparable) over a fixed path universe."""

    def __init__(self, universe, longest_first=False):
        self.universe = tuple(universe)
        self.longest_first = longest_first
        self.height = {p: sum(1 for q in self.universe if self.leq(p, q))
                       for p in self.universe}

    def lt(self, p, q):
        if self.longest_first:
            return len(p) > len(q)
        return len(p) < len(q)

    def leq(self, p, q):
        return p == q or self.lt(p, q) or (
            not self.longest_first and len(p) == len(q))


def selection_round(nodes, arcs, pref, state, dest="d"):
    """One round: each node keeps the best simple one-arc extensions of
    its neighbours' paths."""
    result = {(dest,)}
    universe = set(pref.universe)
    for i in nodes:
        if i == dest:
            continue
        cands = [(i,) + p for (a, j) in arcs if a == i
                 for p in state if p[0] == j and i not in p
                 and (i,) + p in universe]
        result.update(c for c in cands
                      if not any(pref.lt(b, c) for b in cands))
    return frozenset(result)


def recheck_violating_pair(nodes, arcs, pref, pair, dest="d"):
    m, n = (frozenset(tuple(p) for p in s) for s in pair)

    def dist(x, y):
        return max((pref.height[p] for p in x ^ y), default=0)

    if m == n:
        return "violating pair has equal states"
    before = dist(m, n)
    after = dist(selection_round(nodes, arcs, pref, m, dest),
                 selection_round(nodes, arcs, pref, n, dest))
    if after < before:
        return f"pair is contracted strictly ({after} < {before})"
    return None


# -- logic --------------------------------------------------------------------

def minimal_strata(clauses):
    """Least levels with positive bodies at or below and negated bodies
    strictly below the head (the program must be stratified)."""
    atoms = {h for h, _ in clauses} | {a for _, b in clauses for a, _ in b}
    level = dict.fromkeys(atoms, 0)
    for _ in range(len(atoms) + 1):
        changed = False
        for head, body in clauses:
            for atom, pos in body:
                need = level[atom] + (0 if pos else 1)
                if level[head] < need:
                    level[head] = need
                    changed = True
        if not changed:
            return level
    raise ValueError("program is not stratified")


def tp(clauses, interp):
    return frozenset(h for h, body in clauses
                     if all((a in interp) == pos for a, pos in body))


def interp_distance(level, x, y):
    delta = x ^ y
    if not delta:
        return Fraction(0)
    return Fraction(1, 2 ** min(level[a] for a in delta))


def recheck_classification(clauses, atoms, classification, witness):
    """Check a contraction classification of T_P against the property that
    T_P of a stratified program is at least a contraction, and confirm the
    witness against the next stronger class."""
    level = minimal_strata(clauses)

    def interp(bits):
        return frozenset(a for a, bit in zip(atoms, bits) if bit)

    if classification == "not-contraction":
        return "T_P of a stratified program classified as not a contraction"
    if classification == "contraction":
        m = interp(witness[0])
        s = tp(clauses, m)
        if s == m:
            return "orbit witness is a fixed point"
        if interp_distance(level, s, tp(clauses, s)) < \
                interp_distance(level, m, s):
            return "orbit witness is strict"
        return None
    if classification == "contraction-strict-on-orbits":
        m, n = interp(witness[0]), interp(witness[1])
        if m == n:
            return "pair witness has equal interpretations"
        if interp_distance(level, tp(clauses, m), tp(clauses, n)) < \
                interp_distance(level, m, n):
            return "pair witness is contracted strictly"
        return None
    if classification == "strict-contraction":
        return None if witness is None else "strict contraction with witness"
    return f"unknown classification {classification!r}"


# -- ultrametric spaces ---------------------------------------------------------

def recheck_triangle_violation(doc, witness):
    """Confirm a strong-triangle witness ``(l, m, e)`` against a space file:
    ``d(l, e) > max(d(l, m), d(m, e))``."""
    rank = {label: k for k, label in enumerate(doc["scale"])}
    d = {}
    for m, n, label in doc["dist"]:
        d[(m, n)] = d[(n, m)] = rank[label]

    def dist(a, b):
        return 0 if a == b else d[(a, b)]

    l, m, e = witness
    if dist(l, e) > max(dist(l, m), dist(m, e)):
        return None
    return f"triple {witness} satisfies the strong triangle"
