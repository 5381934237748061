"""Brute-force pairwise oracles for the contraction checks.

They loop over every pair of states and compare distances as the
definitions read; the library decides the same questions from ball
labels without listing pairs, and finds product heights as the greatest
solution of their conditions rather than by listing assignments.  The
operators they check against are evaluated as their definitions read
too, not from the library's compiled bit-mask rules.

The asynchronous oracles at the end do the same for runs and schedules:
a run that evaluates every view, ticks drawn with ``random.choices`` and
an admissibility check that scans every delay.  The ordering key is
checked against its plain ``isinstance`` chain.

The remaining references keep earlier versions of library passes that
were since rewritten: per-radius ball labels, the numpy space checks,
the height search over
every order-canonical assignment with every row gathered, the greatest
heights found on sets of values, the witness as a product space, the
image hulls over state tuples, the typed-set domain check, and the table
check entry by entry.

The generic space layer lives here too, as the spaces the library's checks
and the label passes read off masks are tested on: max-products of spaces
(``ProductSpace``), the string and height spaces, the routing state space
and the interpretation space of a stratified program.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from acokit import routing
from acokit.aco import _differing_values, box_members
from acokit.errors import MalformedSpaceError, PreconditionError
from acokit.iteration import DecomposedOperator, Trajectory
from acokit.ultrametric import (
    CONTRACTION,
    NOT_CONTRACTION,
    STRICT_CONTRACTION,
    STRICT_ON_ORBITS,
    AxiomReport,
    AxiomViolation,
    CompletenessReport,
    FiniteUltrametricSpace,
    RadiusScale,
    _TableAnalysis,
)
from acokit.util import canonical_key, sorted_canonical


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


def ball_labels_by_radius(space):
    """:meth:`FiniteUltrametricSpace.ball_labels` as it first read: one
    radius at a time, each checked pair by pair against its labels;
    ``None`` when the table is not an ultrametric up to zero distances."""
    import numpy as np
    D = np.array(space.index_rows())
    if np.diagonal(D).any() or (D != D.T).any():
        return None
    labels = np.empty((len(space.scale), len(space)), dtype=np.int64)
    for r, row in enumerate(labels):
        within = D <= r
        row[:] = within.argmax(axis=1)
        if (within != (row[:, None] == row[None, :])).any():
            return None
    return labels


# the numpy space checks as they read before the plain-Python table
# analysis replaced them: every triple of a middle element at a time, and
# the balls of each radius as the distinct rows of one threshold matrix
_MAX_WITNESSES = 200


def axioms_by_numpy(space):
    """:func:`ultrametric.check_axioms` as its numpy loop first read."""
    import numpy as np
    D = np.array(space.index_rows())
    els = space.elements
    n = len(els)
    violations = []

    diag = np.diagonal(D)
    for i in np.flatnonzero(diag != 0)[:_MAX_WITNESSES]:
        violations.append(AxiomViolation("identity", (els[i], els[i])))
    off_zero = (D == 0) & ~np.eye(n, dtype=bool)
    seen_pairs = set()
    for i, j in np.argwhere(off_zero):
        pair = (min(i, j), max(i, j))
        if pair in seen_pairs or len(seen_pairs) >= _MAX_WITNESSES:
            continue
        seen_pairs.add(pair)
        violations.append(AxiomViolation("identity", (els[pair[0]], els[pair[1]])))

    asym = np.argwhere(D != D.T)
    count = 0
    for i, j in asym:
        if i < j and count < _MAX_WITNESSES:
            violations.append(AxiomViolation("symmetry", (els[i], els[j])))
            count += 1

    tri_count = 0
    for m in range(n):
        if tri_count >= _MAX_WITNESSES:
            break
        bound = np.maximum(D[:, m][:, None], D[m, :][None, :])
        bad = np.argwhere(D > bound)
        for l, e in bad:
            if tri_count >= _MAX_WITNESSES:
                break
            violations.append(
                AxiomViolation("strong-triangle", (els[l], els[m], els[e])))
            tri_count += 1

    return AxiomReport(not violations, tuple(violations))


def isosceles_by_numpy(space):
    """:func:`ultrametric.check_isosceles` as its numpy loop first read."""
    import numpy as np
    D = np.array(space.index_rows())
    els = space.elements
    n = len(els)
    violations = []
    for m in range(n):
        a = D[:, m][:, None]
        b = D[m, :][None, :]
        top = np.maximum(np.maximum(a, b), D)
        hits = (a == top).astype(np.int8) + (b == top) + (D == top)
        for l, e in np.argwhere(hits < 2):
            if len(violations) >= _MAX_WITNESSES:
                return AxiomReport(False, tuple(violations))
            violations.append(
                AxiomViolation("isosceles", (els[l], els[m], els[e])))
    return AxiomReport(not violations, tuple(violations))


def completeness_by_numpy(space):
    """:func:`ultrametric.check_spherical_completeness` as it first read:
    one ``np.unique`` of the threshold rows per radius."""
    import numpy as np
    D = np.array(space.index_rows())
    els = space.elements
    balls = sorted({frozenset(els[i] for i in np.flatnonzero(row))
                    for r in range(len(space.scale))
                    for row in np.unique(D <= r, axis=0) if row.any()},
                   key=lambda b: (len(b), canonical_key(b)))
    for a, b in itertools.combinations(balls, 2):
        if a & b and not (a <= b or b <= a):
            return CompletenessReport(False, (a, b))
    return CompletenessReport(True)


def canonical_key_by_isinstance(value):
    """:func:`util.canonical_key` as its ``isinstance`` chain first read,
    numbers (fractions included) tested first."""
    if isinstance(value, (int, Fraction)):
        return (0, value)
    if isinstance(value, float):
        return (0, Fraction(value))
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(canonical_key_by_isinstance(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return (3, tuple(sorted(canonical_key_by_isinstance(v)
                                for v in value)))
    return (4, type(value).__name__, repr(value))


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


def search_ultrametric_by_pairs(op):
    """(scale values, per-component {value: height}) as
    :func:`search_ultrametric` must find them, or ``None``.

    Lists every assignment of heights ``0 .. max(1, V - 1)`` to the ``V``
    values of the components with more than one value, keeps those with
    at most one zero height per component under which the map contracts
    every pair and is strict on every orbit step, provided the map has
    exactly one fixed point, and returns their pointwise max relabelled
    by rank (from 1 when no height is 0).  A one-value component's value
    gets height 0.  Each pair's distance is computed for every assignment
    at once.
    """
    import numpy as np
    states = list(op.iter_states())
    f = {m: op.apply(m) for m in states}
    if sum(f[m] == m for m in states) != 1:
        return None
    values = [(i, v) for i, dom in enumerate(op.domains) if len(dom) > 1
              for v in dom]
    column = {value: k for k, value in enumerate(values)}
    top = max(1, len(values) - 1)
    grid = np.indices((top + 1,) * len(values), dtype=np.uint8)
    grid = grid.reshape(len(values), (top + 1) ** len(values)).T
    ok = np.ones(len(grid), dtype=bool)
    for i, dom in enumerate(op.domains):
        cols = [column[i, v] for v in dom if (i, v) in column]
        ok &= (grid[:, cols] == 0).sum(axis=1) <= 1
    dist = {}

    def d(m, n):
        if (m, n) not in dist:
            cols = [column[i, w] for i, (u, v) in enumerate(zip(m, n))
                    if u != v for w in (u, v)]
            dist[m, n] = grid[:, cols].max(axis=1, initial=0)
        return dist[m, n]

    for m, n in itertools.combinations(states, 2):
        ok &= d(f[m], f[n]) <= d(m, n)
    for m in states:
        if f[m] != m:
            ok &= d(f[m], f[f[m]]) < d(m, f[m])
    if not ok.any():
        return None
    greatest = grid[ok].max(axis=0).tolist()
    labels = sorted(set(greatest))
    shift = 0 if 0 in labels else 1
    h = {value: labels.index(g) + shift for value, g in zip(values, greatest)}
    return (tuple(range(len(labels) + shift)) if labels else (0,),
            tuple({v: h.get((i, v), 0) for v in dom}
                  for i, dom in enumerate(op.domains)))


def greatest_heights_by_sets(sizes, sigma):
    """``aco._greatest_heights`` as it first read: each condition's
    values kept as a set, each height as an int, lowered one value at a
    time; the same ``(heights, conditions, rounds)``."""
    table = _differing_values(sizes)
    at_most: dict = {}  # (S, c) -> the values a with h_a <= max(h[S]) + c
    conditions = 0
    for x, fx in enumerate(sigma):
        row, images = table[x], table[fx]
        for over, fy in zip(row[x + 1:], sigma[x + 1:]):
            if fy != fx:
                at_most.setdefault((over, 0), set()).update(images[fy])
                conditions += 1
        if sigma[fx] != fx:
            at_most.setdefault((row[fx], -1), set()).update(
                images[sigma[fx]])
            conditions += 1
    h = [max(1, sum(sizes) - 1)] * sum(sizes)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for (over, c), values in at_most.items():
            bound = max(map(h.__getitem__, over)) + c
            if bound < 0:
                return None, conditions, rounds
            for a in values:
                if h[a] > bound:
                    h[a] = bound
                    changed = True
    for lo, hi in itertools.pairwise(itertools.accumulate(sizes, initial=0)):
        if h[lo:hi].count(0) > 1:
            return None, conditions, rounds
    ranks = sorted(set(h))
    rank = {v: r for r, v in enumerate(ranks, start=0 if 0 in ranks else 1)}
    return tuple(rank[v] for v in h), conditions, rounds


def numeric_scale(values, zero=0):
    """Scale over numeric labels, sorted ascending with ``zero`` first."""
    return RadiusScale((zero, *sorted(set(values) - {zero})))


def string_distance(x, y) -> Fraction:
    """Distance between two symbol sequences.

    Zero when equal, otherwise ``2**-m`` for the least index ``m`` where
    they differ; a missing position (shorter sequence) counts as a
    difference, so prefixes differ at the first absent index.
    """
    if x == y:
        return Fraction(0)
    return Fraction(1, 2 ** next(
        (m for m, (a, b) in enumerate(zip(x, y)) if a != b),
        min(len(x), len(y))))


def string_space(strings) -> FiniteUltrametricSpace:
    """Space over a finite string sample under :func:`string_distance`."""
    strings = tuple(strings)
    scale = numeric_scale({string_distance(a, b) for a, b in
                           itertools.combinations(strings, 2)})
    return FiniteUltrametricSpace(strings, scale, string_distance)


def height_space(elements, heights, scale=None) -> FiniteUltrametricSpace:
    """Space induced by positive heights (a dict over ``elements``): zero
    between equal elements, otherwise the larger of the two heights."""
    elements = tuple(elements)
    if scale is None:
        scale = numeric_scale(heights[e] for e in elements)
    return FiniteUltrametricSpace(elements, scale, lambda m, n: 0 if m == n
                                  else max(heights[m], heights[n]))


class ProductSpace:
    """Max-product of component spaces over one shared scale.

    Elements are tuples, one coordinate per component, and the distance is
    the componentwise maximum.  The element set is the full cartesian
    product in ``itertools.product`` order.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise MalformedSpaceError("product needs at least one component")
        scale = components[0].scale
        for comp in components[1:]:
            if comp.scale.values != scale.values:
                raise MalformedSpaceError(
                    "product components must share one radius scale")
        self.components = components
        self.scale = scale
        self._sizes = tuple(len(c.elements) for c in components)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def __len__(self):
        return math.prod(self._sizes)

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(itertools.product(*(c.elements for c in self.components)))

    @functools.cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def __contains__(self, element):
        return element in self._index

    def index_of(self, element) -> int:
        try:
            return self._index[element]
        except (KeyError, TypeError):
            raise MalformedSpaceError(f"unknown element {element!r}") from None

    def _check_vector(self, m):
        if not isinstance(m, tuple) or len(m) != self.dimension:
            raise MalformedSpaceError(
                f"expected a vector of {self.dimension} coordinates, got {m!r}")

    def distance_index(self, m, n) -> int:
        self._check_vector(m)
        self._check_vector(n)
        return max(
            comp.distance_index(a, b)
            for comp, a, b in zip(self.components, m, n))

    def distance(self, m, n):
        return self.scale.values[self.distance_index(m, n)]

    def index_rows(self) -> tuple[tuple[int, ...], ...]:
        """Distance table as a tuple of rows of scale indices: the
        componentwise maximum of the component tables, built on the first
        call."""
        return self._rows

    @functools.cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        rows = ((0,),)
        for comp in self.components:
            # lifts[a][d]: row a of the component's table, each entry
            # raised to at least d, for each distance d of the rows so
            # far; a new row joins the lifts that an old row's entries pick
            values = set().union(*rows)
            lifts = [{d: tuple([max(d, c) for c in part]) for d in values}
                     for part in comp.index_rows()]
            rows = tuple(tuple(itertools.chain.from_iterable(
                map(lift.__getitem__, row))) for row in rows for lift in lifts)
        return rows

    @functools.cached_property
    def _analysis(self) -> _TableAnalysis:
        return _TableAnalysis(self._rows)

    def ball_labels(self):
        """The ball labels (see :meth:`FiniteUltrametricSpace.ball_labels`).

        A product ball is the box of its component balls, so the label
        combines the component labels in mixed radix, in element order:
        the index of the box's smallest element.  Each component checks
        its own table.  Computed once per space (read-only).
        """
        return self._ball_labels

    @functools.cached_property
    def _ball_labels(self):
        import numpy as np
        labels = np.zeros((len(self.scale), 1), dtype=np.int64)
        for comp, size in zip(self.components, self._sizes):
            labels = (labels[:, :, None] * size
                      + comp.ball_labels()[:, None, :]).reshape(len(labels), -1)
        labels.setflags(write=False)
        return labels


def state_space(instance, granularity) -> ProductSpace:
    """Product ultrametric matching ``routing.decompose``: per group, the
    distance between two held subsets is their ``routing.state_distance``."""
    scale = numeric_scale(instance.path_heights.values())

    def dist(x, y):
        return routing.state_distance(instance, x, y)

    return ProductSpace(
        FiniteUltrametricSpace(tuple(dom), scale, dist)
        for dom in routing._group_domains(
            instance, routing._groups(instance, granularity)))


def interpretation_scale(strat) -> RadiusScale:
    """Zero, then ``2**-s`` for each stratum ``s`` from the deepest."""
    return RadiusScale(tuple([Fraction(0)] + [
        Fraction(1, 2 ** s) for s in range(strat.max_level, -1, -1)]))


def interpretation_space(program, strat) -> ProductSpace:
    """Per-atom product space whose max-distance equals
    ``logic.interpretation_distance`` on the full interpretation lattice.

    The atoms of one stratum share one component space, so its table and
    ball labels are built once."""
    scale = interpretation_scale(strat)
    levels = {level: FiniteUltrametricSpace(
        (False, True), scale,
        lambda m, n, r=Fraction(1, 2 ** level): Fraction(0) if m == n else r)
        for level in {strat.of(atom) for atom in program.atoms}}
    return ProductSpace(levels[strat.of(atom)] for atom in program.atoms)


def witness_space(domains, row):
    """The product space of heights ``row``, as ``search_ultrametric``
    first returned its witness: one height per value of each component
    with more than one value, in order; a one-value component's value
    gets height 0."""
    scale = RadiusScale(tuple(range(max(row, default=0) + 1)))
    heights = iter(row)  # zip takes len(dom) of them for each domain
    tables = [{dom[0]: 0} if len(dom) == 1 else dict(zip(dom, heights))
              for dom in domains]
    return ProductSpace([height_space(dom, t, scale)
                         for dom, t in zip(domains, tables)])


def metric_space(metric):
    """:func:`witness_space` of a ``HeightMetric``."""
    return witness_space(metric.domains, [
        h for dom, hs in zip(metric.domains, metric.heights) if len(dom) > 1
        for h in hs])


def _canonical_heights(sizes, top):
    """Every order-canonical height assignment, one row each, in
    ``itertools.product`` order over ``0 .. top`` per position (the values
    of each component in turn).

    A row has at most one zero per component, else two points would sit at
    distance zero, and its nonzero labels are exactly ``1 .. count``.  The
    conditions read only the order of heights, and relabeling by rank
    lowers every entry, so some canonical row qualifies whenever any
    assignment does.
    """
    import numpy as np
    grid = np.indices((top + 1,) * sum(sizes), dtype=np.uint8)
    grid = grid.reshape(sum(sizes), (top + 1) ** sum(sizes)).T
    keep = np.ones(len(grid), dtype=bool)
    for part in np.split(grid, np.cumsum(sizes)[:-1], axis=1):
        keep &= (part == 0).sum(axis=1) <= 1
    used = [(grid == v).any(axis=1) for v in range(1, top + 1)]
    for lower, higher in zip(used, used[1:]):
        keep &= lower | ~higher
    return grid[keep]


@functools.lru_cache(maxsize=None)
def _height_family(sizes):
    """``(heights, pair_dist, a, b)`` for a domain whose components have
    ``sizes`` values: the order-canonical assignments of heights
    ``0 .. max(1, n - 1)`` for ``n`` states; ``pair_dist[i, j, r]``, the
    product height distance of states ``i`` and ``j`` (``itertools.product``
    order) under row ``r``; and ``a, b``, the state pairs ``a < b``."""
    import numpy as np
    states = math.prod(sizes)
    heights = _canonical_heights(sizes, max(1, states - 1))
    starts = itertools.accumulate(sizes[:-1], initial=0)
    cols = np.array(list(itertools.product(
        *(range(s, s + n) for s, n in zip(starts, sizes)))), dtype=np.int64)
    differ = cols[:, None, :] != cols[None, :, :]
    pair_dist = np.zeros((states, states, len(heights)), dtype=np.uint8)
    for c in range(len(sizes)):
        h = heights[:, cols[:, c]].T
        top_of = np.maximum(h[:, None, :], h[None, :, :])
        np.maximum(pair_dist, top_of * differ[:, :, c, None], out=pair_dist)
    a, b = np.triu_indices(states, 1)
    return heights, pair_dist, a, b


def qualifying_rows_on_all_rows(sizes, sigma):
    """The first :func:`_height_family` row under which each map (one row
    of image indices in ``sigma``) contracts every pair and is strict on
    every orbit step, or ``-1``: the height search as it first read, the
    pair condition and the orbit condition both gathered on every row.
    The fixed points are not counted."""
    import numpy as np
    heights, pair_dist, a, b = _height_family(sizes)
    after = sigma[np.arange(len(sigma))[:, None], sigma]
    contracts = (pair_dist[sigma[:, a], sigma[:, b]]
                 <= pair_dist[a, b]).all(axis=1)
    steps = pair_dist[np.arange(sigma.shape[1]), sigma]
    strict = (pair_dist[sigma, after] < np.maximum(steps, 1)).all(axis=1)
    ok = contracts & strict
    return np.where(ok.any(axis=1), ok.argmax(axis=1), -1)


def image_hulls_by_states(op):
    """The hulls ``aco._analysis(op).boxes`` as they first read: each
    hull the box of the images of every state tuple inside the last one,
    from the whole domain up to the first hull that repeats."""
    def box(comps):
        return tuple(tuple(sorted_canonical(comp)) for comp in comps)

    hulls = [box(op.domains)]
    while True:
        images = [set() for _ in op.domains]
        for m in box_members(hulls[-1]):
            for comp, v in zip(images, op.apply(m)):
                comp.add(v)
        nxt = box(images)
        if nxt == hulls[-1]:
            return hulls
        hulls.append(nxt)


def domain_check_by_typed_sets(domains, state):
    """Whether :class:`DecomposedOperator` accepts ``domains`` and then
    ``state``, as it first decided: distinct values by ``set``, and each
    value looked up as a ``(type, value)`` pair.  ``"duplicates"`` for
    rejected domains, else ``True`` or ``False`` for the state."""
    if any(len(set(dom)) != len(dom) for dom in domains):
        return "duplicates"
    typed = [frozenset((type(v), v) for v in dom) for dom in domains]
    return all((type(v), v) in dom for v, dom in zip(state, typed))


def from_table_by_checks(domains, table):
    """The callable operator over ``table`` that
    :meth:`DecomposedOperator.from_table` must accept exactly when this
    does, as it first checked a table: ``_check`` on each state, then on
    its image, entry by entry in table order, then totality."""
    table = dict(table)
    op = DecomposedOperator(domains, table.__getitem__)
    for state, image in table.items():
        op._check(state, "table input {!r} has the wrong shape",
                  "table input holds {!r} outside its component domain")
        op._check(image, "operator produced a bad state {!r}",
                  "operator produced {!r} outside its component domain")
    if len(table) != op.size():
        missing = next(s for s in op.iter_states() if s not in table)
        raise PreconditionError(f"table misses state {missing!r}")
    return op


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
