"""Certification of asynchronously contracting operators.

An operator over a finite product domain is certified by a strictly nested
sequence of boxes that it walks inward, or refuted by exhausting the search
for one.  The module also carries the two constructions that translate
between box sequences and ultrametrics, and the desk-scale search for a
qualifying product ultrametric, so the two characterizations can be checked
against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    MalformedBoxError,
    PreconditionError,
    SemanticsError,
    SizeLimitError,
)
from .iteration import (DecomposedOperator, campaign, campaign_stats,
                        check_schedules)
from .util import (canonical_key, jsonable, logger, refuse_assignment,
                   sorted_canonical)

# ultrametric is imported inside each function that builds or classifies a
# space: most commands build none and start faster without it
if TYPE_CHECKING:
    from .ultrametric import FiniteUltrametricSpace

Box = tuple  # per-component subsets, each a canonically sorted tuple

# most states search_ultrametric builds height conditions for, and most
# states of a domain whose every table equivalence_census checks
MAX_SEARCH_STATES = 1024
MAX_CENSUS_STATES = 8


def _normalize_box(box) -> Box:
    comps = []
    for comp in box:
        comp = tuple(sorted_canonical(comp))
        if not comp:
            raise MalformedBoxError("box has an empty component subset")
        if len(set(comp)) != len(comp):
            raise MalformedBoxError("box component subset has duplicates")
        comps.append(comp)
    return tuple(comps)


def box_members(box: Box):
    return itertools.product(*box)


def box_size(box: Box) -> int:
    return math.prod(len(comp) for comp in box)


def box_contains(box: Box, state: tuple) -> bool:
    return all(v in comp for v, comp in zip(state, box))


def box_subset(inner: Box, outer: Box) -> bool:
    return all(set(a) <= set(b) for a, b in zip(inner, outer))


class BoxSequence:
    """Nested boxes ``C_0 .. C_k``: a singleton up to the whole space."""

    boxes: tuple[Box, ...]
    fixed_point: tuple

    def __init__(self, boxes, fixed_point):
        if not boxes:
            raise MalformedBoxError("box sequence must be nonempty")
        width = len(boxes[0])
        normalized = []
        for box in boxes:
            if len(box) != width:
                raise MalformedBoxError("boxes must share one dimension")
            normalized.append(_normalize_box(box))
        object.__setattr__(self, "boxes", tuple(normalized))
        object.__setattr__(self, "fixed_point", tuple(fixed_point))

    __setattr__ = refuse_assignment

    @classmethod
    def _of(cls, boxes: tuple, fixed_point: tuple) -> BoxSequence:
        """A sequence of ``boxes`` already canonical (each component
        sorted, nonempty and free of duplicates, one width), kept as they
        are: :class:`_Analysis` builds its chain so."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "boxes", boxes)
        object.__setattr__(seq, "fixed_point", fixed_point)
        return seq

    def __len__(self):
        return len(self.boxes)

    def to_json_dict(self) -> dict:
        return {
            "fixed_point": jsonable(self.fixed_point),
            "boxes": [[list(comp) for comp in box] for box in self.boxes],
        }


class BoxCheck(NamedTuple):
    ok: bool
    violated: str | None = None
    witness: tuple | None = None


def _check_box_shape(op: DecomposedOperator, seq: BoxSequence):
    for box in seq.boxes:
        if len(box) != op.processors:
            raise MalformedBoxError(
                f"box has {len(box)} components, operator has {op.processors}")
        for comp, dom in zip(box, op.domains):
            alien = set(comp) - set(dom)
            if alien:
                raise MalformedBoxError(
                    f"box component contains {sorted_canonical(alien)[0]!r} "
                    f"outside the processor domain")


def verify_box_sequence(op: DecomposedOperator, seq: BoxSequence) -> BoxCheck:
    """Check the four certificate conditions exhaustively.

    1. the innermost box is the singleton of the fixed point;
    2. the outermost box is the whole domain;
    3. the nesting is strict at every step;
    4. the operator maps each box into the next one inward, and keeps the
       innermost box fixed.
    """
    _check_box_shape(op, seq)
    inner = seq.boxes[0]
    if box_size(inner) != 1:
        return BoxCheck(False, "condition-1", (inner,))
    sole = next(box_members(inner))
    if sole != seq.fixed_point:
        return BoxCheck(False, "condition-1", (sole, seq.fixed_point))
    outer = seq.boxes[-1]
    if any(set(comp) != set(dom) for comp, dom in zip(outer, op.domains)):
        return BoxCheck(False, "condition-2", (outer,))
    for r in range(len(seq.boxes) - 1):
        small, big = seq.boxes[r], seq.boxes[r + 1]
        if not box_subset(small, big) or box_size(small) >= box_size(big):
            return BoxCheck(False, "condition-3", (r, r + 1))
    if op.apply(seq.fixed_point) != seq.fixed_point:
        return BoxCheck(False, "condition-4", (seq.fixed_point,))
    for r in range(len(seq.boxes) - 1):
        target = seq.boxes[r]
        for m in box_members(seq.boxes[r + 1]):
            if not box_contains(target, op.apply(m)):
                return BoxCheck(False, "condition-4", (r + 1, m))
    return BoxCheck(True)


def boxes_from_ultrametric(space, op: DecomposedOperator) -> BoxSequence:
    """Read off the certificate boxes as the balls around the fixed point.

    ``space`` must cover the operator's product domain with tuple elements
    and make the operator at least a contraction that is strict on orbits;
    each ball about the fixed point must factor as a product (automatic for
    product spaces).  Coinciding balls are emitted once, at their smallest
    radius.
    """
    from .ultrametric import classify_contraction
    if set(space.elements) != set(op.iter_states()):
        raise PreconditionError(
            "space elements do not match the operator domain")
    report = classify_contraction(space, op.apply)
    if not report.qualifies():
        raise PreconditionError(
            f"operator classifies as {report.classification}; "
            "need a contraction that is strict on orbits",
            witness=report)
    fixed_points = _analysis(op).fixed_points
    if len(fixed_points) != 1:
        # Strictness on orbits says nothing about points that are already
        # fixed, so the classification alone cannot rule out several of
        # them; the descent of balls needs exactly one.
        raise PreconditionError(
            f"operator has {len(fixed_points)} fixed points; the ball "
            "construction needs exactly one",
            witness=fixed_points)
    fixed = fixed_points[0]

    # the ball of radius r about the fixed point: the elements that share
    # its row-r ball label; balls only grow with r, and the top one is the
    # whole space
    els = space.elements
    at = space.index_of(fixed)
    boxes = []
    members = None
    for r, row in enumerate(space.ball_labels().tolist()):
        ball = frozenset(e for e, label in zip(els, row) if label == row[at])
        if ball == members:
            continue
        members = ball
        box = tuple(tuple(sorted_canonical({m[i] for m in members}))
                    for i in range(len(op.domains)))
        if box_size(box) != len(members):
            raise PreconditionError(
                f"ball at radius {space.scale.values[r]!r} about the fixed "
                "point is not a box; the space is not product-structured")
        boxes.append(box)
    return BoxSequence(tuple(boxes), fixed)


def ultrametric_from_boxes(seq: BoxSequence) -> FiniteUltrametricSpace:
    """Distance from nesting depth: the index of the innermost box
    containing a point, maxed over distinct pairs.

    The balls about the fixed point under this distance reproduce the boxes
    exactly; radii are the box indices ``0 .. k``.
    """
    from .ultrametric import FiniteUltrametricSpace, RadiusScale
    inner = seq.boxes[0]
    if box_size(inner) != 1 or next(box_members(inner)) != seq.fixed_point:
        raise PreconditionError("innermost box must be the fixed point singleton")
    for r in range(len(seq.boxes) - 1):
        small, big = seq.boxes[r], seq.boxes[r + 1]
        if not box_subset(small, big) or box_size(small) >= box_size(big):
            raise PreconditionError(f"boxes {r} and {r + 1} are not strictly nested")

    elements = tuple(box_members(seq.boxes[-1]))
    # the innermost box's index is written last
    depth = {m: r for r in reversed(range(len(seq.boxes)))
             for m in box_members(seq.boxes[r])}
    scale = RadiusScale(tuple(range(len(seq.boxes))))

    def dist(m, n):
        return 0 if m == n else max(depth[m], depth[n])

    return FiniteUltrametricSpace(elements, scale, dist)


def _state_columns(sizes: tuple):
    """Each state's values as columns among all ``sum(sizes)`` values, the
    values of each component in turn, one column per component, states
    in ``itertools.product`` order."""
    ends = tuple(itertools.accumulate(sizes))
    return itertools.product(*map(range, (0, *ends), ends))


def _metric_sizes(domains) -> tuple:
    """The shape the census and the height search read: the sizes of the
    components with more than one value.  A one-value component changes
    no state index, no hull verdict and no distance, so it is left out
    and its value gets height 0."""
    return tuple(len(dom) for dom in domains if len(dom) > 1)


@functools.lru_cache(maxsize=4)
def _value_masks(sizes: tuple) -> tuple:
    """``masks[s]``: state ``s``'s values as bits among all ``sum(sizes)``
    values, one bit per value of each component in turn, states in
    ``itertools.product`` order.  Built once per shape and kept."""
    return tuple(sum(1 << c for c in cols) for cols in _state_columns(sizes))


@functools.lru_cache(maxsize=4)
def _canonical_columns(domains: tuple) -> tuple:
    """Each domain's :func:`_state_columns` in its values' canonical order."""
    starts = itertools.accumulate(map(len, domains), initial=0)
    return tuple(tuple(c for _, c in sorted(zip(map(canonical_key, dom),
                                                itertools.count(start))))
                 for dom, start in zip(domains, starts))


def _hulls(sizes: tuple, image) -> list[int]:
    """The image hulls of the map of state indices ``image`` over a
    domain of shape ``sizes``, as :func:`_value_masks` bit masks:
    ``H_0`` holds every value and ``H_{n+1}`` the values of the images of
    the states inside ``H_n``, up to the first ``H_m`` with
    ``H_{m+1} == H_m``.  The hulls only shrink
    (:func:`search_box_sequence`), so each pass scans only the states
    inside the last hull."""
    masks = _value_masks(sizes)
    hulls = [(1 << sum(sizes)) - 1]
    inside = range(len(image))
    while True:
        hull = 0
        for s in inside:
            hull |= masks[image[s]]
        if hull == hulls[-1]:
            return hulls
        hulls.append(hull)
        inside = [s for s in inside if masks[s] & hull == masks[s]]


def _chained(sizes: tuple, hulls: list[int]) -> bool:
    """Whether the :func:`_hulls` over shape ``sizes`` end at a singleton."""
    return hulls[-1].bit_count() == len(sizes)


class _Analysis:
    """One operator's fixed points, in :meth:`iter_states` order, its
    image hulls over the whole domain shape and ``chain``, the hulls as
    boxes innermost first if they end at a singleton, else ``None``, read
    off its image table once for every search and certificate
    (:func:`_analysis`)."""

    def __init__(self, op: DecomposedOperator):
        self.domains, self.sigma = op.domains, op.image_indices()
        self.sizes = tuple(map(len, self.domains))
        states = op._states()
        self.fixed_points = tuple(
            states[i] for i, f in enumerate(self.sigma) if f == i)
        self.hulls = _hulls(self.sizes, self.sigma)
        self.chain = None
        if _chained(self.sizes, self.hulls):
            # the boxes are canonical already, so they are not checked again
            self.boxes = _boxes(self.domains, self.hulls)
            self.chain = BoxSequence._of(tuple(reversed(self.boxes)),
                                         self.fixed_points[0])

    @functools.cached_property
    def boxes(self) -> list[Box]:
        """The hulls as boxes, the whole domain first, in canonical order;
        set when the operator is analysed if they form a chain."""
        return _boxes(self.domains, self.hulls)


def _boxes(domains: tuple, hulls: list[int]) -> list[Box]:
    """The :func:`_hulls` over ``domains`` as boxes, each component's
    values in canonical order."""
    values = tuple(itertools.chain.from_iterable(domains))
    columns = _canonical_columns(domains)
    return [tuple([tuple([values[c] for c in comp if hull >> c & 1])
                   for comp in columns])
            for hull in hulls]


def _analysis(op: DecomposedOperator) -> _Analysis:
    """The operator's :class:`_Analysis`, built on the first call and kept
    on the operator."""
    if op._analysis is None:
        op._analysis = _Analysis(op)
    return op._analysis


def search_box_sequence(op: DecomposedOperator) -> BoxSequence | None:
    """Exact search for a certificate chain of strictly nested boxes.

    Iterates the image hull from the whole domain (:func:`_hulls`).
    ``B -> hull(F(B))`` is monotone and ``H_1 <= H_0`` (:meth:`apply
    <DecomposedOperator.apply>` rejects every image outside the domain),
    so the hulls only shrink.  A chain exists exactly when they stop at a
    singleton, and then the hulls read innermost first are the chain;
    ``None`` means no chain exists at all.  This is the exhaustive search,
    not an approximation: any chain ``C_k > ... > C_0`` starts at the
    whole domain and has ``hull(F(C_j)) <= C_{j-1}``, because ``C_{j-1}``
    is a box, so monotonicity and induction give ``H_n <= C_{k-n}``, and
    ``H_k <= C_0`` is a singleton.  Hulls that stop at a singleton ``{x}``
    have ``F(x) == x``.  Among all chains this one is the innermost at
    every depth.
    """
    analysis = _analysis(op)
    chain = analysis.chain
    logger().debug("search_box_sequence: boxes=%d verdict=%s",
                   len(analysis.hulls),
                   "certified" if chain is not None else "refuted")
    return chain


@functools.lru_cache(maxsize=4)
def _differing_values(sizes: tuple) -> tuple:
    """``table[i][j]``: the values at which states ``i`` and ``j`` differ,
    both values of each component where they differ, as columns of
    :func:`_state_columns`.  Built once per shape and kept; equal sets
    are one tuple."""
    cols = list(_state_columns(sizes))
    sets: dict = {}
    return tuple(
        tuple(sets.setdefault(d, d) for d in (
            tuple(v for u, w in zip(x, y) if u != w for v in (u, w))
            for y in cols))
        for x in cols)


@functools.lru_cache(maxsize=4)
def _differing_masks(sizes: tuple) -> tuple:
    """``(table, mask_of)``: the :func:`_differing_values` as bit masks
    over the columns, ``table[i][j]`` for states ``i`` and ``j`` and
    ``mask_of[values]`` for each tuple of values.  Built once per shape
    and kept."""
    mask_of = {d: sum(1 << v for v in d)
               for row in _differing_values(sizes) for d in row}
    return tuple(tuple(map(mask_of.__getitem__, row))
                 for row in _differing_values(sizes)), mask_of


def _greatest_heights(sizes: tuple, sigma) -> tuple:
    """``(heights, conditions, rounds)``: the greatest product heights
    under which the map ``sigma``, a sequence of int image indices,
    contracts and is strict on orbits, relabelled by rank, with
    ``heights`` ``None`` when no heights do.

    ``heights`` holds one height per value of ``sizes``, components in
    turn.  Under the product height metric, ``d(x, y)`` is the largest
    height of a value where ``x`` and ``y`` differ, so each condition
    reads "``h_a <= max(h[S]) + c`` for every ``a`` in ``T``":

    - a pair whose images differ contracts: ``T`` the values where the
      images differ, ``S`` where the pair does, ``c = 0``;
    - a moved ``x`` with ``F(x) != F(F(x))`` steps strictly inward: ``T``
      the values where ``F(x)`` and ``F(F(x))`` differ, ``S`` where ``x``
      and ``F(x)`` do, ``c = -1``.

    Solutions are closed under pointwise max, and the conditions read
    only the order of heights, so any solution has a copy with the same
    order in ``0 .. top``, ``top = max(1, V - 1)`` for ``V`` values.
    Lowering each ``h_a`` to its bound from ``h`` of that top until
    nothing changes therefore ends at the greatest solution, and a bound
    below 0 shows there is none.  Two zero heights in one component put
    two states at distance 0; that bound holds for every larger
    assignment too, so testing it on the greatest solution decides it.
    ``conditions`` counts the conditions above, ``rounds`` the passes
    over them, each condition met once per pass in the order it was
    first built.

    The heights are kept as level masks, ``ge[L]`` the values with
    height at least ``L`` (:func:`_differing_masks` bits): ``max(h[S])``
    is the highest ``L`` with ``ge[L] & S``, and lowering the values of
    ``T`` to ``bound`` clears them from ``ge[bound + 1 .. top]``.
    """
    table = _differing_values(sizes)
    masks, mask_of = _differing_masks(sizes)
    at_most: dict = {}  # (S, c) -> the values a with h_a <= max(h[S]) + c
    conditions = 0
    for x, fx in enumerate(sigma):
        row, images = table[x], masks[fx]
        for over, fy in zip(row[x + 1:], sigma[x + 1:]):
            if fy != fx:
                key = (over, 0)
                at_most[key] = at_most.get(key, 0) | images[fy]
                conditions += 1
        if sigma[fx] != fx:
            key = (row[fx], -1)
            at_most[key] = at_most.get(key, 0) | images[sigma[fx]]
            conditions += 1
    top = max(1, sum(sizes) - 1)
    every = (1 << sum(sizes)) - 1
    ge = [every] * (top + 1)
    bounds = [(mask_of[over], c, values)
              for (over, c), values in at_most.items()]
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for over, c, values in bounds:
            level = top
            while not ge[level] & over:
                level -= 1
            level += c + 1  # the lowest level the values must leave
            if level <= 0:  # the bound is below 0
                return None, conditions, rounds
            while level <= top and ge[level] & values:
                ge[level] &= ~values
                level += 1
                changed = True
    ge.append(0)
    zero = every & ~ge[1]
    for lo, hi in itertools.pairwise(itertools.accumulate(sizes, initial=0)):
        if (zero >> lo & (1 << hi - lo) - 1).bit_count() > 1:
            return None, conditions, rounds
    # relabel by rank: the levels that hold a value, lowest first
    h = [0] * sum(sizes)
    rank = 0 if zero else 1
    for level in range(top + 1):
        exact = ge[level] & ~ge[level + 1]
        if exact:
            while exact:
                low = exact & -exact
                h[low.bit_length() - 1] = rank
                exact ^= low
            rank += 1
    return tuple(h), conditions, rounds


class HeightMetric(NamedTuple):
    """A product height metric over ``domains``: ``heights[i][k]`` is the
    height of value ``domains[i][k]``, and two states lie at the largest
    height among the values where they differ.  A one-value component's
    value is at height 0.  :func:`search_ultrametric` returns one."""

    domains: tuple
    heights: tuple

    def _positions(self, state) -> list[int]:
        """Each value's index in its domain; a state outside the domains
        raises :class:`PreconditionError`, as
        :meth:`DecomposedOperator.check_state` words it."""
        if not isinstance(state, tuple) or len(state) != len(self.domains):
            raise PreconditionError(f"state {state!r} has the wrong shape")
        out = []
        for value, dom in zip(state, self.domains):
            # domain values are distinct, so at most one equals the value
            k = dom.index(value) if value in dom else None
            if k is None or type(dom[k]) is not type(value):
                raise PreconditionError(f"{value!r} not in component domain")
            out.append(k)
        return out

    def distance_index(self, m: tuple, n: tuple) -> int:
        """The largest height among the values where ``m`` and ``n``
        differ; 0 when they are equal."""
        return max((max(hs[j], hs[k]) for j, k, hs in zip(
            self._positions(m), self._positions(n), self.heights) if j != k),
            default=0)

    def to_json_dict(self) -> dict:
        return {"domains": jsonable(self.domains),
                "heights": jsonable(self.heights)}


def _height_metric(domains: tuple, row) -> HeightMetric:
    """The metric of heights ``row``: one height per value of each
    component with more than one value, in order; a one-value
    component's value gets height 0."""
    heights = iter(row)  # zip takes len(dom) of them for each domain
    return HeightMetric(domains, tuple(
        (0,) if len(dom) == 1 else tuple(h for _, h in zip(dom, heights))
        for dom in domains))


def _confirm(domains, sigma, heights) -> None:
    """Check that the product height metric of ``heights`` makes the map
    ``sigma`` of state indices a contraction that is strict on orbits, and
    raise :class:`SemanticsError` if it does not.

    ``heights`` are read as :func:`_height_metric` reads them.  This
    checks the height search without its tables: it reads the metric's
    balls.

    - Heights that put two values of one component at 0 are no metric.
    - Contraction, ball by ball: ``d(x, y) <= r`` exactly when ``x`` and
      ``y`` agree on every value whose height is above ``r``, so for each
      radius ``r`` below the top height each state is labelled by its
      values above ``r`` (the others merged), and states sharing a label
      must have images sharing a label.
    - Strictness on orbits, state by state: ``d(F(x), F(F(x))) <
      d(x, F(x))`` for every ``x`` that ``F`` moves, each distance read
      as the least radius at which the two states share a label.
    """
    sizes = _metric_sizes(domains)
    for lo, hi in itertools.pairwise(
            itertools.accumulate(sizes, initial=0)):
        if heights[lo:hi].count(0) > 1:
            raise SemanticsError(
                "height check disagrees with the height search: two values "
                "of one component at height 0")
    masks = _value_masks(sizes)
    # every distance is 0 or a height; one past the last radius stands
    # for the top height, at which all states share a label
    radii = sorted({0, *heights})[:-1]
    step = [len(radii)] * len(sigma)  # d(x, F(x)) as an index of radii
    for i in reversed(range(len(radii))):
        above = sum(1 << c for c, h in enumerate(heights) if h > radii[i])
        image_label = {}
        for x, fx in enumerate(sigma):
            label, image = masks[x] & above, masks[fx] & above
            if image_label.setdefault(label, image) != image:
                raise SemanticsError(
                    "height check disagrees with the height search: not a "
                    f"contraction at radius {radii[i]}")
            if label == image:
                step[x] = i
    for x, fx in enumerate(sigma):
        if fx != x and step[fx] >= step[x]:
            raise SemanticsError(
                "height check disagrees with the height search: not strict "
                f"on the orbit of state {x}")


def search_ultrametric(op: DecomposedOperator) -> HeightMetric | None:
    """Search product ultrametrics built from per-component heights.

    Returns the :class:`HeightMetric` of the greatest heights under which
    the operator contracts and is strict on orbits around a unique fixed
    point (:func:`_greatest_heights`, relabelled by rank), or ``None``
    when no product height metric does.  Three gates come first, in
    order, before any condition is built:

    - An operator without exactly one fixed point returns ``None``:
      strictness on orbits is vacuous at fixed points, so the identity,
      say, qualifies under every metric yet its runs can settle anywhere.
    - More than :data:`MAX_SEARCH_STATES` states raise
      :class:`SizeLimitError`.
    - An operator without a box chain returns ``None``.  This is exact
      (Proof A in ROADMAP.md): under a product height metric with one
      fixed point ``x*`` that is strict on orbits, ``d(F(x), x*) < d(x,
      x*)`` for every other ``x``, so the balls about ``x*``, which are
      boxes, form a box chain.  Contraction on all pairs is never used.

    Every metric found is confirmed by :func:`_confirm`, a plain-Python
    check of its balls, before it is returned, and a disagreement raises
    :class:`SemanticsError`.
    """
    analysis = _analysis(op)
    fixed = len(analysis.fixed_points)
    if fixed != 1:
        logger().debug("search_ultrametric: fixed_points=%d "
                       "gate=unique-fixed-point", fixed)
        return None
    if op.size() > MAX_SEARCH_STATES:
        raise SizeLimitError(f"{op.size()} states exceed the ultrametric "
                             f"search cap {MAX_SEARCH_STATES}")
    sigma = analysis.sigma
    if analysis.chain is None:
        logger().debug("search_ultrametric: states=%d gate=box-chain",
                       len(sigma))
        return None
    sizes = _metric_sizes(op.domains)
    heights, conditions, rounds = _greatest_heights(sizes, sigma)
    logger().debug("search_ultrametric: states=%d conditions=%d rounds=%d "
                   "verdict=%s", len(sigma), conditions, rounds,
                   "none" if heights is None else "found")
    if heights is None:
        return None
    _confirm(op.domains, sigma, heights)
    return _height_metric(op.domains, heights)


class AcoCertificate(NamedTuple):
    verdict: str  # "certified" | "refuted"
    box_sequence: BoxSequence | None = None
    refutation: dict | None = None
    sampling: dict | None = None
    stats: dict | None = None  # campaign_stats of the sampled runs

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json_dict(self) -> dict:
        doc: dict = {"verdict": self.verdict}
        if self.box_sequence is not None:
            doc["certificate"] = self.box_sequence.to_json_dict()
        for key in ("refutation", "sampling", "stats"):
            if getattr(self, key) is not None:
                doc[key] = jsonable(getattr(self, key))
        return doc


def certify_aco(op: DecomposedOperator, *,
                schedules: int = 100,
                horizon: int = 64,
                staleness: int = 5,
                window: int = 8,
                seed: int = 0,
                activation_prob: float = 0.5) -> AcoCertificate:
    """Certify or refute an operator by exact box-sequence search.

    The verdict reads the operator's fixed points and image hulls
    (:func:`_analysis`), never schedule sampling.  A refutation names the
    fixed points, ``stalled_box``, the box ``B`` with more than one member
    and ``hull(F(B)) == B`` where the hulls stopped, which no chain can
    pass, and ``boxes_examined``, the number of hulls.  A certified
    operator is also run under seeded admissible schedules from every
    start state, and the convergence ticks are recorded.  A run that hits
    the horizon is counted; one that converges anywhere but the chain's
    fixed point contradicts the chain and raises :class:`SemanticsError`.
    Fewer than one schedule is rejected before any other work.
    """
    check_schedules(schedules)
    analysis = _analysis(op)
    fixed_points, seq = analysis.fixed_points, analysis.chain
    logger().debug("certify_aco: fixed_points=%d boxes=%d verdict=%s",
                   len(fixed_points), len(analysis.hulls),
                   "certified" if seq is not None else "refuted")
    if seq is None:
        if len(fixed_points) != 1:
            reason = (f"{len(fixed_points)} fixed points; a certificate "
                      "requires exactly one")
        else:
            reason = "no strictly nested box chain survives the image condition"
        return AcoCertificate("refuted", refutation={
            "reason": reason,
            "fixed_points": fixed_points,
            "boxes_examined": len(analysis.hulls),
            "stalled_box": analysis.boxes[-1],
        })

    runs = campaign(op, op.iter_states(), schedules=schedules, seed=seed,
                    horizon=horizon, staleness=staleness, window=window,
                    activation_prob=activation_prob)
    converged = [r for r in runs if r.status == "converged"]
    for r in converged:
        if r.final != seq.fixed_point:
            raise SemanticsError(
                f"run from {r.start!r} under schedule seed {r.seed} converged "
                f"to {r.final!r}, not to the box chain's fixed point "
                f"{seq.fixed_point!r}")
    sampling = {
        "schedules": schedules,
        "seed": seed,
        "horizon": horizon,
        "staleness_bound": staleness,
        "fairness_window": window,
        "activation_prob": activation_prob,
        "runs": len(runs),
        "converged": len(converged),
        "horizon_exhausted": len(runs) - len(converged),
        "max_converged_tick": max(
            (r.converged_at for r in converged), default=0),
    }
    return AcoCertificate("certified", box_sequence=seq, sampling=sampling,
                          stats=campaign_stats(op, runs))


class CensusResult(NamedTuple):
    total: int
    agreements: int
    aco_count: int
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        return self.agreements == self.total


def equivalence_census(domains=((0, 1), (0, 1))) -> CensusResult:
    """Run both characterizations over every operator on a small product
    domain.

    The default domain yields the 256 self-maps of a 2x2 product; the box
    search and the ultrametric search must return the same verdict on each.
    Only a map with exactly one fixed point can have either (every fixed
    point stays in every image hull), so every other map agrees on "no".
    Translating each component's values, ``v -> v + t_i`` (mod ``|D_i|``),
    maps boxes to boxes and product heights to product heights, and the
    translations act regularly on the states.  So only the ``(n - 1) **
    (n - 1)`` maps whose one fixed point is state 0 go through the
    :func:`_hulls` of the box search, in ``itertools.product`` order, and,
    as in :func:`search_ultrametric`, only those with a box chain through
    its :func:`_greatest_heights` and :func:`_confirm`.  Each count is
    ``n`` times the count found, and each mismatch is listed with its
    ``n`` translates, all in ``itertools.product`` order.  Bad domains
    raise :class:`PreconditionError` as for any operator, and more than
    :data:`MAX_CENSUS_STATES` states raise :class:`SizeLimitError` before
    any table is built.
    """
    # the identity operator checks the domains
    domains = DecomposedOperator(domains, lambda s: s).domains
    count = math.prod(len(dom) for dom in domains)
    if count > MAX_CENSUS_STATES:
        raise SizeLimitError(f"{count} states exceed the census cap "
                             f"{MAX_CENSUS_STATES}")
    states = list(itertools.product(*domains))
    sizes = _metric_sizes(domains)
    # shift[t][s]: the index of state s translated by state t
    digits = list(itertools.product(*map(range, sizes)))
    shift = [[digits.index(tuple((a + b) % m for a, b, m in zip(t, c, sizes)))
              for c in digits] for t in digits]
    chains = metrics = 0
    found = []  # (image indices, by boxes, by metric) of every mismatch
    for sigma in itertools.product((0,), *(
            [f for f in range(count) if f != s] for s in range(1, count))):
        if not _chained(sizes, _hulls(sizes, sigma)):
            continue  # no box chain, so no metric either
        chains += 1
        heights = _greatest_heights(sizes, sigma)[0]
        if heights is not None:
            _confirm(domains, sigma, heights)
            metrics += 1
        else:
            found += [(tuple(tau[sigma[tau.index(u)]] for u in range(count)),
                       True, False) for tau in shift]
    logger().debug("equivalence_census: states=%d maps=%d translations=%d "
                   "box_chains=%d metric_searches=%d metrics=%d "
                   "mismatches=%d", count, (count - 1) ** (count - 1), count,
                   chains, chains, metrics, len(found) // count)
    mismatches = tuple(
        (tuple(sorted(zip(states, map(states.__getitem__, image)))), *verdicts)
        for image, *verdicts in sorted(found))
    total = count ** count
    return CensusResult(total, total - len(mismatches), count * metrics,
                        mismatches)
