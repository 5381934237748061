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
import logging
import math
from typing import NamedTuple

# numpy is imported inside each function that uses it: most commands run
# no numpy pass and start faster without it

from .errors import (
    MalformedBoxError,
    PreconditionError,
    SemanticsError,
    SizeLimitError,
)
from .iteration import (DecomposedOperator, campaign, campaign_stats,
                        check_schedules)
from .ultrametric import (
    BATCH_CELLS,
    FiniteUltrametricSpace,
    ProductSpace,
    RadiusScale,
    classify_contraction,
)
from .util import jsonable, refuse_assignment, sorted_canonical

log = logging.getLogger("acokit")

Box = tuple  # per-component subsets, each a canonically sorted tuple

# most height assignments search_ultrametric will enumerate
MAX_ASSIGNMENTS = 2_000_000


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
    import numpy as np
    if set(space.elements) != set(op.iter_states()):
        raise PreconditionError(
            "space elements do not match the operator domain")
    report = classify_contraction(space, op.apply)
    if not report.qualifies():
        raise PreconditionError(
            f"operator classifies as {report.classification}; "
            "need a contraction that is strict on orbits",
            witness=report)
    fixed_points = [m for m in op.iter_states() if op.apply(m) == m]
    if len(fixed_points) != 1:
        # Strictness on orbits says nothing about points that are already
        # fixed, so the classification alone cannot rule out several of
        # them; the descent of balls needs exactly one.
        raise PreconditionError(
            f"operator has {len(fixed_points)} fixed points; the ball "
            "construction needs exactly one",
            witness=tuple(fixed_points))
    fixed = fixed_points[0]

    # the ball of radius r about the fixed point: the elements that share
    # its row-r ball label; balls only grow with r, and the top one is the
    # whole space
    els = space.elements
    at = space.index_of(fixed)
    boxes = []
    members = None
    for r, row in enumerate(space.ball_labels()):
        ball = frozenset(els[i] for i in np.flatnonzero(row == row[at]))
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
    inner = seq.boxes[0]
    if box_size(inner) != 1 or next(box_members(inner)) != seq.fixed_point:
        raise PreconditionError("innermost box must be the fixed point singleton")
    for r in range(len(seq.boxes) - 1):
        small, big = seq.boxes[r], seq.boxes[r + 1]
        if not box_subset(small, big) or box_size(small) >= box_size(big):
            raise PreconditionError(f"boxes {r} and {r + 1} are not strictly nested")

    elements = tuple(box_members(seq.boxes[-1]))
    depth = {}
    for r in range(len(seq.boxes) - 1, -1, -1):
        for m in box_members(seq.boxes[r]):
            depth[m] = r
    scale = RadiusScale(tuple(range(len(seq.boxes))))

    def dist(m, n):
        return 0 if m == n else max(depth[m], depth[n])

    return FiniteUltrametricSpace(elements, scale, dist)


def _image_hulls(op: DecomposedOperator) -> list[Box]:
    """``H_0`` the whole domain and ``H_{n+1}`` the hull of ``F(H_n)`` (the
    smallest box containing it), up to the first ``H_m`` with
    ``H_{m+1} == H_m``.

    ``B -> hull(F(B))`` is monotone, and ``H_1 <= H_0`` because
    :meth:`DecomposedOperator.apply` rejects every image outside the
    domain, so ``H_{n+1} <= H_n`` for every ``n``.  Each step before the
    last drops at least one value, so there are at most
    ``sum(|D_i|) - k + 1`` boxes.
    """
    hulls = [_normalize_box(op.domains)]
    while True:
        images = [set() for _ in op.domains]
        for m in box_members(hulls[-1]):
            for comp, v in zip(images, op.apply(m)):
                comp.add(v)
        nxt = _normalize_box(images)
        if nxt == hulls[-1]:
            return hulls
        hulls.append(nxt)


def _chain_from_hulls(hulls: list[Box]) -> BoxSequence | None:
    inner = hulls[-1]
    if box_size(inner) != 1:
        return None
    return BoxSequence(tuple(reversed(hulls)), next(box_members(inner)))


def search_box_sequence(op: DecomposedOperator) -> BoxSequence | None:
    """Exact search for a certificate chain of strictly nested boxes.

    Iterates the image hull from the whole domain (:func:`_image_hulls`).
    A chain exists exactly when the hulls stop at a singleton, and then the
    hulls read innermost first are the chain; ``None`` means no chain
    exists at all.  This is the exhaustive search, not an approximation:
    any chain ``C_k > ... > C_0`` starts at the whole domain and has
    ``hull(F(C_j)) <= C_{j-1}``, because ``C_{j-1}`` is a box, so
    monotonicity and induction give ``H_n <= C_{k-n}``.  The hulls thus
    shrink at least as fast as every chain, and ``H_k <= C_0`` is a
    singleton.  Hulls that stop at a box with more than one member
    therefore rule out every chain; hulls that stop at a singleton
    ``{x}`` have ``F(x) == x``.  Among all chains this one is the
    innermost at every depth.
    """
    hulls = _image_hulls(op)
    chain = _chain_from_hulls(hulls)
    log.debug("search_box_sequence: boxes=%d verdict=%s", len(hulls),
              "certified" if chain is not None else "refuted")
    return chain


def _canonical_heights(sizes: tuple, top: int) -> np.ndarray:
    """Every order-canonical height assignment, one row each, in
    ``itertools.product`` order over ``0 .. top`` per position (the values
    of each component in turn).

    A row has at most one zero per component, else two points would sit at
    distance zero, and its nonzero labels are exactly ``1 .. count``.  The
    conditions read only the order of heights, and relabeling by rank
    lowers every entry, so the first qualifying row of the whole grid is
    canonical anyway; dropping the others only saves work.
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


@functools.lru_cache(maxsize=4)
def _height_family(sizes: tuple) -> tuple:
    """``(heights, pair_dist, a, b)`` for a domain whose components have
    ``sizes`` values, built once per shape and kept.

    ``heights`` holds the order-canonical assignments of heights
    ``0 .. max(1, n - 1)`` for ``n`` states (:func:`_canonical_heights`);
    ``pair_dist[i, j, r]`` is the product height distance of states ``i``
    and ``j`` (``itertools.product`` order) under row ``r``: the largest
    height of a value at which they differ, ``0`` when they are equal,
    with the distances of one pair under every row side by side; and
    ``a, b`` index the state pairs ``a < b``.  More than
    :data:`MAX_ASSIGNMENTS` assignments raise :class:`SizeLimitError`
    before anything is built, so an over-cap shape is never cached.  The
    arrays are shared by every caller and read-only.
    """
    import numpy as np
    states = math.prod(sizes)
    top = max(1, states - 1)
    total = (top + 1) ** sum(sizes)
    if total > MAX_ASSIGNMENTS:
        raise SizeLimitError(f"{total} height assignments exceed the "
                             f"search cap {MAX_ASSIGNMENTS}")
    heights = _canonical_heights(sizes, top)
    cols = _value_columns(sizes)
    differ = cols[:, None, :] != cols[None, :, :]
    pair_dist = np.zeros((states, states, len(heights)), dtype=np.uint8)
    # one component at a time keeps each temporary the size of pair_dist
    for c in range(len(sizes)):
        h = heights[:, cols[:, c]].T
        top_of = np.maximum(h[:, None, :], h[None, :, :])
        np.maximum(pair_dist, top_of * differ[:, :, c, None], out=pair_dist)
    a, b = np.triu_indices(states, 1)
    for array in (heights, pair_dist, a, b):
        array.setflags(write=False)
    return heights, pair_dist, a, b


def _value_columns(sizes: tuple) -> np.ndarray:
    """``cols[s, c]``: the column of state ``s``'s value of component
    ``c`` among all ``sum(sizes)`` values, components in turn, states in
    ``itertools.product`` order."""
    import numpy as np
    starts = np.cumsum((0,) + sizes[:-1])
    return np.array(list(itertools.product(
        *(range(s, s + n) for s, n in zip(starts, sizes)))), dtype=np.int64)


def _metric_sizes(domains) -> tuple:
    """The shape the batch passes read: the sizes of the components with
    more than one value.

    A one-value component leaves every state index as it is, never stops
    a hull from being a singleton and never enters a distance, so the
    family is built without it and its value gets height 0.  The first
    qualifying row of the full family has 0 there anyway: zeroing those
    entries and relabeling by rank keeps every distance and lowers every
    entry.
    """
    return tuple(len(dom) for dom in domains if len(dom) > 1)


def _batch_hulls(sizes: tuple, images: np.ndarray) -> np.ndarray:
    """:func:`_image_hulls` of many operators at once.

    ``images[n, s]`` is the index of operator ``n``'s image of state
    ``s``.  Each hull is a boolean mask over the ``sum(sizes)`` values,
    and every operator's mask is replaced by the values of the images of
    the states inside it until no operator's mask changes.  Returns
    whether each operator's hulls stop at a singleton.
    """
    import numpy as np
    cols = _value_columns(sizes)
    holds = np.zeros((len(cols), sum(sizes)), dtype=bool)
    holds[np.arange(len(cols))[:, None], cols] = True
    hit = holds[images]  # the values of each image, per operator and state
    mask = np.ones((len(images), sum(sizes)), dtype=bool)
    while True:
        inside = mask[:, cols].all(axis=2)
        nxt = (hit & inside[:, :, None]).any(axis=1)
        if np.array_equal(nxt, mask):
            return mask.sum(axis=1) == len(sizes)
        mask = nxt


def _batch_metric(sizes: tuple, images: np.ndarray) -> np.ndarray:
    """The first qualifying :func:`_height_family` row of each operator,
    or ``-1`` (see :func:`search_ultrametric`).

    ``images`` is as for :func:`_batch_hulls`.  Operators without exactly
    one fixed point get ``-1`` before the family is asked for; the others
    go through :func:`_qualifying_rows` at once.
    """
    import numpy as np
    rows = np.full(len(images), -1, dtype=np.int64)
    gated = np.flatnonzero(
        (images == np.arange(images.shape[1])).sum(axis=1) == 1)
    if gated.size:
        rows[gated] = _qualifying_rows(sizes, images[gated])
    return rows


def _qualifying_rows(sizes: tuple, sigma: np.ndarray) -> np.ndarray:
    """The first :func:`_height_family` row under which each operator (an
    array of image indices with exactly one fixed point, one per row of
    ``sigma``) contracts and is strict on orbits, or ``-1``.

    Strictness on orbits is checked on every row at once, and
    contraction on pairs only on the rows that some operator still
    passes, which are few.  The temporaries hold at most operators times
    rows times the larger of the state and state pair counts, plus a copy
    of the family's distances on the rows still passed.
    """
    import numpy as np
    heights, pair_dist, a, b = _height_family(sizes)
    after = sigma[np.arange(len(sigma))[:, None], sigma]
    # every step F(x), F(F(x)) shorter than x, F(x) where F moves x: such
    # a step x, F(x) is at least 1, as distinct states never share a zero
    # height, while the fixed point's two steps are 0 and pass
    steps = pair_dist[np.arange(sigma.shape[1]), sigma]
    strict = (pair_dist[sigma, after] < np.maximum(steps, 1)).all(axis=1)
    rows = np.flatnonzero(strict.any(axis=0))
    if not rows.size:
        return np.full(len(sigma), -1)
    # no pair of images farther apart than the pair, on those rows
    dist = pair_dist[:, :, rows]
    ok = strict[:, rows] & (dist[sigma[:, a], sigma[:, b]]
                            <= dist[a, b]).all(axis=1)
    return np.where(ok.any(axis=1), rows[ok.argmax(axis=1)], -1)


def _witness(domains, row) -> ProductSpace:
    """The product space of height row ``row``: one height per value of
    each component with more than one value, in order; a one-value
    component's value gets height 0."""
    scale = RadiusScale(tuple(range(max(row, default=0) + 1)))
    comps = []
    start = 0
    for dom in domains:
        if len(dom) == 1:
            table = {dom[0]: 0}
        else:
            table = dict(zip(dom, row[start:start + len(dom)]))
            start += len(dom)
        comps.append(FiniteUltrametricSpace(
            dom, scale,
            lambda m, n, t=table: 0 if m == n else max(t[m], t[n])))
    return ProductSpace(comps)


def _confirm(witness: ProductSpace, sigma) -> None:
    if not classify_contraction(witness, sigma).qualifies():
        raise SemanticsError(
            "inline height check disagrees with classify_contraction")


def search_ultrametric(op: DecomposedOperator) -> ProductSpace | None:
    """Search product ultrametrics built from per-component heights.

    Each component value gets a height in ``0 .. max(1, n - 1)`` for
    ``n`` states, and every order-canonical assignment is checked at once
    against the distances of :func:`_height_family`, which is built once
    per domain shape and kept: the operator is strict on orbits when
    every step ``F(x), F(F(x))`` is shorter than ``x, F(x)`` for each
    ``x`` it moves, checked first, and contracts when no pair of images
    is farther apart than the pair, checked on the assignments left: the
    census's metric pass, :func:`_qualifying_rows`, on one operator.
    Returns the first product space, in ``itertools.product`` order of
    assignments, making the operator a contraction that is strict on
    orbits around a unique fixed point, or ``None``.  An operator without
    exactly one fixed point returns ``None`` on any domain; otherwise more
    than :data:`MAX_ASSIGNMENTS` assignments to the values of components
    with more than one value raise :class:`SizeLimitError` before any is
    built.
    Every space found is confirmed by :func:`classify_contraction`, and a
    disagreement raises :class:`SemanticsError`.

    The unique-fixed-point requirement is independent of any metric:
    strictness on orbits is vacuous at fixed points, so a map fixing two
    points (the identity, say) qualifies under every metric yet its
    asynchronous runs can settle on either point.  Without this condition
    the two search verdicts could not agree.
    """
    import numpy as np
    states = list(op.iter_states())
    index = {m: p for p, m in enumerate(states)}
    sigma = np.array([index[op.apply(m)] for m in states])
    fixed = np.count_nonzero(sigma == np.arange(len(states)))
    if fixed != 1:
        log.debug("search_ultrametric: fixed_points=%d "
                  "gate=unique-fixed-point", fixed)
        return None
    sizes = _metric_sizes(op.domains)
    heights = _height_family(sizes)[0]
    row = _qualifying_rows(sizes, sigma[None, :])[0]
    log.debug("search_ultrametric: assignments=%d verdict=%s", len(heights),
              "found" if row >= 0 else "none")
    if row < 0:
        return None
    witness = _witness(op.domains, heights[row].tolist())
    _confirm(witness, sigma)
    return witness


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
        if self.refutation is not None:
            doc["refutation"] = jsonable(self.refutation)
        if self.sampling is not None:
            doc["sampling"] = jsonable(self.sampling)
        if self.stats is not None:
            doc["stats"] = self.stats
        return doc


def certify_aco(op: DecomposedOperator, *,
                schedules: int = 100,
                horizon: int = 64,
                staleness: int = 5,
                window: int = 8,
                seed: int = 0,
                activation_prob: float = 0.5) -> AcoCertificate:
    """Certify or refute an operator by exact box-sequence search.

    Refutation always comes from the exact search (plus the fixed-point
    census), never from schedule sampling.  It names ``stalled_box``, the
    box ``B`` with more than one member and ``hull(F(B)) == B`` where the
    image hulls stopped, which no chain can pass, and ``boxes_examined``,
    the number of hulls visited.  A certified operator is
    additionally exercised under seeded admissible schedules from every
    start state, and the observed convergence ticks are recorded.  A run
    that hits the horizon is counted; one that converges anywhere but the
    chain's fixed point contradicts the chain and raises
    :class:`SemanticsError`.  Fewer than one schedule is rejected before
    any other work.
    """
    check_schedules(schedules)
    fixed_points = [m for m in op.iter_states() if op.apply(m) == m]
    hulls = _image_hulls(op)
    seq = _chain_from_hulls(hulls)
    if seq is None:
        if len(fixed_points) != 1:
            reason = (f"{len(fixed_points)} fixed points; a certificate "
                      "requires exactly one")
        else:
            reason = "no strictly nested box chain survives the image condition"
        return AcoCertificate("refuted", refutation={
            "reason": reason,
            "fixed_points": tuple(fixed_points),
            "boxes_examined": len(hulls),
            "stalled_box": hulls[-1],
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


def _chunk_size(sizes: tuple, rows: int) -> int:
    """Operators per batch, so that no temporary of :func:`_batch_hulls`
    or :func:`_batch_metric` exceeds :data:`BATCH_CELLS` cells; a batch
    holds at least one operator, whose gathers the height-family cap
    bounds."""
    states = math.prod(sizes)
    per_operator = max(rows * max(states * (states - 1) // 2, states),
                       states * sum(sizes))
    return max(1, BATCH_CELLS // per_operator)


def _image_arrays(states: int, chunk: int):
    """Every self-map of ``states`` states as an array of image indices,
    in ``itertools.product`` order, ``chunk`` maps at a time."""
    import numpy as np
    place = states ** np.arange(states - 1, -1, -1)
    total = states ** states
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        yield codes[:, None] // place % states


def equivalence_census(domains=((0, 1), (0, 1))) -> CensusResult:
    """Run both characterizations over every operator on a small product
    domain.

    The default domain yields the 256 self-maps of a 2x2 product; the box
    search and the ultrametric search must return the same verdict on each.
    Every table is checked in ``itertools.product`` order by one batched
    pass per chunk of operators: :func:`_batch_hulls` for the box chain
    and :func:`_batch_metric` for the product height metric, with chunks
    sized before anything is allocated so that no temporary exceeds
    :data:`BATCH_CELLS` cells.  Each metric found is confirmed by
    :func:`classify_contraction` on its witness space, built once per
    height row within the call, and each operator whose two verdicts
    differ is rechecked by :func:`search_box_sequence` and
    :func:`search_ultrametric`; either check disagreeing with the batch
    raises :class:`SemanticsError`.  Empty domains and repeated values
    raise :class:`PreconditionError`, as for any operator.
    """
    import numpy as np
    # the identity operator checks the domains
    domains = DecomposedOperator(domains, lambda s: s).domains
    states = list(itertools.product(*domains))
    sizes = _metric_sizes(domains)
    heights = _height_family(sizes)[0]
    total = 0
    agreements = 0
    acos = 0
    mismatches = []
    witnesses = {}  # height row -> its space
    for images in _image_arrays(len(states),
                                _chunk_size(sizes, len(heights))):
        by_boxes = _batch_hulls(sizes, images)
        rows = _batch_metric(sizes, images)
        by_metric = rows >= 0
        for n in np.flatnonzero(by_metric):
            row = int(rows[n])
            if row not in witnesses:
                witnesses[row] = _witness(domains, heights[row].tolist())
            _confirm(witnesses[row], images[n])
        for n in np.flatnonzero(by_boxes != by_metric):
            table = dict(zip(states, (states[i] for i in images[n])))
            verdicts = (bool(by_boxes[n]), bool(by_metric[n]))
            op = DecomposedOperator.from_table(domains, table)
            if verdicts != (search_box_sequence(op) is not None,
                            search_ultrametric(op) is not None):
                raise SemanticsError(
                    f"batch verdicts {verdicts} on {table!r} disagree with "
                    "the single-operator searches")
            mismatches.append((tuple(sorted(table.items())), *verdicts))
        agree = by_boxes == by_metric
        total += len(images)
        agreements += int(np.count_nonzero(agree))
        acos += int(np.count_nonzero(agree & by_boxes))
    return CensusResult(total, agreements, acos, tuple(mismatches))
