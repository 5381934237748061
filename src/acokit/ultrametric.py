"""Finite ultrametric spaces: axiom checking, balls, products, contractions.

Distances map into a :class:`RadiusScale`, an explicit finite totally
ordered label set whose first label plays the role of zero.  Keeping the
scale symbolic makes every comparison exact; no floating point is involved
anywhere in the checks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

# numpy and fractions are imported inside each function that uses them:
# most commands run no numpy pass, build no Fraction and start faster
# without them

from .errors import InvalidHeightError, MalformedSpaceError, SizeLimitError
from .util import (canonical_key, json_object, logger, refuse_assignment,
                   typed)

if TYPE_CHECKING:
    from fractions import Fraction

NOT_CONTRACTION = "not-contraction"
CONTRACTION = "contraction"
STRICT_ON_ORBITS = "contraction-strict-on-orbits"
STRICT_CONTRACTION = "strict-contraction"

# check_axioms enumerates all element triples; beyond this the check is no
# longer a desk-scale operation.
_AXIOM_CHECK_MAX_ELEMENTS = 1024
_BALL_ENUM_MAX_ELEMENTS = 4096
_MAX_WITNESSES = 200


class RadiusScale:
    """Finite totally ordered set of radius labels; ``values[0]`` is zero."""

    values: tuple

    def __init__(self, values):
        values = tuple(values)
        object.__setattr__(self, "values", values)
        if not values:
            raise MalformedSpaceError("radius scale must be nonempty")
        if len(set(values)) != len(values):
            raise MalformedSpaceError("radius scale labels must be distinct")

    __setattr__ = refuse_assignment

    @classmethod
    def numeric(cls, values, zero=0):
        """Scale over numeric labels, sorted ascending with ``zero`` first."""
        labels = {v for v in values if v != zero}
        for v in labels:
            if v < zero:
                raise MalformedSpaceError(f"label {v!r} below zero {zero!r}")
        return cls((zero, *sorted(labels)))

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.values)}

    @property
    def zero(self):
        return self.values[0]

    @property
    def top(self):
        return self.values[-1]

    def __len__(self):
        return len(self.values)

    def __contains__(self, label):
        return label in self._index

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MalformedSpaceError(f"label {label!r} not in scale") from None


class FiniteUltrametricSpace:
    """Finite element set plus a total distance table into a scale.

    The table is stored exactly as given, both orders of every pair, so
    symmetry is something :func:`check_axioms` verifies rather than assumes.
    ``dist`` may be a mapping ``(m, n) -> label`` or a callable.
    """

    def __init__(self, elements, scale: RadiusScale, dist):
        elements = tuple(elements)
        if not elements:
            raise MalformedSpaceError("space needs at least one element")
        if len(set(elements)) != len(elements):
            raise MalformedSpaceError("elements must be distinct")
        self.elements = elements
        self.scale = scale
        self._pos = {e: i for i, e in enumerate(elements)}
        index = scale.index
        if callable(dist):
            label = dist
        else:
            for (m, e) in dist:
                if m not in self._pos or e not in self._pos:
                    raise MalformedSpaceError(
                        f"table entry ({m!r}, {e!r}) names an unknown element")

            def label(m, e):
                try:
                    return dist[(m, e)]
                except KeyError:
                    raise MalformedSpaceError(
                        f"missing table entry for ({m!r}, {e!r})") from None
        self._rows = tuple(tuple([index(label(m, e)) for e in elements])
                           for m in elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, element):
        return element in self._pos

    def __repr__(self):
        return f"FiniteUltrametricSpace({len(self.elements)} elements)"

    def index_of(self, element) -> int:
        try:
            return self._pos[element]
        except KeyError:
            raise MalformedSpaceError(f"unknown element {element!r}") from None

    def distance_index(self, m, n) -> int:
        return self._rows[self.index_of(m)][self.index_of(n)]

    def distance(self, m, n):
        return self.scale.values[self.distance_index(m, n)]

    def index_rows(self) -> tuple[tuple[int, ...], ...]:
        """Distance table as a tuple of rows of scale indices."""
        return self._rows

    @cached_property
    def _analysis(self) -> _TableAnalysis:
        return _TableAnalysis(self._rows)

    def ball_labels(self) -> np.ndarray:
        """The ball label of every element at every radius (read-only).

        Row ``r`` holds, for each element, the index of the first element
        within distance ``r`` of it, so two elements share a label exactly
        when they lie within ``r`` of each other.  Raises
        :class:`MalformedSpaceError` when the table is not an ultrametric
        up to zero distances, naming the first violation that
        :func:`check_axioms` lists other than a pair at zero distance.
        """
        return self._ball_labels

    @cached_property
    def _ball_labels(self) -> np.ndarray:
        import numpy as np
        analysis = self._analysis
        if not analysis.valid:
            raise MalformedSpaceError(
                f"not an ultrametric: {self._violation(analysis)}")
        labels = [[0] * len(self._rows) for _ in self.scale.values]
        for x, row in enumerate(self._rows):
            # e is the first element within d .. reach - 1 of x
            reach = len(labels)
            for e, d in enumerate(row):
                if d < reach:
                    for r in range(d, reach):
                        labels[r][x] = e
                    reach = d
        out = np.array(labels, dtype=np.int64)
        out.setflags(write=False)
        return out

    def _violation(self, analysis: _TableAnalysis) -> str:
        """The first violation :func:`check_axioms` lists of a table that
        is not an ultrametric, skipping the pairs at zero distance."""
        els, values, rows = self.elements, self.scale.values, self._rows

        def d(i, j):
            return f"d({els[i]!r}, {els[j]!r}) = {values[rows[i][j]]!r}"
        for i in analysis.loops:
            return f"{d(i, i)} is not zero"
        for i, j in analysis.asymmetric():
            return f"{d(i, j)} but {d(j, i)}"
        l, m, e = next(analysis.triangles(False))
        return f"{d(l, e)} exceeds {d(l, m)} and {d(m, e)}"


class AxiomViolation(NamedTuple):
    axiom: str
    witness: tuple


class AxiomReport(NamedTuple):
    ok: bool
    violations: tuple[AxiomViolation, ...]


def _check_axiom_size(n: int) -> None:
    if n > _AXIOM_CHECK_MAX_ELEMENTS:
        raise SizeLimitError(
            f"axiom check over {n} elements exceeds the desk-scale cap "
            f"{_AXIOM_CHECK_MAX_ELEMENTS}")


# bytes.translate table from the 0/1 bytes of a row comparison to the
# digits of a binary numeral
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _members(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _excess_over_merges(low, high) -> list[int]:
    """For each element ``x``, the bit set of the ``e != x`` with
    ``high[x][e]`` above the distance at which single linkage on ``low``
    merges ``x`` and ``e``.

    ``low`` and ``high`` are symmetric tables, ``low`` entrywise at most
    ``high``; their diagonals are not read.  Single linkage merges along
    a minimum spanning tree of ``low``, found by Prim's method in O(n²)
    steps, in increasing weight; the elements of two merged clusters lie
    at that weight in the subdominant ultrametric of ``low``, the largest
    ultrametric below it.  So a table with a zero diagonal, given as both
    ``low`` and ``high``, is an ultrametric (up to zero distances)
    exactly when every bit set is empty (Gower & Ross, 1969).
    """
    n = len(low)
    # key[k] of rest[k]: its least distance to the tree times n, plus the
    # tree element at that distance
    rest = list(range(1, n))
    key = [d * n for d in low[0][1:]]
    edges = []
    while rest:
        k = key.index(min(key))
        weight, parent = divmod(key[k], n)
        v = rest[k]
        edges.append((weight, parent, v))
        rest[k], key[k] = rest[-1], key[-1]
        rest.pop()
        key.pop()
        row = low[v]
        key = list(map(min, key, [row[u] * n + v for u in rest]))
    excess = [0] * n
    owner = list(range(n))
    members = [[x] for x in range(n)]
    for weight, p, v in sorted(edges):
        small, large = owner[p], owner[v]
        if len(members[small]) > len(members[large]):
            small, large = large, small
        other = members[large]
        for x in members[small]:
            row = high[x]
            if max(map(row.__getitem__, other)) > weight:
                for e in other:
                    if row[e] > weight:
                        excess[x] |= 1 << e
                        excess[e] |= 1 << x
            owner[x] = large
        other.extend(members[small])
        members[small] = None
    return excess


class _TableAnalysis:
    """What the three space checks and the ball labels read of one
    distance table, given as rows of scale indices, computed once per
    space.

    One single linkage pass (:func:`_excess_over_merges`) over the lesser
    of ``d(x, y)`` and ``d(y, x)`` marks as candidates the pairs whose
    greater distance lies above their merge distance, and each element at
    a nonzero distance from itself, paired with itself.  A table with a
    zero diagonal and no asymmetric pair is an ultrametric exactly when
    there is no candidate.  On any table, the unique largest side of a
    triangle (the side ``(l, e)`` of a strong triangle violation
    ``(l, m, e)``) is a candidate: it exceeds the two other sides, whose
    lesser distances bound its merge distance.  Witnesses are read off bit
    sets of the candidates, one per row and distance, and the "closer
    than" bit sets of the rows, built as needed.
    """

    def __init__(self, rows):
        self.rows = rows
        n = len(rows)
        # the elements at a nonzero distance from themselves
        self.loops = [i for i in range(n) if rows[i][i]]
        self.columns = tuple(zip(*rows))
        low = high = rows
        if self.columns != rows:
            low = tuple(tuple(map(min, row, column))
                        for row, column in zip(rows, self.columns))
            high = tuple(tuple(map(max, row, column))
                         for row, column in zip(rows, self.columns))
        self.candidates = _excess_over_merges(low, high)
        for i in self.loops:
            self.candidates[i] |= 1 << i
        # the table is an ultrametric up to zero distances
        self.valid = not any(self.candidates)
        self._levels = {}
        self._below = {}

    def levels(self, x):
        """The distances from ``x`` to its candidates, ascending, and for
        each the bit set of the candidates at that distance."""
        found = self._levels.get(x)
        if found is None:
            row = self.rows[x]
            groups = {}
            for e in _members(self.candidates[x]):
                groups[row[e]] = groups.get(row[e], 0) | 1 << e
            values = sorted(groups)
            found = self._levels[x] = (values, [groups[s] for s in values])
        return found

    def below(self, x, s) -> int:
        """The bit set of the ``e`` with ``d(x, e) < s``."""
        found = self._below.get((x, s))
        if found is None:
            flags = bytes(map(s.__gt__, self.rows[x][::-1]))
            found = self._below[(x, s)] = int(
                flags.translate(_BINARY_DIGITS), 2)
        return found

    def beyond(self, x, y, r) -> int:
        """The candidates ``e`` of ``x`` with ``d(x, e) > r`` and
        ``d(y, e) < d(x, e)``."""
        values, bits = self.levels(x)
        out = 0
        for k in range(bisect_right(values, r), len(values)):
            out |= bits[k] & self.below(y, values[k])
        return out

    def asymmetric(self):
        """The index pairs ``i < j`` with ``d(i, j) != d(j, i)``, in row
        order."""
        return ((i, j) for i, (row, column) in
                enumerate(zip(self.rows, self.columns)) if row != column
                for j in range(i + 1, len(row)) if row[j] != column[j])

    def triangles(self, isosceles: bool):
        """The index triples ``(l, m, e)`` whose largest distance is not
        taken twice, middle element first, then ``l``, then ``e``: with
        ``isosceles`` false only those where ``d(l, e)`` is that largest
        distance, the strong triangle violations."""
        rows, candidates = self.rows, self.candidates
        every = range(len(rows))
        starts = [x for x in every if candidates[x]]
        for m in every:
            # (l, e), (l, m) or (m, e) must be a candidate, so l must
            # have one unless m has
            for l in every if isosceles and candidates[m] else starts:
                r = rows[l][m]
                # the e where d(l, e) is the largest distance, then where
                # d(l, m) is, then where d(m, e) is
                bits = self.beyond(l, m, r)
                if isosceles:
                    if candidates[l] >> m & 1:
                        bits |= self.below(l, r) & self.below(m, r)
                    bits |= self.beyond(m, l, r)
                for e in _members(bits):
                    yield l, m, e


def _checked_analysis(space) -> _TableAnalysis:
    _check_axiom_size(len(space))
    return space._analysis


def check_axioms(space) -> AxiomReport:
    """Verify the three ultrametric axioms on every pair and triple.

    Works on a :class:`FiniteUltrametricSpace` or a :class:`ProductSpace`.
    Violations carry the witnessing elements; each kind is capped at
    :data:`_MAX_WITNESSES` to keep reports readable.
    """
    analysis = _checked_analysis(space)
    rows = analysis.rows
    els = space.elements
    violations = [AxiomViolation("identity", (els[i], els[i]))
                  for i in analysis.loops[:_MAX_WITNESSES]]

    # a pair of zero distance is listed where its first zero shows in
    # row order
    zeros = ((min(i, j), max(i, j)) for i, row in enumerate(rows)
             if row.count(0) > (row[i] == 0)
             for j, d in enumerate(row)
             if not d and j != i and (j > i or rows[j][i]))
    violations.extend(
        AxiomViolation("identity", (els[i], els[j]))
        for i, j in itertools.islice(zeros, _MAX_WITNESSES))

    violations.extend(
        AxiomViolation("symmetry", (els[i], els[j]))
        for i, j in itertools.islice(analysis.asymmetric(), _MAX_WITNESSES))

    violations.extend(
        AxiomViolation("strong-triangle", (els[l], els[m], els[e]))
        for l, m, e in itertools.islice(analysis.triangles(False),
                                        _MAX_WITNESSES))
    return AxiomReport(not violations, tuple(violations))


def check_isosceles(space) -> AxiomReport:
    """Every triple must have its two largest distances equal."""
    triangles = _checked_analysis(space).triangles(True)
    els = space.elements
    violations = tuple(
        AxiomViolation("isosceles", (els[l], els[m], els[e]))
        for l, m, e in itertools.islice(triangles, _MAX_WITNESSES))
    return AxiomReport(not violations, violations)


_END_MARKER = object()


def string_distance(x, y) -> Fraction:
    """Distance between two symbol sequences.

    Zero when equal, otherwise ``2**-m`` for the least index ``m`` where
    they differ; a missing position (shorter sequence) counts as a
    difference, so prefixes differ at the first absent index.
    """
    from fractions import Fraction
    if x == y:
        return Fraction(0)
    for m in range(max(len(x), len(y))):
        a = x[m] if m < len(x) else _END_MARKER
        b = y[m] if m < len(y) else _END_MARKER
        if a != b:
            return Fraction(1, 2 ** m)
    return Fraction(0)


def string_space(strings, scale: RadiusScale | None = None) -> FiniteUltrametricSpace:
    """Space over a finite string sample under :func:`string_distance`."""
    strings = tuple(strings)
    if scale is None:
        from fractions import Fraction
        labels = {string_distance(a, b) for a, b in
                  itertools.combinations(strings, 2)}
        scale = RadiusScale.numeric(labels, zero=Fraction(0))
    return FiniteUltrametricSpace(strings, scale, string_distance)


def _height_of(heights, element):
    value = heights(element) if callable(heights) else heights[element]
    if not value > 0:
        raise InvalidHeightError(
            f"height of {element!r} is {value!r}; heights must be positive")
    return value


def height_distance(heights, m, n):
    """Zero when ``m == n``, otherwise the larger of the two heights."""
    if m == n:
        _height_of(heights, m)
        return 0
    return max(_height_of(heights, m), _height_of(heights, n))


def height_space(elements, heights, scale: RadiusScale | None = None,
                 ) -> FiniteUltrametricSpace:
    """Space induced by a positive height assignment."""
    elements = tuple(elements)
    if scale is None:
        scale = RadiusScale.numeric(_height_of(heights, e) for e in elements)
    return FiniteUltrametricSpace(
        elements, scale, lambda m, n: height_distance(heights, m, n))


class CompletenessReport(NamedTuple):
    ok: bool
    witness: tuple = ()


def check_spherical_completeness(space) -> CompletenessReport:
    """Check that any two distinct balls are nested or disjoint.

    That is the whole test: the chain of the balls containing a ball ``b``
    includes ``b`` itself, so it intersects to ``b``, which is never empty.
    Every finite ultrametric passes; a table that is not one may fail, with
    two overlapping balls as the witness: the first such pair when the
    balls are ordered by size, then by their elements in canonical order.
    """
    n = len(space)
    if n > _BALL_ENUM_MAX_ELEMENTS:
        raise SizeLimitError(
            f"ball enumeration over {n} elements exceeds the cap "
            f"{_BALL_ENUM_MAX_ELEMENTS}")
    analysis = space._analysis
    if analysis.valid:
        return CompletenessReport(True)
    balls = set()
    for row in analysis.rows:
        # the elements within each distance of the row, nearest first
        ball, last = 0, None
        for e in sorted(range(n), key=row.__getitem__):
            if row[e] != last and ball:
                balls.add(ball)
            ball |= 1 << e
            last = row[e]
        balls.add(ball)
    els = space.elements
    rank = [0] * n
    for k, i in enumerate(sorted(range(n),
                                 key=lambda i: canonical_key(els[i]))):
        rank[i] = k
    ordered = sorted(balls, key=lambda b: (
        b.bit_count(), sorted([rank[i] for i in _members(b)])))
    for a, b in itertools.combinations(ordered, 2):
        common = a & b
        if common and common != a:
            return CompletenessReport(False, tuple(
                frozenset(els[i] for i in _members(ball)) for ball in (a, b)))
    return CompletenessReport(True)


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
        size = 1
        for s in self._sizes:
            size *= s
        return size

    def __repr__(self):
        return f"ProductSpace(dimension={self.dimension}, size={len(self)})"

    @cached_property
    def elements(self) -> tuple:
        return tuple(itertools.product(*(c.elements for c in self.components)))

    @cached_property
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

    @cached_property
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

    @cached_property
    def _analysis(self) -> _TableAnalysis:
        return _TableAnalysis(self._rows)

    def ball_labels(self) -> np.ndarray:
        """The ball labels (see :meth:`FiniteUltrametricSpace.ball_labels`).

        A product ball is the box of its component balls, so the label
        combines the component labels in mixed radix, in element order:
        the index of the box's smallest element.  Each component checks
        its own table.  Computed once per space (read-only).
        """
        return self._ball_labels

    @cached_property
    def _ball_labels(self) -> np.ndarray:
        import numpy as np
        labels = np.zeros((len(self.scale), 1), dtype=np.int64)
        for comp, size in zip(self.components, self._sizes):
            labels = (labels[:, :, None] * size
                      + comp.ball_labels()[:, None, :]).reshape(len(labels), -1)
        labels.setflags(write=False)
        return labels


class ContractionReport(NamedTuple):
    """Strongest contraction class of a self-map, with a counterexample for
    the next stronger class when one exists."""

    classification: str
    witness: tuple | None

    def qualifies(self) -> bool:
        """True for the classes that guarantee a unique fixed point."""
        return self.classification in (STRICT_ON_ORBITS, STRICT_CONTRACTION)


def _first_split(before: np.ndarray, after: np.ndarray):
    """Smallest pair ``i < j`` with equal ``before`` and unequal ``after``.

    ``before[x]`` must be the smallest index of x's class, as ball labels
    are; then the pair's ``i`` is the smallest class member whose class
    has more than one ``after`` value, and ``j`` the first member of that
    class whose ``after`` differs from that of ``i``.  ``None`` when every
    class maps into one ``after`` value.
    """
    import numpy as np
    split = np.flatnonzero(after != after[before])
    if not split.size:
        return None
    owners = before[split]
    i = owners.min()
    return int(i), int(split[owners == i][0])


def _min_split(befores, afters):
    """Smallest :func:`_first_split` pair over paired label rows."""
    return min(filter(None, map(_first_split, befores, afters)), default=None)


def _sigma_array(space, sigma) -> np.ndarray:
    import numpy as np
    n = len(space)
    if isinstance(sigma, np.ndarray):
        if sigma.shape != (n,) or sigma.dtype.kind not in "iu" \
                or not 0 <= sigma.min() <= sigma.max() < n:
            raise MalformedSpaceError(
                f"image array must hold {n} indices below {n}, "
                f"got shape {sigma.shape} and dtype {sigma.dtype}")
        return sigma.astype(np.int64)
    fn = sigma if callable(sigma) else sigma.__getitem__
    out = np.empty(n, dtype=np.int64)
    for i, e in enumerate(space.elements):
        image = fn(e)
        try:
            out[i] = space.index_of(image)
        except MalformedSpaceError:
            raise MalformedSpaceError(
                f"sigma maps {e!r} outside the space: {image!r}") from None
    return out


def _element_at(space, index):
    """``space.elements[index]``.  A product space's element is decoded
    from the index in mixed radix over its components' elements, the
    last component varying fastest as in ``itertools.product``, so its
    element tuple is never built."""
    if not isinstance(space, ProductSpace):
        return space.elements[index]
    index = int(index)
    coords = []
    for comp, size in zip(space.components[::-1], space._sizes[::-1]):
        index, digit = divmod(index, size)
        coords.append(comp.elements[digit])
    return tuple(coords[::-1])


def classify_contraction(space, sigma) -> ContractionReport:
    """Classify a self-map against the contraction taxonomy.

    ``sigma`` may be a callable or a mapping over the space's elements, or
    a 1-D integer array of image indices in element order.
    Checks, in order: contraction on all pairs, strictness on orbits, and
    strictness on all distinct pairs; returns the strongest class that
    holds plus a witness against the next one.  A pair witness is the
    smallest violating index pair ``i < j`` in element order.

    Each check runs ball by ball on :meth:`ball_labels` ``L``, so memory
    grows with states times radii, never with pairs of states: a map
    contracts when equal ``L[r]`` always gives images with equal ``L[r]``,
    contracts strictly when equal ``L[r]`` gives images with equal
    ``L[r - 1]`` for every ``r >= 1``, and the distance of two states is
    the first ``r`` at which their labels agree.  Only the table of each
    component space, which its labels are read from, holds pairs.  Given
    an image array, a product space's element tuple is never built: each
    witness is decoded from its index.  A table that is not an
    ultrametric raises :class:`MalformedSpaceError`.
    """
    sig = _sigma_array(space, sigma)
    return _classify(lambda index: _element_at(space, index), sig,
                     space.ball_labels())


def _classify(element_at, sig, labels) -> ContractionReport:
    """:func:`classify_contraction` of the image array ``sig`` on a space
    with ball labels ``labels``; ``element_at`` decodes an index into the
    element a witness names."""
    import numpy as np
    images = np.take(labels, sig, axis=1)  # labels[:, sig], done faster
    report = _classification(element_at, sig, labels, images)
    logger().debug("classify_contraction: states=%d radii=%d evaluations=%d "
                   "verdict=%s", len(sig), len(labels), len(sig),
                   report.classification)
    return report


def _classification(element_at, sig, labels, images) -> ContractionReport:
    """The report of :func:`_classify`, given the images' labels."""
    import numpy as np
    pair = _min_split(labels, images)
    if pair is not None:
        return ContractionReport(NOT_CONTRACTION, tuple(map(element_at, pair)))
    # the distance index of x and its image, and of the image and its own:
    # balls only grow with the radius, so the count of radii at which the
    # labels differ (quicker than the first radius at which they agree)
    step = (labels != images).sum(axis=0)
    next_step = (images != np.take(images, sig, axis=1)).sum(axis=0)
    orbit_bad = (sig != np.arange(len(sig))) & (next_step >= step)
    if orbit_bad.any():
        return ContractionReport(CONTRACTION, (element_at(orbit_bad.argmax()),))
    pair = _min_split(labels[1:], images[:-1])
    if pair is not None:
        return ContractionReport(STRICT_ON_ORBITS, tuple(map(element_at, pair)))
    return ContractionReport(STRICT_CONTRACTION, None)


class _ListedTable(dict):
    """A space file's ``dist`` triples, one row of labels per element,
    read as :class:`FiniteUltrametricSpace` reads a table, with the
    defaults of :func:`load_space`; a pair naming an unknown element is
    a key of the dict itself, for the constructor to reject."""

    def __init__(self, elements):
        super().__init__()
        self.pos = {e: i for i, e in enumerate(elements)}
        self.rows = [{} for _ in elements]

    def add(self, m, n, label):
        if m in self.pos and n in self.pos:
            row, key = self.rows[self.pos[m]], self.pos[n]
        else:
            row, key = self, (m, n)
        if key in row:
            raise MalformedSpaceError(
                f"dist lists the pair ({m!r}, {n!r}) twice")
        row[key] = label

    def __missing__(self, pair):
        i, j = map(self.pos.__getitem__, pair)
        label = self.rows[i].get(j, self.rows[j].get(i))
        if label is None and i != j:
            raise KeyError(pair)
        return "0" if label is None else label


def load_space(source) -> FiniteUltrametricSpace:
    """Load a space description file (JSON).

    Fields: ``elements`` (strings), ``scale`` (labels ascending, first
    ``"0"``), ``dist`` (triples ``[m, n, label]``, each ordered pair at
    most once).  A missing ``(m, n)`` entry defaults from ``(n, m)``; a
    missing diagonal defaults to ``"0"``.  A file listing more elements
    than :func:`check_axioms` accepts raises :class:`SizeLimitError`
    before its table is built.
    """
    with json_object(source, "bad space description",
                     MalformedSpaceError) as doc:
        elements = typed(doc["elements"], [str],
                         "elements must be an array of strings")
        _check_axiom_size(len(elements))
        scale_labels = typed(doc["scale"], [str],
                             "scale must be an array of strings")
        if not scale_labels or scale_labels[0] != "0":
            raise MalformedSpaceError('scale must start with the label "0"')
        scale = RadiusScale(tuple(scale_labels))
        what = "dist must be an array of label triples"
        table = _ListedTable(elements)
        for entry in typed(doc.get("dist", []), list, what):
            table.add(*typed(entry, [str], what, 3))
    return FiniteUltrametricSpace(tuple(elements), scale, table)
