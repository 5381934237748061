"""Finite ultrametric spaces: axiom checking, balls, products, contractions.

Distances map into a :class:`RadiusScale`, an explicit finite totally
ordered label set whose first label plays the role of zero.  Keeping the
scale symbolic makes every comparison exact; no floating point is involved
anywhere in the checks.
"""

from __future__ import annotations

import itertools
import logging
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

# numpy is imported inside each function that uses it: most commands run
# no numpy pass and start faster without it

from .errors import InvalidHeightError, MalformedSpaceError, SizeLimitError
from .util import canonical_key, json_object, refuse_assignment, typed

log = logging.getLogger("acokit")

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
        import numpy as np
        elements = tuple(elements)
        if not elements:
            raise MalformedSpaceError("space needs at least one element")
        if len(set(elements)) != len(elements):
            raise MalformedSpaceError("elements must be distinct")
        self.elements = elements
        self.scale = scale
        self._pos = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        mat = np.empty((n, n), dtype=np.int32)
        if callable(dist):
            for i, m in enumerate(elements):
                for j, e in enumerate(elements):
                    mat[i, j] = scale.index(dist(m, e))
        else:
            for (m, e) in dist:
                if m not in self._pos or e not in self._pos:
                    raise MalformedSpaceError(
                        f"table entry ({m!r}, {e!r}) names an unknown element")
            for i, m in enumerate(elements):
                for j, e in enumerate(elements):
                    try:
                        label = dist[(m, e)]
                    except KeyError:
                        raise MalformedSpaceError(
                            f"missing table entry for ({m!r}, {e!r})") from None
                    mat[i, j] = scale.index(label)
        mat.setflags(write=False)
        self._mat = mat

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
        return int(self._mat[self.index_of(m), self.index_of(n)])

    def distance(self, m, n):
        return self.scale.values[self.distance_index(m, n)]

    def index_matrix(self) -> np.ndarray:
        """Distance table as a matrix of scale indices (read-only)."""
        return self._mat

    def ball_labels(self) -> np.ndarray:
        """The ball label of every element at every radius (read-only).

        Row ``r`` holds, for each element, the index of the smallest
        element within distance ``r`` of it, so two elements share a
        label exactly when they lie within ``r`` of each other.  Raises
        :class:`MalformedSpaceError` with a witness when "within ``r``"
        is not an equivalence relation for some ``r``, i.e. when the
        table is not an ultrametric up to zero distances.
        """
        return self._ball_labels

    @cached_property
    def _ball_labels(self) -> np.ndarray:
        import numpy as np
        D = self._mat
        els, values = self.elements, self.scale.values
        nonzero = np.flatnonzero(np.diagonal(D) != 0)
        if nonzero.size:
            e = nonzero[0]
            raise MalformedSpaceError(
                f"not an ultrametric: d({els[e]!r}, {els[e]!r}) = "
                f"{values[D[e, e]]!r} is not zero")
        asymmetric = np.argwhere(D != D.T)
        if asymmetric.size:
            a, b = asymmetric[0]
            raise MalformedSpaceError(
                f"not an ultrametric: d({els[a]!r}, {els[b]!r}) = "
                f"{values[D[a, b]]!r} but d({els[b]!r}, {els[a]!r}) = "
                f"{values[D[b, a]]!r}")
        labels = np.empty((len(values), len(els)), dtype=np.int64)
        for r, row in enumerate(labels):
            within = D <= r
            row[:] = within.argmax(axis=1)
            bad = np.argwhere(within != (row[:, None] == row[None, :]))
            if bad.size:
                a, c = bad[0]
                # a witness triple (x, y, z) with d(x, y) and d(y, z)
                # within r but d(x, z) not
                if not within[a, c]:
                    x, y, z = a, row[a], c
                elif not within[c, row[a]]:
                    x, y, z = c, a, row[a]
                else:
                    x, y, z = a, c, row[c]
                raise MalformedSpaceError(
                    f"not an ultrametric: d({els[x]!r}, {els[z]!r}) = "
                    f"{values[D[x, z]]!r} exceeds d({els[x]!r}, {els[y]!r}) "
                    f"= {values[D[x, y]]!r} and d({els[y]!r}, {els[z]!r}) "
                    f"= {values[D[y, z]]!r}")
        labels.setflags(write=False)
        return labels


class AxiomViolation(NamedTuple):
    axiom: str
    witness: tuple


class AxiomReport(NamedTuple):
    ok: bool
    violations: tuple[AxiomViolation, ...]


def _space_matrix(space) -> np.ndarray:
    n = len(space.elements)
    if n > _AXIOM_CHECK_MAX_ELEMENTS:
        raise SizeLimitError(
            f"axiom check over {n} elements exceeds the desk-scale cap "
            f"{_AXIOM_CHECK_MAX_ELEMENTS}")
    return space.index_matrix()


def check_axioms(space) -> AxiomReport:
    """Verify the three ultrametric axioms on every pair and triple.

    Works on anything exposing ``elements``, ``scale`` and
    ``index_matrix()``, including product spaces.  Violations carry the
    witnessing elements; the list is capped to keep reports readable.
    """
    import numpy as np
    D = _space_matrix(space)
    els = space.elements
    n = len(els)
    violations: list[AxiomViolation] = []

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


def check_isosceles(space) -> AxiomReport:
    """Every triple must have its two largest distances equal."""
    import numpy as np
    D = _space_matrix(space)
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


_END_MARKER = object()


def string_distance(x, y) -> Fraction:
    """Distance between two symbol sequences.

    Zero when equal, otherwise ``2**-m`` for the least index ``m`` where
    they differ; a missing position (shorter sequence) counts as a
    difference, so prefixes differ at the first absent index.
    """
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
    two overlapping balls as the witness.
    """
    import numpy as np
    n = len(space.elements)
    if n > _BALL_ENUM_MAX_ELEMENTS:
        raise SizeLimitError(
            f"ball enumeration over {n} elements exceeds the cap "
            f"{_BALL_ENUM_MAX_ELEMENTS}")
    D = space.index_matrix()
    els = space.elements
    balls = sorted({frozenset(els[i] for i in np.flatnonzero(row))
                    for r in range(len(space.scale))
                    for row in np.unique(D <= r, axis=0) if row.any()},
                   key=lambda b: (len(b), canonical_key(b)))
    for a, b in itertools.combinations(balls, 2):
        if a & b and not (a <= b or b <= a):
            return CompletenessReport(False, (a, b))
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

    @cached_property
    def _matrix(self) -> np.ndarray:
        import numpy as np
        total = len(self)
        ids = np.arange(total)
        mat = np.zeros((total, total), dtype=np.int32)
        stride = total
        for comp, size in zip(self.components, self._sizes):
            stride //= size
            digits = (ids // stride) % size
            cm = comp.index_matrix()
            np.maximum(mat, cm[np.ix_(digits, digits)], out=mat)
        mat.setflags(write=False)
        return mat

    def index_matrix(self) -> np.ndarray:
        return self._matrix

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
    els = space.elements
    if isinstance(sigma, np.ndarray):
        if sigma.shape != (len(els),) or sigma.dtype.kind not in "iu" \
                or not 0 <= sigma.min() <= sigma.max() < len(els):
            raise MalformedSpaceError(
                f"image array must hold {len(els)} indices below {len(els)}, "
                f"got shape {sigma.shape} and dtype {sigma.dtype}")
        return sigma.astype(np.int64)
    fn = sigma if callable(sigma) else sigma.__getitem__
    out = np.empty(len(els), dtype=np.int64)
    for i, e in enumerate(els):
        image = fn(e)
        try:
            out[i] = space.index_of(image)
        except MalformedSpaceError:
            raise MalformedSpaceError(
                f"sigma maps {e!r} outside the space: {image!r}") from None
    return out


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
    the first ``r`` at which their labels agree.  A table that is not an
    ultrametric raises :class:`MalformedSpaceError`.
    """
    els = space.elements
    sig = _sigma_array(space, sigma)
    labels = space.ball_labels()
    report = _classify(els, sig, labels, labels[:, sig])
    log.debug("classify_contraction: states=%d radii=%d evaluations=%d "
              "verdict=%s", len(els), len(labels), len(els),
              report.classification)
    return report


def _classify(els, sig, labels, images) -> ContractionReport:
    import numpy as np
    pair = _min_split(labels, images)
    if pair is not None:
        return ContractionReport(NOT_CONTRACTION, (els[pair[0]], els[pair[1]]))
    step = (labels == images).argmax(axis=0)
    next_step = (images == images[:, sig]).argmax(axis=0)
    orbit_bad = (sig != np.arange(len(els))) & (next_step >= step)
    if orbit_bad.any():
        return ContractionReport(CONTRACTION, (els[int(orbit_bad.argmax())],))
    pair = _min_split(labels[1:], images[:-1])
    if pair is not None:
        return ContractionReport(STRICT_ON_ORBITS, (els[pair[0]], els[pair[1]]))
    return ContractionReport(STRICT_CONTRACTION, None)


def load_space(source) -> FiniteUltrametricSpace:
    """Load a space description file (JSON).

    Fields: ``elements`` (strings), ``scale`` (labels ascending, first
    ``"0"``), ``dist`` (triples ``[m, n, label]``).  A missing ``(m, n)``
    entry defaults from ``(n, m)``; a missing diagonal defaults to ``"0"``.
    """
    with json_object(source, "bad space description",
                     MalformedSpaceError) as doc:
        elements = typed(doc["elements"], [str],
                         "elements must be an array of strings")
        scale_labels = typed(doc["scale"], [str],
                             "scale must be an array of strings")
        if not scale_labels or scale_labels[0] != "0":
            raise MalformedSpaceError('scale must start with the label "0"')
        scale = RadiusScale(tuple(scale_labels))
        what = "dist must be an array of label triples"
        table = {}
        for entry in typed(doc.get("dist", []), list, what):
            m, n, label = typed(entry, [str], what, 3)
            table[(m, n)] = label
    for m, n in itertools.product(elements, repeat=2):
        if (m, n) in table:
            continue
        if (n, m) in table:
            table[(m, n)] = table[(n, m)]
        elif m == n:
            table[(m, n)] = "0"
    return FiniteUltrametricSpace(tuple(elements), scale, table)
