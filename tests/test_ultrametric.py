import itertools
import logging
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acokit.errors import MalformedSpaceError, SizeLimitError
from acokit.ultrametric import (
    AxiomViolation,
    FiniteUltrametricSpace,
    RadiusScale,
    check_axioms,
    check_isosceles,
    check_spherical_completeness,
    classify_contraction,
    load_space,
    CONTRACTION,
    NOT_CONTRACTION,
    STRICT_CONTRACTION,
    STRICT_ON_ORBITS,
)
from conftest import ball_from_labels
from pair_oracles import (ProductSpace, axioms_by_numpy,
                          ball_labels_by_radius, classify_by_pairs,
                          completeness_by_numpy, height_space,
                          isosceles_by_numpy, string_space)


def brute_force_axioms(elements, dist):
    """Reference checker: direct loops over the definition."""
    for m in elements:
        for n in elements:
            if (dist(m, n) == 0) != (m == n):
                return False
            if dist(m, n) != dist(n, m):
                return False
    for l in elements:
        for m in elements:
            for n in elements:
                if dist(l, n) > max(dist(l, m), dist(m, n)):
                    return False
    return True


def space_from_table(table, scale_values):
    elements = tuple(sorted({m for m, _ in table}))
    scale = RadiusScale(tuple(scale_values))
    return FiniteUltrametricSpace(elements, scale, table)


def test_scale_orders_labels():
    scale = RadiusScale((0, "low", "high"))
    assert scale.zero == 0
    assert scale.index(0) < scale.index("low") < scale.index("high")
    with pytest.raises(MalformedSpaceError):
        scale.index("absent")


def test_scale_rejects_duplicates():
    with pytest.raises(MalformedSpaceError):
        RadiusScale((0, 1, 1))


def test_single_element_space_passes():
    space = space_from_table({("a", "a"): 0}, (0,))
    assert check_axioms(space).ok


def test_zero_distance_between_distinct_points_violates_identity():
    table = {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 0, ("b", "a"): 0}
    report = check_axioms(space_from_table(table, (0, 1)))
    assert not report.ok
    assert any(v.axiom == "identity" and set(v.witness) == {"a", "b"}
               for v in report.violations)


def _ordinary_triangle(d_bc=1):
    table = {}
    for x in "abc":
        table[(x, x)] = 0
    for x, y, d in [("a", "b", 1), ("b", "c", d_bc), ("a", "c", 2)]:
        table[(x, y)] = d
        table[(y, x)] = d
    return space_from_table(table, (0, 1, 2))


def test_ordinary_triangle_is_not_ultra():
    # 1, 1, 2 satisfies the ordinary triangle inequality but 2 > max(1, 1)
    report = check_axioms(_ordinary_triangle())
    assert not report.ok
    triangles = [v for v in report.violations if v.axiom == "strong-triangle"]
    assert triangles and set(triangles[0].witness) == {"a", "b", "c"}
    assert not check_isosceles(_ordinary_triangle()).ok


def test_asymmetric_table_detected():
    table = {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 2}
    report = check_axioms(space_from_table(table, (0, 1, 2)))
    assert any(v.axiom == "symmetry" for v in report.violations)


def test_missing_entry_is_malformed():
    with pytest.raises(MalformedSpaceError):
        space_from_table({("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1},
                         (0, 1))


@given(st.lists(st.text(alphabet="abc", max_size=4),
                min_size=3, max_size=3, unique=True))
def test_string_distance_is_ultrametric(strings):
    space = string_space(strings)
    assert check_axioms(space).ok
    assert check_isosceles(space).ok


def test_height_space_passes_axioms():
    space = height_space(("a", "b", "c"), {"a": 3, "b": 5, "c": 5})
    assert check_axioms(space).ok
    assert space.distance("b", "c") == 5


@given(st.lists(st.integers(min_value=1, max_value=6),
                min_size=1, max_size=6))
def test_random_height_spaces_pass_axioms(heights):
    elements = tuple(range(len(heights)))
    table = dict(zip(elements, heights))
    space = height_space(elements, table)
    assert check_axioms(space).ok
    assert check_isosceles(space).ok
    assert brute_force_axioms(elements, space.distance)


def _random_height_space(rng, size, name):
    elements = tuple(f"{name}{i}" for i in range(size))
    heights = {e: rng.randint(1, 4) for e in elements}
    scale = RadiusScale((0, 1, 2, 3, 4))
    return height_space(elements, heights, scale)


def test_ball_labels_match_distances_and_recentering():
    space = height_space(("a", "b", "c"), {"a": 3, "b": 5, "c": 5})
    top = len(space.scale) - 1
    assert ball_from_labels(space, "a", 0) == {"a"}
    assert ball_from_labels(space, "a", top) == set(space.elements)
    for center in space.elements:
        for r in range(len(space.scale)):
            members = ball_from_labels(space, center, r)
            assert members == {e for e in space.elements
                               if space.distance_index(center, e) <= r}
            for other in members:
                assert ball_from_labels(space, other, r) == members


def test_balls_nest_or_are_disjoint():
    rng = random.Random(7)
    space = _random_height_space(rng, 8, "e")
    balls = {ball_from_labels(space, c, r)
             for c in space.elements for r in range(len(space.scale))}
    for a, b in itertools.combinations(balls, 2):
        assert not (a & b) or a <= b or b <= a


def test_spherical_completeness_small_cases():
    one = space_from_table({("a", "a"): 0}, (0,))
    assert check_spherical_completeness(one).ok
    two = space_from_table(
        {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 1}, (0, 1))
    assert check_spherical_completeness(two).ok
    dh = height_space(("a", "b", "c"), {"a": 3, "b": 5, "c": 5})
    assert check_spherical_completeness(dh).ok


def test_product_distance_examples():
    scale = RadiusScale((0, 1, 2, 3))
    left = height_space(("a", "a'"), {"a": 1, "a'": 1}, scale)
    right = height_space(("b", "b'"), {"b": 3, "b'": 2}, scale)
    product = ProductSpace((left, right))
    assert product.dimension == 2
    assert product.distance(("a", "b"), ("a", "b")) == 0
    assert product.distance(("a", "b"), ("a'", "b")) == 1
    assert product.distance(("a", "b"), ("a'", "b'")) == 3
    with pytest.raises(MalformedSpaceError):
        product.distance(("a",), ("a", "b"))
    assert check_axioms(product).ok
    assert check_isosceles(product).ok


def test_cached_distance_and_label_arrays_are_read_only():
    # classify_contraction reads these arrays on every call, so a write
    # would change later verdicts on the same space
    scale = RadiusScale((0, 1, 2))
    left = height_space(("a", "a'"), {"a": 1, "a'": 2}, scale)
    product = ProductSpace((left, height_space(("b",), {"b": 1}, scale)))
    for space in (left, product):
        with pytest.raises(ValueError, match="read-only"):
            space.ball_labels()[0, 0] = 1
        assert space.index_rows() is space.index_rows()
        assert space.ball_labels() is space.ball_labels()


@given(st.lists(st.lists(st.integers(min_value=1, max_value=4),
                         min_size=1, max_size=3), min_size=1, max_size=3))
def test_product_rows_are_the_product_distances(component_heights):
    scale = RadiusScale((0, 1, 2, 3, 4))
    product = ProductSpace(
        height_space(range(len(heights)), dict(enumerate(heights)), scale)
        for heights in component_heights)
    els, rows = product.elements, product.index_rows()
    assert len(rows) == len(els)
    for i, row in enumerate(rows):
        assert row == tuple(product.distance_index(els[i], e) for e in els)
    assert check_axioms(product).ok


@st.composite
def distance_tables(draw, unit=1):
    """A space whose table is an ultrametric up to zero distances (the
    common-prefix distance of random codes), or that table broken at an
    entry: given a nonzero diagonal, made asymmetric, or changed in both
    orders so that a triangle may fail at any radius.  The numeric radii
    are multiples of ``unit``."""
    n = draw(st.integers(1, 6))
    radii = draw(st.integers(1, 5))
    codes = [draw(st.lists(st.integers(0, 1), min_size=radii - 1,
                           max_size=radii - 1)) for _ in range(n)]

    def prefix(i, j):
        return next((k for k, (u, v) in enumerate(zip(codes[i], codes[j]))
                     if u != v), radii - 1)

    D = [[radii - 1 - prefix(i, j) for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(("valid", "diagonal", "one-order",
                                 "both-orders", "both-orders")))
    i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    if kind == "diagonal" and radii > 1:
        D[i][i] = draw(st.integers(1, radii - 1))
    elif kind != "valid" and i != j and radii > 1:
        label = draw(st.sampled_from(
            [v for v in range(radii) if v != D[i][j]]))
        D[i][j] = label
        if kind == "both-orders":
            D[j][i] = label
    elements = ("a", 1, (0, "b"), "c", 2.5, Fraction(1, 3))[:n]
    scale = RadiusScale(
        ("0", unit, Fraction(3, 2) * unit, "x", (4 * unit,))[:radii])
    return FiniteUltrametricSpace(elements, scale, {
        (elements[a], elements[b]): scale.values[D[a][b]]
        for a in range(n) for b in range(n)})


def _first_violation_message(space):
    """The first violation check_axioms lists, other than a pair at zero
    distance, as ball labels name it."""
    d = space.distance
    for v in check_axioms(space).violations:
        if v.axiom == "identity" and v.witness[0] == v.witness[1]:
            x = v.witness[0]
            return (f"not an ultrametric: d({x!r}, {x!r}) = {d(x, x)!r} "
                    "is not zero")
        if v.axiom == "symmetry":
            x, y = v.witness
            return (f"not an ultrametric: d({x!r}, {y!r}) = {d(x, y)!r} "
                    f"but d({y!r}, {x!r}) = {d(y, x)!r}")
        if v.axiom == "strong-triangle":
            x, y, z = v.witness
            return (f"not an ultrametric: d({x!r}, {z!r}) = {d(x, z)!r} "
                    f"exceeds d({x!r}, {y!r}) = {d(x, y)!r} "
                    f"and d({y!r}, {z!r}) = {d(y, z)!r}")
    raise AssertionError("check_axioms lists no violation ball labels reject")


# labels read only the order of the radii; messages print their values
UNITS = [1, 50, 1 << 22]


@pytest.mark.parametrize("unit", UNITS)
@given(data=st.data())
def test_ball_labels_equal_the_per_radius_reference(unit, data):
    space = data.draw(distance_tables(unit))
    expected = ball_labels_by_radius(space)
    if expected is not None:
        assert space.ball_labels().tolist() == expected.tolist()
        return
    with pytest.raises(MalformedSpaceError) as raised:
        space.ball_labels()
    assert str(raised.value) == _first_violation_message(space)


@pytest.mark.parametrize("unit", UNITS)
def test_ball_labels_name_a_triangle_failing_at_an_inner_radius(unit):
    # within 1, a-b and b-c but not a-c; every pair is within the top radius
    table = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2,
             ("a", "z"): 3, ("b", "z"): 3, ("c", "z"): 3}
    table.update({(n, m): v for (m, n), v in list(table.items())})
    table.update({(m, m): 0 for m in "abcz"})
    table = {pair: v * unit for pair, v in table.items()}
    space = space_from_table(table, (0, unit, 2 * unit, 3 * unit))
    assert ball_labels_by_radius(space) is None
    with pytest.raises(MalformedSpaceError) as raised:
        space.ball_labels()
    assert str(raised.value) == (
        f"not an ultrametric: d('a', 'c') = {2 * unit} exceeds "
        f"d('a', 'b') = {unit} and d('b', 'c') = {unit}")
    assert str(raised.value) == _first_violation_message(space)


@pytest.mark.parametrize("wrong", [("a",), ("a", "b", "b")])
def test_product_rejects_vectors_of_the_wrong_length(wrong):
    scale = RadiusScale((0, 1, 2))
    product = ProductSpace((height_space(("a", "a'"), {"a": 1, "a'": 2}, scale),
                            height_space(("b", "b'"), {"b": 1, "b'": 2}, scale)))
    assert product.index_of(("a'", "b")) == 2
    assert wrong not in product
    with pytest.raises(MalformedSpaceError, match="unknown element"):
        product.index_of(wrong)
    with pytest.raises(MalformedSpaceError, match="outside the space"):
        classify_contraction(product, lambda m: wrong)


@given(st.lists(st.lists(st.integers(min_value=1, max_value=4),
                         min_size=1, max_size=3), min_size=1, max_size=3))
def test_every_product_ball_is_box(component_heights):
    # the product's labels combine component ball labels, so each of its
    # balls is a box by construction; a space over the product's own
    # distance table finds the real balls
    scale = RadiusScale((0, 1, 2, 3, 4))
    product = ProductSpace(
        height_space(range(len(heights)), dict(enumerate(heights)), scale)
        for heights in component_heights)
    D, index_of = product.index_rows(), product.index_of
    flat = FiniteUltrametricSpace(
        product.elements, scale,
        lambda m, n: scale.values[D[index_of(m)][index_of(n)]])
    assert np.array_equal(product.ball_labels(), flat.ball_labels())


def test_classify_identity_is_strict_on_orbits():
    space = height_space(("a", "b"), {"a": 1, "b": 1})
    report = classify_contraction(space, lambda m: m)
    assert report.classification == STRICT_ON_ORBITS
    assert report.witness is not None  # pair witnessing non-strictness


def test_classify_constant_map_is_strict():
    space = height_space(("a", "b", "c"), {"a": 1, "b": 2, "c": 2})
    report = classify_contraction(space, lambda m: "a")
    assert report.classification == STRICT_CONTRACTION
    assert report.witness is None


def test_classify_swap_is_contraction_only():
    space = height_space(("a", "b"), {"a": 1, "b": 1})
    swap = {"a": "b", "b": "a"}
    report = classify_contraction(space, swap)
    assert report.classification == CONTRACTION
    assert report.witness == ("a",)


def test_classify_expansion_is_not_contraction():
    table = {}
    for x in "abc":
        table[(x, x)] = 0
    for x, y, d in [("a", "b", 1), ("b", "c", 2), ("a", "c", 2)]:
        table[(x, y)] = d
        table[(y, x)] = d
    space = space_from_table(table, (0, 1, 2))
    sigma = {"a": "a", "b": "c", "c": "c"}  # moves the close pair apart
    report = classify_contraction(space, sigma)
    assert report.classification == NOT_CONTRACTION
    assert report.witness == ("a", "b")


def test_classify_rejects_non_ultrametric_tables():
    # "within 1" relates a to b and b to c but not a to c
    triangle = _ordinary_triangle()
    message = r"d\('a', 'c'\) = 2 exceeds d\('a', 'b'\) = 1 and d\('b', 'c'\) = 1"
    with pytest.raises(MalformedSpaceError, match=message):
        classify_contraction(triangle, lambda m: m)
    fine = height_space(("x", "y"), {"x": 1, "y": 2}, triangle.scale)
    assert classify_contraction(fine, lambda m: "x").qualifies()
    with pytest.raises(MalformedSpaceError, match=message):
        classify_contraction(ProductSpace((fine, triangle)), lambda m: m)
    asymmetric = space_from_table(
        {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 2},
        (0, 1, 2))
    with pytest.raises(MalformedSpaceError,
                       match=r"d\('a', 'b'\) = 1 but d\('b', 'a'\) = 2"):
        classify_contraction(asymmetric, lambda m: m)
    loop = space_from_table({("a", "a"): 1}, (0, 1))
    with pytest.raises(MalformedSpaceError, match="is not zero"):
        classify_contraction(loop, lambda m: m)
    # with d(b, c) = 2 the table is an ultrametric and gets a class
    assert classify_contraction(_ordinary_triangle(d_bc=2), lambda m: m) \
        .classification == STRICT_ON_ORBITS


def _random_product(rng):
    """A random product of height spaces."""
    top = rng.randint(1, 5)
    scale = RadiusScale(tuple(range(top + 1)))
    heights = [{f"c{i}v{j}": rng.randint(1, top)
                for j in range(rng.randint(1, 3))}
               for i in range(rng.randint(1, 3))]
    return ProductSpace(tuple(height_space(tuple(h), h, scale)
                              for h in heights))


def _random_classify_case(rng):
    """A product height space, a flat height space or a string space, and
    a self-map on it that is constant, nearly constant or arbitrary."""
    kind = rng.randrange(3)
    if kind == 0:
        space = _random_product(rng)
    elif kind == 1:
        space = height_space(tuple(range(rng.randint(1, 6))),
                             {k: rng.randint(1, 5) for k in range(6)})
    else:
        space = string_space(sorted({
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 7))}))
    els = space.elements
    target = rng.choice(els)
    keep = rng.choice((0.0, 0.6, 0.9, 1.0))
    sigma = {e: target if rng.random() < keep else rng.choice(els)
             for e in els}
    return space, sigma


@given(st.randoms(use_true_random=False))
def test_classify_matches_pair_oracle(rng):
    space, sigma = _random_classify_case(rng)
    report = classify_contraction(space, sigma)
    assert (report.classification, report.witness) == \
        classify_by_pairs(space, sigma)


@given(st.randoms(use_true_random=False))
def test_classify_image_arrays_match_the_callable_route(rng):
    space, sigma = _random_classify_case(rng)
    els = space.elements
    dtype = rng.choice((np.int64, np.int32, np.uint8))
    images = np.array([els.index(sigma[e]) for e in els], dtype=dtype)
    assert classify_contraction(space, images) == \
        classify_contraction(space, sigma.__getitem__)


@pytest.mark.parametrize("images", [
    np.array([0, 1]),  # too short
    np.array([[0, 1, 2]]),  # not 1-D
    np.array([0.0, 1.0, 2.0]),  # not integers
    np.array([False, True, True]),
    np.array([0, -1, 2]),  # below the first index
    np.array([0, 1, 3]),  # past the last
], ids=["short", "2d", "float", "bool", "negative", "too-large"])
def test_classify_rejects_malformed_image_arrays(images):
    space = height_space(("a", "b", "c"), {"a": 1, "b": 2, "c": 2})
    with pytest.raises(MalformedSpaceError, match="image array"):
        classify_contraction(space, images)


def test_pair_oracle_cases_reach_every_class():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        space, sigma = _random_classify_case(rng)
        report = classify_contraction(space, sigma)
        assert (report.classification, report.witness) == \
            classify_by_pairs(space, sigma)
        seen.add(report.classification)
    assert seen == {NOT_CONTRACTION, CONTRACTION, STRICT_ON_ORBITS,
                    STRICT_CONTRACTION}


def test_classify_logs_counters(caplog):
    space = height_space(("a", "b", "c"), {"a": 1, "b": 2, "c": 2})
    with caplog.at_level(logging.DEBUG, logger="acokit"):
        classify_contraction(space, lambda m: "a")
    assert caplog.messages == [
        "classify_contraction: states=3 radii=3 evaluations=3 "
        "verdict=strict-contraction"]


def test_string_space_samples_pass_axioms():
    space = string_space(("", "a", "ab", "abc", "b", "ba"))
    assert check_axioms(space).ok
    assert check_isosceles(space).ok


def test_load_space_defaults_and_validation(tmp_path):
    doc = {"elements": ["a", "b"], "scale": ["0", "1"],
           "dist": [["a", "b", "1"]]}
    space = load_space(doc)
    assert space.distance("b", "a") == "1"  # defaulted from the other order
    assert space.distance("a", "a") == "0"  # diagonal defaulted
    with pytest.raises(MalformedSpaceError):
        load_space({"elements": ["a"], "scale": ["1", "0"], "dist": []})
    with pytest.raises(MalformedSpaceError):
        load_space({"elements": ["a"], "scale": ["0"],
                    "dist": [["a", "z", "0"]]})


def _space_reports(space):
    return (check_axioms(space), check_isosceles(space),
            check_spherical_completeness(space))


def _reference_reports(space):
    return (axioms_by_numpy(space), isosceles_by_numpy(space),
            completeness_by_numpy(space))


# not in canonical order, so that the ball order of the completeness
# witness differs from element order
_CHECKED_ELEMENTS = ("b", "a", 3, 1, (0, "x"), "c", 2.5, "a1", (1,))


@st.composite
def checked_spaces(draw):
    """A space of 1-9 elements for the three checks.  Half are valid
    height tables.  The others are height tables or tables of random
    labels (symmetric or not, with a zero diagonal or not) with up to two
    entries changed, in one order or both, so that off-diagonal zeros,
    nonzero diagonals and asymmetric pairs all occur.  One in five is a
    product of one or two such tables of 1-3 elements.  Up to 12 distance
    labels are drawn, and the scale may hold two more that no entry
    uses."""
    levels = draw(st.integers(2, 12))
    scale = RadiusScale(tuple(range(levels + draw(st.integers(0, 2)))))
    label = st.integers(0, levels - 1)
    valid = draw(st.booleans())

    def table(n):
        if valid or draw(st.booleans()):
            h = draw(st.lists(st.integers(1, levels - 1),
                              min_size=n, max_size=n))
            D = [[0 if i == j else max(h[i], h[j]) for j in range(n)]
                 for i in range(n)]
        else:
            D = [[draw(label) for _ in range(n)] for _ in range(n)]
            if draw(st.booleans()):
                D = [[D[min(i, j)][max(i, j)] for j in range(n)]
                     for i in range(n)]
            if draw(st.booleans()):
                for i in range(n):
                    D[i][i] = 0
        for _ in range(0 if valid else draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            D[i][j] = draw(label)
            if draw(st.booleans()):
                D[j][i] = D[i][j]
        return D

    def space(elements):
        D = table(len(elements))
        return FiniteUltrametricSpace(elements, scale, {
            (m, e): D[i][j] for i, m in enumerate(elements)
            for j, e in enumerate(elements)})

    if draw(st.integers(0, 4)) == 0:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        return ProductSpace(tuple(
            space(tuple(f"c{c}v{k}" for k in range(size)))
            for c, size in enumerate(sizes)))
    n = draw(st.integers(1, 9))
    return space(draw(st.permutations(_CHECKED_ELEMENTS))[:n])


@settings(max_examples=300)
@given(checked_spaces())
def test_space_checks_equal_the_numpy_references(space):
    # the same reports, violations in the same order
    assert _space_reports(space) == _reference_reports(space)


def test_space_checks_cap_witnesses_as_the_references():
    rng = random.Random(20261020)
    elements = tuple(f"e{k}" for k in range(14))
    for symmetric in (False, True):
        D = [[rng.randrange(5) for _ in elements] for _ in elements]
        for i, j in itertools.product(range(len(elements)), repeat=2):
            if symmetric:
                D[i][j] = 0 if i == j else D[min(i, j)][max(i, j)]
        space = FiniteUltrametricSpace(elements, RadiusScale(range(5)), {
            (m, e): D[i][j] for i, m in enumerate(elements)
            for j, e in enumerate(elements)})
        reports = _space_reports(space)
        assert reports == _reference_reports(space)
        axioms, isosceles, _ = reports
        assert len(isosceles.violations) == 200
        assert sum(v.axiom == "strong-triangle"
                   for v in axioms.violations) == 200


def _family_doc(family, n, rng):
    """A space file of one of the table families the checks are timed on:
    4 height levels, distinct heights (valid ultrametrics), a height space
    with one entry raised above the strong triangle bound (as the
    benchmark's broken space), and distinct heights with one raised
    entry."""
    elements = [f"e{i}" for i in range(n)]
    if family in ("levels", "broken"):
        top = 4 if family == "levels" else 3
        h = [rng.randint(1, top) for _ in elements]
        scale = 5
    else:
        h = rng.sample(range(1, n + 1), n)
        scale = n + 2
    dist = [[elements[i], elements[j], str(max(h[i], h[j]))]
            for i, j in itertools.combinations(range(n), 2)]
    if family in ("broken", "raised"):
        dist[rng.randrange(len(dist))][2] = str(scale - 1)
    return {"elements": elements,
            "scale": [str(v) for v in range(scale)], "dist": dist}


@pytest.mark.parametrize("family", ["levels", "distinct", "broken", "raised"])
def test_space_checks_equal_the_references_on_128_elements(family):
    space = load_space(_family_doc(family, 128, random.Random(128)))
    reports = _space_reports(space)
    assert reports == _reference_reports(space)
    assert all(r.ok for r in reports) == (family in ("levels", "distinct"))


def test_space_check_caps_are_checked_before_any_table_is_built():
    scale = RadiusScale((0, 1))

    def product(*sizes):
        return ProductSpace(tuple(
            height_space(range(size), dict.fromkeys(range(size), 1), scale)
            for size in sizes))

    over = product(33, 32)
    for check in (check_axioms, check_isosceles):
        with pytest.raises(SizeLimitError) as raised:
            check(over)
        assert str(raised.value) == (
            "axiom check over 1056 elements exceeds the desk-scale cap 1024")
    far_over = product(65, 64)
    with pytest.raises(SizeLimitError) as raised:
        check_spherical_completeness(far_over)
    assert str(raised.value) == (
        "ball enumeration over 4160 elements exceeds the cap 4096")
    for space in (over, far_over):
        assert not {"elements", "_rows", "_analysis"} & set(vars(space))


def test_load_space_builds_no_table_of_pairs():
    # a file listing each of the 32,640 pairs of 256 elements in one order
    # is read into one row of labels per element: rows and labels of
    # 65,536 entries take about 0.5 MB each, where a dict of every ordered
    # pair took about 7 MB
    doc = _family_doc("levels", 256, random.Random(256))
    tracemalloc.start()
    try:
        space = load_space(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000
    rows = space.index_rows()
    assert all(rows[i][j] == rows[j][i] for i, j in itertools.combinations(
        range(256), 2))
    assert {row[i] for i, row in enumerate(rows)} == {0}


def test_load_space_refuses_a_pair_listed_twice():
    doc = {"elements": ["a", "b"], "scale": ["0", "1", "2"],
           "dist": [["a", "b", "1"], ["a", "b", "2"]]}
    with pytest.raises(MalformedSpaceError) as raised:
        load_space(doc)
    assert str(raised.value) == "dist lists the pair ('a', 'b') twice"
    # the two orders of a pair are two entries
    doc["dist"][1] = ["b", "a", "2"]
    assert check_axioms(load_space(doc)).violations == (
        AxiomViolation("symmetry", ("a", "b")),)
