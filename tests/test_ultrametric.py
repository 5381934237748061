import itertools
import logging
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acokit.errors import InvalidHeightError, MalformedSpaceError
from acokit.ultrametric import (
    FiniteUltrametricSpace,
    ProductSpace,
    RadiusScale,
    check_axioms,
    check_isosceles,
    check_spherical_completeness,
    classify_contraction,
    height_distance,
    height_space,
    load_space,
    string_distance,
    string_space,
    CONTRACTION,
    NOT_CONTRACTION,
    STRICT_CONTRACTION,
    STRICT_ON_ORBITS,
)
from conftest import ball_from_labels
from pair_oracles import classify_by_pairs


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


def test_string_distance_examples():
    assert string_distance("abc", "abc") == 0
    assert string_distance("abc", "abd") == Fraction(1, 4)
    assert string_distance("x", "yx") == 1
    # prefixes differ at the first absent index
    assert string_distance("ab", "abc") == Fraction(1, 4)


@given(st.lists(st.text(alphabet="abc", max_size=4),
                min_size=3, max_size=3, unique=True))
def test_string_distance_is_ultrametric(strings):
    x, y, z = strings
    assert string_distance(x, z) <= max(string_distance(x, y),
                                        string_distance(y, z))


def test_height_distance_examples():
    h = {"a": 3, "b": 5}
    assert height_distance(h, "a", "a") == 0
    assert height_distance(h, "a", "b") == 5


def test_height_distance_rejects_zero_height():
    with pytest.raises(InvalidHeightError):
        height_distance({"a": 0, "b": 1}, "a", "b")


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
        for array in (space.index_matrix(), space.ball_labels()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        assert space.ball_labels() is space.ball_labels()


def test_product_scale_must_match():
    a = height_space(("x",), {"x": 1})
    b = height_space(("y",), {"y": 2})
    with pytest.raises(MalformedSpaceError):
        ProductSpace((a, b))


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
    D, index_of = product.index_matrix(), product.index_of
    flat = FiniteUltrametricSpace(
        product.elements, scale,
        lambda m, n: scale.values[D[index_of(m), index_of(n)]])
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
    message = r"d\('c', 'a'\) = 2 exceeds d\('c', 'b'\) = 1 and d\('b', 'a'\) = 1"
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


def _random_classify_case(rng):
    """A product height space, a flat height space or a string space, and
    a self-map on it that is constant, nearly constant or arbitrary."""
    kind = rng.randrange(3)
    if kind == 0:
        top = rng.randint(1, 5)
        scale = RadiusScale(tuple(range(top + 1)))
        heights = [{f"c{i}v{j}": rng.randint(1, top)
                    for j in range(rng.randint(1, 3))}
                   for i in range(rng.randint(1, 3))]
        space = ProductSpace(tuple(height_space(tuple(h), h, scale)
                                   for h in heights))
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
