import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acokit import iteration, routing, ultrametric
from acokit.errors import MalformedSpaceError, ScheduleRejectedError
from acokit.util import canonical_key, json_object, sorted_canonical, typed


def fraction_key(value):
    """The reference ordering key: every number as its exact Fraction."""
    if isinstance(value, (int, float, Fraction)):
        return (0, Fraction(value))
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(fraction_key(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return (3, tuple(sorted(fraction_key(v) for v in value)))
    return (4, type(value).__name__, repr(value))


NUMBERS = st.one_of(
    st.integers(-3, 3), st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1.0, -0.0, 2.0]))
VALUES = st.recursive(
    st.one_of(NUMBERS, st.text(max_size=2)),
    lambda inner: st.one_of(st.tuples(inner, inner),
                            st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3)),
    max_leaves=8)


@given(st.lists(VALUES, max_size=8))
def test_canonical_key_orders_like_exact_fractions(values):
    ordered = sorted_canonical(values)
    expected = sorted(values, key=fraction_key)
    # the sort is stable, so equal keys keep their input order too
    assert all(x is y for x, y in zip(ordered, expected))
    for x in values:
        for y in values:
            kx, ky = canonical_key(x), canonical_key(y)
            fx, fy = fraction_key(x), fraction_key(y)
            assert (kx < ky, kx == ky) == (fx < fy, fx == fy)


@pytest.mark.parametrize("value", [math.nan, (1, math.nan),
                                   frozenset({"a", math.nan})])
def test_canonical_key_rejects_nan(value):
    with pytest.raises(ValueError):
        canonical_key(value)
    with pytest.raises(ValueError):
        sorted_canonical([0, value])


@pytest.mark.parametrize("value, kind, length", [
    (True, int, None), (1.0, int, None), ("ab", list, None),
    ("ab", [str], None), (["a", 1], [str], None), ([["a"], "b"], [[str]], None),
    (["a"], [str], 2), (None, str, None), ({}, list, None),
    (2.5, (str, int, bool), None),
])
def test_typed_is_exact(value, kind, length):
    with pytest.raises(TypeError, match=r"^labels, got "):
        typed(value, kind, "labels", length)


@pytest.mark.parametrize("value, kind, length", [
    (1, int, None), (True, bool, None), (["a", "b"], [str], 2),
    ([["a"], []], [[str]], None), ({"a": 1}, dict, None),
    (True, (str, int, bool), None),
])
def test_typed_returns_what_it_accepts(value, kind, length):
    assert typed(value, kind, "labels", length) is value


@pytest.mark.parametrize("doc", ["[1]", "{not json", '{"a": 1}'])
def test_json_object_rejects_with_the_given_class(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ScheduleRejectedError, match="^bad thing: "):
        with json_object(path, "bad thing", ScheduleRejectedError) as read:
            read["b"]


# each loader keeps its own exception class for a mistyped field
@pytest.mark.parametrize("load, doc, error", [
    (iteration.load_operator,
     {"domains": [["a", "b"]], "map": [[["a"], ["a"]], [["b"], ["a"]]],
      "start": "a"}, ValueError),
    (iteration.load_schedule,
     {"horizon": 1, "processors": 0, "activations": [[0]]},
     ScheduleRejectedError),
    (iteration.load_schedule,
     {"horizon": 1, "activations": ["0"]}, ScheduleRejectedError),
    (routing.load_instance,
     {"nodes": ["d", "1"], "dest": "d", "arcs": ["1d"]}, ValueError),
    (ultrametric.load_space,
     {"elements": "ab", "scale": ["0", "1"], "dist": [["a", "b", "1"]]},
     MalformedSpaceError),
])
def test_loaders_raise_their_own_class_for_mistyped_input(load, doc, error):
    with pytest.raises(error) as info:
        load(doc)
    assert type(info.value) is error

