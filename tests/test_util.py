import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acokit.util import canonical_key, sorted_canonical


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
