"""Rational power series expansion and the fixed Hilbert-series check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes.errors import (
    DomainError,
    NonIntegralCoefficientError,
    PoleAtOriginError,
    ResourceError,
)
from nodalcodes.series import (
    ORDER_CAP,
    SYMMETROID_DENOMINATOR,
    SYMMETROID_LEADING_COEFFICIENTS,
    SYMMETROID_NUMERATOR,
    expand_rational_series,
    symmetroid_hilbert_check,
    symmetroid_hilbert_series,
)
from series_oracle import long_division_series


def test_geometric_series():
    assert expand_rational_series([1], [1, -1], 5) == [1, 1, 1, 1, 1, 1]


def test_zero_numerator():
    assert expand_rational_series([0], [1, -1], 4) == [0, 0, 0, 0, 0]


def test_symmetroid_series_coefficients():
    coeffs = expand_rational_series(SYMMETROID_NUMERATOR, SYMMETROID_DENOMINATOR, 5)
    assert coeffs == [0, 0, 0, 10, 25, 46]


def test_no_quadric_coefficient_is_zero():
    assert symmetroid_hilbert_series(2)[2] == 0


def test_hilbert_check_true():
    assert symmetroid_hilbert_check() is True
    assert SYMMETROID_LEADING_COEFFICIENTS == [0, 0, 0, 10, 25, 46]


def test_long_division_oracle_agrees_on_fixed_series():
    a = expand_rational_series(SYMMETROID_NUMERATOR, SYMMETROID_DENOMINATOR, 12)
    b = long_division_series(SYMMETROID_NUMERATOR, SYMMETROID_DENOMINATOR, 12)
    assert a == b
    # closed-form cross-check: coefficient k >= 3 equals
    # 10*C(k,3) - 15*C(k-1,3) + 6*C(k-2,3)  (binomial expansion of 1/(1-t)^4)
    from math import comb

    for k in range(3, 13):
        expected = (
            10 * comb(k, 3) - 15 * comb(k - 1, 3) + 6 * comb(k - 2, 3)
        )
        assert a[k] == expected


def test_recurrence_matches_division_random():
    rng = random.Random(12)
    for _ in range(100):
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        den = [rng.choice([1, -1])] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
        assert expand_rational_series(num, den, 20) == long_division_series(num, den, 20)


def test_sign_normalization_even_power():
    # (t-1)^4 and (1-t)^4 are the same polynomial, so identical series
    t_minus_1_4 = [1, -4, 6, -4, 1]
    one_minus_t_4 = [1, -4, 6, -4, 1]
    num = [0, 0, 0, 10, -15, 6]
    assert expand_rational_series(num, t_minus_1_4, 8) == expand_rational_series(
        num, one_minus_t_4, 8
    )


def test_sign_normalization_negative_constant():
    # -1 + t has den(0) = -1; normalization flips both sides
    assert expand_rational_series([-1], [-1, 1], 4) == [1, 1, 1, 1, 1]


def test_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        expand_rational_series([1], [0, 1], 3)


def test_zero_denominator():
    with pytest.raises(DomainError):
        expand_rational_series([1], [0], 3)


def test_non_integral_coefficient():
    with pytest.raises(NonIntegralCoefficientError):
        expand_rational_series([1], [2, -1], 3)
    with pytest.raises(NonIntegralCoefficientError):
        long_division_series([1], [2, -1], 3)


def test_negative_order():
    with pytest.raises(DomainError):
        expand_rational_series([1], [1], -1)


def test_order_cap():
    # checked before any work: long division would allocate the remainder
    for expand in (expand_rational_series, long_division_series):
        assert len(expand([1], [1, -1], ORDER_CAP)) == ORDER_CAP + 1
        with pytest.raises(ResourceError):
            expand([1], [1, -1], ORDER_CAP + 1)
        with pytest.raises(ResourceError):
            expand([1], [1, -1], 10**12)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_recurrence_equals_division_property(data):
    num = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    tail = data.draw(st.lists(st.integers(-5, 5), min_size=0, max_size=5))
    den = [data.draw(st.sampled_from([1, -1]))] + tail
    order = data.draw(st.integers(0, 15))
    assert expand_rational_series(num, den, order) == long_division_series(num, den, order)
