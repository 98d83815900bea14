"""The ten-node symmetroid Hilbert series and its fixed check."""

import pytest

from nodalcodes.errors import DomainError, ResourceError
from nodalcodes.series import (
    ORDER_CAP,
    SYMMETROID_LEADING_COEFFICIENTS,
    symmetroid_hilbert_check,
    symmetroid_hilbert_series,
)
from series_oracle import symmetroid_series_by_division


def test_symmetroid_series_coefficients():
    assert symmetroid_hilbert_series(5) == [0, 0, 0, 10, 25, 46]
    assert symmetroid_hilbert_series(0) == [0]


def test_no_quadric_coefficient_is_zero():
    assert symmetroid_hilbert_series(2)[2] == 0


def test_hilbert_check_true():
    assert symmetroid_hilbert_check() is True
    assert SYMMETROID_LEADING_COEFFICIENTS == [0, 0, 0, 10, 25, 46]


def test_long_division_oracle_agrees_on_fixed_series():
    coeffs = symmetroid_series_by_division(20)
    assert coeffs[:6] == SYMMETROID_LEADING_COEFFICIENTS
    assert coeffs[20] == 1761  # 10 C(20,3) - 15 C(19,3) + 6 C(18,3)


def test_series_equals_long_division_up_to_order_cap():
    # every order the CLI accepts; the prefix of length n + 1 is the series
    # to order n, so this covers each of them
    assert symmetroid_hilbert_series(ORDER_CAP) == symmetroid_series_by_division(ORDER_CAP)


def test_negative_order():
    with pytest.raises(DomainError):
        symmetroid_hilbert_series(-1)


def test_order_cap():
    # checked before any work
    assert len(symmetroid_hilbert_series(ORDER_CAP)) == ORDER_CAP + 1
    with pytest.raises(ResourceError):
        symmetroid_hilbert_series(ORDER_CAP + 1)
    with pytest.raises(ResourceError):
        symmetroid_hilbert_series(10**12)
