"""The ten-node symmetroid Hilbert series against long division, and its
order checks.  Its opening terms 0, 0, 0, 10, 25, 46 are criterion 4 of
``test_acceptance.py``."""

import pytest

from nodalcodes.errors import DomainError, ResourceError
from nodalcodes.series import ORDER_CAP, symmetroid_hilbert_series
from series_oracle import symmetroid_series_by_division


def test_series_equals_long_division_up_to_order_cap():
    # every order the CLI accepts; the prefix of length n + 1 is the series
    # to order n, so this covers each of them, and order 0 is one term
    for order in (0, ORDER_CAP):
        assert symmetroid_hilbert_series(order) == symmetroid_series_by_division(order)


def test_negative_order():
    with pytest.raises(DomainError):
        symmetroid_hilbert_series(-1)


def test_order_cap():
    # checked before any work; the cap itself is accepted above
    with pytest.raises(ResourceError):
        symmetroid_hilbert_series(ORDER_CAP + 1)
    with pytest.raises(ResourceError):
        symmetroid_hilbert_series(10**12)
