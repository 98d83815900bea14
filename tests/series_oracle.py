"""Power series by long division, kept for tests only.

The library expands num/den by the denominator's recurrence; naive long
division below is the independent cross-check.  It shares the library's
input checks, so both refuse the same inputs.
"""

from __future__ import annotations

from nodalcodes.errors import NonIntegralCoefficientError
from nodalcodes.series import IntPoly, _check_order, _normalized


def long_division_series(num: IntPoly, den: IntPoly, order: int) -> list[int]:
    """First ``order + 1`` coefficients of num/den by naive long division."""
    _check_order(order)
    num, den = _normalized(num, den)
    remainder = list(num) + [0] * (order + len(den) + 1 - len(num))
    coeffs = []
    for k in range(order + 1):
        q, r = divmod(remainder[k], den[0])
        if r != 0:
            raise NonIntegralCoefficientError(
                f"coefficient of t^{k} is {remainder[k]}/{den[0]}, not an integer"
            )
        coeffs.append(q)
        for i, d in enumerate(den):
            remainder[k + i] -= q * d
    return coeffs
