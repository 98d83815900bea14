"""The ten-node symmetroid Hilbert series by long division, for tests only.

The library writes each coefficient in closed form; this oracle divides
t^3 (6t^2 - 15t + 10) by (t - 1)^4 in ascending powers of t instead, and
shares no code with the library.
"""

from __future__ import annotations

# ascending coefficients of t^3 (6t^2 - 15t + 10) and of (t - 1)^4
NUMERATOR = (0, 0, 0, 10, -15, 6)
DENOMINATOR = (1, -4, 6, -4, 1)


def symmetroid_series_by_division(order: int) -> list[int]:
    """First ``order + 1`` coefficients of the series, by naive long division."""
    remainder = list(NUMERATOR) + [0] * (order + len(DENOMINATOR))
    coeffs = []
    for k in range(order + 1):
        q = remainder[k]  # the divisor's constant term is 1
        coeffs.append(q)
        for i, d in enumerate(DENOMINATOR):
            remainder[k + i] -= q * d
    return coeffs
