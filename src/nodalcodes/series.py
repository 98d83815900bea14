"""Truncated power series of rational functions with integer coefficients.

Polynomials in t are lists of ints, index = power.  Expansion uses the
linear recurrence imposed by the denominator and insists on exact integer
coefficients: Hilbert series of graded modules are integral, so a
non-integral coefficient means the input was wrong.
"""

from __future__ import annotations

from .errors import (
    DomainError,
    NonIntegralCoefficientError,
    PoleAtOriginError,
    ResourceError,
)

IntPoly = list[int]

# expansions stop at this order: 10^4 terms take ~0.02 s, 10^6 already
# ~1.2 s
ORDER_CAP = 10_000

# t^3 (6t^2 - 15t + 10) / (t - 1)^4, the Hilbert series of the coordinates
# of ten symmetroid nodes cut from the rank<=2 locus of symmetric 4x4
# matrices; its first nonzero coefficients are 10, 25, 46 at t^3..t^5.
SYMMETROID_NUMERATOR: IntPoly = [0, 0, 0, 10, -15, 6]
SYMMETROID_DENOMINATOR: IntPoly = [1, -4, 6, -4, 1]
SYMMETROID_LEADING_COEFFICIENTS = [0, 0, 0, 10, 25, 46]


def _trimmed(p: IntPoly) -> IntPoly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def _check_order(order: int) -> None:
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    if order > ORDER_CAP:
        raise ResourceError(f"series order {order} exceeds the cap of {ORDER_CAP}")


def _normalized(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    num, den = _trimmed(num), _trimmed(den)
    if not den:
        raise DomainError("zero denominator")
    if den[0] == 0:
        raise PoleAtOriginError("denominator vanishes at t = 0; no power series expansion")
    if den[0] < 0:
        num = [-c for c in num]
        den = [-c for c in den]
    return num, den


def expand_rational_series(num: IntPoly, den: IntPoly, order: int) -> list[int]:
    """First ``order + 1`` Maclaurin coefficients of num/den, exact integers."""
    _check_order(order)
    num, den = _normalized(num, den)
    coeffs: list[int] = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * coeffs[k - i]
        q, r = divmod(acc, den[0])
        if r != 0:
            raise NonIntegralCoefficientError(
                f"coefficient of t^{k} is {acc}/{den[0]}, not an integer"
            )
        coeffs.append(q)
    return coeffs


def symmetroid_hilbert_series(order: int = 5) -> list[int]:
    """Coefficients of the ten-node symmetroid Hilbert series up to ``order``."""
    return expand_rational_series(
        SYMMETROID_NUMERATOR, SYMMETROID_DENOMINATOR, order
    )


def symmetroid_hilbert_check() -> bool:
    """True iff the fixed series opens with 0, 0, 0, 10, 25, 46.

    The zero at t^2 is the point: no quadric vanishes on the ten nodes,
    which is the series-expansion half of the no-quadric verification (the
    finite-field half lives in the symmetroid scanner).
    """
    return symmetroid_hilbert_series(5) == SYMMETROID_LEADING_COEFFICIENTS
