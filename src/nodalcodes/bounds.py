"""Closed-form dimension bounds, 2-torsion ranks and defect counts for
nodal branch surfaces.

All bounds are signed integers; a negative value means the bound is
vacuous and is reported as-is, never clamped.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, InconsistencyError
from .record import Record


def _require_even_degree(b: int) -> None:
    if b % 2 != 0:
        raise DomainError(f"branch degree must be even, got {b}")
    if b < 4:
        raise DomainError(f"branch degree must be at least 4, got {b}")


def second_betti_of_resolution(b: int) -> int:
    """b2 of the minimal resolution of a degree-b nodal surface in P^3."""
    _require_even_degree(b)
    return b**3 - 4 * b**2 + 6 * b - 2


def beauville_bound(b: int, mu: int) -> int:
    """Beauville's lower bound for the code dimension: mu - b2/2 + 1.

    This is the form every numeric instance in the literature satisfies;
    the frequently printed closed form b(b^2-4b+6)/2 is off by 2 and is
    available via :func:`beauville_bound_printed`.
    """
    _require_even_degree(b)
    return mu - second_betti_of_resolution(b) // 2 + 1


def beauville_bound_printed(b: int, mu: int) -> int:
    """The closed form mu - b(b^2-4b+6)/2, kept for auditability; exactly
    2 below :func:`beauville_bound`."""
    _require_even_degree(b)
    return mu - b * (b**2 - 4 * b + 6) // 2


def improved_bound(b: int, mu: int) -> int:
    """Sharper lower bound mu - (b-2)(23b^2-38b+24)/48.

    The subtracted term equals C(3b/2-1, 3) - 4*C(b/2, 3): the count of
    degree-(3b/2-4) monomials minus the dimension of the slice of the
    Jacobian ideal in that degree.  48 divides the product for every even
    b = 2k: it is 8(k-1)(23k^2-19k+6), and 6 divides (k-1)(23k^2-19k+6).
    """
    _require_even_degree(b)
    return mu - (b - 2) * (23 * b**2 - 38 * b + 24) // 48


def miyaoka_max_nodes(b: int) -> int:
    """Largest node count a degree-b surface allows: floor((4/9) b (b-1)^2)."""
    if b < 1:
        raise DomainError(f"degree must be positive, got {b}")
    return 4 * b * (b - 1) ** 2 // 9


def jacobian_slice_dim(b: int) -> int:
    """Expected dimension 4*C(b/2, 3) of the degree-(3b/2-4) slice of the
    Jacobian ideal of a degree-b surface equation."""
    _require_even_degree(b)
    return 4 * comb(b // 2, 3)


def torsion_rank(dim_code: int, defect: int) -> tuple[int, int]:
    """2-torsion ranks implied by a code dimension and a defect.

    The code splits as a free part of rank ``defect`` plus the 2-torsion
    of the middle cohomology of the resolution, so the H^3 torsion rank is
    ``dim_code - defect``; H^4 carries an isomorphic copy, giving
    ``total = 2 * (dim_code - defect)``.
    """
    if defect < 0 or dim_code < 0:
        raise DomainError("code dimension and defect must be non-negative")
    if dim_code < defect:
        raise InconsistencyError(
            f"code dimension {dim_code} below defect {defect}: no such double solid"
        )
    h3 = dim_code - defect
    return h3, 2 * h3


class BoundReport(Record):
    """All bounds for one (degree, node count) pair."""

    b: int
    mu: int
    beauville: int
    improved: int
    miyaoka_max: int
    jacobian_slice_dim: int
    beauville_printed: int

    def to_dict(self) -> dict:
        return {
            "degree": self.b,
            "mu": self.mu,
            "beauville_bound": self.beauville,
            "improved_bound": self.improved,
            "miyaoka_max_nodes": self.miyaoka_max,
            "jacobian_slice_dim": self.jacobian_slice_dim,
            "beauville_bound_printed_form": self.beauville_printed,
        }


def bound_report(b: int, mu: int) -> BoundReport:
    if mu < 0:
        raise DomainError(f"mu must be non-negative, got {mu}")
    return BoundReport(
        b=b,
        mu=mu,
        beauville=beauville_bound(b, mu),
        improved=improved_bound(b, mu),
        miyaoka_max=miyaoka_max_nodes(b),
        jacobian_slice_dim=jacobian_slice_dim(b),
        beauville_printed=beauville_bound_printed(b, mu),
    )


class DefectReport(Record):
    """Defect computation breakdown.

    ``defect = dim_m - estimate`` with ``estimate = C(3b/2-1, 3) - mu``;
    the value is signed and never clamped, so a negative defect flags
    inconsistent input rather than being hidden.
    """

    b: int
    mu: int
    m_degree: int
    dim_m: int
    estimate: int
    defect: int

    def to_dict(self) -> dict:
        return {
            "degree": self.b,
            "mu": self.mu,
            "form_degree": self.m_degree,
            "dim_vanishing_space": self.dim_m,
            "estimate": self.estimate,
            "defect": self.defect,
        }


def form_degree(b: int) -> int:
    """3b/2 - 4, the degree of the forms through the nodes (3b/2 rounded down)."""
    return 3 * b // 2 - 4


def defect(b: int, mu: int, dim_m: int) -> DefectReport:
    """Defect of the double solid branched over a degree-b surface with mu
    nodes, given the dimension of the forms of ``form_degree(b)`` through them."""
    if b % 2 != 0:
        raise DomainError(f"branch degree must be even, got {b}")
    if b < 2:
        raise DomainError(f"branch degree must be at least 2, got {b}")
    if mu < 0 or dim_m < 0:
        raise DomainError("mu and dim_m must be non-negative")
    m_degree = form_degree(b)
    estimate = comb(m_degree + 3, 3) - mu
    return DefectReport(b, mu, m_degree, dim_m, estimate, dim_m - estimate)
