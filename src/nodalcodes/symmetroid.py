"""Finite-field search for the rank-2 locus of symmetric matrices of linear forms.

A symmetric 4x4 matrix of linear forms M(x) = x M_x + y M_y + z M_z + w M_w
cuts out a quartic symmetroid (its determinant); the locus in P^3 where the
matrix drops to rank <= 2 is the symmetroid's distinguished even set of ten
nodes.  Over F_p that locus is found by kernel incidence (see
:func:`scan_nodes_fp`), at a cost of about p^2 evaluations instead of the p^3
points of P^3, and quadric interpolation through the ten points is tested
exactly.  More than ten points prove a positive-dimensional locus, by the
Harris-Tu degree bound (:data:`MAX_FINITE_LOCUS`).  The outcome is
finite-field evidence, labeled as such: nothing here claims a
characteristic-0 proof.

Uniformly random coefficient matrices are the wrong distribution for this
experiment: Frobenius permutes the ten geometric rank-2 points, so almost
none of them are F_p-rational for a random matrix.  The seeded generator
therefore builds the matrix from the web of quadrics through six random
rational points, no four coplanar; its ten rank-2 members are the
C(6,3)/2 = 10 splittings of the six points into two plane-spanning
triples, all rational by construction.  A uniform generator is kept for
comparison experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import DataError, DomainError, ResourceError, read_json
from .fields import PrimeField, is_prime
from .forms import HomogeneousForm, parse_form
from .linalg import ExactMatrix, exact_rank, nullspace_basis

_PRIME_CAP = 1024

# Rank <= 2 symmetric 4x4 matrices form a variety of degree 10 (Harris-Tu,
# Topology 23, 1984), so a finite rank <= 2 locus of M(x) has at most 10
# points (a single one when M_x..M_w are dependent: the locus is then a cone
# over their kernel).  More than 10 points prove a positive-dimensional locus.
MAX_FINITE_LOCUS = 10

# upper-triangle positions of a symmetric 4x4 matrix, row-major
UPPER_TRIANGLE = tuple((i, j) for i in range(4) for j in range(i, 4))

# degree-2 monomial exponent pairs, matching the quadric coefficient order
QUADRIC_MONOMIALS = UPPER_TRIANGLE


@dataclass(frozen=True)
class SymmetricLinearMatrix:
    """Ten linear forms over F_p filling the upper triangle symmetrically."""

    prime: int
    coefficients: tuple[tuple[int, int, int, int], ...]  # one (x,y,z,w) row per entry

    def __post_init__(self):
        p = self.prime
        if not is_prime(p) or p == 2:
            raise DomainError(f"{p} is not an odd prime")
        if len(self.coefficients) != 10:
            raise DataError("expected 10 upper-triangle linear forms")
        object.__setattr__(
            self,
            "coefficients",
            tuple(tuple(c % p for c in row) for row in self.coefficients),
        )
        for row in self.coefficients:
            if len(row) != 4:
                raise DataError("each linear form needs 4 coefficients")

    @classmethod
    def from_forms(cls, prime: int, forms) -> "SymmetricLinearMatrix":
        field = PrimeField(prime)
        rows = []
        for f in forms:
            if f.field != field:
                raise DataError("matrix entries must live over F_p for the scan prime")
            if not f.is_zero() and f.degree != 1:
                raise DataError(f"matrix entries must be linear, got degree {f.degree}")
            coeffs = [0, 0, 0, 0]
            for mono, c in f.terms.items():
                coeffs[mono.index(1)] = c
            rows.append(tuple(coeffs))
        return cls(prime, tuple(rows))

    @classmethod
    def from_strings(cls, prime: int, texts) -> "SymmetricLinearMatrix":
        field = PrimeField(prime)
        return cls.from_forms(prime, [parse_form(t, field) for t in texts])

    def forms(self) -> list[HomogeneousForm]:
        field = PrimeField(self.prime)
        out = []
        for row in self.coefficients:
            terms = {}
            for i, c in enumerate(row):
                if c % self.prime:
                    mono = tuple(1 if k == i else 0 for k in range(4))
                    terms[mono] = c % self.prime
            out.append(HomogeneousForm(1, field, terms) if terms
                       else HomogeneousForm.zero_form(1, field))
        return out

    def evaluate(self, point) -> list[list[int]]:
        """The symmetric 4x4 integer matrix at a point, entries mod p."""
        p = self.prime
        values = [
            sum(c * x for c, x in zip(row, point)) % p for row in self.coefficients
        ]
        m = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(UPPER_TRIANGLE, values):
            m[i][j] = m[j][i] = v
        return m

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "upper_triangle": [str(f) for f in self.forms()],
        }


def matrix_from_dict(data: dict) -> SymmetricLinearMatrix:
    try:
        prime = data["prime"]
        entries = data["upper_triangle"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"matrix file is missing {exc}") from exc
    if isinstance(prime, bool) or not isinstance(prime, int):
        raise DataError(f"matrix prime must be an integer, got {prime!r}")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise DataError("upper_triangle must be a list of strings")
    if len(entries) != 10:
        raise DataError(f"expected 10 upper-triangle entries, got {len(entries)}")
    return SymmetricLinearMatrix.from_strings(prime, entries)


def load_matrix_file(path: str) -> SymmetricLinearMatrix:
    return matrix_from_dict(read_json(path, "matrix file"))


@dataclass(frozen=True)
class ScanResult:
    prime: int
    points: tuple[tuple[int, int, int, int], ...]
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "count": len(self.points),
            "points": [list(pt) for pt in self.points],
            "degenerate": self.degenerate,
            "degenerate_threshold": MAX_FINITE_LOCUS,
            "evidence": "finite-field scan; probabilistic evidence only",
        }


def minors_vanish_at(matrix: SymmetricLinearMatrix, point) -> bool:
    """Pure-integer check that all sixteen 3x3 minors vanish at a point."""
    p = matrix.prime
    m = matrix.evaluate(point)
    for rows in combinations(range(4), 3):
        for cols in combinations(range(4), 3):
            r1, r2, r3 = rows
            c1, c2, c3 = cols
            det = (
                m[r1][c1] * (m[r2][c2] * m[r3][c3] - m[r2][c3] * m[r3][c2])
                - m[r1][c2] * (m[r2][c1] * m[r3][c3] - m[r2][c3] * m[r3][c1])
                + m[r1][c3] * (m[r2][c1] * m[r3][c2] - m[r2][c2] * m[r3][c1])
            ) % p
            if det:
                return False
    return True


def _minor(a, rows, cols, p):
    """A 3x3 minor mod p of matrices given entrywise as arrays ``a[i][j]``; entries
    may be unreduced below 4p^2, which keeps products in int64 for p <= _PRIME_CAP."""
    (r1, r2, r3), (c1, c2, c3) = rows, cols
    return (
        a[r1][c1] * ((a[r2][c2] * a[r3][c3] - a[r2][c3] * a[r3][c2]) % p)
        - a[r1][c2] * ((a[r2][c1] * a[r3][c3] - a[r2][c3] * a[r3][c1]) % p)
        + a[r1][c3] * ((a[r2][c1] * a[r3][c2] - a[r2][c2] * a[r3][c1]) % p)
    ) % p


def _det4(a, p):
    """Determinants mod p of 4x4 matrices given entrywise, by the first row."""
    cofactors = (_minor(a, (1, 2, 3), [c for c in range(4) if c != k], p) for k in range(4))
    return sum((-1) ** k * a[0][k] * m for k, m in enumerate(cofactors)) % p


def _rank_at_most_2(a, p):
    """Indices of the points where every 3x3 minor of the (4, 4, n) array ``a`` vanishes."""
    alive = np.arange(a.shape[2])
    for rows, cols in product(combinations(range(4), 3), repeat=2):
        keep = np.flatnonzero(_minor(a, rows, cols, p) == 0)
        if keep.size < alive.size:
            alive, a = alive[keep], a[:, :, keep]
        if not alive.size:
            break
    return alive


def _span_points(basis, p: int, chunk: int = 1 << 18):
    """The projective points of span(basis) as (4, n) arrays mod p, in chunks:
    sum_l c_l basis[l] for each coefficient vector c whose first nonzero entry is 1."""
    basis = np.asarray(basis, dtype=np.int64)
    for lead in range(len(basis)):
        total = p ** (len(basis) - 1 - lead)
        for start in range(0, total, chunk):
            digits = np.arange(start, min(start + chunk, total), dtype=np.int64)
            points = np.repeat(basis[lead][:, None], digits.size, axis=1)
            for vec in basis[lead + 1:]:
                digits, digit = np.divmod(digits, p)
                points += vec[:, None] * digit
            yield points % p


def _normalize(points, p: int) -> list[tuple[int, int, int, int]]:
    """The columns of a (4, n) array, scaled so the first nonzero coordinate is 1."""
    inverse = np.array([pow(a, -1, p) if a else 0 for a in range(p)], dtype=np.int64)
    lead = points[(points != 0).argmax(axis=0), np.arange(points.shape[1])]
    return [tuple(map(int, pt)) for pt in (points * inverse[lead] % p).T]


def scan_nodes_fp(matrix: SymmetricLinearMatrix) -> ScanResult:
    """All points of P^3(F_p) where the matrix has rank <= 2, sorted.

    Kernel incidence: M(x) v = A(v) x with A(v) = [M_x v | M_y v | M_z v |
    M_w v].  The kernel of M(x) at a point x of rank <= 2 is at least a
    line, which meets the plane v_z = 0 in some v with det A(v) = 0 and
    x in ker A(v).  So det A is evaluated on the p^2 + p + 1 points of that
    plane, the points of each distinct kernel ker A(v) where it vanishes are
    enumerated, and those where all sixteen 3x3 minors vanish are kept.
    When det A vanishes on the whole plane every point of P^3 is a candidate.

    ``degenerate`` means more than :data:`MAX_FINITE_LOCUS` points, which
    proves a positive-dimensional locus.
    """
    p = matrix.prime
    if p > _PRIME_CAP:
        raise ResourceError(
            "some matrices make the scan enumerate all p^3 + p^2 + p + 1 points; "
            f"prime capped at {_PRIME_CAP}"
        )
    forms = np.zeros((4, 4, 4), dtype=np.int64)  # forms[i, j]: entry (i, j) as a form in x
    for (i, j), row in zip(UPPER_TRIANGLE, matrix.coefficients):
        forms[i, j] = forms[j, i] = row
    a_forms = forms.transpose(0, 2, 1)  # a_forms[i, k]: entry (i, k) of A(v) as a form in v

    plane = np.eye(4, dtype=np.int64)[[0, 1, 3]]
    singular = [v[:, _det4(a_forms @ v, p) == 0] for v in _span_points(plane, p)]
    singular = np.concatenate(singular, axis=1)
    if singular.shape[1] == p * p + p + 1:
        # det A vanishes on the whole plane: p^2 + p + 1 exact kernels would
        # cost more than enumerating every point of P^3
        bases = [np.eye(4, dtype=np.int64)]
    else:
        field = PrimeField(p)
        # the rows are reduced mod p here, so they skip from_rows' validation
        kernel_rows = (tuple(map(tuple, ((a_forms @ v) % p).tolist())) for v in singular.T)
        bases = {tuple(nullspace_basis(ExactMatrix(field, rows))) for rows in kernel_rows}
    found = [np.zeros((4, 0), dtype=np.int64)]
    for basis in bases:
        for x in _span_points(basis, p):
            found.append(x[:, _rank_at_most_2(forms @ x, p)])
    points = sorted(set(_normalize(np.concatenate(found, axis=1), p)))
    return ScanResult(prime=p, points=tuple(points), degenerate=len(points) > MAX_FINITE_LOCUS)


@dataclass(frozen=True)
class QuadricCertificate:
    prime: int
    rank: int
    certified: bool

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "evaluation_rank": self.rank,
            "no_quadric_certified": self.certified,
            "evidence": "finite-field rank; probabilistic evidence only",
        }


def no_quadric_certificate(points, p: int) -> QuadricCertificate:
    """Rank of the 10x10 quadric-monomial evaluation matrix at ten points.

    Full rank certifies that no quadric over F_p passes through all ten
    points, the finite-field counterpart of the Hilbert-series check in
    :mod:`nodalcodes.series`.
    """
    field = PrimeField(p)
    pts = [tuple(field.validate(c) for c in pt) for pt in points]
    if len(pts) != 10:
        raise DomainError(f"expected exactly 10 points, got {len(pts)}")
    normalized = set()
    for pt in pts:
        first = next((c for c in pt if c % p), None)
        if first is None:
            raise DomainError("(0:0:0:0) is not a projective point")
        inv = pow(first, -1, p)
        normalized.add(tuple(c * inv % p for c in pt))
    if len(normalized) != 10:
        raise DomainError("points must be pairwise distinct projectively")
    rows = []
    for pt in pts:
        rows.append([pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS])
    rank = exact_rank(ExactMatrix.from_rows(field, rows))
    return QuadricCertificate(prime=p, rank=rank, certified=rank == 10)


# --- seeded generators --------------------------------------------------------


def _seeded_rng(p: int, seed: int) -> np.random.Generator:
    if p > _PRIME_CAP:
        raise ResourceError(f"the scan caps the prime at {_PRIME_CAP}, got {p}")
    if not is_prime(p) or p == 2 or seed < 0:
        raise DomainError(f"need an odd prime and a non-negative seed, got p = {p}, seed {seed}")
    return np.random.default_rng(seed)


def random_symmetric_matrix(p: int, seed: int) -> SymmetricLinearMatrix:
    """Uniformly random linear forms in the upper triangle.

    The rank-2 locus of such a matrix is ten points over the algebraic
    closure, but Frobenius mixes them, so the scan typically sees only a
    few of them; use :func:`random_symmetroid_matrix` when the full ten-point
    locus should be visible over F_p.
    """
    coeffs = _seeded_rng(p, seed).integers(0, p, size=(10, 4))
    return SymmetricLinearMatrix(p, tuple(tuple(int(c) for c in row) for row in coeffs))


def random_symmetroid_matrix(p: int, seed: int) -> SymmetricLinearMatrix:
    """Seeded random symmetroid whose ten rank-2 points are all F_p-rational.

    Draws six random points of P^3(F_p), no four coplanar (those give a
    positive-dimensional locus), whose quadric conditions are independent,
    and takes the four-dimensional web of quadrics through them, written as
    a symmetric matrix pencil.  The rank-2 members of the web are the
    quadrics splitting into two planes of three points each, one for each
    of the ten 3+3 partitions, so the scan finds them all.
    """
    rng = _seeded_rng(p, seed)
    if p == 3:
        raise DomainError("P^3(F_3) has no six points with no four coplanar (at most five)")
    field = PrimeField(p)
    while True:
        pts = [tuple(int(c) for c in rng.integers(0, p, size=4)) for _ in range(6)]
        if any(all(c % p == 0 for c in pt) for pt in pts):
            continue
        if any(_det4(quad, p) == 0 for quad in combinations(pts, 4)):
            continue
        rows = [[pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS] for pt in pts]
        web_basis = nullspace_basis(ExactMatrix.from_rows(field, rows))
        if len(web_basis) != 4:  # the 6 quadric conditions are dependent
            continue
        inv2 = pow(2, -1, p)
        symmetric = []
        for q in web_basis:
            m = [[0] * 4 for _ in range(4)]
            for (i, j), c in zip(QUADRIC_MONOMIALS, q):
                if i == j:
                    m[i][i] = c % p
                else:
                    m[i][j] = m[j][i] = c * inv2 % p
            symmetric.append(m)
        coeffs = tuple(
            tuple(symmetric[k][i][j] for k in range(4)) for i, j in UPPER_TRIANGLE
        )
        return SymmetricLinearMatrix(p, coeffs)
