"""Finite-field search for the rank-2 locus of symmetric matrices of linear forms.

A symmetric 4x4 matrix of linear forms M(x) = x M_x + y M_y + z M_z + w M_w
cuts out a quartic symmetroid (its determinant); the locus in P^3 where the
matrix drops to rank <= 2 is the symmetroid's distinguished even set of ten
nodes.  Over F_p that locus is found by kernel incidence (see
:func:`scan_nodes_fp`): the kernels of the singular A(v) = [M_x v | M_y v |
M_z v | M_w v] on the plane v_z = 0 hold every rank <= 2 point.  Packed
sums evaluate det A on that whole plane in about p^2 slot reductions, not
the p^3 points of P^3, and one principal 3x3 minor of M(x) decides each
kernel point x.  When det A vanishes on the plane, a cubic 3x3 minor is
solved on each of the p^2 + p + 1 lines through (0:0:0:1) instead.  The
no-quadric certificate is the dimension of the quadrics through the ten
nodes, the defect computation for b = 4.  More than ten points prove a
positive-dimensional locus, by the Harris-Tu degree bound
(:data:`MAX_FINITE_LOCUS`).  The outcome is finite-field evidence, labeled
as such: nothing here claims a characteristic-0 proof.

Uniformly random coefficient matrices are the wrong distribution for this
experiment: Frobenius permutes the ten geometric rank-2 points, so almost
none of them are F_p-rational for a random matrix.  The seeded generator
therefore builds the matrix from the web of quadrics through six random
rational points, no four coplanar; its ten rank-2 members are the
C(6,3)/2 = 10 splittings of the six points into two plane-spanning
triples, all rational by construction.  A uniform generator is kept for
comparison experiments.  Both draw what numpy's ``default_rng(seed)``
draws (:class:`_PCG64`), so a seed names the same matrix with or without
numpy.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import DataError, DomainError, ResourceError, json_fields, read_json
from .fields import PrimeField
from .forms import HomogeneousForm, parse_form
from .linalg import ExactMatrix, _slot_codec, exact_rank, nullspace_basis
from .nodes import NodeConfiguration, vanishing_dimension
from .record import Record

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

# the exponent vectors of x, y, z, w: a linear form's coefficients in order
_VARIABLES = tuple(tuple(int(k == i) for k in range(4)) for i in range(4))

# (rows, cols) of the ten distinct 3x3 minors of a symmetric 4x4 matrix: the
# minor on (rows, cols) equals the one on (cols, rows)
_TRIPLES = tuple(combinations(range(4), 3))
_MINORS = tuple((rows, cols) for n, rows in enumerate(_TRIPLES) for cols in _TRIPLES[n:])


class SymmetricLinearMatrix(Record):
    """Ten linear forms over F_p filling the upper triangle symmetrically."""

    prime: int
    coefficients: tuple[tuple[int, int, int, int], ...]  # one (x,y,z,w) row per entry

    def __post_init__(self):
        p = self.prime
        PrimeField(p)  # refuses anything but an odd prime
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
    def from_strings(cls, prime: int, texts) -> "SymmetricLinearMatrix":
        field = PrimeField(prime)
        rows = []
        for f in (parse_form(t, field) for t in texts):
            if not f.is_zero() and f.degree != 1:
                raise DataError(f"matrix entries must be linear, got degree {f.degree}")
            rows.append(tuple(f.terms.get(v, 0) for v in _VARIABLES))
        return cls(prime, tuple(rows))

    def forms(self) -> list[HomogeneousForm]:
        field = PrimeField(self.prime)
        return [HomogeneousForm.from_terms(1, field, dict(zip(_VARIABLES, row)))
                for row in self.coefficients]

    def evaluate(self, point) -> list[list[int]]:
        """The symmetric 4x4 integer matrix at a point, entries mod p."""
        p = self.prime
        x, y, z, w = point
        values = [(a * x + b * y + c * z + d * w) % p for a, b, c, d in self.coefficients]
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
    prime, entries = json_fields(data, "matrix file", "prime", "upper_triangle")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise DataError("upper_triangle must be a list of strings")
    if len(entries) != 10:
        raise DataError(f"expected 10 upper-triangle entries, got {len(entries)}")
    return SymmetricLinearMatrix.from_strings(prime, entries)


def load_matrix_file(path: str) -> SymmetricLinearMatrix:
    return matrix_from_dict(read_json(path, "matrix file"))


class ScanResult(Record):
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


def _det3(m, rows, cols) -> int:
    """The 3x3 minor of an integer matrix on the given rows and columns, unreduced."""
    (r1, r2, r3), (c1, c2, c3) = rows, cols
    return (
        m[r1][c1] * (m[r2][c2] * m[r3][c3] - m[r2][c3] * m[r3][c2])
        - m[r1][c2] * (m[r2][c1] * m[r3][c3] - m[r2][c3] * m[r3][c1])
        + m[r1][c3] * (m[r2][c1] * m[r3][c2] - m[r2][c2] * m[r3][c1])
    )


def minors_vanish_at(matrix: SymmetricLinearMatrix, point) -> bool:
    """Pure-integer check that all sixteen 3x3 minors vanish at a point (the
    matrix is symmetric, so ten of them decide)."""
    p = matrix.prime
    m = matrix.evaluate(point)
    return not any(_det3(m, rows, cols) % p for rows, cols in _MINORS)


# --- polynomials in (x, y, z, w): {exponents: coefficient mod p} --------------


def _linear(coefficients) -> dict:
    return {e: c for e, c in zip(_VARIABLES, coefficients) if c}


def _mul(f: dict, g: dict, p: int) -> dict:
    h = {}
    for e, a in f.items():
        for d, b in g.items():
            k = (e[0] + d[0], e[1] + d[1], e[2] + d[2], e[3] + d[3])
            h[k] = (h.get(k, 0) + a * b) % p
    return h


def _det(rows, p: int) -> dict:
    """The determinant of a square matrix of polynomials, by the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = {}
    for k, entry in enumerate(rows[0]):
        if entry:
            minor = _det([r[:k] + r[k + 1:] for r in rows[1:]], p)
            for e, c in _mul(entry, minor, p).items():
                total[e] = (total.get(e, 0) - c if k % 2 else total.get(e, 0) + c) % p
    return {e: c for e, c in total.items() if c}


def _by_power_of_w(form: dict, degree: int) -> list[list[tuple[int, int, int, int]]]:
    """The terms (c, i, j, k) of c x^i y^j z^k w^l, one list per power l."""
    terms = [[] for _ in range(degree + 1)]
    for (i, j, k, l), c in form.items():
        terms[l].append((c, i, j, k))
    return terms


def _on_line(terms, base, p: int) -> list[int]:
    """The coefficients in u of a form on the line base + u (0:0:0:1)."""
    a, b, c = base[:3]
    return [sum(t * a**i * b**j * c**k for t, i, j, k in power) % p for power in terms]


def _span_points(basis, p: int):
    """The points of P^3 in the span of ``basis``, each scaled so that its
    first nonzero coordinate is 1: sum_l c_l basis[l] for each coefficient
    vector c whose first nonzero entry is 1."""
    for lead in range(len(basis)):
        for digits in product(range(p), repeat=len(basis) - 1 - lead):
            x = basis[lead]
            for d, vec in zip(digits, basis[lead + 1:]):
                x = [(s + d * t) % p for s, t in zip(x, vec)]
            inv = pow(next(s for s in x if s), -1, p)
            yield tuple(s * inv % p for s in x)


def _root_tables(p: int):
    """For each residue r of F_p: its square roots, its cube roots, and the
    roots t of t^3 + r t + r."""
    squares, cubes, family = ([[] for _ in range(p)] for _ in range(3))
    for t in range(p):
        squares[t * t % p].append(t)
        cubes[t**3 % p].append(t)
        if t != p - 1:  # t^3 + r (t + 1) = 0 for r = -t^3 / (t + 1)
            family[-(t**3) * pow(t + 1, -1, p) % p].append(t)
    return squares, cubes, family


def _cubic_roots(c, p: int, tables) -> list[int]:
    """The roots in F_p of c[0] + c[1] u + c[2] u^2 + c[3] u^3, not all c zero."""
    c0, c1, c2, c3 = c
    if p == 3:
        return [u for u in range(3) if (c0 + c1 * u + c2 * u * u + c3 * u**3) % 3 == 0]
    squares, cubes, family = tables
    if c3 == 0:
        if c2 == 0:
            return [-c0 * pow(c1, -1, p) % p] if c1 else []
        inv = pow(2 * c2, -1, p)
        return [(s - c1) * inv % p for s in squares[(c1 * c1 - 4 * c2 * c0) % p]]
    inv = pow(c3, -1, p)
    s = c2 * inv * pow(3, -1, p) % p  # u = t - s: t^3 + P t + Q
    b = c1 * inv % p
    P = (b - 3 * s * s) % p
    Q = (2 * s**3 - b * s + c0 * inv) % p
    if P == 0:
        ts = cubes[-Q % p]
    elif Q == 0:
        ts = [0] + squares[-P % p]
    else:  # t = lam r turns it into r^3 + k r + k with k = P^3 / Q^2
        lam = Q * pow(P, -1, p) % p
        ts = [lam * r % p for r in family[P**3 * pow(Q * Q, -1, p) % p]]
    return [(t - s) % p for t in ts]


_W = (0, 0, 0, 1)

# _DELETE_ONE[i]: the other three indices of a 4x4 matrix, the rows or
# columns of the 3x3 minors that leave index i out
_DELETE_ONE = _TRIPLES[::-1]


def _cofactor_kernel(a, p: int) -> tuple[int, ...] | None:
    """The kernel of a singular 4x4 integer matrix mod p as its point with
    first nonzero coordinate 1, or None when the rank is <= 2.

    A adj(A) = det(A) I = 0, so every column of the adjugate lies in
    ker A; at rank 3 the adjugate has rank 1 and any nonzero column spans
    the kernel, while at rank <= 2 all sixteen cofactors vanish.  Column i
    holds the signed 3x3 minors of A with row i deleted; its four minors,
    expanded along their first row, share the six 2x2 minors of the other
    two rows.
    """
    for r1, r2, r3 in _DELETE_ONE:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = a[r1], a[r2], a[r3]
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        x = (
            (a1 * m23 - a2 * m13 + a3 * m12) % p,
            -(a0 * m23 - a2 * m03 + a3 * m02) % p,
            (a0 * m13 - a1 * m03 + a3 * m01) % p,
            -(a0 * m12 - a1 * m02 + a2 * m01) % p,
        )
        for s in x:
            if s:
                inv = pow(s, -1, p)
                return tuple(t * inv % p for t in x)
    return None


def _plane_kernels(matrix: SymmetricLinearMatrix, forms) -> dict | None:
    """The distinct kernels of the singular A(v) on the plane v_z = 0, each
    a basis mapped to the first such v; None if det A vanishes on the plane.

    det A(a, b, 0, u) = sum_l u^l g_l(a, b), g_l of degree 4 - l.  With t^k
    mod p for t = 0..p-1 packed in 32-bit slots, one int per k, one sum of
    products gives g_l(1, b) at every b, and one more the quartic on the
    line (1, b, 0) + u (0:0:0:1) at every u: its roots are the slots that
    vanish mod p.  The line (0, 1, 0) takes the leading coefficients.  A
    rank-3 A(v) has its kernel read off the adjugate (:func:`_cofactor_kernel`)."""
    p = matrix.prime
    det = _det([[_linear((forms[i][0][k], forms[i][1][k], 0, forms[i][3][k])) for k in range(4)]
                for i in range(4)], p)
    if not det:
        return None
    # every slot value sum_k c_k t^k stays below 5 (p-1)^2 < 2^32 up to _PRIME_CAP
    pack, unpack = _slot_codec(32)
    powers = [int.from_bytes(pack([pow(t, k, p) for t in range(p)]), "little") for k in range(5)]

    def packed_values(coefficients):  # sum_k c_k t^k at every t, unreduced
        return unpack(sum(c * q for c, q in zip(coefficients, powers)).to_bytes(4 * p, "little"))

    g = [[det.get((4 - l - j, j, 0, l), 0) for j in range(5 - l)] for l in range(5)]
    lines = list(zip(*([s % p for s in packed_values(c)] for c in g))) + [[c[-1] for c in g]]
    # A(e_j) flat, row-major: A(v)[i][k] = (M_k v)_i = sum_j forms[i][j][k] v_j
    a_x, a_y, _, a_w = ([forms[i][j][k] for i in range(4) for k in range(4)] for j in range(4))
    singular = [] if det.get((0, 0, 0, 4)) else [(_W, a_w)]
    for b, quartic in enumerate(lines):
        roots = [u for u, s in enumerate(packed_values(quartic)) if not s % p]
        if roots:
            base = (1, b, 0) if b < p else (0, 1, 0)
            a_base = [base[0] * s + base[1] * t for s, t in zip(a_x, a_y)]
            singular += [(base + (u,), [(s + u * t) % p for s, t in zip(a_base, a_w)]) for u in roots]
    field = PrimeField(p)
    kernels = {}
    for v, a in singular:
        rows = (a[:4], a[4:8], a[8:12], a[12:])
        point = _cofactor_kernel(rows, p)
        kernels.setdefault((point,) if point else tuple(nullspace_basis(ExactMatrix(field, rows))), v)
    return kernels


def _rank_two_in_kernel(forms, v, candidates, p: int):
    """The candidates x in ker A(v) at which M(x) has rank <= 2: M(x) v =
    A(v) x = 0 and M(x) is symmetric, so at rank 3 adj M(x) is a nonzero
    multiple of v v^T, and the principal minor off any i with v_i != 0
    vanishes exactly at rank <= 2."""
    rows = _DELETE_ONE[next(i for i, s in enumerate(v) if s)]
    upper = [forms[r][c] for n, r in enumerate(rows) for c in rows[n:]]  # of the minor, row-major
    for x0, x1, x2, x3 in candidates:
        a, b, c, d, e, f = [s0 * x0 + s1 * x1 + s2 * x2 + s3 * x3 for s0, s1, s2, s3 in upper]
        if not (a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)) % p:
            yield x0, x1, x2, x3


def _line_points(matrix: SymmetricLinearMatrix, forms) -> set:
    """The rank <= 2 points on the p^2 + p + 1 lines through (0:0:0:1).

    On each line the first 3x3 minor not identically zero there is a cubic
    in u, and only its roots can be rank <= 2 points; when every minor
    vanishes on the line, all of it is."""
    p = matrix.prime
    minors = [_det([[_linear(forms[i][j]) for j in cols] for i in rows], p) for rows, cols in _MINORS]
    minors = [_by_power_of_w(m, 3) for m in minors if m]
    tables = _root_tables(p)
    points = {_W} if minors_vanish_at(matrix, _W) else set()
    for base in _span_points(_VARIABLES[:3], p):
        for terms in minors:
            c = _on_line(terms, base, p)
            if any(c):
                line = (base[:3] + (u,) for u in _cubic_roots(c, p, tables))
                points.update(x for x in line if minors_vanish_at(matrix, x))
                break
        else:
            points.update(base[:3] + (u,) for u in range(p))
    return points


def scan_nodes_fp(matrix: SymmetricLinearMatrix) -> ScanResult:
    """All points of P^3(F_p) where the matrix has rank <= 2, sorted.

    Kernel incidence: M(x) v = A(v) x with A(v) = [M_x v | M_y v | M_z v |
    M_w v].  The kernel of M(x) at a point x of rank <= 2 is at least a
    line, so it meets the plane v_z = 0 in some v with x in ker A(v)
    (:func:`_plane_kernels`), and one principal minor of M(x) decides x
    (:func:`_rank_two_in_kernel`).  When det A vanishes on that plane, a
    cubic minor is solved on each line through (0:0:0:1) instead
    (:func:`_line_points`).  ``degenerate`` means more than
    :data:`MAX_FINITE_LOCUS` points, a positive-dimensional locus.
    """
    p = matrix.prime
    if p > _PRIME_CAP:
        raise ResourceError("some matrices make the scan solve a cubic on each of the p^2 + p + 1 "
                            f"lines through (0:0:0:1); prime capped at {_PRIME_CAP}")
    forms = [[None] * 4 for _ in range(4)]  # forms[i][j]: entry (i, j) as (x, y, z, w) coefficients
    for (i, j), row in zip(UPPER_TRIANGLE, matrix.coefficients):
        forms[i][j] = forms[j][i] = row
    kernels = _plane_kernels(matrix, forms)
    if kernels is None:
        points = _line_points(matrix, forms)
    else:
        points = {x for basis, v in kernels.items() for x in _rank_two_in_kernel(
            forms, v, basis if len(basis) == 1 else _span_points(basis, p), p)}
    points = sorted(points)
    return ScanResult(prime=p, points=tuple(points), degenerate=len(points) > MAX_FINITE_LOCUS)


class QuadricCertificate(Record):
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

    The ten points are nodes of a quartic (b = 4), so the defect's space M
    is the quadrics through them (3b/2 - 4 = 2) and its estimate is
    C(5,3) - 10 = 0: the rank is 10 minus the dimension of M.  Full rank
    certifies that no quadric over F_p passes through all ten points, the
    finite-field counterpart of the Hilbert-series check in
    :mod:`nodalcodes.series`.
    """
    points = tuple(points)
    if len(points) != 10:
        raise DomainError(f"expected exactly 10 points, got {len(points)}")
    rank = 10 - vanishing_dimension(NodeConfiguration(4, PrimeField(p), points), 2)
    return QuadricCertificate(prime=p, rank=rank, certified=rank == 10)


# --- seeded generators --------------------------------------------------------

_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(const: int, multiplier: int):
    """SeedSequence's hash: each call mixes a 32-bit word with a running constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


class _PCG64:
    """numpy's ``default_rng(seed)`` in pure Python, draw for draw.

    SeedSequence mixes the seed's 32-bit words into a four-word pool and
    expands it to the 128-bit state and increment of PCG64 (O'Neill 2014),
    whose 64-bit outputs are XSL-RR.  ``integers(p, n)`` is numpy's
    ``integers(0, p, size=n)``: Lemire's bounded draw on the 32-bit halves
    of the outputs, low half first.  A pending high half stays with the
    generator from one call to the next, as in numpy.
    """

    def __init__(self, seed: int):
        entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        expand = _hasher(0x8B51F9DD, 0x58F38DED)
        words = [expand(pool[i % 4]) for i in range(8)]
        # eight 32-bit words, read as four little-endian 64-bit ones
        s0, s1, i0, i1 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._high = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        x, r = (s >> 64 ^ s) & _MASK64, s >> 122
        return (x >> r | x << (64 - r)) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            high, self._high = self._high, None
            return high
        x = self._next64()
        self._high = x >> 32
        return x & _MASK32

    def integers(self, p: int, n: int) -> list[int]:
        out = []
        for _ in range(n):
            m = self._next32() * p
            if m & _MASK32 < p:
                threshold = (2**32 - p) % p
                while m & _MASK32 < threshold:
                    m = self._next32() * p
            out.append(m >> 32)
        return out


def _seeded_rng(p: int, seed: int) -> _PCG64:
    if p > _PRIME_CAP:
        raise ResourceError(f"the scan caps the prime at {_PRIME_CAP}, got {p}")
    PrimeField(p)  # refuses anything but an odd prime
    if seed < 0:
        raise DomainError(f"need a non-negative seed, got {seed}")
    return _PCG64(seed)


def random_symmetric_matrix(p: int, seed: int) -> SymmetricLinearMatrix:
    """Uniformly random linear forms in the upper triangle.

    The rank-2 locus of such a matrix is ten points over the algebraic
    closure, but Frobenius mixes them, so the scan typically sees only a
    few of them; use :func:`random_symmetroid_matrix` when the full ten-point
    locus should be visible over F_p.
    """
    coeffs = _seeded_rng(p, seed).integers(p, 40)
    return SymmetricLinearMatrix(p, tuple(tuple(coeffs[4 * k:4 * k + 4]) for k in range(10)))


def random_symmetroid_matrix(p: int, seed: int) -> SymmetricLinearMatrix:
    """Seeded random symmetroid whose ten rank-2 points are all F_p-rational.

    Draws six random points of P^3(F_p), no four coplanar (those give a
    positive-dimensional locus), and takes the four-dimensional web of
    quadrics through them, written as a symmetric matrix pencil.  That one
    check suffices: four rows that include a zero point have rank below 4,
    and six points with no four coplanar impose independent conditions on
    quadrics (for each point, a plane through three of the other five times
    a plane through the last two that misses the point).  The rank-2
    members of the web are the quadrics splitting into two planes of three
    points each, one per 3+3 partition, so the scan finds all ten.
    """
    rng = _seeded_rng(p, seed)
    if p == 3:
        raise DomainError("P^3(F_3) has no six points with no four coplanar (at most five)")
    field = PrimeField(p)
    while True:
        pts = [tuple(rng.integers(p, 4)) for _ in range(6)]
        if any(exact_rank(ExactMatrix(field, quad)) < 4 for quad in combinations(pts, 4)):
            continue  # four coplanar points, or the zero vector
        rows = tuple(tuple(pt[i] * pt[j] for i, j in QUADRIC_MONOMIALS) for pt in pts)
        web_basis = nullspace_basis(ExactMatrix(field, rows))
        # the symmetric matrix of quadric q: q[m] on the diagonal, q[m] / 2 off it
        inv2 = pow(2, -1, p)
        coeffs = tuple(
            tuple(q[m] if i == j else q[m] * inv2 % p for q in web_basis)
            for m, (i, j) in enumerate(QUADRIC_MONOMIALS)
        )
        return SymmetricLinearMatrix(p, coeffs)
