"""Finite-field search for the rank-2 locus of symmetric matrices of linear forms.

A symmetric 4x4 matrix of linear forms M(x) = x M_x + y M_y + z M_z + w M_w
cuts out a quartic symmetroid (its determinant); the locus in P^3 where the
matrix drops to rank <= 2 is the symmetroid's distinguished even set of ten
nodes.  Over F_p that locus is found by kernel incidence (see
:func:`scan_nodes_fp`): the kernels of the singular A(v) = [M_x v | M_y v |
M_z v | M_w v] on the plane v_z = 0 hold every rank <= 2 point.  Packed
ints, all in slots of one width sized to p (:func:`_flag_slots`), give
column 0 of adj A, det A off it and its p^2 values on that whole plane,
with no residue per value, not the p^3 points of P^3.  One principal 3x3
minor of M(x) decides each kernel point x, and the same minor at that
column, one packed degree-9 polynomial on the plane, screens the about p
singular points v before any 4x4 work.  When det A vanishes on the plane,
a cubic 3x3 minor is solved on each of the p^2 + p + 1 lines through
(0:0:0:1) instead.  The no-quadric certificate is the dimension of the
quadrics through the ten nodes, the defect computation for b = 4.  More
than ten points prove a positive-dimensional locus, by the Harris-Tu
degree bound (:data:`MAX_FINITE_LOCUS`).  The outcome is finite-field
evidence, labeled as such: nothing here claims a characteristic-0 proof.
Seeded matrices to scan come from :mod:`nodalcodes.seeded`.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import DataError, DomainError, ResourceError, json_fields, read_json
from .fields import PrimeField
from .forms import HomogeneousForm, parse_form
from .linalg import ExactMatrix, _slot_bits, _slot_codec, nullspace_basis
from .nodes import NodeConfiguration, defect_from_nodes
from .record import Record

_PRIME_CAP = 1024  # bounds the line fallback's time; no slot width depends on it

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
        field = PrimeField(self.prime)  # refuses anything but an odd prime
        if len(self.coefficients) != 10:
            raise DataError("expected 10 upper-triangle linear forms")
        object.__setattr__(
            self,
            "coefficients",
            tuple(tuple(field.validate(c) for c in row) for row in self.coefficients),
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


def _signed_det(rows) -> tuple[int, int]:
    """det = P - N of a 3x3 matrix as (P, N), its even and odd terms summed apart."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * e * i + b * f * g + c * d * h, c * e * g + a * f * h + b * d * i


def _packed_det(rows, slots, p: int) -> list[int]:
    """The coefficients mod p, by slot, of det = P - N of a 3x3 matrix of
    linear forms packed with x, y, ... in the w-bit slots ``slots`` of
    :func:`_flag_slots` (Kronecker): P and N sum the products over the even
    and the odd permutations, so no slot borrows, and stay below 3! 3! (p-1)^3."""
    w = _flag_slots(p)[1]
    _, unpack = _slot_codec(w)
    plus, minus = (unpack(q, 3 * max(slots) + 1) for q in _signed_det(
        [[sum(c << w * s for c, s in zip(f, slots)) for f in row] for row in rows]))
    return [(s - t) % p for s, t in zip(plus, minus)]


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
    """For any 4x4 integer matrix A mod p: None exactly when rank A <= 2,
    else a nonzero column of adj(A), unscaled, which at rank 3 spans the
    kernel.

    adj(A) is zero exactly when all sixteen 3x3 minors vanish.  At rank 3,
    A adj(A) = det(A) I = 0 and adj(A) has rank 1, so it spans ker A.
    Column i holds the signed 3x3 minors of A with row i deleted; its four
    minors, expanded along their first row, share the six 2x2 minors of
    the other two rows.
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
        if any(x):
            return x
    return None


def _flag_slots(p: int) -> tuple[int, int]:
    """(k, w) of :func:`_flag_roots`; w = :func:`_slot_bits` (5 p^2 2^k) sizes
    every packed slot of the scan: 2^w > 25 p^2 (p-1)^2 bounds 12 (p-1)^2
    (det A), 36 (p-1)^3 (minors), 300 (p-1)^3 (R) at p > 7; 16 bits at p <= 7."""
    k = (5 * (p - 1) ** 2).bit_length()
    return k, _slot_bits(5 * p * p << k)


def _flag_roots(quartics, powers, p: int):
    """(b, u) for each root u in F_p of each quartics[b] = (c_0, ..., c_4),
    c_l < p, with powers[l] the values t^l mod p for t = 0..p-1 packed in
    w-bit slots, (k, w) = :func:`_flag_slots` (p).  Slot t then holds
    s p^-1, s = sum_l c_l u^l and p^-1 mod 2^k.  Premises: s <= 5 (p-1)^2 <
    2^k, so p | s iff s p^-1 mod 2^k <= (2^k - 1) // p (Granlund and
    Montgomery, PLDI 1994); and s p^-1 < 5 p^2 2^k <= 2^w with w - k >= 8,
    so no slot carries, a bias carries into bit k of every slot but the
    roots', and after >> k byte 0 of each slot is that flag, with no
    residue computed."""
    k, w = _flag_slots(p)
    inverse, top, ones = pow(p, -1, 1 << k), (1 << k) - 1, powers[0]
    q0, q1, q2, q3, q4 = (q * inverse for q in powers)
    low, bias, n = ones * top, ones * (top - top // p), w // 8
    for b, (c0, c1, c2, c3, c4) in enumerate(quartics):
        flags = ((c0 * q0 + c1 * q1 + c2 * q2 + c3 * q3 + c4 * q4 & low) + bias >> k).to_bytes(n * p, "little")[::n]
        u = flags.find(0)
        while u >= 0:
            yield b, u
            u = flags.find(0, u + 1)


def _plane_det(row, minors, p: int) -> list[int]:
    """det A(x, y, 0, w) mod p, y^j w^l x^(4-j-l) in slot j + 10 l, off column
    0 of adj A: sum_j a_0j x_j, ``row`` = a_0 as (x, y, w) coefficients and
    x_j = (-1)^j minors[j], the minor of rows 1..3 off column j at slots
    (0, 1, 10).  Odd a_0j are negated mod p, so a slot (:func:`_flag_slots`)
    sums at most 4 * 3 nonnegative products of two residues."""
    w = _flag_slots(p)[1]
    pack, unpack = _slot_codec(w)
    total = sum((f0 | f1 << w | f2 << 10 * w) * pack(m) for (f0, f1, f2), m in zip(
        (row[0], [-c % p for c in row[1]], row[2], [-c % p for c in row[3]]), minors))
    return [c % p for c in unpack(total, 41)]


def _node_filter(minors, forms, p: int) -> list[int]:
    """The coefficients mod p of R(1, b, u), b^j u^l in slot j + 10 l: the
    principal 3x3 minor off index 0 of M(x) at x = column 0 of adj A(v),
    v = (1, b, 0, u), with x_j = (-1)^j minors[j] as in :func:`_plane_det`.
    Each entry m_rc = sum_j M_rc,j x_j of M(x) is reduced mod p before the
    symmetric minor is expanded by :func:`_signed_det`, its signs summed
    apart: a slot of either sum stays below 3 * 100 * (p-1)^3 < 2^w
    (:func:`_flag_slots`), three products of three cubics of ten slots,
    whose first two slots fix the third.  Where det A(v) = 0, x lies in
    ker A(v): R(v) = 0 if x = 0, else ker A(v) is the point x and, as
    v_0 = 1, R(v) = 0 exactly when rank M(x) <= 2 (:func:`_rank_two_in_kernel`).
    So R(v) != 0 proves that ker A(v) holds no rank <= 2 point."""
    x_by_slot = list(zip(*minors))
    pack, unpack = _slot_codec(_flag_slots(p)[1])
    m11, m12, m13, m22, m23, m33 = (
        pack([(f0 * x0 - f1 * x1 + f2 * x2 - f3 * x3) % p for x0, x1, x2, x3 in x_by_slot])
        for f0, f1, f2, f3 in (forms[1][1], forms[1][2], forms[1][3], forms[2][2], forms[2][3], forms[3][3]))
    signed = _signed_det(((m11, m12, m13), (m12, m22, m23), (m13, m23, m33)))
    return [(s - t) % p for s, t in zip(*(unpack(q, 91) for q in signed))]


def _on_every_line(polynomials, powers, p: int) -> list[tuple[int, ...]]:
    """For each b = 0..p-1, the values mod p at b of the polynomials, each a
    list of at most ten coefficients c_j of b^j, c_j < p, with powers[j] =
    t^j mod p in slot t of w bits, (k, w) = :func:`_flag_slots` (p): each
    slot stays below 10 (p-1)^2 < 2^(k+1) <= 2^w."""
    _, unpack = _slot_codec(_flag_slots(p)[1])
    return list(zip(*([s % p for s in unpack(sum(c * q for c, q in zip(coefficients, powers)), p)]
                      for coefficients in polynomials)))


def _plane_points(matrix: SymmetricLinearMatrix, forms) -> set | None:
    """The rank <= 2 points in the kernels of the singular A(v) on the plane
    v_z = 0 that the node filter passes; None if det A vanishes on the
    plane.

    The minors of rows 1..3 of A give det A (:func:`_plane_det`) and R
    (:func:`_node_filter`).  det A(a, b, 0, u) = sum_l u^l g_l(a, b), g_l of
    degree 4 - l.  With t^k mod p for t = 0..p-1 packed once in the slots of
    :func:`_flag_slots`, one int per k, one sum of products gives g_l(1, b)
    at every b; :func:`_flag_roots` finds the roots of the quartic on each
    line (1, b, 0) + u (0:0:0:1), and on the line (0, 1, 0) from the leading
    coefficients.  A root (1, b, 0, u) goes on only where R vanishes, its
    coefficients in u on every line taken in the same way; the line
    (0, 1, 0) and (0:0:0:1) always go on.  A rank-3 A(v) has its kernel read
    off the adjugate (:func:`_cofactor_kernel`), a rank <= 2 one by
    elimination, and :func:`_rank_two_in_kernel` decides each point of it."""
    p = matrix.prime
    # A(e_j) flat, row-major: A(v)[i][k] = (M_k v)_i = sum_j forms[i][j][k] v_j
    a_x, a_y, _, a_w = ([forms[i][j][k] for i in range(4) for k in range(4)] for j in range(4))
    entries = list(zip(a_x, a_y, a_w))
    plane = [entries[4 * i:4 * i + 4] for i in range(4)]
    # x, y, w in slots 0, 1, 10: y^j w^l x^(3-j-l) of each minor in slot j + 10l
    minors = [_packed_det([r[:j] + r[j + 1:] for r in plane[1:]], (0, 1, 10), p) for j in range(4)]
    det = _plane_det(plane[0], minors, p)
    if not any(det):
        return None
    node = _node_filter(minors, forms, p)
    pack, _ = _slot_codec(_flag_slots(p)[1])
    values, powers = [1] * p, []
    for _ in range(10):
        powers.append(pack(values))
        values = [s * t % p for t, s in enumerate(values)]
    g = [det[10 * l:10 * l + 5 - l] for l in range(5)]
    # R(1, b, u) on line b as its coefficients of u^9, ..., u^0, for Horner
    node_lines = _on_every_line([node[10 * l:10 * l + 10 - l] for l in range(9, -1, -1)], powers, p)
    singular = [] if det[40] else [(_W, a_w)]
    for b, u in _flag_roots([*_on_every_line(g, powers, p), [c[-1] for c in g]], powers[:5], p):
        if b < p:
            value = 0
            for c in node_lines[b]:
                value = value * u + c
            if value % p:
                continue
        x, y = (1, b) if b < p else (0, 1)
        singular.append(((x, y, 0, u), [(x * s + y * t + u * r) % p for s, t, r in entries]))
    field = PrimeField(p)
    points = set()
    for v, a in singular:
        rows = (a[:4], a[4:8], a[8:12], a[12:])
        point = _cofactor_kernel(rows, p)
        basis = [point] if point else nullspace_basis(ExactMatrix(field, rows))
        points.update(_rank_two_in_kernel(forms, v, _span_points(basis, p), p))
    return points


def _rank_two_in_kernel(forms, v, candidates, p: int):
    """The candidates x in ker A(v) at which M(x) has rank <= 2: M(x) v =
    A(v) x = 0 and M(x) is symmetric, so at rank 3 adj M(x) is a nonzero
    multiple of v v^T, and the principal minor off any i with v_i != 0
    vanishes exactly at rank <= 2."""
    rows = _DELETE_ONE[next(i for i, s in enumerate(v) if s)]
    upper = [forms[r][c] for n, r in enumerate(rows) for c in rows[n:]]  # of the minor, row-major
    for x0, x1, x2, x3 in candidates:
        a, b, c, d, e, f = [s0 * x0 + s1 * x1 + s2 * x2 + s3 * x3 for s0, s1, s2, s3 in upper]
        plus, minus = _signed_det(((a, b, c), (b, d, e), (c, e, f)))
        if not (plus - minus) % p:
            yield x0, x1, x2, x3


def _line_points(matrix: SymmetricLinearMatrix, forms) -> set:
    """The rank <= 2 points on the p^2 + p + 1 lines through (0:0:0:1).

    On each line the first 3x3 minor not identically zero there is a cubic
    in u, and only its roots, each decided by :func:`_cofactor_kernel`, can
    be rank <= 2 points; when every minor vanishes on the line, all of it is."""
    p = matrix.prime
    # y^j z^k w^l x^i of a minor in slot j + 4k + 16l: its terms (c, i, j, k) by l
    layout = [[(j + 4 * k + 16 * l, 3 - j - k - l, j, k) for j in range(4 - l) for k in range(4 - l - j)]
              for l in range(4)]
    minors = (_packed_det([[forms[i][j] for j in cols] for i in rows], (0, 1, 4, 16), p) for rows, cols in _MINORS)
    minors = [[[(m[s], i, j, k) for s, i, j, k in power if m[s]] for power in layout] for m in minors if any(m)]
    tables = _root_tables(p)
    points = {_W} if _cofactor_kernel(matrix.evaluate(_W), p) is None else set()
    for base in _span_points(_VARIABLES[:3], p):
        a, b, c, _ = base
        for terms in minors:
            cubic = [sum(t * a**i * b**j * c**k for t, i, j, k in power) % p for power in terms]
            if any(cubic):
                line = (base[:3] + (u,) for u in _cubic_roots(cubic, p, tables))
                points.update(x for x in line if _cofactor_kernel(matrix.evaluate(x), p) is None)
                break
        else:
            points.update(base[:3] + (u,) for u in range(p))
    return points


def scan_nodes_fp(matrix: SymmetricLinearMatrix) -> ScanResult:
    """All points of P^3(F_p) where the matrix has rank <= 2, sorted.

    Kernel incidence: M(x) v = A(v) x with A(v) = [M_x v | M_y v | M_z v |
    M_w v].  The kernel of M(x) at a point x of rank <= 2 is at least a
    line, so it meets the plane v_z = 0 in some v with x in ker A(v)
    (:func:`_plane_points`), and one principal minor of M(x) decides x
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
    points = _plane_points(matrix, forms)
    if points is None:
        points = _line_points(matrix, forms)
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
    rank = 10 - defect_from_nodes(NodeConfiguration(4, PrimeField(p), points)).dim_m
    return QuadricCertificate(prime=p, rank=rank, certified=rank == 10)
