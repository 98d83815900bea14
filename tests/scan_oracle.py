"""The scanner's dict polynomial ring, a root search and an all-minors
rank test, kept for tests only.

The library packs each linear form of a matrix into one int, its
variables at fixed slots of a width sized to p, and expands the
determinant with the even and the odd permutations kept apart
(``symmetroid._packed_det``).
Here a polynomial is a dict ``{exponents: coefficient mod p}`` and the
determinant is the cofactor expansion along the first row, one dict
product at a time.  The library reads the roots of a quartic on a line
off divisibility flags (``symmetroid._flag_roots``); here every u is
tried.  The library packs the degree-9 polynomial that screens the roots
of the plane pass (``symmetroid._node_filter``); here it is the same
adjugate column and minor, expanded in the dict ring.  The library
decides rank <= 2 from the adjugate's columns
(``symmetroid._cofactor_kernel``); here each of the ten distinct 3x3
minors of the symmetric matrix is expanded on its own.
"""

from __future__ import annotations

from itertools import combinations

# (rows, cols) of the ten distinct 3x3 minors of a symmetric 4x4 matrix: the
# minor on (rows, cols) equals the one on (cols, rows)
_TRIPLES = tuple(combinations(range(4), 3))
_MINORS = tuple((rows, cols) for n, rows in enumerate(_TRIPLES) for cols in _TRIPLES[n:])


def linear(coefficients) -> dict:
    """The form sum_i c_i x_i, one exponent vector per variable."""
    n = len(coefficients)
    return {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coefficients) if c}


def mul(f: dict, g: dict, p: int) -> dict:
    h = {}
    for e, a in f.items():
        for d, b in g.items():
            k = tuple(s + t for s, t in zip(e, d))
            h[k] = (h.get(k, 0) + a * b) % p
    return h


def det(rows, p: int) -> dict:
    """The determinant of a square matrix of polynomials, by the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = {}
    for k, entry in enumerate(rows[0]):
        if entry:
            minor = det([r[:k] + r[k + 1:] for r in rows[1:]], p)
            for e, c in mul(entry, minor, p).items():
                total[e] = (total.get(e, 0) - c if k % 2 else total.get(e, 0) + c) % p
    return {e: c for e, c in total.items() if c}


def node_filter(plane, forms, p: int) -> dict:
    """R(a, b, u), the principal 3x3 minor off index 0 of M(x) at x =
    column 0 of adj A(a, b, 0, u): ``plane`` is A(x, y, 0, w) as rows of
    (x, y, w) coefficients and ``forms[i][j]`` holds the (x, y, z, w)
    coefficients of M's entry (i, j)."""
    rows = [[linear(f) for f in row] for row in plane[1:]]
    column = [det([r[:j] + r[j + 1:] for r in rows], p) for j in range(4)]

    def entry(f):
        total = {}
        for j, (c, x) in enumerate(zip(f, column)):
            for e, t in mul({(0, 0, 0): (-1) ** j * c}, x, p).items():
                total[e] = (total.get(e, 0) + t) % p
        return {e: t for e, t in total.items() if t}

    return det([[entry(forms[r][c]) for c in (1, 2, 3)] for r in (1, 2, 3)], p)


def roots(coefficients, p: int) -> list[int]:
    """The u in F_p where sum_l c_l u^l vanishes, by trying each."""
    return [u for u in range(p) if not sum(c * u**l for l, c in enumerate(coefficients)) % p]


def _det3(m, rows, cols) -> int:
    """The 3x3 minor of an integer matrix on the given rows and columns, unreduced."""
    (r1, r2, r3), (c1, c2, c3) = rows, cols
    return (
        m[r1][c1] * (m[r2][c2] * m[r3][c3] - m[r2][c3] * m[r3][c2])
        - m[r1][c2] * (m[r2][c1] * m[r3][c3] - m[r2][c3] * m[r3][c1])
        + m[r1][c3] * (m[r2][c1] * m[r3][c2] - m[r2][c2] * m[r3][c1])
    )


def minors_vanish_at(matrix, point) -> bool:
    """Pure-integer check that all sixteen 3x3 minors of a
    ``SymmetricLinearMatrix`` vanish at a point (the matrix is symmetric,
    so ten of them decide)."""
    m = matrix.evaluate(point)
    return not any(_det3(m, rows, cols) % matrix.prime for rows, cols in _MINORS)
