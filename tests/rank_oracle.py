"""Reference paths of the rank pipeline, kept for tests only.

The library packs each row mod p into one int and inserts the rows one
at a time, certifies ranks and kernels over Q with lifted kernel vectors,
and builds evaluation matrices from powers of integer coordinates.
Gauss-Jordan (for the rank, the reduced row echelon form and the kernel
basis), fraction-free Bareiss elimination over Z, the elimination on
lists of residues, the packed column sweep that the row insertion
replaced, and the builder below, one product at a time, are the slow
paths the tests check the fast ones against.
"""

from __future__ import annotations

from typing import Sequence

from nodalcodes.fields import Scalar
from nodalcodes.linalg import ExactMatrix, _slot_codec, _slot_width
from nodalcodes.nodes import NodeConfiguration, monomial_basis


def _bit_size(a: Scalar) -> int:
    return a.numerator.bit_length() + a.denominator.bit_length()


def _eliminate(m: ExactMatrix) -> tuple[list[list], list[int]]:
    """Full Gauss-Jordan reduction; returns (reduced rows, pivot columns)."""
    f = m.field
    rows = [list(r) for r in m.entries]
    nrows, ncols = len(rows), m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if rows[i][c] != 0]
        if not candidates:
            continue
        # the first pivot with the fewest numerator and denominator bits, to
        # limit coefficient growth over Q (an int has denominator 1)
        i = min(candidates, key=lambda i: _bit_size(rows[i][c]))
        rows[r], rows[i] = rows[i], rows[r]
        inv = f.inverse(rows[r][c])
        rows[r] = [f.reduce(inv * v) for v in rows[r]]
        for j in range(nrows):
            factor = rows[j][c]
            if j != r and factor != 0:
                rows[j] = [f.reduce(a - factor * b) for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_and_rref(m: ExactMatrix) -> tuple[int, ExactMatrix]:
    """Rank and the unique reduced row echelon form of ``m``, by Gauss-Jordan."""
    rows, pivots = _eliminate(m)
    return len(pivots), ExactMatrix(m.field, tuple(tuple(r) for r in rows))


def gauss_jordan_nullspace(m: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Kernel basis read off the reduced row echelon form: one vector per
    free column, 1 there, 0 at the other free columns."""
    f = m.field
    rows, pivots = _eliminate(m)
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivot_of_col):
        vec = [f.zero] * m.ncols
        vec[fc] = f.one
        for c, i in pivot_of_col.items():
            vec[c] = f.reduce(-rows[i][fc])
        basis.append(tuple(vec))
    return basis


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free elimination over Z (Bareiss, Math. Comp. 22, 1968).

    Returns the rank and the last pivot.  After k pivots every remaining
    entry is the (k+1) x (k+1) minor on the pivot rows and columns plus its
    own row and column, so the division by the previous pivot is exact and
    the last pivot is, up to sign, the determinant of the pivot minor.
    Columns with no nonzero entry left are skipped.
    """
    rows = list(rows)
    rank, prev = 0, 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        pivot, *tail = rows.pop(i)
        for j, row in enumerate(rows):
            f = row[0]
            rows[j] = [(pivot * a - f * b) // prev for a, b in zip(row[1:], tail)]
        rank, prev = rank + 1, pivot
    return rank, prev


def row_list_rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of rows of residues in [0, p) by echelon elimination mod p.

    Each pivot drops its row and column, so rows shrink as the rank grows;
    rows are replaced one at a time, and the loop ends when no row or no
    column is left.
    """
    rows = list(rows)
    rank = 0
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        pivot_row = rows.pop(i)
        inv = pow(pivot_row[0], -1, p)
        pivot_row = [b * inv % p for b in pivot_row[1:]]
        for j, row in enumerate(rows):
            f = row[0]
            rows[j] = [(a - f * b) % p for a, b in zip(row[1:], pivot_row)] if f else row[1:]
        rank += 1
    return rank


def column_sweep_echelon(rows: Sequence[Sequence[int]], p: int) -> list[tuple[int, int]]:
    """The pivots of ``linalg._echelon_mod_p``, by a sweep over the columns.

    All rows are packed at once, in the same slots.  At each column the
    first remaining row with a nonzero lead becomes the pivot row, and
    every other row is updated by ``(u >> w) + f * prow``, even after the
    rank is settled.  Returns (column, prow) pairs in column order.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return []
    w = _slot_width(p, len(rows), ncols)
    mask = (1 << w) - 1
    pack, unpack = _slot_codec(w)
    packed = [pack([a % p for a in row]) for row in rows]
    pivots = []
    for c in range(ncols):
        leads = [(u & mask) % p for u in packed]
        for i, f in enumerate(leads):
            if f:
                break
        else:
            packed = [u >> w for u in packed]
            continue
        scale = p - pow(leads.pop(i), -1, p)
        prow = pack([a * scale % p for a in unpack(packed.pop(i) >> w, ncols - c - 1)])
        pivots.append((c, prow))
        if not packed:
            break
        packed = [(u >> w) + f * prow if f else u >> w for u, f in zip(packed, leads)]
    return pivots


def field_evaluation_matrix(cfg: NodeConfiguration, d: int) -> ExactMatrix:
    """Degree-d monomials at the nodes, one product at a time, mod p over F_p."""
    p = cfg.field.characteristic

    def mul(a, b):
        return a * b % p if p else a * b

    basis = monomial_basis(d)
    rows = []
    for pt in cfg.points:
        powers = []
        for coord in pt:
            table = [cfg.field.one]
            for _ in range(d):
                table.append(mul(table[-1], coord))
            powers.append(table)
        px, py, pz, pw = powers
        rows.append([mul(mul(px[i], py[j]), mul(pz[k], pw[l])) for i, j, k, l in basis])
    return ExactMatrix.from_rows(cfg.field, rows)
