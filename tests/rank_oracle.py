"""Reference paths of the rank pipeline, kept for tests only.

The library packs each row mod p into one int, certifies ranks over Q
with lifted kernel vectors, and builds evaluation matrices from powers of
integer coordinates.  Gauss-Jordan, fraction-free Bareiss elimination
over Z, the elimination on lists of residues and the builder below, one
product at a time, are the slow paths the tests check the fast ones
against.
"""

from __future__ import annotations

from typing import Sequence

from nodalcodes.linalg import ExactMatrix, _eliminate
from nodalcodes.nodes import NodeConfiguration, monomial_basis


def rank_and_rref(m: ExactMatrix) -> tuple[int, ExactMatrix]:
    """Rank and the unique reduced row echelon form of ``m``, by Gauss-Jordan."""
    rows, pivots = _eliminate(m)
    return len(pivots), ExactMatrix(m.field, tuple(tuple(r) for r in rows))


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
