"""Exact matrix rank, kernels, and F2 row reduction.

:func:`exact_rank` works on plain Python integers.  Over F_p it runs
echelon elimination on rows packed into one int each, in slots wide
enough that the unreduced updates never carry from one column into the
next.  Over Q it clears each row's denominators and takes the rank mod
the fixed prime 2^61 - 1: that rank is a lower bound, and when it is
min(rows, cols) it is the answer; otherwise fraction-free Bareiss
elimination over Z decides.  :func:`nullspace_basis` runs Gauss-Jordan
over Q or F_p with Python's operators, each result passed through the
field's ``reduce``.  :func:`bit_rref` reduces generator matrices of binary
codes, one int per row.  Everything is pure: operations never mutate their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DataError
from .fields import Field, PrimeField, Scalar

# the one prime of the certified rank over Q (a Mersenne prime)
_Q_PRIME = 2**61 - 1


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with entries in a single exact field."""

    field: Field
    entries: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "ExactMatrix":
        validated = []
        width = None
        for row in rows:
            vr = tuple(field.validate(a) for a in row)
            if width is None:
                width = len(vr)
            elif len(vr) != width:
                raise DataError("ragged matrix: rows have different lengths")
            validated.append(vr)
        return cls(field, tuple(validated))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


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


def nullspace_basis(m: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel; returns ``ncols - rank`` vectors."""
    f = m.field
    rows, pivots = _eliminate(m)
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    free_cols = [c for c in range(m.ncols) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        vec = [f.zero] * m.ncols
        vec[fc] = f.one
        for c, i in pivot_of_col.items():
            vec[c] = f.reduce(-rows[i][fc])
        basis.append(tuple(vec))
    return basis


def _pack(values, w: int) -> int:
    """One int holding ``values`` in w-bit slots, the first in the lowest."""
    u = 0
    for a in reversed(values):
        u = (u << w) | a
    return u


def _rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of rows of residues in [0, p) by echelon elimination mod p.

    Each row is packed into one Python int, column j in the w-bit slot at
    bit j*w, and the current column is always the lowest slot.  The pivot
    row is unpacked once and normalised by -1/lead mod p, so every other
    row with lead f is updated by the single big-int step
    ``(u >> w) + f * prow``.  Slots are never reduced: one starts below p
    and gains at most (p-1)^2 per pivot, so with
    ``w = (p + min(m, n)*(p-1)^2).bit_length()`` no slot carries into the
    next, and only ``(u & mask) % p`` is ever read.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return 0
    w = (p + min(len(rows), ncols) * (p - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    packed = [_pack(row, w) for row in rows]
    rank = 0
    for cols in range(ncols, 0, -1):
        leads = [(u & mask) % p for u in packed]
        i = next((i for i, f in enumerate(leads) if f), None)
        if i is None:
            packed = [u >> w for u in packed]
            continue
        scale = p - pow(leads.pop(i), -1, p)
        tail = packed.pop(i) >> w
        prow = _pack([((tail >> s) & mask) * scale % p for s in range(0, (cols - 1) * w, w)], w)
        packed = [(u >> w) + f * prow if f else u >> w for u, f in zip(packed, leads)]
        rank += 1
        if not packed:
            break
    return rank


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
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


def _integer_rows(entries: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each rational row by its denominators' lcm; the rank is unchanged."""
    rows = []
    for row in entries:
        scale = lcm(*(a.denominator for a in row))
        rows.append([a.numerator * (scale // a.denominator) for a in row])
    return rows


def exact_rank(m: ExactMatrix) -> int:
    """Exact rank on plain integers.

    Over F_p: packed-row elimination mod p.  Over Q: clear each row's
    denominators, then take the rank of the integer rows mod
    :data:`_Q_PRIME`.  A minor that is nonzero mod a prime is nonzero over
    Z, so that rank is a lower bound for the rational one, and no
    denominator can vanish mod the prime because none is left.  When it
    reaches min(rows, cols) it is the rank; otherwise fraction-free
    Bareiss elimination over Z decides it.
    """
    if isinstance(m.field, PrimeField):
        return _rank_mod_p(m.entries, m.field.p)
    rows = _integer_rows(m.entries)
    rank = _rank_mod_p([[a % _Q_PRIME for a in row] for row in rows], _Q_PRIME)
    if rank == min(m.nrows, m.ncols):
        return rank
    return _bareiss(rows)[0]


def bit_rref(rows: Iterable[int]) -> list[int]:
    """Fully reduced F2 basis of the span, sorted by leading bit descending."""
    basis: dict[int, int] = {}
    for v in rows:
        cur = v
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                for lb, row in basis.items():
                    if (row >> lead) & 1:
                        basis[lb] = row ^ cur
                basis[lead] = cur
                break
    return sorted(basis.values(), reverse=True)
