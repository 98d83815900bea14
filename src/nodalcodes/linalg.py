"""Exact matrix rank, reduced row echelon form, and kernels.

:func:`exact_rank` works on plain Python integers.  Over F_p it runs
echelon elimination on rows packed into one int each, in slots wide
enough that the unreduced updates never carry from one column into the
next.  Over Q it clears each row's denominators and takes the rank mod
the fixed prime 2^61 - 1: that rank is a lower bound, and when it is
min(rows, cols) it is the answer; otherwise fraction-free Bareiss
elimination over Z decides.  :func:`rank_and_rref` and
:func:`nullspace_basis` run Gauss-Jordan through the field interface over
Q or F_p.  :func:`modular_rank` reduces a rational matrix mod a prime, a
lower bound for its rank.  A packed-bit F2 path serves generator matrices
of binary codes.  Everything is pure: operations never mutate their inputs
and return fresh matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DataError, DomainError, ResourceError, RetryWithNewPrime
from .fields import Field, PrimeField, RationalField, Scalar, is_prime

_BIT_COLS_CAP = 4096

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

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        return cls(
            field,
            tuple(
                tuple(field.one if i == j else field.zero for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        return cls(field, tuple(tuple(field.zero for _ in range(cols)) for _ in range(rows)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


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
        # pick the candidate with the smallest pivot to limit coefficient growth
        best = None
        for i in range(r, nrows):
            if not f.is_zero(rows[i][c]):
                size = f.pivot_size(rows[i][c])
                if best is None or size < best[0]:
                    best = (size, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        inv = f.inverse(rows[r][c])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for j in range(nrows):
            if j != r and not f.is_zero(rows[j][c]):
                factor = rows[j][c]
                rows[j] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_and_rref(m: ExactMatrix) -> tuple[int, ExactMatrix]:
    """Rank and the unique reduced row echelon form of ``m``."""
    rows, pivots = _eliminate(m)
    return len(pivots), ExactMatrix(m.field, tuple(tuple(r) for r in rows))


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
            vec[c] = f.neg(rows[i][fc])
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


def modular_rank(m: ExactMatrix, p: int) -> int:
    """Rank of a rational matrix reduced mod p.

    Always a lower bound for the rational rank.  Raises
    :class:`RetryWithNewPrime` when an entry denominator is divisible by p.
    """
    if not isinstance(m.field, RationalField):
        raise DomainError("modular_rank expects a matrix over the rationals")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    reduced_rows = []
    for row in m.entries:
        rr = []
        for a in row:
            if a.denominator % p == 0:
                raise RetryWithNewPrime(p)
            rr.append(a.numerator * pow(a.denominator, -1, p) % p)
        reduced_rows.append(rr)
    return _rank_mod_p(reduced_rows, p)


def random_30bit_prime(rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(30) | (1 << 29) | 1
        if is_prime(candidate):
            return candidate


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


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over F2 with rows packed into Python ints (bit i = column i)."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.cols > _BIT_COLS_CAP:
            raise ResourceError(f"BitMatrix is capped at {_BIT_COLS_CAP} columns")
        if self.cols < 0:
            raise DataError("negative column count")
        mask = (1 << self.cols) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise DataError("row has bits outside the declared column range")

    @classmethod
    def from_dense(cls, cols: int, rows: Iterable[Sequence[int]]) -> "BitMatrix":
        packed = []
        for row in rows:
            if len(row) != cols:
                raise DataError("row length must equal the column count exactly")
            word = 0
            for i, b in enumerate(row):
                if b % 2:
                    word |= 1 << i
            packed.append(word)
        return cls(cols, tuple(packed))

    @property
    def nrows(self) -> int:
        return len(self.rows)


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


def bit_rank(m: BitMatrix) -> int:
    return len(bit_rref(m.rows))
