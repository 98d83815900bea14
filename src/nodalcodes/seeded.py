"""Seeded symmetric matrices of linear forms for the symmetroid scan.

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

from itertools import combinations

from .errors import DataError, DomainError, ResourceError
from .fields import PrimeField
from .linalg import ExactMatrix, exact_rank, nullspace_basis
from .symmetroid import _PRIME_CAP, QUADRIC_MONOMIALS, SymmetricLinearMatrix

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
    # the type first: the cap's comparison would raise TypeError on a str or None
    if isinstance(p, bool) or not isinstance(p, int):
        raise DataError(f"prime must be an integer, got {p!r}")
    if p > _PRIME_CAP:
        raise ResourceError(f"the scan caps the prime at {_PRIME_CAP}, got {p}")
    PrimeField(p)  # refuses anything but an odd prime
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DataError(f"seed must be an integer, got {seed!r}")
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
