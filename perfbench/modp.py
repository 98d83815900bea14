"""Arithmetic modulo a prime on plain lists of ints.

The benchmark builds its inputs and checks the library's answers with
these routines, so no check depends on the code it is checking.
"""

from __future__ import annotations


def rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p and its pivot columns."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        prow = [x * inv % p for x in rows[r]]
        rows[r] = prow
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    return len(rref_mod_p(rows, p)[1])


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel mod p."""
    ncols = len(rows[0])
    red, pivots = rref_mod_p(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for i, c in enumerate(pivots):
            vec[c] = -red[i][fc] % p
        basis.append(vec)
    return basis


def normalize(point, p: int) -> tuple[int, ...]:
    """Projective representative whose first nonzero coordinate is 1."""
    first = next(c for c in point if c % p)
    inv = pow(first, -1, p)
    return tuple(c * inv % p for c in point)


def projective_points(p: int):
    """Every point of P^3(F_p), normalized."""
    r = range(p)
    yield (0, 0, 0, 1)
    for c in r:
        yield (0, 0, 1, c)
    for b in r:
        for c in r:
            yield (0, 1, b, c)
    for a in r:
        for b in r:
            for c in r:
                yield (1, a, b, c)
