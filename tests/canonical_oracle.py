"""Row-based canonical-form search and the list-based pivot, kept for
tests only.

The library searches on the sorted values of the remaining support
columns.  This older search keeps the generator rows instead: after each
pivot it re-reduces the free rows, reads every remaining column top-down
into a fingerprint, and memoizes on the sorted fingerprints.  Both must
give the same encoding, since the RREF under a fixed column order is
unique.
"""

from __future__ import annotations

from typing import Iterable

from nodalcodes.codes import EvenSetCode
from nodalcodes.codes import bit_rref


def pivot(cols: Iterable[int], f: int, t: int) -> tuple[int, ...]:
    """The sorted remaining column values after the pivot on a column of
    value f at bit t, rebuilt from the columns: move f's highest free bit h
    to bit t (a row swap), clear f's other bits from the rows (XOR
    f ^ 1 << h into every column with bit t), then drop the pivot column."""
    h = (f & ((2 << t) - 1)).bit_length() - 1
    bit, x = 1 << t, f ^ (1 << h)
    if h != t:
        swap = (1 << h) | bit
        cols = [c ^ swap if (c >> h ^ c >> t) & 1 else c for c in cols]
    out = [c ^ x if c & bit else c for c in cols]
    out.remove(bit)
    out.sort()
    return tuple(out)


def _freeze_free(rows: list[int], npiv: int) -> list[int]:
    # canonical basis for the not-yet-pivoted rows, so equal states collide
    return rows[:npiv] + bit_rref(rows[npiv:])


def _fingerprints(rows: list[int], columns: list[int]) -> list[int]:
    # column c read top-down as an integer, first row most significant
    fps = [0] * len(columns)
    for r in rows:
        fps = [fp << 1 | (r >> c) & 1 for fp, c in zip(fps, columns)]
    return fps


def _column_step(rows: list[int], npiv: int, k: int, col: int):
    piv_idx = None
    for i in range(npiv, k):
        if (rows[i] >> col) & 1:
            piv_idx = i
            break
    if piv_idx is None:
        val = 0
        for i in range(npiv):
            if (rows[i] >> col) & 1:
                val |= 1 << (k - 1 - i)
        return val, rows, npiv
    new = list(rows)
    new[piv_idx], new[npiv] = new[npiv], new[piv_idx]
    piv = new[npiv]
    for i in range(k):
        if i != npiv and (new[i] >> col) & 1:
            new[i] ^= piv
    return 1 << (k - 1 - npiv), _freeze_free(new, npiv + 1), npiv + 1


def _min_completion(
    rows: list[int], npiv: int, remaining: list[int], k: int, memo: dict
) -> tuple:
    if not remaining:
        return ()
    fps = _fingerprints(rows, remaining)
    key = (k, npiv, tuple(sorted(fps)))
    hit = memo.get(key)
    if hit is not None:
        return hit
    group_reps: dict[int, int] = {}
    for fp, c in zip(fps, remaining):
        group_reps.setdefault(fp, c)
    free_mask = (1 << (k - npiv)) - 1
    candidates = []
    for fp, rep in group_reps.items():
        val = (1 << (k - 1 - npiv)) if fp & free_mask else fp
        candidates.append((val, rep))
    min_val = min(v for v, _ in candidates)
    best = None
    for val, rep in candidates:
        if val != min_val:
            continue
        _, rows2, npiv2 = _column_step(rows, npiv, k, rep)
        tail = _min_completion(
            rows2, npiv2, [c for c in remaining if c != rep], k, memo
        )
        full = (min_val,) + tail
        if best is None or full < best:
            best = full
    memo[key] = best
    return best


def canonical_encoding(code: EvenSetCode) -> tuple[int, ...]:
    """The canonical encoding of ``code`` by the row-based search."""
    mu = code.mu
    basis = list(code.basis)
    k = len(basis)
    if k == 0:
        return (mu, 0)
    parity_val, rows, npiv = _column_step(_freeze_free(basis, 0), 0, k, mu)
    tail = _min_completion(rows, npiv, list(range(mu)), k, {})
    return (mu, k, parity_val) + tail
