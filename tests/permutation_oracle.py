"""Explicit node permutations, kept for tests only.

The library never applies a permutation: canonical forms minimize over
column orders, and the classifier reduces candidates by an orbit key packed
into one int.  The tests still permute codes to check invariance.  Two
oracles check the classifier's key: the explicit orbit search below, and
the key as a tuple of popcounts, which cannot overflow at any mu.  The
same orbit search, applied to whole cosets, checks the classifier's coset
key.
"""

from __future__ import annotations

from nodalcodes.codes import EvenSetCode


def apply_node_permutation(word_ext: int, perm: tuple[int, ...], mu: int) -> int:
    """Permute support bits of an extended word; the parity bit stays."""
    out = word_ext & (1 << mu)
    rest = word_ext & ((1 << mu) - 1)
    while rest:
        low = rest & -rest
        out |= 1 << perm[low.bit_length() - 1]
        rest ^= low
    return out


def permuted_code(code: EvenSetCode, perm: tuple[int, ...]) -> EvenSetCode:
    return EvenSetCode(
        code.mu, tuple(apply_node_permutation(g, perm, code.mu) for g in code.basis)
    )


def column_transpositions(code: EvenSetCode) -> list[tuple[int, ...]]:
    """Transpositions of support columns identical in every codeword."""
    mu, basis = code.mu, code.basis
    groups: dict[tuple[int, ...], list[int]] = {}
    for c in range(mu):
        column = tuple((g >> c) & 1 for g in basis)
        groups.setdefault(column, []).append(c)
    perms = []
    for cols in groups.values():
        for c in cols[1:]:
            p = list(range(mu))
            p[cols[0]], p[c] = p[c], p[cols[0]]
            perms.append(tuple(p))
    return perms


def orbit(word_ext: int, perms: list[tuple[int, ...]], mu: int) -> set[int]:
    """The orbit of a word under the group ``perms`` generate, closed one
    permutation at a time."""
    seen = {word_ext}
    frontier = [word_ext]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = apply_node_permutation(x, p, mu)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def searched_orbit_representatives(
    candidates: list[int], perms: list[tuple[int, ...]], mu: int
) -> list[int]:
    """The first candidate of each orbit, found by closing every new
    candidate's orbit under ``perms``."""
    seen: set[int] = set()
    reps = []
    for w in candidates:
        if w not in seen:
            seen |= orbit(w, perms, mu)
            reps.append(w)
    return reps


def searched_coset_representatives(
    words: list[int], span: list[int], perms: list[tuple[int, ...]], mu: int
) -> list[int]:
    """The first word of each orbit of cosets ``w + span`` under ``perms``,
    which must fix every word of ``span``.  The cosets in the orbit of
    ``w + span`` cover exactly the words ``p(w) ^ s``, so a later word
    shares the orbit iff it is one of them."""
    seen: set[int] = set()
    reps = []
    for w in words:
        if w not in seen:
            seen |= {x ^ s for x in orbit(w, perms, mu) for s in span}
            reps.append(w)
    return reps


def popcount_orbit_representatives(
    candidates: list[int], basis: tuple[int, ...], mu: int
) -> list[int]:
    """The first candidate of each orbit, keyed by the tuple of the word's
    popcounts inside each class of support columns identical across
    ``basis``, and its parity bit."""
    classes: dict[tuple[int, ...], int] = {}
    for c in range(mu):
        column = tuple((g >> c) & 1 for g in basis)
        classes[column] = classes.get(column, 0) | 1 << c
    masks = [*classes.values(), 1 << mu]
    reps: dict[tuple[int, ...], int] = {}
    for w in candidates:
        reps.setdefault(tuple([(w & m).bit_count() for m in masks]), w)
    return list(reps.values())
