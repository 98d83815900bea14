"""The classifier's extension loop before cosets were reduced and before
candidate sets were kept as orbits, kept for tests only.

Each basis carries every candidate word, in the order of
``admissible_words_ext``, and every word-orbit representative extends
it: the child's reduced basis is ``bit_rref`` of the enlarged basis, and
the child's candidates are filtered word by word against a bytearray
that marks the parent's.  The word orbits come from the popcount-tuple
key of ``permutation_oracle``, not from the library's packed key.  The
library keeps one representative per orbit of cosets, builds each
child's basis from its parent's and each child's orbits from its
parent's; it must return the same (canonical form, basis) list, order
included, and the same |Aut| for each class.  This loop searches every
level to its end, and every child, where the library stops a level once
the double count is met and skips a child whose class key a class of its
level already has.  The library's helpers are read through the module, so a test
that counts ``_canonical_form`` calls counts this loop's too.

``greedy_profile`` is the profile string as the library once built it,
by choosing a basis greedily by ascending weight; the library reads the
same multiplicities off ranks.
"""

from __future__ import annotations

import itertools
from collections import Counter

from nodalcodes import classify
from nodalcodes.codes import QUARTIC_WORD_CLASSES, EvenSetCode
from nodalcodes.codes import bit_rref
from permutation_oracle import popcount_orbit_representatives


def admissible_words_ext(mu: int) -> list[int]:
    """Every nonzero word a quartic allows: weak of weight 6 or 10,
    strict of weight 8 or 16, by word class and then in
    ``itertools.combinations`` order."""
    bits = [1 << i for i in range(mu)]
    words = []
    for weight, weak in QUARTIC_WORD_CLASSES:
        if weight > mu:
            continue
        parity_bit = 1 << mu if weak else 0
        words += [s | parity_bit for s in map(sum, itertools.combinations(bits, weight))]
    return words


def marks(words: list[int], mu: int) -> bytearray:
    """A byte per word of the extended range, 1 at each of ``words``."""
    mask = bytearray(2 << mu)
    for w in words:
        mask[w] = 1
    return mask


def enumerate_admissible(mu: int) -> list[tuple[bytes, tuple[int, ...], int]]:
    admissible = admissible_words_ext(mu)
    is_admissible = marks(admissible, mu)
    memo: dict = {}
    seen_spans: set[tuple[int, ...]] = set()
    found: list[tuple[bytes, tuple[int, ...], int]] = []

    level: dict[bytes, tuple[tuple[int, ...], list[int], int]] = {}
    for weight, weak in QUARTIC_WORD_CLASSES:
        if weight > mu:
            continue
        w = (1 << weight) - 1 | ((1 << mu) if weak else 0)
        enc, aut = classify._canonical_form(mu, (w,), memo)
        level[enc] = ((w,), [c for c in admissible if is_admissible[c ^ w]], aut)

    while level:
        found.extend((enc, basis, aut) for enc, (basis, _, aut) in level.items())
        next_level: dict[bytes, tuple[tuple[int, ...], list[int], int]] = {}
        for basis, candidates, _ in level.values():
            is_candidate = marks(candidates, mu)
            for w in popcount_orbit_representatives(candidates, basis, mu):
                new_basis = tuple(bit_rref(basis + (w,)))
                if new_basis in seen_spans:
                    continue
                seen_spans.add(new_basis)
                enc, aut = classify._canonical_form(mu, new_basis, memo)
                if enc not in next_level:
                    next_level[enc] = (
                        new_basis,
                        [c for c in candidates if is_candidate[c ^ w]],
                        aut,
                    )
        level = next_level
    return found


def greedy_profile(code: EvenSetCode) -> str:
    """Profile string with basis chosen greedily by ascending weight, which
    maximizes the number of minimum-weight basis words."""
    mu, k = code.mu, code.dim
    mask = (1 << mu) - 1
    words = sorted(
        (w for w in code.words_ext() if w),
        key=lambda w: ((w & mask).bit_count(), w),
    )
    chosen_weights: list[int] = []
    basis: list[int] = []
    for w in words:
        enlarged = bit_rref(basis + [w])
        if len(enlarged) > len(basis):
            basis = enlarged
            chosen_weights.append((w & mask).bit_count())
        if len(basis) == k:
            break
    multiplicity = Counter(chosen_weights)
    weights = sorted({(w & mask).bit_count() for w in words})
    parts = [
        f"{d}_{multiplicity[d]}" if multiplicity.get(d) else str(d) for d in weights
    ]
    return f"[{mu},{k},{{{','.join(parts)}}}]"
