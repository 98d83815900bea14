"""The classifier's extension loop before cosets were reduced, kept for
tests only.

Every word-orbit representative extends its parent: the child's reduced
basis is ``bit_rref`` of the enlarged basis, and every parent marks its
candidates.  The word orbits come from the popcount-tuple key of
``permutation_oracle``, not from the library's packed key.  The library
keeps one representative per orbit of cosets and builds each child's
basis from its parent's; it must return the same (canonical form, basis)
list, order included.  The library's helpers are read through the
module, so a test that counts ``_canonical_form`` calls counts this
loop's too.
"""

from __future__ import annotations

from nodalcodes import classify
from nodalcodes.codes import QUARTIC_WORD_CLASSES
from nodalcodes.linalg import bit_rref
from permutation_oracle import popcount_orbit_representatives


def enumerate_admissible(mu: int) -> list[tuple[bytes, tuple[int, ...]]]:
    admissible = classify.admissible_words_ext(mu)
    is_admissible = classify._marks(admissible, mu)
    memo: dict = {}
    seen_spans: set[tuple[int, ...]] = set()
    found: list[tuple[bytes, tuple[int, ...]]] = []

    level: dict[bytes, tuple[tuple[int, ...], list[int]]] = {}
    for weight, weak in QUARTIC_WORD_CLASSES:
        if weight > mu:
            continue
        w = (1 << weight) - 1 | ((1 << mu) if weak else 0)
        level[classify._canonical_form(mu, (w,), memo)] = (
            (w,),
            [c for c in admissible if is_admissible[c ^ w]],
        )

    while level:
        found.extend((enc, basis) for enc, (basis, _) in level.items())
        next_level: dict[bytes, tuple[tuple[int, ...], list[int]]] = {}
        for basis, candidates in level.values():
            is_candidate = classify._marks(candidates, mu)
            for w in popcount_orbit_representatives(candidates, basis, mu):
                new_basis = tuple(bit_rref(basis + (w,)))
                if new_basis in seen_spans:
                    continue
                seen_spans.add(new_basis)
                enc = classify._canonical_form(mu, new_basis, memo)
                if enc not in next_level:
                    next_level[enc] = (
                        new_basis,
                        [c for c in candidates if is_candidate[c ^ w]],
                    )
        level = next_level
    return found
