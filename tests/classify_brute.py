"""Every labeled code a nodal quartic allows, found by brute force, kept
for tests only.

No symmetry is used.  Level k holds every k-dimensional code whose
nonzero words are all admissible, each as its reduced row echelon basis
(``bit_rref``); that basis depends only on the span, so a set of them
holds each labeled code once.  A code of the next level is a code of
this one plus an admissible word whose sum with every code word is
admissible.  The classifier's table must hold exactly one code of each
class these codes fall into.  This module imports neither the classifier
nor its word list, so a class lost to the classifier's orbit and coset
pruning shows here even if the pinned table never had it.
"""

from __future__ import annotations

import itertools

from canonical_oracle import canonical_encoding
from nodalcodes.codes import EvenSetCode
from nodalcodes.codes import bit_rref

# (weight, parity bit) of the nonzero even sets a nodal quartic allows:
# weakly even of weight 6 or 10, strictly even of weight 8 or 16
ADMISSIBLE = ((6, 1), (8, 0), (10, 1), (16, 0))


def admissible_words(mu: int) -> set[int]:
    """Every admissible word in extended encoding (bit mu = parity)."""
    return {
        sum(1 << i for i in support) | parity << mu
        for weight, parity in ADMISSIBLE
        for support in itertools.combinations(range(mu), weight)
    }


def labeled_codes(mu: int) -> list[set[tuple[int, ...]]]:
    """Entry k - 1 holds the reduced bases of every k-dimensional code
    whose nonzero words are all admissible."""
    admissible = admissible_words(mu)
    levels = []
    level = {(w,) for w in admissible}
    while level:
        levels.append(level)
        grown = set()
        for basis in level:
            # a span word w would need w ^ w = 0 admissible, so none is kept
            words = list(admissible)
            span = [0]
            for g in basis:
                for s in span:
                    words = [w for w in words if w ^ s ^ g in admissible]
                span += [s ^ g for s in span]
            grown.update(tuple(bit_rref(basis + (w,))) for w in words)
        level = grown
    return levels


def class_encodings(mu: int) -> tuple[list[int], set[tuple[int, ...]]]:
    """The number of labeled codes of each dimension 1, 2, ..., and the
    set of their canonical encodings, one per class."""
    levels = labeled_codes(mu)
    encodings = {
        canonical_encoding(EvenSetCode(mu, basis)) for level in levels for basis in level
    }
    return [len(level) for level in levels], encodings
