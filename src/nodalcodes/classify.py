"""Isomorph-free enumeration of the even-set codes of mu-nodal quartics.

The search grows codes one basis word at a time, in weight order
(weak-6, strict-8, weak-10, strict-16).  A word may extend a code only if
every word of the enlarged span stays admissible for a quartic, which
mechanizes the whole weight-addition case analysis.

Candidate sets are kept as orbits.  A basis may be extended by the words
``c`` with ``c + span`` admissible.  They form a union of orbits of G,
the permutations of support columns identical across the basis, kept as
each orbit's first word in the order of the admissible words (word
class, then ``itertools.combinations`` order).  An orbit is a parity and
a count n_j on each class K_j of identical columns, packed into one int,
the orbit key (``_parent_orbits``); its first word takes the n_j
smallest columns of each K_j, as then its i-th smallest column is at
most that of any other member, and it holds prod_j C(|K_j|, n_j) words.
A child ``basis + (w,)`` needs ``c`` and ``c ^ w`` both parent
candidates.  ``w`` cuts each K_j in two, and each parent orbit splits
into the child orbits that share n_j between the parts in every way; a
split is kept when the key of ``c ^ w`` is a parent orbit's key, and the
split counts the words of the orbits it keeps over the cut classes.  A
span word is constant on each K_j, so any word of ``w + span`` cuts the
classes into the same two parts.  The split lists a child's orbits in
no set order, and the level sorts a parent's list just before its coset
pass reads it, so the list of a class that is never extended is never
sorted.  The zero code's orbits are the four word classes.  No span word
is ever a candidate, since its sum with itself is 0, which is not
admissible.

Duplicates are cut in two steps before a canonical search.  The first
is the coset pass.  G fixes every span word, so it permutes the cosets
``w + span``, and two words whose cosets share an orbit give isomorphic
children; only the first candidate of each orbit of cosets extends the
code.  That orbit is read off the same keys the split reads, so no
permutation is ever applied.  A word dropped there would reach a class an
earlier word already reached, so every class keeps the representative it
had.  The second is the class key (``_class_key``), a node-permutation
invariant of the child's span: its weight enumerator and the sizes of its
classes of identical support columns.  A child whose key a class already
found at its level has is not searched.  For mu = 6..16 no two classes
of one level share a key, so the search runs once per class; were two to
share one, the double count below would fall short and raise.  A child's basis is ``bit_rref`` of its
parent's basis and ``w``, the span's reduced row echelon basis, which is
what the canonical search reads.  Each level is keyed by canonical form.
Isomorphic children share a key, so no search returns a form its level
already holds; one that did would count twice in the double count.  All
canonical forms of one ``classify_quartic_codes`` call share a single
completion memo, keyed by the pivot count and the sorted values of the
remaining columns (the unpivoted rows are never re-reduced), with the
pivot maps it fills, and dropped when the call returns.

Each level ends on a double count (Kaski and Oestergaard, *Classification
Algorithms for Codes and Designs*, 2006, ch. 10) of the pairs C < D of
labeled admissible codes with dim C = k and dim D = k + 1.  A class C holds
mu!/|Aut C| labeled codes (``codes`` gives |Aut| with each canonical form),
and each of them lies in |cand C| / 2^k codes D, since the 2^k words of
D outside C are candidates of C; the split that lists C's candidate
orbits also counts |cand C|.  Each labeled D has 2^(k+1) - 1 hyperplanes,
all of them admissible.  So the level's total is known from its parents
before its first search, each new class D adds (mu!/|Aut D|)(2^(k+1) - 1),
and the level stops the moment the two sides agree: no class is left to
find.  The first child that reaches each class is the same as in a search
run to the end, so no representative changes.  The count also proves the
key's skips exact.  A class all of whose children were skipped is missing,
and its labeled codes leave the count short; so a level that closes has
found every class, each through its first child (a class whose first
child is skipped has all its children skipped, since they share its key),
and every skipped child was a duplicate.  A level whose classes count
more than the total, or whose cosets run out short of it, raises
``ArithmeticError``; the check runs in every call, on exact integers.

The search works on reduced bases of ints in extended encoding (see
``codes``); an ``EvenSetCode`` is built only for a table entry.

Beauville's bound dim >= mu - 10 (``bounds.beauville_bound``) cuts the
weight-admissible list to the codes that occur.  It implies his mu - 11
for the strictly even subcode, of index at most 2, and every enumerated
code has dim >= 1.  It is a post-filter, so a table built with
``audit=True`` also carries the codes it excludes, and says so itself.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .bounds import beauville_bound
from .codes import (
    QUARTIC_WORD_CLASSES,
    EvenSetCode,
    _basis_columns,
    _canonical_form,
    bit_rref,
    code_to_dict,
    span_words,
    weight_enumerator,
    weight_rows,
)
from .errors import DomainError
from .record import Record

MU_MAX = 16


class TableEntry(Record):
    """One equivalence class of codes: a representative, its dimension, and
    the profile string ``[n,k,{d1_m1,...}]`` (basis multiplicities as
    subscripts, omitted when zero).  ``aut`` is |Aut|, the number of node
    permutations that fix the code, so the class holds mu!/aut labeled
    codes."""

    code: EvenSetCode
    dim: int
    profile: str
    enumerator: dict[tuple[int, str], int]
    canonical: bytes
    aut: int

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "dim": self.dim,
            "code": code_to_dict(self.code),
            "weights": weight_rows(self.enumerator)[0],
        }


class ClassificationTable(Record):
    mu: int
    entries: tuple[TableEntry, ...]
    excluded: tuple[TableEntry, ...] = ()  # weight-admissible, failing dimension bounds
    audit: bool = False  # whether ``excluded`` was collected

    def to_dict(self) -> dict:
        out = {
            "mu": self.mu,
            "count": len(self.entries),
            "entries": [e.to_dict() for e in self.entries],
        }
        if self.audit:
            out["excluded_by_dimension_bounds"] = [e.to_dict() for e in self.excluded]
        return out


def _column_classes(basis: tuple[int, ...], mu: int) -> list[list[int]]:
    """The support columns, each as its bit ``1 << c``, in the classes of
    columns identical across ``basis``, by first column."""
    classes: dict[int, list[int]] = {}
    for c, col in enumerate(_basis_columns(basis, mu)):
        classes.setdefault(col, []).append(1 << c)
    return list(classes.values())


def _parent_orbits(words: list[int], basis: tuple[int, ...], mu: int):
    """``(reps, split)`` for a parent ``basis`` and its candidate orbits'
    first ``words``: ``reps`` are the first of ``words`` in each orbit of
    cosets ``w + span`` under G, in order, and ``split(w)`` gives the
    candidate orbits' first words of the child ``basis + (w,)``, in no set
    order, and the number of its candidates (see the module docstring).
    Both read one orbit key per word.

    G is a product of symmetric groups, one per class of identical
    columns, and moves a word to exactly the words with the same parity
    bit and the same count inside each class; so that vector is a complete
    orbit invariant.  The key packs it into one int: class j has the slot
    at bit ``width * j``, of ``width = mu.bit_length()`` bits, and the
    parity the slot after the last class, so bit ``c`` adds ``1 << slot(c)``.
    A count is at most mu < 2^width, so no slot carries into the next,
    equal ints mean equal counts, and ``key >> slot & ones`` reads a count
    back.  The key is the sum over the low ``half`` bits of a word plus the
    sum over the rest, each read from a table of subset sums built by
    doubling; an even split keeps both tables small.

    Every span word is constant on each class, so G fixes the span and
    permutes its cosets.  A word ``v`` has the key of some ``w ^ s``
    exactly when a permutation p has ``p(w ^ s) = v``, that is
    ``p(w + span) = v + span`` (p fixes s).  So the keys of every word of
    each kept coset are marked, and a later word whose own key is marked
    is dropped.

    This pass alone also keeps at most one word per word orbit.  Take a
    word whose key equals an earlier word's key.  That earlier word was
    either kept, and then marked its own key (s = 0 is in the span), or
    dropped because its key was already marked.  Either way the later word
    is dropped.  The first word of an orbit is kept, not another member,
    because the kept word becomes a basis word, and through it decides the
    representative the table reports for its class.
    """
    classes = _column_classes(basis, mu)
    width = mu.bit_length()
    ones = (1 << width) - 1
    slots = [width * j for j in range(len(classes) + 1)]  # the last is the parity's
    steps = [0] * mu + [1 << slots[-1]]
    for bits, slot in zip(classes, slots):
        for b in bits:
            steps[b.bit_length() - 1] = 1 << slot
    half = (mu + 2) // 2
    lo, hi = [0], [0]
    for sums, part in ((lo, steps[:half]), (hi, steps[half:])):
        for step in part:
            sums += [x + step for x in sums]
    low = (1 << half) - 1
    keys = [lo[w & low] + hi[w >> half] for w in words]

    span = span_words(basis)
    marked: set[int] = set()
    reps = []
    for w, key in zip(words, keys):
        if key not in marked:
            reps.append(w)
            marked.update([lo[(v := w ^ s) & low] + hi[v >> half] for s in span])
    parents = set(keys)

    def split(w: int) -> tuple[list[int], int]:
        # per class and count n: the first word of each split of n into a of
        # the z columns w sets and n - a of the rest, with the count of c ^ w
        # in its key slot above the mu + 1 bits of the word
        splits, parts = [], []
        for bits, slot in zip(classes, slots):
            cut = [b for b in bits if b & w], [b for b in bits if not b & w]
            parts += [(len(part), sum(part)) for part in cut if len(part) > 1]
            ins, out = ([0, *itertools.accumulate(part)] for part in cut)
            z = len(ins) - 1
            splits.append([[ins[a] | out[n - a] | (n + z - 2 * a) << mu + 1 + slot
                            for a in range(max(0, n - len(bits) + z), min(n, z) + 1)]
                           for n in range(len(bits) + 1)])
        kept = []
        for v, key in zip(words, keys):
            # the parity of c, and that of c ^ w in its key slot
            top = v & 1 << mu | ((v ^ w) >> mu) << mu + 1 + slots[-1]
            choices = [s[key >> slot & ones] for s, slot in zip(splits, slots)]
            for choice in itertools.product(*choices):
                c = top + sum(choice)
                if c >> mu + 1 in parents:
                    kept.append(c & (2 << mu) - 1)
        # the orbit of c holds prod C(|P|, |c & P|) words over the child's
        # classes P; a one-column class adds the factor 1
        count = 0
        for c in kept:
            n = 1
            for size, mask in parts:
                n *= comb(size, (c & mask).bit_count())
            count += n
        return kept, count

    return reps, split


def _admissible_order(mu: int):
    """The sort key of the order of the admissible words: bit counts 7, 8,
    11 and 16 order the word classes; inside one, the word that holds the
    least column two words differ on comes first."""
    return lambda c: (c.bit_count(), -int(f"{c:0{mu + 1}b}"[::-1], 2))


def _class_key(basis: tuple[int, ...], mu: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An invariant of the span of ``basis`` under node permutations: the
    sorted bit counts of its words in extended encoding (its weight
    enumerator) and the sorted sizes of its classes of identical support
    columns.  Both depend only on the span, not on the basis that gives it."""
    return (
        tuple(sorted(w.bit_count() for w in span_words(basis))),
        tuple(sorted(map(len, _column_classes(basis, mu)))),
    )


def _enumerate_admissible(mu: int) -> list[tuple[bytes, tuple[int, ...], int]]:
    """All codes with every nonzero word admissible, one (canonical form,
    basis, |Aut|) triple per permutation class, found by isomorph-rejected
    basis extension from the zero code.  Each level stops once its classes
    meet the double count, and raises ``ArithmeticError`` if they cannot.
    A child whose ``_class_key`` a class of its level already has is not
    searched (see the module docstring)."""
    memo: dict = {}  # canonical-form completions, shared by this run's codes
    found: list[tuple[bytes, tuple[int, ...], int]] = []
    labelings = factorial(mu)
    order = _admissible_order(mu)

    # canonical form -> (basis, its candidate orbits' first words, unsorted,
    # its number of candidates, |Aut|); b"" is the zero code
    zero = [(1 << wt) - 1 | weak << mu for wt, weak in QUARTIC_WORD_CLASSES if wt <= mu]
    count = sum(comb(mu, wt) for wt, _ in QUARTIC_WORD_CLASSES if wt <= mu)
    level: dict[bytes, tuple[tuple[int, ...], list[int], int, int]] = {b"": ((), zero, count, labelings)}
    k = 0
    while level:
        # both sides of the double count at this level, times 2^k
        pairs = sum(labelings // aut * n for _, _, n, aut in level.values())
        hyperplanes = ((2 << k) - 1) << k
        met = 0
        keys = set()  # the keys of the classes found at this level
        next_level: dict[bytes, tuple[tuple[int, ...], list[int], int, int]] = {}
        for basis, words, _, _ in level.values():
            if met >= pairs:
                break
            reps, split = _parent_orbits(sorted(words, key=order), basis, mu)
            for w in reps:
                key = _class_key(basis + (w,), mu)
                if key in keys:
                    continue
                new_basis = tuple(bit_rref(basis + (w,)))
                enc, aut = _canonical_form(mu, new_basis, memo)
                keys.add(key)
                next_level[enc] = (new_basis, *split(w), aut)
                met += labelings // aut * hyperplanes
                if met >= pairs:
                    break
        if met != pairs:
            raise ArithmeticError(
                f"mu = {mu}, dimension {k} -> {k + 1}: the codes of dimension {k} "
                f"count {pairs} labeled pairs (times 2^{k}), those of dimension "
                f"{k + 1} count {met}"
            )
        found.extend((enc, basis, aut) for enc, (basis, _, _, aut) in next_level.items())
        level = next_level
        k += 1
    return found


def _profile(code: EvenSetCode) -> str:
    """The profile string: each distinct nonzero weight d, subscripted by
    rank(words of weight <= d) - rank(words of weight < d) when positive.
    A basis chosen greedily by ascending weight keeps a word exactly when it
    is independent of the words before it, so it takes that many words of
    weight d (Edmonds 1971), the most minimum-weight basis words possible."""
    mask = (1 << code.mu) - 1
    words = code.words_ext()
    weights = sorted({(w & mask).bit_count() for w in words if w})
    parts, rank = [], 0
    for d in weights:
        m = len(bit_rref(w for w in words if (w & mask).bit_count() <= d)) - rank
        rank += m
        parts.append(f"{d}_{m}" if m else str(d))
    return f"[{code.mu},{code.dim},{{{','.join(parts)}}}]"


def _entry(mu: int, canonical: bytes, basis: tuple[int, ...], aut: int) -> TableEntry:
    code = EvenSetCode(mu, basis)
    return TableEntry(
        code=code,
        dim=code.dim,
        profile=_profile(code),
        enumerator=weight_enumerator(code),
        canonical=canonical,
        aut=aut,
    )


def classify_quartic_codes(mu: int, *, audit: bool = False) -> ClassificationTable:
    """All nonzero even-set codes a mu-nodal quartic can carry, up to node
    permutation.

    For mu <= 5 no admissible word fits and the table is empty.  With
    ``audit=True`` the codes excluded only by the dimension lower bound
    are kept in ``excluded``, and the table's ``audit`` field says so.
    """
    if isinstance(mu, bool) or not isinstance(mu, int):
        raise DomainError(f"mu must be an integer, got {mu!r}")
    if not 1 <= mu <= MU_MAX:
        raise DomainError(f"mu must lie in 1..{MU_MAX}, got {mu}")
    passing = []
    excluded = []
    for canonical, basis, aut in _enumerate_admissible(mu):
        if len(basis) >= beauville_bound(4, mu):  # a reduced basis: its length is the dim
            passing.append(_entry(mu, canonical, basis, aut))
        elif audit:
            excluded.append(_entry(mu, canonical, basis, aut))

    def order(e: TableEntry):
        return (e.dim, e.canonical)

    return ClassificationTable(
        mu=mu,
        entries=tuple(sorted(passing, key=order)),
        excluded=tuple(sorted(excluded, key=order)),
        audit=audit,
    )


def render_table(table: ClassificationTable) -> str:
    """Human-readable listing, one line per code class."""
    lines = [f"mu = {table.mu}: {len(table.entries)} code(s)"]
    for e in table.entries:
        weights = ", ".join(weight_rows(e.enumerator)[1])
        lines.append(f"  {e.profile}   dim {e.dim}   words: {weights}")
        for g in e.code.generators:
            lines.append(f"      {g}")
    if table.audit and table.excluded:
        lines.append(f"  excluded by dimension bounds ({len(table.excluded)}):")
        for e in table.excluded:
            lines.append(f"    {e.profile}")
    return "\n".join(lines)
