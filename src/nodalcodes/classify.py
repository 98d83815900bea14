"""Isomorph-free enumeration of the even-set codes of mu-nodal quartics.

The search grows codes one basis word at a time, in weight order
(weak-6, strict-8, weak-10, strict-16).  A word may extend a code only if
every word of the enlarged span stays admissible for a quartic, which
mechanizes the whole weight-addition case analysis.

Candidate lists are inherited.  Each basis carries the words that may
extend it: exactly those ``c`` with ``c + span`` admissible, in the order
of ``admissible_words_ext``.  A child ``basis + (w,)`` needs ``c + span``
and ``c + w + span`` admissible, that is ``c`` and ``c ^ w`` both parent
candidates; so one pass over the parent's list, against a bytearray that
marks it, gives the child's list.  The zero code's candidates are the
admissible words themselves.  No span word is ever a candidate, since
its sum with itself is 0, which is not admissible.  A child's list is
therefore a subsequence of its parent's and equals a filter of all
admissible words from scratch.

Duplicates are cut in two steps before a canonical search.  First, the
permutations of identical support columns fix every span word, so they
permute the cosets ``w + span``, and two words whose cosets share an
orbit give isomorphic children; only the first candidate of each orbit
of cosets extends the code.  The orbit of a word is read off a key (its
parity bit and its popcount inside each class of identical columns,
packed into one int and looked up from two tables of subset sums), so no
permutation is ever applied.  A word dropped there would reach a class
an earlier word already reached, so every class keeps the representative
it had.  Second, an enlarged code whose span was already reached is
skipped; its reduced row echelon basis depends only on the span, so that
tuple is the key, and it is also what the canonical search reads.  A
child's basis is built from its parent's without an elimination
(``_extend``), and a parent marks its candidates only when a first child
needs its list.  The remaining codes are deduplicated by canonical form
at each level, so each equivalence class is visited once.  All canonical
forms of one ``classify_quartic_codes`` call share a single completion
memo, keyed by the pivot count and the sorted values of the remaining
columns (the unpivoted rows are never re-reduced), with the pivot maps
it fills, and dropped when the call returns.

The search works on reduced bases of ints in extended encoding (see
``codes``); an ``EvenSetCode`` is built only for a table entry.

Two dimension lower bounds (due to Beauville) cut the weight-admissible
list down to the codes that actually occur: dim of the full code is at
least mu - 10, dim of the strictly even subcode at least mu - 11.  They
are applied as a post-filter, so a table built with ``audit=True`` also
carries the weight-admissible codes they exclude, and says so itself.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .codes import (
    QUARTIC_WORD_CLASSES,
    EvenSetCode,
    _canonical_form,
    code_to_dict,
    span_words,
    weight_enumerator,
)
from .errors import DomainError
from .linalg import bit_rref
from .record import Record

MU_MAX = 16


class TableEntry(Record):
    """One equivalence class of codes: a representative, its dimension, and
    the profile string ``[n,k,{d1_m1,...}]`` (basis multiplicities as
    subscripts, omitted when zero)."""

    code: EvenSetCode
    dim: int
    profile: str
    enumerator: dict[tuple[int, str], int]
    canonical: bytes

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "dim": self.dim,
            "code": code_to_dict(self.code),
            "weights": [
                {"weight": w, "parity": par, "count": c}
                for (w, par), c in sorted(self.enumerator.items())
            ],
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


def admissible_words_ext(mu: int) -> list[int]:
    """Every nonzero word a quartic allows: weak of weight 6 or 10,
    strict of weight 8 or 16."""
    bits = [1 << i for i in range(mu)]
    words = []
    for weight, weak in QUARTIC_WORD_CLASSES:
        if weight > mu:
            continue
        parity_bit = 1 << mu if weak else 0
        words += [s | parity_bit for s in map(sum, itertools.combinations(bits, weight))]
    return words


def _orbit_tables(basis: tuple[int, ...], mu: int) -> tuple[list[int], list[int], int]:
    """The packed orbit key of a word under permutations of the support
    columns that are identical across ``basis``: word ``w`` has the key
    ``lo[w & (1 << half) - 1] + hi[w >> half]``; returns ``(lo, hi, half)``.

    Those permutations form a product of symmetric groups, one per class of
    identical columns, and such a product moves a word to exactly the words
    with the same parity bit and the same popcount inside each class; so
    that vector of counts is a complete orbit invariant.  It is packed into
    one int: each class has a slot of ``mu.bit_length()`` bits and the
    parity bit one more slot, so bit ``c`` adds ``1 << width * slot(c)``.
    A count is at most mu < 2^width, so no slot carries into the next and
    equal ints mean equal counts.  The key is the sum over the low ``half``
    bits plus the sum over the rest, each read from a table of subset sums
    built by doubling; an even split keeps both tables small.
    """
    width = mu.bit_length()
    slots: dict[tuple[int, ...], int] = {}
    steps = []
    for c in range(mu):
        column = tuple((g >> c) & 1 for g in basis)
        steps.append(1 << width * slots.setdefault(column, len(slots)))
    steps.append(1 << width * len(slots))  # the parity bit
    half = (mu + 2) // 2
    lo, hi = [0], [0]
    for sums, part in ((lo, steps[:half]), (hi, steps[half:])):
        for step in part:
            sums += [x + step for x in sums]
    return lo, hi, half


def _coset_representatives(
    candidates: list[int], basis: tuple[int, ...], mu: int
) -> list[int]:
    """The first of ``candidates`` in each orbit of cosets ``w + span``
    under the permutations of identical support columns, in the order of
    first occurrence.

    Every span word is constant on each class of identical columns, so
    those permutations fix the span and permute its cosets.  A word ``v``
    has the orbit key (``_orbit_tables``) of some ``w ^ s`` exactly when a
    permutation p has ``p(w ^ s) = v``, that is ``p(w + span) = v + span``
    (p fixes s).  So the keys of every word of each kept coset are marked,
    and a later word whose own key is marked is dropped.

    This pass alone also keeps at most one word per word orbit.  Take a
    candidate whose key equals an earlier candidate's key.  That earlier
    word was either kept, and then marked its own key (s = 0 is in the
    span), or dropped because its key was already marked.  Either way the
    later word is dropped.  The first candidate of an orbit is kept, not
    another member, because the kept word becomes a basis word, and through
    it decides the representative the table reports for its class.
    """
    lo, hi, half = _orbit_tables(basis, mu)
    mask = (1 << half) - 1
    span = span_words(basis)
    marked: set[int] = set()
    reps = []
    for w in candidates:
        if lo[w & mask] + hi[w >> half] not in marked:
            reps.append(w)
            marked.update([lo[(v := w ^ s) & mask] + hi[v >> half] for s in span])
    return reps


def _extend(basis: tuple[int, ...], w: int) -> tuple[int, tuple[int, ...]]:
    """For a reduced row echelon ``basis`` and a word ``w`` outside its
    span: ``r``, which is ``w`` reduced at the basis's leading bits and so
    lies in ``w + span``, and ``bit_rref(basis + (w,))``, built without an
    elimination.

    ``r`` sets no leading bit of ``basis``, so its own leading bit L is
    new; clearing L from the rows that set it, by adding ``r``, leaves
    every other leading bit where it was.
    """
    r = w
    for g in basis:
        if r >> g.bit_length() - 1 & 1:
            r ^= g
    lead = 1 << r.bit_length() - 1
    rows = [g ^ r if g & lead else g for g in basis]
    return r, tuple(sorted(rows + [r], reverse=True))


def _marks(words: list[int], mu: int) -> bytearray:
    """A byte per word of the extended range, 1 at each of ``words``."""
    mask = bytearray(2 << mu)
    for w in words:
        mask[w] = 1
    return mask


def _enumerate_admissible(mu: int) -> list[tuple[bytes, tuple[int, ...]]]:
    """All codes with every nonzero word admissible, one (canonical form,
    basis) pair per permutation class, found by isomorph-rejected basis
    extension."""
    admissible = admissible_words_ext(mu)
    is_admissible = _marks(admissible, mu)
    memo: dict = {}  # canonical-form completions, shared by this run's codes
    seen_spans: set[tuple[int, ...]] = set()  # reduced bases
    found: list[tuple[bytes, tuple[int, ...]]] = []

    # canonical form -> (basis, its candidate words)
    level: dict[bytes, tuple[tuple[int, ...], list[int]]] = {}
    for weight, weak in QUARTIC_WORD_CLASSES:
        if weight > mu:
            continue
        w = (1 << weight) - 1 | ((1 << mu) if weak else 0)
        level[_canonical_form(mu, (w,), memo)] = (
            (w,),
            [c for c in admissible if is_admissible[c ^ w]],
        )

    while level:
        found.extend((enc, basis) for enc, (basis, _) in level.items())
        next_level: dict[bytes, tuple[tuple[int, ...], list[int]]] = {}
        for basis, candidates in level.values():
            is_candidate = None  # marked when the first new class needs it
            for w in _coset_representatives(candidates, basis, mu):
                # c ^ r and c ^ w differ by a span word, and candidates are
                # closed under adding one, so r filters as w would
                r, new_basis = _extend(basis, w)
                if new_basis in seen_spans:
                    continue
                seen_spans.add(new_basis)
                enc = _canonical_form(mu, new_basis, memo)
                if enc not in next_level:
                    if is_candidate is None:
                        is_candidate = _marks(candidates, mu)
                    next_level[enc] = (
                        new_basis,
                        [c for c in candidates if is_candidate[c ^ r]],
                    )
        level = next_level
    return found


def _greedy_profile(code: EvenSetCode) -> str:
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


def _entry(mu: int, canonical: bytes, basis: tuple[int, ...]) -> TableEntry:
    code = EvenSetCode(mu, basis)
    return TableEntry(
        code=code,
        dim=code.dim,
        profile=_greedy_profile(code),
        enumerator=weight_enumerator(code),
        canonical=canonical,
    )


def classify_quartic_codes(mu: int, *, audit: bool = False) -> ClassificationTable:
    """All nonzero even-set codes a mu-nodal quartic can carry, up to node
    permutation.

    For mu <= 5 no admissible word fits and the table is empty.  With
    ``audit=True`` the codes excluded only by the dimension lower bounds
    are kept in ``excluded``, and the table's ``audit`` field says so.
    """
    if isinstance(mu, bool) or not isinstance(mu, int):
        raise DomainError(f"mu must be an integer, got {mu!r}")
    if not 1 <= mu <= MU_MAX:
        raise DomainError(f"mu must lie in 1..{MU_MAX}, got {mu}")
    passing = []
    excluded = []
    for canonical, basis in _enumerate_admissible(mu):
        # the basis is reduced, so its length is the dimension, and the
        # strictly even subcode drops one exactly when a row is weak
        strict_dim = len(basis) - any(g >> mu for g in basis)
        if len(basis) >= max(1, mu - 10) and strict_dim >= mu - 11:
            passing.append(_entry(mu, canonical, basis))
        elif audit:
            excluded.append(_entry(mu, canonical, basis))

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
        weights = ", ".join(
            f"{c} x {par}-{w}" for (w, par), c in sorted(e.enumerator.items())
        )
        lines.append(f"  {e.profile}   dim {e.dim}   words: {weights}")
        for g in e.code.generators:
            lines.append(f"      {g}")
    if table.audit and table.excluded:
        lines.append(f"  excluded by dimension bounds ({len(table.excluded)}):")
        for e in table.excluded:
            lines.append(f"    {e.profile}")
    return "\n".join(lines)
