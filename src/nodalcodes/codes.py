"""Even sets of nodes as a parity-augmented binary code.

An even set of nodes is a word over the node positions tagged strictly or
weakly even.  Parity behaves linearly (weak + weak = strict, strict +
weak = weak), so a word is modeled as a (1+mu)-bit vector whose extra
coordinate is the parity bit; the strictly even words are then exactly a
hyperplane subcode.

Inside the library a word is a plain int: bits 0..mu-1 carry the support,
bit mu the parity (set = weakly even), so the sum of two words is their
XOR.  A code is the reduced row echelon basis of its span, which
:func:`bit_rref`, the F2 row reduction, computes from any spanning rows;
``EvenSetWord`` is the tagged form for code files and printing.
``QUARTIC_WORD_CLASSES`` lists the weights and parities a nodal quartic
allows.  The canonical form minimizes the column-wise reduced generator
matrix over all permutations of the support columns (the parity column
stays put), so two codes get equal canonical bytes iff one is a node
relabeling of the other.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import DataError, ResourceError, json_fields, read_json
from .record import Record

_MU_CAP_CANONICAL = 24
_DIM_CAP_ENUMERATION = 20
# Largest mu a code file may declare: Miyaoka's bound 4b(b-1)^2/9 allows at
# most 832 nodes at degree 13, so every surface of degree <= 13 fits.
_MU_CAP_FILE = 1024

WEAK = "weak"
STRICT = "strict"


class EvenSetWord(Record):
    """A parity-tagged subset of the mu node positions."""

    mu: int
    weak: bool
    support: int

    def __post_init__(self):
        if self.mu < 0:
            raise DataError("negative length")
        if self.support < 0 or self.support >> self.mu:
            raise DataError("support has bits outside the node range")
        if self.support == 0 and self.weak:
            raise DataError("the zero word is strictly even by convention")

    @classmethod
    def from_indices(cls, mu: int, parity: str, indices: Iterable[int]) -> "EvenSetWord":
        if parity not in (WEAK, STRICT):
            raise DataError(f"parity must be 'weak' or 'strict', got {parity!r}")
        support = 0
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, int):
                raise DataError(f"node index {i!r} is not an integer")
            if not 0 <= i < mu:
                raise DataError(f"node index {i} outside 0..{mu - 1}")
            if support >> i & 1:
                raise DataError(f"node index {i} is repeated")
            support |= 1 << i
        return cls(mu, parity == WEAK, support)

    @property
    def weight(self) -> int:
        return self.support.bit_count()

    @property
    def parity(self) -> str:
        return WEAK if self.weak else STRICT

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mu) if (self.support >> i) & 1)

    def to_ext(self) -> int:
        """Parity-augmented integer encoding (bit mu = parity)."""
        return self.support | (int(self.weak) << self.mu)

    @classmethod
    def from_ext(cls, mu: int, ext: int) -> "EvenSetWord":
        return cls(mu, bool((ext >> mu) & 1), ext & ((1 << mu) - 1))

    def __str__(self) -> str:
        return f"{self.parity}{{{','.join(map(str, self.indices))}}}"


def bit_rref(rows: Iterable[int]) -> list[int]:
    """The reduced row echelon form of the F2 span of ``rows``: one row per
    leading bit, each leading bit set in no other row, sorted by leading
    bit descending.  It depends only on the span, not on the rows given."""
    basis: dict[int, int] = {}
    for v in rows:
        for lead, row in basis.items():
            if (v >> lead) & 1:
                v ^= row
        if v:
            lead = v.bit_length() - 1
            for lb, row in basis.items():
                if (row >> lead) & 1:
                    basis[lb] = row ^ v
            basis[lead] = v
    return sorted(basis.values(), reverse=True)


def _basis_columns(basis: Iterable[int], n: int) -> list[int]:
    """Columns 0..n-1 of the rows ``basis``, each an int, first row highest."""
    cols = [0] * n
    for g in basis:
        cols = [c << 1 | g >> j & 1 for j, c in enumerate(cols)]
    return cols


def span_words(basis: Iterable[int]) -> list[int]:
    """All 2^k F2 combinations of k words, zero first."""
    words = [0]
    for g in basis:
        words += [w ^ g for w in words]
    return words


# (weight, weak) of the nonzero even sets a nodal quartic allows, in weight order
QUARTIC_WORD_CLASSES = ((6, True), (8, False), (10, True), (16, False))


class EvenSetCode(Record):
    """F2-span of even-set words, stored as its reduced row echelon basis
    (``bit_rref``) in extended encoding.  That basis depends only on the
    span, so ``==`` and ``hash`` compare codes, whatever words were given."""

    mu: int
    basis: tuple[int, ...]

    def __post_init__(self):
        for w in self.basis:
            if not 0 <= w < 2 << self.mu:
                raise DataError(f"word {w} has bits outside the {self.mu + 1}-bit range")
        basis = tuple(bit_rref(self.basis))
        if 1 << self.mu in basis:
            # the empty weakly even set is in the span: two sums of words
            # with equal support but opposite parity (in an RREF, the row
            # that leads at bit mu is 1 << mu exactly when the span holds it)
            raise DataError("parity is not a linear functional of the support")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_words(cls, mu: int, words: Iterable[EvenSetWord]) -> "EvenSetCode":
        words = tuple(words)
        if any(g.mu != mu for g in words):
            raise DataError("generator length disagrees with the code length")
        return cls(mu, tuple(g.to_ext() for g in words))

    @property
    def generators(self) -> tuple[EvenSetWord, ...]:
        return tuple(EvenSetWord.from_ext(self.mu, w) for w in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def words_ext(self) -> list[int]:
        """All 2^dim words in extended encoding, zero included."""
        if self.dim > _DIM_CAP_ENUMERATION:
            raise ResourceError(
                f"refusing to enumerate 2^{self.dim} words (cap {_DIM_CAP_ENUMERATION})"
            )
        return span_words(self.basis)

    def strict_dim(self) -> int:
        """Dimension of the strictly even subcode (index at most 2)."""
        return self.dim - any(w >> self.mu for w in self.basis)


def weight_enumerator(code: EvenSetCode) -> dict[tuple[int, str], int]:
    """Counts of nonzero words keyed by (weight, parity)."""
    counts: dict[tuple[int, str], int] = {}
    mask = (1 << code.mu) - 1
    for ext in code.words_ext():
        if ext == 0:
            continue
        key = ((ext & mask).bit_count(), WEAK if (ext >> code.mu) & 1 else STRICT)
        counts[key] = counts.get(key, 0) + 1
    return counts


def weight_rows(enumerator: dict[tuple[int, str], int]) -> tuple[list[dict], list[str]]:
    """A weight enumerator's ``"weights"`` rows for JSON and the same counts
    as ``c x parity-w`` texts, both sorted by (weight, parity)."""
    items = sorted(enumerator.items())
    return ([{"weight": w, "parity": par, "count": c} for (w, par), c in items],
            [f"{c} x {par}-{w}" for (w, par), c in items])


# --- canonical form ----------------------------------------------------------
#
# The encoding of a code under a support-column order is the sequence of
# columns of the unique RREF of its generator matrix, parity column first,
# each column read as a k-bit integer (first pivot row = most significant
# bit).  The canonical encoding is the minimum over all column orders.
#
# The search processes one column at a time.  Its state is the pivot count
# and the sorted values of the remaining support columns over the current
# rows; the low k - npiv bits of a value are its entries in the rows not
# yet pivoted.  A zero column comes first.  Otherwise a column with one of
# those bits set becomes the next pivot, 1 << (k - 1 - npiv), which is below
# every other nonzero value, and once all k rows are pivots the remaining
# columns follow in sorted order.  The RREF under a fixed column order is
# unique, so the optimal completion depends only on the multiset of
# remaining column values, never on the basis of the unpivoted rows: those
# rows are not re-reduced, and the state itself is the memo key.  The dict
# belongs to the caller: each public entry point starts a fresh one, and
# the classifier shares one across all the codes of a single run.  A search
# that needs more than _MEMO_CAP states (a large code with many distinct
# columns or a big automorphism group) stops with a ResourceError.
#
# With each completion the memo holds a count: the number of value
# sequences that reach it, summed over the tied pivot branches (a zero
# column and the sorted tail after the last pivot add one sequence each).
# Two column orders give the same encoding exactly when they differ by a
# permutation that fixes the code, so |Aut| (the support-column
# permutations that fix the code; the parity column stays put) is the
# number of orders that reach the minimum.  A pivot is an invertible row
# operation, so identical columns stay identical and distinct ones stay
# distinct: each value in a sequence is the value of one class of
# identical support columns, and the m_v columns of value v fill its m_v
# places in m_v! ways.  So |Aut| = count * prod m_v!.
#
# A pivot on a column of value f at bit t sends each column value to an
# image that depends on f and t alone, so the memo also holds, under the
# one key _PIVOT_MAPS, a table of images per (f, t), filled on first use.
# A pivot is then one lookup per column and a sort.  The tables hold
# column values, not states, and do not count toward _MEMO_CAP.

_MEMO_CAP = 100_000
_PIVOT_MAPS = "pivot maps"


class _Pivot(dict):
    """Column value -> its value after the pivot on a column of value f at
    bit t: move f's highest free bit h to bit t (a row swap), then clear
    f's other bits from the rows (XOR f ^ 1 << h into every column with
    bit t).  The pivot column itself maps to 1 << t."""

    __slots__ = ("h", "t", "swap", "bit", "x")

    def __init__(self, f: int, t: int):
        super().__init__()
        self.h = (f & ((2 << t) - 1)).bit_length() - 1
        self.t = t
        self.bit = 1 << t
        self.swap = (1 << self.h) | self.bit
        self.x = f ^ (1 << self.h)

    def __missing__(self, c: int) -> int:
        d = c ^ self.swap if (c >> self.h ^ c >> self.t) & 1 else c
        self[c] = image = d ^ self.x if d & self.bit else d
        return image


class _PivotMaps(dict):
    """(f, t) -> its ``_Pivot``, built on first use."""

    def __missing__(self, key: tuple[int, int]) -> _Pivot:
        self[key] = table = _Pivot(*key)
        return table


def _pivoted(cols: Iterable[int], table: _Pivot) -> tuple[int, ...]:
    # the columns after the pivot, sorted, with the pivot column dropped
    out = sorted(map(table.__getitem__, cols))
    out.remove(table.bit)
    return tuple(out)


def _min_completion(
    cols: tuple[int, ...], npiv: int, k: int, memo: dict, maps: _PivotMaps
) -> tuple[tuple[int, ...], int]:
    # (the least completion, the number of value sequences that reach it)
    if npiv == k:  # every row is a pivot row, so every column keeps its value
        return cols, 1
    if cols[0] == 0:
        best, count = _min_completion(cols[1:], npiv, k, memo, maps)
        return (0,) + best, count
    key = (k, npiv, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = k - 1 - npiv
    free = (2 << t) - 1
    best, count = None, 0
    for f in {c for c in cols if c & free}:
        tail, n = _pivoted(cols, maps[f, t]), 1
        if t:  # rows remain: complete the child, read from the memo if it is there
            tail, n = memo.get((k, npiv + 1, tail)) or _min_completion(tail, npiv + 1, k, memo, maps)
        if best is None or tail < best:
            best, count = tail, n
        elif tail == best:
            count += n
    if len(memo) > _MEMO_CAP:  # the states, plus the entry that holds the maps
        raise ResourceError(f"canonical-form search exceeded its cap of {_MEMO_CAP} states")
    memo[key] = result = (1 << t,) + best, count
    return result


def _canonical_encoding(
    mu: int, basis: Sequence[int], memo: dict
) -> tuple[tuple[int, ...], int]:
    # basis: independent words in extended encoding, reduced or not;
    # returns the canonical encoding and |Aut| of the code
    if mu > _MU_CAP_CANONICAL:
        raise ResourceError(f"canonical form is capped at mu = {_MU_CAP_CANONICAL}")
    k = len(basis)
    if k == 0:
        return (mu, 0), math.factorial(mu)
    maps = memo.setdefault(_PIVOT_MAPS, _PivotMaps())
    cols = _basis_columns(basis, mu + 1)  # the support columns, then the parity column
    parity = cols[mu]
    if parity:
        tail, count = _min_completion(_pivoted(cols, maps[parity, k - 1]), 1, k, memo, maps)
        enc = (mu, k, 1 << (k - 1)) + tail
    else:
        tail, count = _min_completion(tuple(sorted(cols[:mu])), 0, k, memo, maps)
        enc = (mu, k, 0) + tail
    for m in Counter(cols[:mu]).values():  # the classes of identical support columns
        count *= math.factorial(m)
    return enc, count


def _canonical_form(mu: int, basis: Sequence[int], memo: dict) -> tuple[bytes, int]:
    enc, aut = _canonical_encoding(mu, basis, memo)
    return struct.pack(f">{len(enc)}I", *enc), aut


def canonical_form(code: EvenSetCode) -> bytes:
    """Permutation-invariant fingerprint; equal bytes iff codes are
    equivalent up to a permutation of node positions."""
    return _canonical_form(code.mu, code.basis, {})[0]


def is_isomorphic(a: EvenSetCode, b: EvenSetCode) -> bool:
    """Whether some node relabeling carries one code onto the other."""
    if a.mu != b.mu:
        raise DataError(f"length mismatch: {a.mu} != {b.mu}")
    memo: dict = {}
    return _canonical_form(a.mu, a.basis, memo)[0] == _canonical_form(b.mu, b.basis, memo)[0]


# --- code file format ---------------------------------------------------------
#
# { "mu": <int>, "generators": [ {"parity": "weak"|"strict",
#                                 "support": [indices]} ] }


def code_from_dict(data: dict) -> EvenSetCode:
    mu, gens = json_fields(data, "code file", "mu", "generators")
    if isinstance(mu, bool) or not isinstance(mu, int) or mu < 0:
        raise DataError("mu must be a non-negative integer")
    if mu > _MU_CAP_FILE:
        raise ResourceError(f"code files are capped at mu = {_MU_CAP_FILE}, got {mu}")
    if not isinstance(gens, list):
        raise DataError("generators must be a list of {parity, support} entries")
    words = []
    for g in gens:
        try:
            words.append(EvenSetWord.from_indices(mu, g["parity"], g["support"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"bad generator entry {g!r}") from exc
    return EvenSetCode.from_words(mu, words)


def code_to_dict(code: EvenSetCode) -> dict:
    return {
        "mu": code.mu,
        "generators": [
            {"parity": g.parity, "support": list(g.indices)} for g in code.generators
        ],
    }


def load_code_file(path: str) -> EvenSetCode:
    return code_from_dict(read_json(path, "code file"))
