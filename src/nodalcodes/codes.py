"""Even sets of nodes as a parity-augmented binary code.

An even set of nodes is a word over the node positions tagged strictly or
weakly even.  Parity behaves linearly (weak + weak = strict, strict +
weak = weak), so a word is modeled as a (1+mu)-bit vector whose extra
coordinate is the parity bit; the strictly even words are then exactly a
hyperplane subcode.

Internally words are plain ints: bits 0..mu-1 carry the support, bit mu
the parity (set = weakly even).  The canonical form minimizes the
column-wise reduced generator matrix over all permutations of the support
columns (the parity column stays put), so two codes get equal canonical
bytes iff one is a node relabeling of the other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DataError, DomainError, ResourceError, read_json
from .linalg import bit_rref

_MU_CAP_CANONICAL = 24
_DIM_CAP_ENUMERATION = 20
# Largest mu a code file may declare: Miyaoka's bound 4b(b-1)^2/9 allows at
# most 832 nodes at degree 13, so every surface of degree <= 13 fits.
_MU_CAP_FILE = 1024

WEAK = "weak"
STRICT = "strict"


@dataclass(frozen=True)
class EvenSetWord:
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

    def __add__(self, other: "EvenSetWord") -> "EvenSetWord":
        return word_sum(self, other)

    def __str__(self) -> str:
        return f"{self.parity}{{{','.join(map(str, self.indices))}}}"


def span_words(basis: Iterable[int]) -> list[int]:
    """All 2^k F2 combinations of k words, zero first."""
    words = [0]
    for g in basis:
        words += [w ^ g for w in words]
    return words


def word_sum(u: EvenSetWord, v: EvenSetWord) -> EvenSetWord:
    """Symmetric difference of supports; parities add mod 2."""
    if u.mu != v.mu:
        raise DataError(f"length mismatch: {u.mu} != {v.mu}")
    return EvenSetWord.from_ext(u.mu, u.to_ext() ^ v.to_ext())


def quartic_admissible(w: EvenSetWord) -> bool:
    """Whether a nonzero even set can occur on a nodal quartic surface:
    weakly even sets have 6 or 10 nodes, strictly even ones 8 or 16."""
    if w.support == 0:
        raise DomainError("admissibility is defined for nonzero words only")
    if w.weak:
        return w.weight in (6, 10)
    return w.weight in (8, 16)


def griesmer_ok(n: int, k: int, d: int) -> bool:
    """Griesmer bound test for a binary [n, k, d] code."""
    if k < 1:
        raise DomainError(f"dimension must be at least 1, got {k}")
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got d={d}, n={n}")
    return n >= sum(-(-d // (1 << i)) for i in range(k))


@dataclass(frozen=True)
class EvenSetCode:
    """F2-span of even-set words; stored generators are an independent basis."""

    mu: int
    generators: tuple[EvenSetWord, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.mu != self.mu:
                raise DataError("generator length disagrees with the code length")
        basis = bit_rref([g.to_ext() for g in self.generators])
        if 1 << self.mu in basis:
            # two words with equal support but opposite parity: the empty
            # weakly even set would be in the span
            raise DataError("parity is not a linear functional of the support")
        object.__setattr__(
            self, "generators", tuple(EvenSetWord.from_ext(self.mu, v) for v in basis)
        )

    @classmethod
    def from_words(cls, mu: int, words: Iterable[EvenSetWord]) -> "EvenSetCode":
        return cls(mu, tuple(words))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def basis_ext(self) -> list[int]:
        return [g.to_ext() for g in self.generators]

    def words_ext(self) -> list[int]:
        """All 2^dim words in extended encoding, zero included."""
        if self.dim > _DIM_CAP_ENUMERATION:
            raise ResourceError(
                f"refusing to enumerate 2^{self.dim} words (cap {_DIM_CAP_ENUMERATION})"
            )
        return span_words(self.basis_ext())

    def words(self) -> Iterator[EvenSetWord]:
        """All nonzero words of the code."""
        for ext in self.words_ext():
            if ext:
                yield EvenSetWord.from_ext(self.mu, ext)

    def strict_dim(self) -> int:
        """Dimension of the strictly even subcode (index at most 2)."""
        if any(g.weak for g in self.generators):
            return self.dim - 1
        return self.dim


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

_MEMO_CAP = 100_000


def _pivot(cols: Iterable[int], f: int, t: int) -> tuple[int, ...]:
    # pivot on a column of value f at bit t: move f's highest free bit h to
    # bit t (a row swap), clear f's other bits from the rows (XOR f ^ 1 << h
    # into every column with bit t), then drop the pivot column and re-sort
    h = (f & ((2 << t) - 1)).bit_length() - 1
    bit, x = 1 << t, f ^ (1 << h)
    if h != t:
        swap = (1 << h) | bit
        cols = [c ^ swap if (c >> h ^ c >> t) & 1 else c for c in cols]
    out = [c ^ x if c & bit else c for c in cols]
    out.remove(bit)
    out.sort()
    return tuple(out)


def _min_completion(cols: tuple[int, ...], npiv: int, k: int, memo: dict) -> tuple:
    if npiv == k:  # every row is a pivot row, so every column keeps its value
        return cols
    if cols[0] == 0:
        return (0,) + _min_completion(cols[1:], npiv, k, memo)
    key = (k, npiv, cols)
    best = memo.get(key)
    if best is not None:
        return best
    if len(memo) >= _MEMO_CAP:
        raise ResourceError(f"canonical-form search exceeded its cap of {_MEMO_CAP} states")
    t = k - 1 - npiv
    free = (2 << t) - 1
    best = (1 << t,) + min(
        _min_completion(_pivot(cols, f, t), npiv + 1, k, memo)
        for f in {c for c in cols if c & free}
    )
    memo[key] = best
    return best


def _canonical_encoding(code: EvenSetCode, memo: dict) -> tuple[int, ...]:
    mu = code.mu
    if mu > _MU_CAP_CANONICAL:
        raise ResourceError(f"canonical form is capped at mu = {_MU_CAP_CANONICAL}")
    basis = code.basis_ext()
    k = len(basis)
    if k == 0:
        return (mu, 0)
    cols = [0] * (mu + 1)  # the support columns, then the parity column
    for g in basis:
        cols = [c << 1 | (g >> j) & 1 for j, c in enumerate(cols)]
    parity = cols[mu]
    if parity:
        tail = _min_completion(_pivot(cols, parity, k - 1), 1, k, memo)
        return (mu, k, 1 << (k - 1)) + tail
    return (mu, k, 0) + _min_completion(tuple(sorted(cols[:mu])), 0, k, memo)


def _canonical_form(code: EvenSetCode, memo: dict) -> bytes:
    enc = _canonical_encoding(code, memo)
    return struct.pack(f">{len(enc)}I", *enc)


def canonical_form(code: EvenSetCode) -> bytes:
    """Permutation-invariant fingerprint; equal bytes iff codes are
    equivalent up to a permutation of node positions."""
    return _canonical_form(code, {})


def is_isomorphic(a: EvenSetCode, b: EvenSetCode) -> bool:
    """Whether some node relabeling carries one code onto the other."""
    if a.mu != b.mu:
        raise DataError(f"length mismatch: {a.mu} != {b.mu}")
    memo: dict = {}
    return _canonical_form(a, memo) == _canonical_form(b, memo)


# --- code file format ---------------------------------------------------------
#
# { "mu": <int>, "generators": [ {"parity": "weak"|"strict",
#                                 "support": [indices]} ] }


def code_from_dict(data: dict) -> EvenSetCode:
    try:
        mu = data["mu"]
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"code file is missing {exc}") from exc
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
