"""Even-set words, admissibility, enumerators, canonical forms."""

import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodalcodes import codes as codes_mod
from nodalcodes.codes import (
    STRICT,
    WEAK,
    EvenSetCode,
    EvenSetWord,
    _canonical_encoding,
    _Pivot,
    _pivoted,
    bit_rref,
    canonical_form,
    code_from_dict,
    code_to_dict,
    is_isomorphic,
    span_words,
    weight_enumerator,
)
from nodalcodes.errors import DataError, ResourceError
import canonical_oracle
from classify_oracle import admissible_words_ext
from permutation_oracle import permuted_code


def _word(mu, parity, indices):
    return EvenSetWord.from_indices(mu, parity, indices)


def _sum(u, v):
    """Symmetric difference of supports; parities add mod 2."""
    return EvenSetWord.from_ext(u.mu, u.to_ext() ^ v.to_ext())


class TestWordSum:
    def test_two_weak_sixes_overlapping_in_two(self):
        u = _word(10, WEAK, range(6))
        v = _word(10, WEAK, [0, 1, 6, 7, 8, 9])
        s = _sum(u, v)
        assert s.parity == STRICT
        assert s.weight == 8

    def test_self_sum_is_zero(self):
        w = _word(8, WEAK, range(6))
        s = _sum(w, w)
        assert s.support == 0
        assert s.parity == STRICT

    def test_weak_six_plus_strict_eight_overlap_four(self):
        u = _word(10, WEAK, range(6))
        v = _word(10, STRICT, [2, 3, 4, 5, 6, 7, 8, 9])
        s = _sum(u, v)
        assert s.parity == WEAK
        assert s.weight == 6

    def test_weight_overlap_law_exhaustive_small_mu(self):
        for mu in (2, 6, 10):
            size = 1 << mu
            for a in range(size):
                wa = a.bit_count()
                for b in range(size):
                    overlap = (a & b).bit_count()
                    assert (a ^ b).bit_count() + 2 * overlap == wa + b.bit_count()

    def test_parity_is_linear(self):
        for pa in (0, 1):
            for pb in (0, 1):
                u = EvenSetWord(6, bool(pa), 0b000111)
                v = EvenSetWord(6, bool(pb), 0b111000)
                assert _sum(u, v).weak == bool(pa ^ pb)

    def test_zero_word_must_be_strict(self):
        with pytest.raises(DataError):
            EvenSetWord(6, True, 0)

    def test_words_must_have_the_code_length(self):
        with pytest.raises(DataError):
            EvenSetCode.from_words(6, [EvenSetWord(6, False, 0b1111), EvenSetWord(8, False, 0b1111)])

    def test_parity_must_be_a_functional_of_support(self):
        # same support under both parities puts the empty weak set in the span
        with pytest.raises(DataError):
            EvenSetCode.from_words(
                6, [EvenSetWord(6, True, 0b111), EvenSetWord(6, False, 0b111)]
            )


class TestQuarticAdmissible:
    POOL = frozenset(admissible_words_ext(16))  # the words the classifier searches

    @pytest.mark.parametrize(
        "parity,weight,expected",
        [
            (WEAK, 6, True),
            (WEAK, 10, True),
            (WEAK, 8, False),
            (WEAK, 16, False),
            (STRICT, 8, True),
            (STRICT, 16, True),
            (STRICT, 6, False),
            (STRICT, 10, False),
        ],
    )
    def test_truth_table(self, parity, weight, expected):
        w = _word(16, parity, range(weight))
        assert (w.to_ext() in self.POOL) is expected

    def test_zero_word_rejected(self):
        assert 0 not in self.POOL


def _griesmer_ok(n, k, d):
    """Whether a binary [n, k, d] code meets the Griesmer bound."""
    return n >= sum(-(-d // (1 << i)) for i in range(k))


class TestGriesmer:
    def test_dimension_two_weight_eight_fits_length_twelve(self):
        assert _griesmer_ok(12, 2, 8)  # 8 + 4 = 12

    def test_dimension_three_does_not(self):
        assert not _griesmer_ok(12, 3, 8)  # 8 + 4 + 2 = 14


# generator rows frozen from the classification's two- and four-dimensional
# representatives; supports listed by node index
CODE_12_2_8_8 = [(STRICT, [0, 1, 2, 3, 4, 5, 6, 7]), (STRICT, [0, 1, 2, 3, 8, 9, 10, 11])]
CODE_14_UNIQUE = [
    (WEAK, [0, 1, 2, 3, 4, 5]),
    (WEAK, [0, 1, 6, 7, 8, 9]),
    (WEAK, [2, 3, 6, 7, 10, 11]),
    (WEAK, [0, 2, 8, 10, 12, 13]),
]


def _code(mu, rows):
    return EvenSetCode.from_words(mu, [_word(mu, p, s) for p, s in rows])


class TestIntBasis:
    RAW_14 = [_word(14, p, s).to_ext() for p, s in CODE_14_UNIQUE]

    @pytest.mark.parametrize("word", [-1, 1 << 7, 1 << 7 | 0b111111, 1 << 40],
                             ids=["negative", "2^(mu+1)", "bit-mu+1-set", "far-above"])
    def test_word_outside_the_extended_range_is_refused(self, word):
        with pytest.raises(DataError, match="outside the 7-bit range"):
            EvenSetCode(6, (0b111111 | 1 << 6, word))

    # in either order, and as a sum of three words
    @pytest.mark.parametrize("basis", [(0b111111, 0b1111111), (0b1111111, 0b111111),
                                       (0b011, 0b1000110, 0b101)])
    def test_the_weak_empty_set_in_the_span_is_refused(self, basis):
        with pytest.raises(DataError, match="parity is not a linear functional"):
            EvenSetCode(6, basis)

    def test_two_bases_of_one_code(self):
        g0, g1, g2, g3 = self.RAW_14
        a = EvenSetCode(14, tuple(self.RAW_14))
        b = EvenSetCode(14, (g3 ^ g1, g1, g0 ^ g2 ^ g3, g0))
        assert a.basis == tuple(bit_rref(self.RAW_14)) and a.dim == b.dim == 4
        assert sorted(a.words_ext()) == sorted(b.words_ext())
        assert canonical_form(a) == canonical_form(b)
        # a code is its span: both bases give one basis, so one code
        assert a == b and hash(a) == hash(b) and a.generators == b.generators
        c, d = EvenSetCode(6, (3, 6)), EvenSetCode(6, (6, 3))
        assert c == d and hash(c) == hash(d) and c.basis == (5, 3)


class TestWeightEnumerator:
    def test_single_weak_six(self):
        code = _code(6, [(WEAK, range(6))])
        assert weight_enumerator(code) == {(6, WEAK): 1}

    def test_unique_fourteen_node_code(self):
        code = _code(14, CODE_14_UNIQUE)
        assert weight_enumerator(code) == {(6, WEAK): 6, (8, STRICT): 7, (10, WEAK): 2}

    def test_two_strict_eights(self):
        code = _code(12, CODE_12_2_8_8)
        assert weight_enumerator(code) == {(8, STRICT): 3}

    def test_total_count_is_full_span(self):
        rng = random.Random(4)
        for _ in range(20):
            code = _random_code(rng)
            assert sum(weight_enumerator(code).values()) == 2**code.dim - 1

    def test_enumeration_cap(self):
        mu = 21
        code = _code(mu, [(STRICT, [i]) for i in range(21)])
        assert code.dim == 21
        with pytest.raises(ResourceError):
            weight_enumerator(code)


def _random_code(rng, mu=None, max_dim=4):
    # parity assigned through a random linear functional of the support, so
    # the parity of a word is always well defined on the span
    mu = mu or rng.randint(4, 12)
    parity_mask = rng.randrange(1 << mu)
    words = []
    for _ in range(rng.randint(1, max_dim)):
        support = rng.randrange(1, 1 << mu)
        weak = bool((support & parity_mask).bit_count() & 1)
        words.append(EvenSetWord(mu, weak, support))
    return EvenSetCode.from_words(mu, words)


class TestCanonicalForm:
    def test_invariance_500_random_trials(self):
        rng = random.Random(1234)
        for _ in range(500):
            code = _random_code(rng)
            perm = list(range(code.mu))
            rng.shuffle(perm)
            assert canonical_form(code) == canonical_form(permuted_code(code, tuple(perm)))

    def test_distinguishes_two_twelve_node_codes(self):
        a = _code(12, CODE_12_2_8_8)
        b = _code(12, [(WEAK, range(6)), (WEAK, [0, 1, 6, 7, 8, 9])])
        assert canonical_form(a) != canonical_form(b)

    def test_distinguishes_thirteen_node_codes(self, classification_tables):
        entries = classification_tables[13].entries
        assert len(entries) == 2
        assert not is_isomorphic(entries[0].code, entries[1].code)

    def test_single_weight_six_orbit_at_mu_seven(self):
        a = _code(7, [(WEAK, [0, 1, 2, 3, 4, 5])])
        b = _code(7, [(WEAK, [1, 2, 3, 4, 5, 6])])
        assert canonical_form(a) == canonical_form(b)

    def test_identical_codes_isomorphic(self):
        code = _code(14, CODE_14_UNIQUE)
        assert is_isomorphic(code, _code(14, CODE_14_UNIQUE))

    def test_different_enumerators_never_isomorphic(self):
        rng = random.Random(77)
        checked = 0
        while checked < 50:
            a, b = _random_code(rng, mu=9), _random_code(rng, mu=9)
            if weight_enumerator(a) != weight_enumerator(b):
                assert not is_isomorphic(a, b)
                checked += 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            is_isomorphic(_code(6, [(WEAK, range(6))]), _code(7, [(WEAK, range(6))]))

    def test_mu_cap(self):
        mu = 25
        code = _code(mu, [(STRICT, range(8))])
        with pytest.raises(ResourceError):
            canonical_form(code)

    def test_zero_code_canonical(self):
        code = EvenSetCode.from_words(6, [])
        assert canonical_form(code) == canonical_form(EvenSetCode.from_words(6, []))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_canonical_invariance_property(data):
    mu = data.draw(st.integers(3, 10))
    parity_mask = data.draw(st.integers(0, (1 << mu) - 1))
    nwords = data.draw(st.integers(1, 3))
    words = []
    for _ in range(nwords):
        support = data.draw(st.integers(1, (1 << mu) - 1))
        weak = bool((support & parity_mask).bit_count() & 1)
        words.append(EvenSetWord(mu, weak, support))
    code = EvenSetCode.from_words(mu, words)
    perm = tuple(data.draw(st.permutations(range(mu))))
    assert canonical_form(code) == canonical_form(permuted_code(code, perm))


@st.composite
def _codes_with_repeated_columns(draw):
    # columns drawn from a small palette plus zero, so zero and repeated
    # columns are common; parity is a random linear functional of the support
    mu = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    palette = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=8))
    columns = draw(st.lists(st.sampled_from([0, *palette]), min_size=mu, max_size=mu))
    parity_mask = draw(st.integers(0, (1 << mu) - 1))
    words = []
    for i in range(k):
        support = sum(1 << j for j, c in enumerate(columns) if c >> i & 1)
        words.append(EvenSetWord(mu, bool((support & parity_mask).bit_count() & 1), support))
    return EvenSetCode.from_words(mu, words)


@settings(deadline=None, max_examples=300)
@given(_codes_with_repeated_columns())
def test_canonical_encoding_matches_the_row_based_search(code):
    encoding, _ = _canonical_encoding(code.mu, code.basis, {})
    assert encoding == canonical_oracle.canonical_encoding(code)


@settings(deadline=None, max_examples=200)
@given(_codes_with_repeated_columns(), st.data())
def test_canonical_encoding_of_an_unreduced_basis_is_that_of_its_rref(code, data):
    # the int entry takes any independent basis of the code: row
    # operations (the first two entries of each drawn permutation add one
    # row into another) and a reordering leave the span as it is
    assume(code.dim >= 2)
    basis = list(code.basis)
    for i, j, *_ in data.draw(st.lists(st.permutations(range(code.dim)), min_size=1, max_size=6)):
        basis[i] ^= basis[j]
    basis = data.draw(st.permutations(basis))
    assert sorted(span_words(basis)) == sorted(code.words_ext())
    want = _canonical_encoding(code.mu, code.basis, {})
    assert _canonical_encoding(code.mu, basis, {}) == want
    assert _canonical_encoding(code.mu, bit_rref(basis), {}) == want


def test_shared_memo_gives_the_fresh_memo_encodings():
    rng = random.Random(99)
    codes = []
    while len(codes) < 60:
        code = _random_code(rng, mu=10, max_dim=4)
        if code.dim == 4:
            perm = list(range(10))
            rng.shuffle(perm)
            codes += [code, permuted_code(code, tuple(perm))]
    memo: dict = {}
    for code in codes:
        assert _canonical_encoding(code.mu, code.basis, memo) == _canonical_encoding(
            code.mu, code.basis, {}
        )
    assert memo


@st.composite
def _pivots(draw):
    # a pivot column f at bit t whose highest free bit h is drawn at or
    # below t, so row swaps (h < t) are common, and columns among which f
    # and f with bits h and t swapped are frequent
    k = draw(st.integers(1, 12))
    t = draw(st.integers(0, k - 1))
    h = draw(st.integers(0, t))
    pivoted_rows = draw(st.integers(0, (1 << k) - 1)) & ~((2 << t) - 1)
    f = pivoted_rows | 1 << h | draw(st.integers(0, (1 << h) - 1))
    words = st.integers(0, (1 << k) - 1)
    cols = draw(st.lists(st.one_of(words, st.just(f), st.just(f ^ (1 << h | 1 << t))), max_size=24))
    return k, t, f, draw(st.permutations([f, *cols]))


@settings(deadline=None, max_examples=200)
@given(_pivots())
def test_pivot_map_matches_the_list_pivot(pivot):
    k, t, f, cols = pivot
    table = _Pivot(f, t)
    # every k-bit value, each read after the table has filled the ones
    # below it: the image of c alone is what the list pivot leaves of [f, c]
    for c in range(1 << k):
        assert (table[c],) == canonical_oracle.pivot([f, c], f, t), c
    assert _pivoted(cols, table) == canonical_oracle.pivot(cols, f, t)
    assert _pivoted(cols, _Pivot(f, t)) == canonical_oracle.pivot(cols, f, t)


def _quadratic_residue_basis():
    # the 23 cyclic shifts of {0} and the squares mod 23, all strict: 11
    # dimensions over 24 columns, column 23 empty (the CLI cap test's code)
    support = {0} | {i * i % 23 for i in range(1, 23)}
    return bit_rref([sum(1 << (x + s) % 23 for x in support) for s in range(23)])


@pytest.mark.parametrize("cap", range(1, 201))
def test_the_state_cap_counts_states_only(monkeypatch, cap):
    # the memo also holds the pivot tables, under one key of its own; the
    # search stops when it would store state cap + 1, whatever they hold,
    # also when that state's children were all memo hits
    monkeypatch.setattr(codes_mod, "_MEMO_CAP", cap)
    basis = _quadratic_residue_basis()
    assert len(basis) == 11
    memo: dict = {}
    with pytest.raises(ResourceError, match=f"cap of {cap} states"):
        _canonical_encoding(24, basis, memo)
    states = [key for key in memo if key != codes_mod._PIVOT_MAPS]
    assert len(states) == cap
    assert sum(map(len, memo[codes_mod._PIVOT_MAPS].values())) > cap


def _rref_column_encoding(code, order):
    # plain Gauss-Jordan on the generator matrix with columns (parity,
    # *order); each column of the RREF read top row first as an integer
    mu, k = code.mu, code.dim
    cols = [mu, *order]
    rows = [[(g >> c) & 1 for c in cols] for g in code.basis]
    npiv = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(npiv, k) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[npiv], rows[pivot] = rows[pivot], rows[npiv]
        for i in range(k):
            if i != npiv and rows[i][j]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[npiv])]
        npiv += 1
    return tuple(int("".join(str(r[j]) for r in rows), 2) for j in range(len(cols)))


def test_canonical_encoding_matches_brute_force_over_all_column_orders():
    rng = random.Random(2718)
    codes = [EvenSetCode.from_words(6, [])]
    while len(codes) < 100:
        mu = rng.randint(2, 6)
        codes.append(_random_code(rng, mu=mu, max_dim=mu))
    for code in codes:
        # |Aut| is the number of support-column orders that reach the minimum
        if code.dim == 0:
            expected = (code.mu, 0), math.factorial(code.mu)
        else:
            encodings = [
                _rref_column_encoding(code, order)
                for order in itertools.permutations(range(code.mu))
            ]
            best = min(encodings)
            expected = (code.mu, code.dim, *best), encodings.count(best)
        assert _canonical_encoding(code.mu, code.basis, {}) == expected, code


class TestCodeFiles:
    def test_round_trip(self):
        code = _code(14, CODE_14_UNIQUE)
        data = json.loads(json.dumps(code_to_dict(code)))
        assert code_from_dict(data) == code

    def test_bad_generator(self):
        with pytest.raises(DataError):
            code_from_dict({"mu": 6, "generators": [{"parity": "odd", "support": [0]}]})

    def test_out_of_range_support(self):
        with pytest.raises(DataError):
            code_from_dict({"mu": 6, "generators": [{"parity": "weak", "support": [6]}]})

    def test_repeated_support_index(self):
        # collapsing the repeat would read a different word, of weight 8
        support = [0, 0, 1, 2, 3, 4, 5, 6, 7]
        with pytest.raises(DataError, match="node index 0 is repeated"):
            code_from_dict({"mu": 16, "generators": [{"parity": "strict", "support": support}]})
