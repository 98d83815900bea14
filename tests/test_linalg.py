"""Exact linear algebra: rank, kernels, the rank mod p bound, F2 rows."""

import itertools
import random
import time
from array import array
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt
from operator import add, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes import linalg
from nodalcodes.codes import bit_rref
from nodalcodes.errors import DataError, DomainError
from nodalcodes.fields import PrimeField, QQ, is_prime
from nodalcodes.linalg import (
    ExactMatrix,
    _echelon_mod_p,
    _integer_rows,
    _lift,
    _rational_kernel,
    _slot_codec,
    _slot_width,
    exact_rank,
    nullspace_basis,
)
from nodalcodes.nodes import (
    MONOMIAL_CAP,
    NodeConfiguration,
    evaluation_matrix,
    normalize_point,
    vanishing_dimension,
)
from rank_oracle import (
    bareiss,
    column_sweep_echelon,
    gauss_jordan_nullspace,
    rank_and_rref,
    row_list_rank_mod_p,
)


def _identity(field, n):
    return ExactMatrix.from_rows(field, [[field.one if i == j else field.zero for j in range(n)]
                                         for i in range(n)])


def _zero(field, nrows, ncols):
    return ExactMatrix.from_rows(field, [[field.zero] * ncols for _ in range(nrows)])


def _modular_rank(m, p):
    """Rank mod p of the integer rows that :func:`exact_rank` takes over Q."""
    return len(_echelon_mod_p([[a % p for a in row] for row in _integer_rows(m.entries)], p))


def _minor_rank_oracle(rows, size):
    """Largest k with a nonzero k x k minor, determinants by cofactor expansion."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(n):
            if sub[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols, size), 0, -1):
        for ris in itertools.combinations(range(nrows), k):
            for cis in itertools.combinations(range(ncols), k):
                sub = [[rows[r][c] for c in cis] for r in ris]
                if det(sub) != 0:
                    return k
    return 0


def test_identity_rank_and_rref():
    m = _identity(QQ, 3)
    rank, rref = rank_and_rref(m)
    assert rank == 3
    assert rref == m


def test_zero_matrix_rank():
    m = _zero(QQ, 4, 7)
    assert rank_and_rref(m)[0] == 0


def test_duplicated_rows_rank_with_minor_oracle():
    rng = random.Random(20240811)
    m_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)]
              for _ in range(6)]
    m_rows.append(list(m_rows[0]))
    m_rows.append(list(m_rows[3]))
    rank = rank_and_rref(ExactMatrix.from_rows(QQ, m_rows))[0]
    assert rank <= 7
    # independent cofactor-expansion oracle, checked at the 4x4 level
    has_4x4 = _minor_rank_oracle(m_rows, 4) >= 4
    assert (rank >= 4) == has_4x4


def test_rank_matches_minor_oracle_small():
    rng = random.Random(7)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(5)]
        rank = rank_and_rref(ExactMatrix.from_rows(QQ, rows))[0]
        assert rank == _minor_rank_oracle(rows, 5)


def test_nullspace_identity_empty():
    assert nullspace_basis(_identity(PrimeField(7), 4)) == []


def test_nullspace_zero_matrix():
    basis = nullspace_basis(_zero(PrimeField(7), 2, 5))
    assert len(basis) == 5


def test_nullspace_basis_over_q_is_refused():
    # over Q the library computes ranks, not kernels
    with pytest.raises(DomainError):
        nullspace_basis(_identity(QQ, 2))


def test_nullspace_ones_row_over_f7():
    f7 = PrimeField(7)
    m = ExactMatrix.from_rows(f7, [[1, 1, 1]])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) % 7 == 0
    # enumeration oracle: the kernel of (1,1,1) over F_7 has exactly 49 vectors
    kernel = {v for v in itertools.product(range(7), repeat=3) if sum(v) % 7 == 0}
    assert len(kernel) == 49
    spanned = set()
    for a in range(7):
        for b in range(7):
            vec = tuple(
                (a * basis[0][i] + b * basis[1][i]) % 7 for i in range(3)
            )
            spanned.add(vec)
    assert spanned == kernel


def test_modular_rank_identity():
    m = _identity(QQ, 5)
    for p in (3, 101, 1000003):
        assert _modular_rank(m, p) == 5


def test_modular_rank_column_with_prime_entry():
    p = 13
    m = ExactMatrix.from_rows(QQ, [[1], [p]])
    assert _modular_rank(m, p) == 1
    assert rank_and_rref(m)[0] == 1


def test_modular_rank_denominator_hit():
    # the integer rows carry no denominator, so none can vanish mod p
    m = ExactMatrix.from_rows(QQ, [[Fraction(1, 5), Fraction(2, 25)], [Fraction(1, 5), 0]])
    assert _integer_rows(m.entries) == [[5, 2], [1, 0]]
    assert _modular_rank(m, 5) == rank_and_rref(m)[0] == 2


def test_mixed_field_entries_rejected():
    with pytest.raises(DataError):
        ExactMatrix.from_rows(PrimeField(7), [[Fraction(1, 2)]])
    with pytest.raises(DataError):
        ExactMatrix.from_rows(QQ, [["x"]])


@pytest.mark.parametrize("field", [PrimeField(7), QQ])
@pytest.mark.parametrize("rows", [((1, 2), (3,)), ((1, 2, 3), (0,)), ((0,), (1, 2, 3)),
                                  ((1, 2), (3, 4), ())])
def test_ragged_rows_rejected(field, rows):
    # rank and kernel read the width off the first row, so ragged rows
    # would give a rank, a kernel or an exception from deep in the elimination
    with pytest.raises(DataError, match="ragged matrix"):
        ExactMatrix(field, rows)
    with pytest.raises(DataError, match="ragged matrix"):
        ExactMatrix.from_rows(field, rows)


@st.composite
def _rational_matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    rows = [
        [
            Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    return ExactMatrix.from_rows(QQ, rows)


@settings(deadline=None, max_examples=60)
@given(_rational_matrices())
def test_rref_idempotent(m):
    rank, rref = rank_and_rref(m)
    rank2, rref2 = rank_and_rref(rref)
    assert rank2 == rank
    assert rref2 == rref


# primes from 3 to 2^64 + 13, so products of residues exceed 64 bits
_PRIMES = (3, 5, 7, 101, 65537, 1073741827, 2**61 - 1, 2**64 + 13)


@st.composite
def _matrices_with_repeats(draw, field):
    """Matrices over ``field``, possibly empty, with zero rows and scaled
    copies of earlier rows mixed in."""
    if field == QQ:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))
    else:
        entry = st.integers(0, field.p - 1)
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif kind == "repeat" and rows:
            scale = draw(entry)
            rows.append([scale * a for a in draw(st.sampled_from(rows))])
        else:
            rows.append([draw(st.one_of(st.just(field.zero), entry)) for _ in range(ncols)])
    return ExactMatrix.from_rows(field, rows)


@settings(deadline=None, max_examples=200)
@given(_matrices_with_repeats(QQ))
def test_exact_rank_matches_gauss_jordan_over_q(m):
    assert exact_rank(m) == rank_and_rref(m)[0]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(_PRIMES).flatmap(lambda p: _matrices_with_repeats(PrimeField(p))))
def test_exact_rank_matches_gauss_jordan_over_fp(m):
    assert exact_rank(m) == rank_and_rref(m)[0]


@settings(deadline=None, max_examples=200)
@given(_matrices_with_repeats(QQ))
def test_integer_rows_over_q_give_the_fraction_results(m):
    # a Q matrix of int rows, as evaluation_matrix builds, is taken as it
    # is; its rank matches its Fraction form and the unscaled rows
    int_rows = _integer_rows(m.entries)
    ints = ExactMatrix(QQ, tuple(tuple(row) for row in int_rows))
    fractions = ExactMatrix.from_rows(QQ, int_rows)
    assert all(type(a) is int for row in ints.entries for a in row)
    assert _integer_rows(ints.entries) == list(ints.entries)
    assert exact_rank(ints) == exact_rank(fractions) == exact_rank(m)


@settings(deadline=None, max_examples=200)
@given(_matrices_with_repeats(QQ), st.sampled_from((3, 5, 7, 2**61 - 1)))
def test_modular_rank_never_exceeds_rational(m, p):
    # the lower bound the certified rank over Q relies on; at p = 3, 5, 7
    # the rank mod p often drops below the rank over Z
    assert _modular_rank(m, p) <= bareiss(_integer_rows(m.entries))[0]


@st.composite
def _matrices_with_zero_columns(draw, field):
    """:func:`_matrices_with_repeats` with some columns set to zero."""
    m = draw(_matrices_with_repeats(field))
    zero_cols = draw(st.sets(st.integers(0, 6)))
    return ExactMatrix.from_rows(
        field, [[field.zero if j in zero_cols else a for j, a in enumerate(row)] for row in m.entries]
    )


@settings(deadline=None, max_examples=150)
@given(st.sampled_from((PrimeField(3), PrimeField(7), PrimeField(10007)))
       .flatmap(_matrices_with_zero_columns))
def test_nullspace_basis_spans_the_kernel(m):
    p = m.field.p
    basis = nullspace_basis(m)
    assert len(basis) == m.ncols - exact_rank(m)
    for vec in basis:
        assert len(vec) == m.ncols
        assert all(0 <= a < p for a in vec)
        for row in m.entries:
            assert sum(a * v for a, v in zip(row, vec)) % p == 0
    assert exact_rank(ExactMatrix.from_rows(m.field, basis)) == len(basis)


@pytest.mark.parametrize("rows, rank", [
    # residues ((5, 3), (6, 2)): determinant 6 mod 7
    (((222, 66), (118, 226)), 2),
    (((-1, 0), (0, 1)), 2),
    # residues (6, 5, 3) and twice that row
    (((-1, -2, 10), (5, 10, -1)), 1),
], ids=["past-p", "negative", "deficient"])
def test_unreduced_and_negative_entries_give_the_residue_results(rows, rank):
    # the elimination reduces its own input: rows built with the constructor
    # need not be residues
    field = PrimeField(7)
    unreduced, residues = ExactMatrix(field, rows), ExactMatrix.from_rows(field, rows)
    assert unreduced.entries != residues.entries
    assert exact_rank(unreduced) == exact_rank(residues) == rank
    assert row_list_rank_mod_p(residues.entries, 7) == rank
    basis = nullspace_basis(unreduced)
    assert basis == nullspace_basis(residues) and len(basis) == len(rows[0]) - rank


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(_PRIMES).flatmap(lambda p: _matrices_with_repeats(PrimeField(p))),
       st.data())
def test_rank_and_kernel_of_shifted_residues_match_the_residue_oracle(m, data):
    # each residue moved by a multiple of p, negative, small or far past p
    p = m.field.p
    shift = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    unreduced = ExactMatrix(m.field, tuple(tuple(a + p * data.draw(shift) for a in row)
                                           for row in m.entries))
    assert exact_rank(unreduced) == row_list_rank_mod_p(m.entries, p)
    assert nullspace_basis(unreduced) == nullspace_basis(m)


def test_exact_rank_empty_shapes():
    # a matrix with no rows cannot record a width, so 0 x n is the empty tuple
    for field in (QQ, PrimeField(7)):
        assert exact_rank(ExactMatrix(field, ())) == 0
        assert exact_rank(ExactMatrix.from_rows(field, [[], [], []])) == 0
        assert exact_rank(_zero(field, 4, 6)) == 0


def test_exact_rank_zero_and_duplicated_rows():
    q_rows = [[Fraction(1, 2), 3, 0, 5], [0, 0, 0, 0], [Fraction(1, 2), 3, 0, 5],
              [0, Fraction(-2, 3), 0, 1], [1, 6, 0, 10]]
    fp_rows = [[6, 3, 0, 5], [0, 0, 0, 0], [6, 3, 0, 5], [0, 3, 0, 1], [1, 6, 0, 10]]
    for m in (ExactMatrix.from_rows(QQ, q_rows), ExactMatrix.from_rows(PrimeField(11), fp_rows)):
        assert exact_rank(m) == rank_and_rref(m)[0] == 2


def test_exact_rank_skips_pivotless_columns():
    # column 1 and 2 have no pivot once column 0 is eliminated; column 3 does
    m = ExactMatrix.from_rows(QQ, [[1, 2, 3, 4], [2, 4, 6, 9], [Fraction(1, 3), Fraction(2, 3), 1, 2]])
    assert exact_rank(m) == 2


def test_exact_rank_prime_above_two_to_the_64():
    p = 2**64 + 13
    assert is_prime(p)
    rng = random.Random(3)
    base = [[rng.randrange(p) for _ in range(7)] for _ in range(4)]
    # two rows are combinations of the others with coefficients near p
    extra = [[(c1 * a + c2 * b) % p for a, b in zip(base[0], base[1])]
             for c1, c2 in ((p - 1, p - 2), (rng.randrange(p), rng.randrange(p)))]
    m = ExactMatrix.from_rows(PrimeField(p), base + extra)
    assert exact_rank(m) == rank_and_rref(m)[0] == 4


# slots of 8, 16, 32 and 64 bits over these shapes, and multi-word slots
# from 2^61 - 1 up; 2^127 - 1 is past the primality test's range, but the
# elimination takes any modulus; it keeps slots of over 250 bits in the test
_PACKED_PRIMES = (3, 5, 101, 10007, 32003, 2**26 - 5, 2**29 - 3, 2**61 - 1, 2**127 - 1)


@st.composite
def _residue_rows(draw):
    """Residue rows mod a drawn prime: shapes 0..9 x 0..9 or tall m >> n,
    with zero rows and all-zero (pivotless) columns mixed in."""
    p = draw(st.sampled_from(_PACKED_PRIMES))
    nrows, ncols = draw(st.one_of(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.integers(20, 60), st.integers(1, 3)),
    ))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 3)) == 0:
            rows.append([0] * ncols)
        else:
            rows.append([0 if c in zero_cols else draw(entry) for c in range(ncols)])
    return p, rows


@settings(deadline=None, max_examples=300)
@given(_residue_rows())
def test_packed_rank_mod_p_matches_row_list_elimination(case):
    p, rows = case
    assert len(_echelon_mod_p(rows, p)) == row_list_rank_mod_p(rows, p)


@settings(deadline=None, max_examples=100)
@given(_residue_rows())
def test_slot_by_slot_conversion_gives_the_same_echelon(case):
    # without array items (as on a big-endian machine) every slot converts
    # by itself, and the pivots must not change
    p, rows = case
    pivots = _echelon_mod_p(rows, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_ITEM_CODECS", {})
        assert _echelon_mod_p(rows, p) == pivots


@pytest.mark.parametrize("item_codecs", [True, False], ids=["array-items", "slot-by-slot"])
@pytest.mark.parametrize("k", range(1, 18))
def test_slot_codec_round_trips_every_width(k, item_codecs, monkeypatch):
    if not item_codecs:
        monkeypatch.setattr(linalg, "_ITEM_CODECS", {})
    rng = random.Random(k)
    top = 2 ** (8 * k) - 1
    values = [0, top, 1, top - 1] + [rng.randrange(top + 1) for _ in range(40)]
    pack, unpack = _slot_codec(8 * k)
    q, n = pack(values), len(values)
    assert q == sum(a << (8 * k * i) for i, a in enumerate(values))
    assert list(unpack(q, n)) == values
    assert list(unpack(0, 0)) == [] and pack([]) == 0
    # a short int reads as zeros in its high slots, and one wider than n
    # slots raises, so a carry out of the top slot is never dropped
    assert list(unpack(pack(values[:3]), n)) == values[:3] + [0] * (n - 3)
    with pytest.raises(OverflowError):
        unpack(q | 1 << (8 * k * n), n)
    # slots of up to 8 bytes go through array items when there are any
    # (k = 3, 5, 6 and 7 by strided copies), and slot by slot otherwise
    assert isinstance(unpack(q, n), array) == (item_codecs and k <= 8)


@pytest.mark.parametrize("p", [3, 2**61 - 1, linalg._Q_PRIME, 2**29 - 3, 131071, 2097143, 2**33 - 9])
def test_packed_rank_mod_p_worst_case_slot_growth(p):
    n = 40
    # every entry p - 1: rank 1
    assert len(_echelon_mod_p([[p - 1] * n for _ in range(n)], p)) == 1
    # a staircase of pivot rows (p-1 on the diagonal and in the last column)
    # and a last row of p - 1: each of the 39 pivots adds (p-1)^2 to the
    # last row's last slot, the most any slot can gain.  Its start value
    # makes the true residue 0, so the rank is 39, and a slot one bit too
    # narrow wraps the sum and reports 40.
    rows = [[p - 1 if c in (r, n - 1) else 0 for c in range(n)] for r in range(n - 1)]
    rows.append([p - 1] * (n - 1) + [-(n - 1) % p])
    assert row_list_rank_mod_p(rows, p) == n - 1
    assert len(_echelon_mod_p(rows, p)) == n - 1


def test_worst_case_slot_growth_fills_a_whole_word():
    # at 2^29 - 3 the staircase above ends with a last slot in [2^63, 2^64):
    # one word, top bit set, so a carry or a lost byte at the word boundary
    # changes that test's rank
    p, n = 2**29 - 3, 40
    assert _slot_width(p, n, n) == 64
    assert 2**63 <= (n - 1) * (p - 1) ** 2 + (-(n - 1) % p) < 2**64


@pytest.mark.parametrize("p, width", [(2**17 - 1, 40), (2097143, 48), (2**33 - 9, 72)])
def test_worst_case_slot_growth_fills_whole_bytes(p, width):
    # above 32 bits a slot is rounded up to whole bytes, past 64 bits too,
    # and the staircase above ends with a last slot in its top byte's top
    # bit, so a slot one byte narrower wraps it
    n = 40
    assert is_prime(p)
    assert _slot_width(p, n, n) == width
    assert 2 ** (width - 1) <= (n - 1) * (p - 1) ** 2 + (-(n - 1) % p) < 2**width


_SWEEP_PRIMES = (3, 101, 32003, 2**31 - 1)


@st.composite
def _shaped_rows(draw, entry):
    """Rows of ``entry`` values, m < n and m > n, as drawn or as a product
    A B of rank at most k, with zero rows and repeated rows put in."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        a, b = draw(_int_matrix((m, k), entry)), draw(_int_matrix((k, n), entry))
        rows = [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(n)] for row in a]
    else:
        rows = draw(_int_matrix((m, n), entry))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows)))
        copy = [0] * n if not rows or draw(st.booleans()) else list(draw(st.sampled_from(rows)))
        rows.insert(i, copy)
    return rows


def _residues(p):
    return st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))


def _transpose(m):
    return ExactMatrix(m.field, tuple(zip(*m.entries)))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_SWEEP_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), _shaped_rows(_residues(p)))))
def test_row_insertion_matches_the_column_sweep(case):
    p, rows = case
    rows = [[a % p for a in row] for row in rows]
    pivots = _echelon_mod_p(rows, p)
    # the same pivot columns and the same scaled pivot rows
    assert pivots == column_sweep_echelon(rows, p)
    if not rows:
        return
    m = ExactMatrix.from_rows(PrimeField(p), rows)
    rank, rref = rank_and_rref(m)
    leads = [next(c for c, a in enumerate(row) if a) for row in rref.entries if any(row)]
    assert [c for c, _ in pivots] == leads and len(leads) == rank
    assert exact_rank(m) == exact_rank(_transpose(m)) == rank
    assert nullspace_basis(m) == gauss_jordan_nullspace(m)


@settings(deadline=None, max_examples=150)
@given(_shaped_rows(st.integers(-9, 9)))
def test_exact_rank_of_the_transpose_over_q(rows):
    m = ExactMatrix(QQ, tuple(map(tuple, rows)))
    assert exact_rank(m) == exact_rank(_transpose(m)) == _q_rank_oracles(rows)


class _Unread:
    """A row that fails the test when the elimination reads it."""

    def __len__(self):
        raise AssertionError("a row past full column rank was read")

    __iter__ = __len__


def test_row_insertion_stops_at_full_column_rank():
    # a zero row, a repeated row and then n independent rows: once every
    # column has a pivot, no later row is read
    p, n = 101, 5
    rows = [[0] * n, [1] * n, [1] * n] + [[int(j >= i) for j in range(n)] for i in range(1, n)]
    assert len(_echelon_mod_p(rows + [_Unread()] * 3, p)) == n


def test_exact_rank_over_fp_eliminates_the_columns_of_a_wide_matrix(monkeypatch):
    shapes = []

    def logged_echelon(rows, p):
        shapes.append((len(rows), len(rows[0])))
        return echelon(rows, p)

    echelon = linalg._echelon_mod_p
    monkeypatch.setattr(linalg, "_echelon_mod_p", logged_echelon)
    # a 3 x 7 Vandermonde matrix: its columns are eliminated over F_p, and
    # over Q too, where a rank mod the prime equal to the row count is exact
    wide = tuple(tuple((i + 1) ** j for j in range(7)) for i in range(3))
    fp = ExactMatrix(PrimeField(101), wide)
    assert exact_rank(fp) == exact_rank(_transpose(fp)) == exact_rank(ExactMatrix(QQ, wide)) == 3
    assert shapes == [(7, 3), (7, 3), (7, 3)]
    # below the row count, a wide Q matrix falls back to the rows that the
    # transposed pivots name, whose kernel vectors the certificate lifts
    shapes.clear()
    deficient = wide[:2] + (tuple(map(add, *wide[:2])),)
    assert exact_rank(ExactMatrix(QQ, deficient)) == 2
    assert shapes == [(7, 3), (2, 7)]


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(st.data())
def test_row_insertion_matches_the_column_sweep_up_to_200(data):
    # rank-deficient by construction: r random rows and combinations of
    # them, shuffled, in both orientations
    p = data.draw(st.sampled_from(_SWEEP_PRIMES))
    size = st.one_of(st.integers(150, 200), st.integers(1, 200))
    m, n = data.draw(size), data.draw(size)
    r = data.draw(st.integers(0, min(m, n) - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    base = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    rows = list(base)
    for _ in range(m - r):
        terms = [(rng.randrange(p), row) for row in rng.sample(base, min(r, 3))]
        rows.append([sum(a * row[j] for a, row in terms) % p for j in range(n)])
    rng.shuffle(rows)
    for matrix in (rows, [list(col) for col in zip(*rows)]):
        pivots = _echelon_mod_p(matrix, p)
        assert pivots == column_sweep_echelon(matrix, p)
        assert len(pivots) <= r
    assert exact_rank(ExactMatrix(PrimeField(p), tuple(map(tuple, rows)))) == len(pivots)


def _distinct_points(field, draw, n):
    """n pairwise distinct projective points from ``draw()``."""
    points = {}
    while len(points) < n:
        pt = draw()
        if any(pt):
            points.setdefault(normalize_point(field, pt), pt)
    return tuple(points.values())


def test_full_rank_q_matrix_is_decided_by_one_prime():
    # 168 random integer points and the 165 degree-8 monomials: the rank mod
    # the first prime reaches min(m, n), so no kernel certificate is needed
    rng = random.Random(168)
    points = _distinct_points(QQ, lambda: tuple(rng.randint(-9, 9) for _ in range(4)), 168)
    m = evaluation_matrix(NodeConfiguration(8, QQ, points), 8)
    start = time.perf_counter()
    assert exact_rank(m) == 165
    # Bareiss alone took over 10 s on matrices like this one
    assert time.perf_counter() - start < 3
    assert _rational_kernel(_integer_rows(m.entries), m.ncols) == (165, None, 1)


@pytest.mark.parametrize("rows", [
    [[linalg._Q_PRIME, 0], [0, 1]],
    # integer rows (1, 2) and (1, 2 + 2P): the only 2x2 minor is 2P
    [[Fraction(1, 2), 1], [1, 2 + 2 * linalg._Q_PRIME]],
    # wide, with no pivot mod P in either orientation: only unit vectors
    # reach the exact check
    [[linalg._Q_PRIME, 2 * linalg._Q_PRIME, 0]],
    # wide: rows 0 and 2 span all rows mod P, and the kernel found from
    # them alone fails the exact check on row 1
    [[1, 0, 0, 0], [0, linalg._Q_PRIME, 0, 0], [0, 0, 1, 0]],
], ids=["P-diagonal", "minor-2P", "P-row", "P-among-rows"])
def test_rank_mod_the_q_prime_takes_a_second_prime(rows):
    # the rank drops mod the first prime, the kernel vectors found there fail
    # the exact check, and the next prime sees the full rank
    m = ExactMatrix.from_rows(QQ, rows)
    int_rows, full = _integer_rows(m.entries), min(m.nrows, m.ncols)
    assert _modular_rank(m, linalg._Q_PRIME) == full - 1
    assert _rational_kernel(int_rows, m.ncols) == (full, None, 2)
    assert exact_rank(m) == rank_and_rref(m)[0] == bareiss(int_rows)[0] == full


def test_field_inverse_and_validate_refuse_what_has_no_value():
    for field, zero in ((QQ, 0), (PrimeField(7), 7)):
        with pytest.raises(DomainError, match="division by zero"):
            field.inverse(zero)
    with pytest.raises(DataError, match="not a prime-field scalar"):
        PrimeField(7).validate(1.5)


def test_q_primes_descend_from_a_one_word_prime():
    primes = list(itertools.islice(linalg._q_primes(), 4))
    assert primes[0] == linalg._Q_PRIME == 2**26 - 5
    # the worst-case slot at the largest matrix ranked is one 64-bit word
    assert _slot_width(linalg._Q_PRIME, MONOMIAL_CAP, MONOMIAL_CAP) <= 64
    assert primes == sorted(primes, reverse=True)
    # every odd number strictly between two listed primes is composite
    for hi, lo in zip(primes, primes[1:]):
        assert not any(is_prime(n) for n in range(lo + 2, hi, 2))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 2**61).flatmap(lambda k: st.tuples(
    st.just(2 * k + 1), st.integers(-isqrt(k), isqrt(k)), st.integers(1, isqrt(k)))))
def test_lift_recovers_small_fractions(case):
    # an odd modulus M has 2 * isqrt(M // 2)^2 < M, so a/b is the only answer
    modulus, a, b = case
    bound = isqrt(modulus // 2)
    if gcd(a, b) != 1 or gcd(b, modulus) != 1:
        return
    assert _lift(a * pow(b, -1, modulus) % modulus, modulus, bound) == (a, b)


def _q_rank_oracles(rows):
    """Ranks of integer rows by Bareiss and by Gauss-Jordan over Q; they must agree."""
    by_bareiss = bareiss(rows)[0]
    assert rank_and_rref(ExactMatrix.from_rows(QQ, rows))[0] == by_bareiss
    return by_bareiss


def _check_certificate(rows, rank, kernel):
    """The certified integer kernel: one vector per free column, nonzero
    there and zero at the other free columns, annihilating every row over Z."""
    free = [vec[0][0] for vec in kernel]
    assert len(set(free)) == len(free) == len(rows[0]) - rank
    for vec in kernel:
        assert vec[0][1] and not any(c in free for c, _ in vec[1:])
        assert not any(sum(row[c] * v for c, v in vec) for row in rows)


def test_failing_certificate_raises_past_the_hadamard_limit(monkeypatch):
    # a fault that fails every certificate must end the loop: past 2*H^2,
    # H = 3 * 5 here, a correct elimination always certifies
    primes = linalg._q_primes

    def at_most_fifty_primes():
        for p in itertools.islice(primes(), 50):
            yield p
        raise AssertionError("the certificate loop took more than 50 primes")

    monkeypatch.setattr(linalg, "_kernel_certificate", lambda *args: None)
    monkeypatch.setattr(linalg, "_q_primes", at_most_fifty_primes)
    with pytest.raises(ArithmeticError):
        exact_rank(ExactMatrix.from_rows(QQ, [[1, 2], [2, 4]]))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_kernel_certificate_rejects_a_vector_off_the_kernel(index):
    # 1 x 4: pivot column 0 and kernel vectors (-a, unit) for the free
    # columns; one residue off by one puts one lifted vector off the kernel
    p, rows, free = linalg._Q_PRIME, [[1, 2, 3, 4]], [1, 2, 3]
    residues = [[p - 2, p - 3, p - 4]]
    kernel = linalg._kernel_certificate(rows, [0], free, residues, p)
    assert kernel == [[(1, 1), (0, -2)], [(2, 1), (0, -3)], [(3, 1), (0, -4)]]
    residues[0][index] += 1
    assert linalg._kernel_certificate(rows, [0], free, residues, p) is None


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _int_matrix(shape, entries):
    return st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0], max_size=shape[0])


def _unitriangular(n, draw, lower):
    """A random n x n integer matrix with ones on the diagonal: unimodular."""
    return [[1 if i == j else (draw(st.integers(-5, 5)) if (i > j) == lower else 0)
             for j in range(n)] for i in range(n)]


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: _int_matrix(shape, st.integers(-4, 4))))
def test_rational_rank_of_full_rank_integer_matrices(rows):
    ncols = len(rows[0])
    rank, kernel, used = _rational_kernel(rows, ncols)
    assert rank == _q_rank_oracles(rows)
    # every minor is below the first prime in absolute value (Hadamard:
    # 7^3.5 * 4^7 < 7^4 * 4^7), so a nonzero one stays nonzero mod that prime
    assert 7**4 * 4**7 < linalg._Q_PRIME
    if rank == min(len(rows), ncols):
        assert kernel is None and used == 1
    else:
        _check_certificate(rows, rank, kernel)


@st.composite
def _deficient_products(draw):
    """A (m x k) times B (k x n) with 1 <= k < min(m, n): rank at most k."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    k = draw(st.integers(1, min(m, n) - 1))
    entries = st.integers(-9, 9)
    return _product(draw(_int_matrix((m, k), entries)), draw(_int_matrix((k, n), entries))), k


@settings(deadline=None, max_examples=60)
@given(_deficient_products())
def test_rational_rank_of_deficient_products(case):
    rows, k = case
    rank, kernel, _ = _rational_kernel(rows, len(rows[0]))
    assert rank == _q_rank_oracles(rows) <= k
    _check_certificate(rows, rank, kernel)


# the first two primes of the certified rank over Q
_P1, _P2 = itertools.islice(linalg._q_primes(), 2)


@st.composite
def _huge_kernel_entries(draw):
    """A (I | C) stacked with combinations of its rows, A unimodular.

    The kernel basis with the identity on the free columns is (-C e_i, e_i),
    and C has an entry past what one prime's lift can reach, isqrt(p // 2)
    for the first prime p, and within what the first two reach together.
    """
    r, s, extra = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    c = draw(_int_matrix((r, s), st.integers(-9, 9)))
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, s - 1))
    c[i][j] = draw(st.sampled_from((1, -1))) * draw(st.integers(isqrt(_P1 // 2) + 1,
                                                                isqrt(_P1 * _P2 // 2)))
    a = _product(_unitriangular(r, draw, True), _unitriangular(r, draw, False))
    top = _product(a, [[int(i == j) for j in range(r)] + c[i] for i in range(r)])
    return top + _product(draw(_int_matrix((extra, r), st.integers(-3, 3))), top)


@settings(deadline=None, max_examples=40)
@given(_huge_kernel_entries())
def test_rational_rank_with_a_huge_kernel_entry_takes_two_primes(rows):
    rank, kernel, used = _rational_kernel(rows, len(rows[0]))
    assert rank == _q_rank_oracles(rows)
    _check_certificate(rows, rank, kernel)
    # one prime p lifts entries up to isqrt(p // 2), ~5.8e3; two, sharing
    # the echelon, lift the entry of at most isqrt(p p' // 2), ~4.7e7, after
    # one CRT step
    assert used == 2


@st.composite
def _unlucky_at_the_q_prime(draw):
    """[[A, AX], [YA, YAX]] with det A = kP, P the first prime, and rank A over Q.

    A = L diag(1, ..., 1, kP) R with L, R unitriangular, so its rank drops
    by one mod P and is full mod the next prime.
    """
    r, s, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = [[int(i == j) for j in range(r)] for i in range(r)]
    d[-1][-1] = draw(st.integers(1, 1000)) * linalg._Q_PRIME
    a = _product(_product(_unitriangular(r, draw, True), d), _unitriangular(r, draw, False))
    x = draw(_int_matrix((r, s), st.integers(-5, 5)))
    y = draw(_int_matrix((t, r), st.integers(-5, 5)))
    top = [row + ext for row, ext in zip(a, _product(a, x))]
    return top + _product(y, top)


@settings(deadline=None, max_examples=40)
@given(_unlucky_at_the_q_prime())
def test_rational_rank_when_the_q_prime_is_unlucky(rows):
    rank, kernel, used = _rational_kernel(rows, len(rows[0]))
    assert rank == _q_rank_oracles(rows)
    _check_certificate(rows, rank, kernel)
    assert len(_echelon_mod_p([[v % linalg._Q_PRIME for v in row] for row in rows],
                              linalg._Q_PRIME)) == rank - 1
    assert used == 2


def test_rational_rank_skips_a_prime_whose_echelon_is_worse(monkeypatch):
    # rank 2 with pivots in columns 0 and 1; mod the second prime P2 the first
    # row is (0, 0, -A), so the pivots move to columns 1 and 2 and that prime
    # must not enter the CRT; the kernel entry 7 P2 lifts from the first,
    # third and fourth primes
    a, b = 10**6 + 3, 7
    rows = [[_P2, 0, -a], [0, 1, -b], [_P2, 1, -a - b]]
    imaged = []

    def logged_kernel_images(pivots, nrows, ncols, p):
        imaged.append(p)
        return kernel_images(pivots, nrows, ncols, p)

    kernel_images = linalg._kernel_images
    monkeypatch.setattr(linalg, "_kernel_images", logged_kernel_images)
    assert _rational_kernel(rows, 3) == (2, [[(2, _P2), (0, a), (1, 7 * _P2)]], 4)
    assert _P2 not in imaged and len(imaged) == 3 and imaged[0] == _P1


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_PRIMES).flatmap(lambda p: _matrices_with_zero_columns(PrimeField(p))))
def test_nullspace_basis_is_the_gauss_jordan_basis(m):
    # same vectors in the same order, and the same entry type, int
    basis, oracle = nullspace_basis(m), gauss_jordan_nullspace(m)
    assert basis == oracle
    assert [list(map(type, v)) for v in basis] == [list(map(type, v)) for v in oracle]


def _segre_points(rng, n):
    """n distinct points on xw = yz, (su, sv, tu, tv) for small integers."""
    def draw():
        s, t, u, v = (rng.randint(-9, 9) for _ in range(4))
        return (s * u, s * v, t * u, t * v)
    return _distinct_points(QQ, draw, n)


def _cubic_points(rng, n):
    """n distinct points on the twisted cubic (s^3, s^2 t, s t^2, t^3)."""
    def draw():
        s, t = rng.randint(-30, 30), rng.randint(1, 30)
        return (s**3, s * s * t, s * t * t, t**3)
    return _distinct_points(QQ, draw, n)


@pytest.mark.parametrize("points, expected_rank", [
    (_segre_points(random.Random(84), 168), 81),   # (8 + 1)^2 forms on P1 x P1
    (_cubic_points(random.Random(140), 60), 25),  # 3*8 + 1 forms on P1
], ids=["quadric-168", "cubic-60"])
def test_deficient_rank_at_scale_matches_the_closed_form(points, expected_rank):
    cfg = NodeConfiguration(8, QQ, points)
    start = time.perf_counter()
    assert vanishing_dimension(cfg, 8) == 165 - expected_rank
    # Bareiss alone took 4.5 s on the 168-point case
    assert time.perf_counter() - start < 3
    # the closed form bounds the rank from above, a rank mod a prime from below
    p = 2**31 - 1
    rows = _integer_rows(evaluation_matrix(cfg, 8).entries)
    assert row_list_rank_mod_p([[a % p for a in row] for row in rows], p) == expected_rank
    rank, kernel, used = _rational_kernel(rows, 165)
    assert (rank, used) == (expected_rank, 1)
    _check_certificate(rows, rank, kernel)


def _fraction_det(rows):
    """Determinant by Fraction Gaussian elimination, independent of Bareiss."""
    mat = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            factor = mat[i][c] / mat[c][c]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[c])]
    return det


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_bareiss_last_pivot_is_the_determinant(rows):
    rank, pivot = bareiss(rows)
    m = ExactMatrix.from_rows(QQ, rows)
    assert rank == rank_and_rref(m)[0]
    if rank == len(rows):
        det = _fraction_det([[Fraction(a) for a in row] for row in rows])
        assert abs(pivot) == abs(det)


def _naive_mod2_rank(rows, cols):
    """Dense integer elimination mod 2, independent of the packed path."""
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] % 2), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % 2:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_bit_rank_against_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        nrows = rng.randint(1, 16)
        ncols = rng.randint(1, 17)
        dense = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        rows = [sum(b << i for i, b in enumerate(row)) for row in dense]
        assert len(bit_rref(rows)) == _naive_mod2_rank(dense, ncols)


def _dense_rref_mod2(rows, ncols):
    """Gauss-Jordan on lists of bits, highest bit first: the nonzero rows
    of the reduced row echelon form, read back as ints."""
    mat = [[(r >> c) & 1 for c in reversed(range(ncols))] for r in rows]
    rank = 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][j]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return [sum(b << (ncols - 1 - j) for j, b in enumerate(row)) for row in mat[:rank]]


def _span(rows):
    words = {0}
    for r in rows:
        words |= {w ^ r for w in words}
    return words


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))),
    st.randoms(use_true_random=False))
def test_bit_rref_is_the_reduced_row_echelon_form(case, rng):
    ncols, rows = case
    rref = bit_rref(rows)
    assert rref == _dense_rref_mod2(rows, ncols)
    for row in rref:  # each leading bit is set in exactly one row
        lead = row.bit_length() - 1
        assert [(r >> lead) & 1 for r in rref].count(1) == 1
    # any shuffle of the rows, with random sums of them appended, gives the
    # same list, and the span is the span of the rows
    more = rows + [reduce(xor, rng.sample(rows, rng.randint(1, len(rows))))
                   for _ in range(rng.randint(0, 4)) if rows]
    rng.shuffle(more)
    assert bit_rref(more) == rref
    assert _span(rref) == _span(rows)
