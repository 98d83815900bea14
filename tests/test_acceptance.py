"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is exact integer equality.
"""

import random
import time
from math import comb

from nodalcodes.bounds import (
    beauville_bound,
    improved_bound,
    miyaoka_max_nodes,
    torsion_rank,
)
from nodalcodes.classify import classify_quartic_codes
from nodalcodes.codes import STRICT, WEAK, EvenSetCode, EvenSetWord, canonical_form
from nodalcodes.fields import QQ
from nodalcodes.linalg import ExactMatrix
from nodalcodes.nodes import NodeConfiguration, defect, vanishing_dimension
from nodalcodes.series import symmetroid_hilbert_series
from nodalcodes.symmetroid import no_quadric_certificate
from permutation_oracle import permuted_code
from rank_oracle import field_evaluation_matrix, rank_and_rref
from series_oracle import symmetroid_series_by_division

EXPECTED_TABLE = {
    6: {"[6,1,{6_1}]"},
    7: {"[7,1,{6_1}]"},
    8: {"[8,1,{6_1}]", "[8,1,{8_1}]"},
    9: {"[9,1,{6_1}]", "[9,1,{8_1}]"},
    10: {"[10,1,{6_1}]", "[10,1,{8_1}]", "[10,1,{10_1}]", "[10,2,{6_2,8}]"},
    11: {"[11,1,{6_1}]", "[11,1,{8_1}]", "[11,1,{10_1}]", "[11,2,{6_2,8}]"},
    12: {"[12,2,{6_1,8_1,10}]", "[12,2,{8_2}]", "[12,3,{6_3,8}]", "[12,2,{6_2,8}]"},
    13: {"[13,3,{6_3,8}]", "[13,3,{6_3,8,10}]"},
    14: {"[14,4,{6_4,8,10}]"},
    15: {"[15,5,{6_5,8,10}]"},
    16: {"[16,6,{6_6,8,10,16}]"},
}
EXPECTED_COUNTS = (1, 1, 2, 2, 4, 4, 4, 2, 1, 1, 1)


def test_criterion_1_classification_golden_table():
    start = time.monotonic()
    tables = {mu: classify_quartic_codes(mu) for mu in range(6, 17)}
    elapsed = time.monotonic() - start
    counts = tuple(len(tables[mu].entries) for mu in range(6, 17))
    assert counts == EXPECTED_COUNTS
    for mu in range(6, 17):
        got = {e.profile for e in tables[mu].entries}
        assert got == EXPECTED_TABLE[mu], f"mu={mu}: {sorted(got)}"
        # dimensions are encoded in the profiles; check them explicitly too
        for entry in tables[mu].entries:
            assert entry.profile.split(",")[1] == str(entry.dim)
    for mu in (13, 14, 15, 16):
        digests = {e.canonical for e in tables[mu].entries}
        assert len(digests) == len(tables[mu].entries)
    assert elapsed < 60.0, f"classification took {elapsed:.1f}s"
    print(f"\n[acceptance] 1 classification golden table (mu=6..16, {elapsed:.1f}s): PASS")


def test_criterion_2_defect_arithmetic():
    assert defect(4, 10, 0).defect == 0
    assert defect(4, 11, 0).defect == 1
    assert defect(6, 65, 4).defect == 13
    print("\n[acceptance] 2 defect arithmetic (quartic 10/11 nodes, sextic 65): PASS")


def test_criterion_3_bounds():
    assert beauville_bound(8, 168) == 18
    assert improved_bound(8, 168) == 19
    assert beauville_bound(4, 16) == 6
    assert beauville_bound(6, 65) == 13
    for b in range(4, 41, 2):
        assert (b - 2) * (23 * b**2 - 38 * b + 24) % 48 == 0
        assert comb(3 * b // 2 - 1, 3) - 4 * comb(b // 2, 3) == (b - 2) * (
            23 * b**2 - 38 * b + 24
        ) // 48
    for b in range(24, 41, 2):
        assert improved_bound(b, miyaoka_max_nodes(b)) < 0
    assert improved_bound(22, miyaoka_max_nodes(22)) >= 0  # not yet vacuous at 22
    print("\n[acceptance] 3 bounds (values, identity on 4..40, vacuous for b>=24): PASS")


def test_criterion_4_hilbert_series():
    coeffs = symmetroid_hilbert_series(20)
    assert coeffs[:6] == [0, 0, 0, 10, 25, 46]
    assert coeffs == symmetroid_series_by_division(20)
    print("\n[acceptance] 4 hilbert series (0,0,0,10,25,46; division oracle to 20): PASS")


def test_criterion_5_symmetroid_evidence(scan_survey):
    assert len(scan_survey) == 20
    for seed, matrix, result in scan_survey:
        assert len(result.points) == 10, f"seed {seed}: {len(result.points)} points"
        cert = no_quadric_certificate(result.points, result.prime)
        assert cert.rank == 10 and cert.certified, f"seed {seed}"
    print(
        "\n[acceptance] 5 symmetroid scans (20 seeds at p=101, "
        "all 10-point and certified): PASS"
    )


def test_criterion_6_torsion_ranks():
    assert torsion_rank(1, 0) == (1, 2)
    assert torsion_rank(13, 13) == (0, 0)
    print("\n[acceptance] 6 torsion ranks ((1,0)->(1,2), (13,13)->(0,0)): PASS")


def test_criterion_7_property_suites(classification_tables):
    # word algebra laws, exhaustive through mu = 10
    for mu in (6, 10):
        size = 1 << mu
        for a in range(size):
            wa = a.bit_count()
            for b in range(size):
                assert (a ^ b).bit_count() + 2 * (a & b).bit_count() == wa + b.bit_count()

    # every classified word is admissible: weakly even of weight 6 or 10,
    # strictly even of weight 8 or 16
    admissible = {(6, WEAK), (10, WEAK), (8, STRICT), (16, STRICT)}
    for table in classification_tables.values():
        for entry in table.entries:
            words = [EvenSetWord.from_ext(entry.code.mu, w) for w in entry.code.words_ext() if w]
            assert all((w.weight, w.parity) in admissible for w in words)

    # canonical form is invariant under 500 random node permutations
    rng = random.Random(9001)
    for _ in range(500):
        mu = rng.randint(4, 12)
        parity_mask = rng.randrange(1 << mu)
        words = []
        for _ in range(rng.randint(1, 4)):
            support = rng.randrange(1, 1 << mu)
            weak = bool((support & parity_mask).bit_count() & 1)
            words.append(EvenSetWord(mu, weak, support))
        code = EvenSetCode.from_words(mu, words)
        perm = list(range(mu))
        rng.shuffle(perm)
        assert canonical_form(code) == canonical_form(permuted_code(code, tuple(perm)))

    # vanishing dimension: monotone, and matching the Gauss-Jordan oracle on
    # 50 random configurations of at most 12 points
    from fractions import Fraction

    from nodalcodes.errors import DataError

    rng = random.Random(515)
    done = 0
    while done < 50:
        npts = rng.randint(1, 12)
        d = rng.randint(1, 3)
        pts = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(4)) for _ in range(npts)]
        try:
            cfg = NodeConfiguration(4, QQ, tuple(pts))
        except DataError:
            continue
        m = field_evaluation_matrix(cfg, d)
        rank, _ = rank_and_rref(m)
        assert vanishing_dimension(cfg, d) == m.ncols - rank
        sub = NodeConfiguration(4, QQ, cfg.points[:-1]) if cfg.mu > 1 else None
        if sub is not None:
            a, b = vanishing_dimension(sub, d), vanishing_dimension(cfg, d)
            assert a - 1 <= b <= a
        done += 1

    # rref consistency on random rational matrices
    rng = random.Random(2718)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
            for _ in range(5)
        ]
        m = ExactMatrix.from_rows(QQ, rows)
        rank, rref = rank_and_rref(m)
        rank2, rref2 = rank_and_rref(rref)
        assert (rank, rref) == (rank2, rref2)
    print("\n[acceptance] 7 property suites (word algebra, canonical invariance, "
          "vanishing-dimension oracle, rref consistency): PASS")
