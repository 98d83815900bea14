"""Finite-field rank-2 locus scans and quadric interpolation certificates."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes.errors import DataError, DomainError, ResourceError
from nodalcodes.fields import PrimeField
from nodalcodes.linalg import ExactMatrix, nullspace_basis
from nodalcodes.symmetroid import (
    QUADRIC_MONOMIALS,
    SymmetricLinearMatrix,
    load_matrix_file,
    matrix_from_dict,
    minors_vanish_at,
    no_quadric_certificate,
    random_symmetric_matrix,
    random_symmetroid_matrix,
    scan_nodes_fp,
)
from rank_oracle import row_list_rank_mod_p

# upper-triangle entry order: (0,0),(0,1),(0,2),(0,3),(1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
X_IDENTITY = ["x", "0", "0", "0", "x", "0", "0", "x", "0", "x"]
DIAG_XYZW = ["x", "0", "0", "0", "y", "0", "0", "z", "0", "w"]
# last row and column zero: (0:0:0:1) is a common kernel vector of M_x..M_w
COMMON_KERNEL = ["x", "y", "z", "0", "w", "x+y", "0", "z+w", "0", "0"]
# x * u u^T for u = (1, 2, 3, 4): rank <= 1 everywhere
RANK_ONE_PENCIL = ["x", "2*x", "3*x", "4*x", "4*x", "6*x", "8*x", "9*x", "12*x", "16*x"]
ZERO = ["0"] * 10
# four points in the plane w = 0 and two off it
COPLANAR_SIX = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 2, 3, 4)]


def _projective_key(pt, p):
    """The representative of pt whose first nonzero coordinate is 1."""
    inv = pow(next(c for c in pt if c % p), -1, p)
    return tuple(c * inv % p for c in pt)


def _enumerate_p3(p):
    return {_projective_key(pt, p) for pt in itertools.product(range(p), repeat=4) if any(pt)}


def _web_through(p, points):
    """The web of quadrics through six points, as a symmetric linear matrix."""
    rows = [[pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS] for pt in points]
    web = nullspace_basis(ExactMatrix.from_rows(PrimeField(p), rows))
    assert len(web) == 4
    half = pow(2, -1, p)
    return SymmetricLinearMatrix(p, tuple(
        tuple(q[k] * (1 if i == j else half) for q in web)
        for k, (i, j) in enumerate(QUADRIC_MONOMIALS)
    ))


class TestScan:
    def test_x_identity_is_a_degenerate_plane(self):
        # rank drops below 3 only on the plane x = 0, which has p^2+p+1 points
        p = 7
        m = SymmetricLinearMatrix.from_strings(p, X_IDENTITY)
        result = scan_nodes_fp(m)
        assert len(result.points) == p * p + p + 1
        assert result.degenerate  # 57 > 10
        assert all(pt[0] == 0 for pt in result.points)

    def test_diagonal_matrix_coordinate_lines(self):
        # rank <= 2 iff at least two coordinates vanish: six lines through
        # four points, 6(p-1) + 4 points at p = 5
        p = 5
        m = SymmetricLinearMatrix.from_strings(p, DIAG_XYZW)
        result = scan_nodes_fp(m)
        assert len(result.points) == 6 * (p - 1) + 4 == (p + 1) * 6 - 8
        assert result.degenerate  # 28 > 10
        # independent enumeration oracle over all of P^3(F_5)
        expected = {
            pt for pt in _enumerate_p3(p)
            if row_list_rank_mod_p([[pt[0], 0, 0, 0], [0, pt[1], 0, 0],
                                  [0, 0, pt[2], 0], [0, 0, 0, pt[3]]], p) <= 2
        }
        assert set(result.points) == expected

    def test_scan_points_satisfy_all_sixteen_minors(self, scan_survey):
        for _, matrix, result in scan_survey[:5]:
            for pt in result.points:
                assert minors_vanish_at(matrix, pt)

    def test_random_sample_second_pass_finds_no_missed_points(self, scan_survey):
        _, matrix, result = scan_survey[0]
        p = result.prime
        rng = random.Random(606)
        point_set = set(result.points)
        # 1% of P^3(F_p), independently normalized and checked pointwise
        for _ in range((p**3 + p**2 + p + 1) // 100):
            pt = tuple(rng.randrange(p) for _ in range(4))
            if all(c == 0 for c in pt):
                continue
            normalized = _projective_key(pt, p)
            if minors_vanish_at(matrix, normalized):
                assert normalized in point_set

    def test_twenty_seed_survey(self, scan_survey):
        assert len(scan_survey) == 20
        for seed, matrix, result in scan_survey:
            assert len(result.points) == 10, f"seed {seed}"
            cert = no_quadric_certificate(result.points, result.prime)
            assert cert.rank == 10 and cert.certified, f"seed {seed}"

    def test_coplanar_web_locus_is_degenerate(self):
        # four coplanar points put a line of plane pairs in the web: p + 1
        # points on it and six isolated splittings, p + 7 = 20 > 10 at p = 13
        p = 13
        result = scan_nodes_fp(_web_through(p, COPLANAR_SIX))
        assert len(result.points) == p + 7
        assert result.degenerate

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_matches_brute_force_enumeration(self, p):
        # kinds on both sides of the whole-plane fallback: det A(v) vanishes
        # on all of v_z = 0 for X_IDENTITY, DIAG_XYZW, COMMON_KERNEL, ZERO
        # and RANK_ONE_PENCIL, and not for webs or uniform matrices
        matrices = [random_symmetric_matrix(p, seed) for seed in range(3)]
        matrices += [SymmetricLinearMatrix.from_strings(p, forms) for forms in
                     (X_IDENTITY, DIAG_XYZW, COMMON_KERNEL, ZERO, RANK_ONE_PENCIL)]
        if p > 3:  # P^3(F_3) has no six points with no four coplanar
            matrices += [random_symmetroid_matrix(p, seed) for seed in range(2)]
            matrices.append(_web_through(p, COPLANAR_SIX))
        for m in matrices:
            self._check_against_enumeration(m)

    def test_matches_brute_force_enumeration_p31(self):
        self._check_against_enumeration(random_symmetroid_matrix(31, 0))
        self._check_against_enumeration(SymmetricLinearMatrix.from_strings(31, X_IDENTITY))

    @staticmethod
    def _check_against_enumeration(m):
        p = m.prime
        expected = {pt for pt in _enumerate_p3(p) if row_list_rank_mod_p(m.evaluate(pt), p) <= 2}
        result = scan_nodes_fp(m)
        assert result.points == tuple(sorted(expected)), m.coefficients
        assert result.degenerate == (len(expected) > 10)

    def test_points_sorted_and_distinct(self, scan_survey):
        _, _, result = scan_survey[1]
        assert list(result.points) == sorted(set(result.points))

    def test_prime_cap(self):
        m = SymmetricLinearMatrix.from_strings(1031, X_IDENTITY)
        with pytest.raises(ResourceError):
            scan_nodes_fp(m)

    def test_even_prime_rejected(self):
        with pytest.raises(DomainError):
            SymmetricLinearMatrix.from_strings(2, X_IDENTITY)
        with pytest.raises(DomainError):
            SymmetricLinearMatrix.from_strings(9, X_IDENTITY)


class TestCertificate:
    def test_points_on_a_common_quadric_fail(self):
        # ten points on the Segre quadric xw = yz over F_7
        p = 7
        pairs = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 1)]
        points = []
        for u0, u1 in pairs[:2]:
            for v0, v1 in pairs[:5]:
                points.append((u0 * v0 % p, u0 * v1 % p, u1 * v0 % p, u1 * v1 % p))
        assert len(points) == 10
        cert = no_quadric_certificate(points, p)
        assert cert.rank <= 9
        assert not cert.certified

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            no_quadric_certificate([(1, 0, 0, 0)] * 9, 7)

    def test_repeated_point_rejected(self):
        pts = [(1, i, i * i % 7, 1) for i in range(9)] + [(2, 0, 0, 2)]
        # (2,0,0,2) is projectively (1,0,0,1) = the i=0 entry
        with pytest.raises(DataError):
            no_quadric_certificate(pts, 7)

    @pytest.mark.parametrize("length", [3, 5])
    def test_points_need_four_coordinates(self, length):
        # five coordinates were once ranked on their first four
        pts = [(1,) + (0,) * (length - 2) + (i,) for i in range(10)]
        with pytest.raises(DataError):
            no_quadric_certificate(pts, 13)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_rank_matches_quadric_rows(self, data):
        # an oracle that shares no code with nodes: the upper-triangle
        # quadric rows at the points as given, ranked by row_list_rank_mod_p
        p = data.draw(st.sampled_from([5, 7, 13, 101]))
        on_segre = data.draw(st.booleans())
        residue = st.integers(0, p - 1)
        if on_segre:
            # (ac : ad : bc : bd) lies on xw = yz, so a quadric passes through
            line = st.tuples(residue, residue).filter(any)
            point = st.tuples(line, line).map(
                lambda uv: (uv[0][0] * uv[1][0], uv[0][0] * uv[1][1],
                            uv[0][1] * uv[1][0], uv[0][1] * uv[1][1]))
        else:
            point = st.tuples(residue, residue, residue, residue).filter(any)
        points = data.draw(st.lists(point, min_size=10, max_size=10,
                                    unique_by=lambda pt: _projective_key(pt, p)))
        rows = [[pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS] for pt in points]
        expected = row_list_rank_mod_p(rows, p)
        cert = no_quadric_certificate(points, p)
        assert cert.rank == expected
        assert cert.certified == (expected == 10)
        if on_segre:
            assert not cert.certified

    def test_certified_on_survey(self, scan_survey):
        for _, _, result in scan_survey:
            if not result.degenerate and len(result.points) == 10:
                assert no_quadric_certificate(result.points, result.prime).certified
                break


class TestGenerators:
    def test_symmetroid_generator_deterministic(self):
        a = random_symmetroid_matrix(101, 5)
        b = random_symmetroid_matrix(101, 5)
        assert a == b

    def test_uniform_generator_rarely_sees_the_full_locus(self):
        # Frobenius shuffles the ten geometric points; a uniform matrix at a
        # moderate prime almost never shows all of them.  Fixed seeds keep
        # this observational test stable.
        counts = []
        for seed in range(5):
            m = random_symmetric_matrix(31, seed)
            result = scan_nodes_fp(m)
            if not result.degenerate:
                counts.append(len(result.points))
        assert counts and all(c <= 10 for c in counts)

    def test_small_prime_still_works(self):
        # at p = 13 random six-point sets often hold four coplanar points;
        # the generator rejects them, so every seed gives ten points
        for seed in range(20):
            result = scan_nodes_fp(random_symmetroid_matrix(13, seed))
            assert len(result.points) == 10, f"seed {seed}"
            assert no_quadric_certificate(result.points, 13).certified, f"seed {seed}"

    def test_generator_domain(self):
        with pytest.raises(DomainError):
            random_symmetroid_matrix(3, 0)  # no six points, no four coplanar
        with pytest.raises(DomainError):
            random_symmetroid_matrix(101, -1)
        with pytest.raises(DomainError):
            random_symmetric_matrix(0, 1)

    @pytest.mark.parametrize("p", [1031, 2**127 - 1])
    def test_generator_prime_cap(self, p):
        # refused before drawing: numpy cannot draw residues of p >= 2^63
        with pytest.raises(ResourceError):
            random_symmetric_matrix(p, 0)
        with pytest.raises(ResourceError):
            random_symmetroid_matrix(p, 0)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        m = random_symmetroid_matrix(101, 0)
        data = json.loads(json.dumps(m.to_dict()))
        assert matrix_from_dict(data) == m

    def test_load_file(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"prime": 7, "upper_triangle": X_IDENTITY}))
        m = load_matrix_file(str(path))
        assert m.prime == 7

    def test_wrong_entry_count(self):
        with pytest.raises(DataError):
            matrix_from_dict({"prime": 7, "upper_triangle": ["x"] * 9})

    def test_nonlinear_entry_rejected(self):
        entries = ["x^2"] + ["0"] * 9
        with pytest.raises(DataError):
            SymmetricLinearMatrix.from_strings(7, entries)

    def test_evaluate_is_symmetric(self):
        m = random_symmetroid_matrix(101, 2)
        values = m.evaluate((1, 2, 3, 4))
        for i in range(4):
            for j in range(4):
                assert values[i][j] == values[j][i]
