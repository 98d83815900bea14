"""Finite-field rank-2 locus scans and quadric interpolation certificates."""

import collections
import functools
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodalcodes import symmetroid
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
from rank_oracle import gauss_jordan_nullspace, row_list_rank_mod_p

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


@functools.lru_cache(maxsize=None)
def _enumerate_p3(p):
    return frozenset(_projective_key(pt, p) for pt in itertools.product(range(p), repeat=4) if any(pt))


def _matrix_from_pencil(p, pencil):
    """The symmetric linear matrix sum_k x_k pencil[k], from four 4x4 matrices."""
    return SymmetricLinearMatrix(p, tuple(tuple(pencil[k][i][j] for k in range(4))
                                          for i, j in QUADRIC_MONOMIALS))


@st.composite
def _scan_inputs(draw):
    """Matrices on both sides of the scan's fallback: uniform ones, webs and
    coplanar webs reach the plane scan; a common kernel vector or a
    dependent pencil M_w in span(M_x, M_y, M_z) makes det A vanish
    everywhere, so those reach the lines through (0:0:0:1)."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    residue = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["uniform", "web", "coplanar web", "common kernel", "dependent pencil"]))
    sym = st.lists(residue, min_size=10, max_size=10).map(
        lambda c: [[c[QUADRIC_MONOMIALS.index((min(i, j), max(i, j)))] for j in range(4)]
                   for i in range(4)])
    if kind == "uniform":
        return _matrix_from_pencil(p, draw(st.lists(sym, min_size=4, max_size=4)))
    if kind in ("web", "coplanar web"):
        point = st.tuples(residue, residue, residue, residue).filter(any)
        if kind == "coplanar web":  # four points on the plane w = 0
            plane = st.tuples(residue, residue, residue).filter(any).map(lambda pt: pt + (0,))
            points = draw(st.lists(plane, min_size=4, max_size=4)) + draw(st.lists(point, min_size=2, max_size=2))
        else:
            points = draw(st.lists(point, min_size=6, max_size=6))
        rows = [[pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS] for pt in points]
        assume(row_list_rank_mod_p(rows, p) == 6)
        return _web_through(p, points)
    pencil = draw(st.lists(sym, min_size=4, max_size=4))
    if kind == "dependent pencil":
        a, b, c = draw(st.tuples(residue, residue, residue))
        pencil[3] = [[(a * x + b * y + c * z) % p for x, y, z in zip(*rows)]
                     for rows in zip(*pencil[:3])]
        return _matrix_from_pencil(p, pencil)
    # zero last row and column, then in coordinates v -> T v: T^t M_k T
    t = draw(st.lists(st.lists(residue, min_size=4, max_size=4), min_size=4, max_size=4))
    pencil = [[[m[i][j] if 3 not in (i, j) else 0 for j in range(4)] for i in range(4)]
              for m in pencil]
    return _matrix_from_pencil(p, [
        [[sum(t[a][i] * m[a][b] * t[b][j] for a in range(4) for b in range(4)) % p
          for j in range(4)] for i in range(4)] for m in pencil])


def _plane_through(points, p):
    """The coefficients of the plane through three points of P^3: the
    cofactors of the first row of det [x; P1; P2; P3]."""
    def det3(r):
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    return tuple((-1) ** k * det3([[c for n, c in enumerate(pt) if n != k] for pt in points]) % p
                 for k in range(4))


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
    @pytest.mark.parametrize("p", [7, 101])
    def test_x_identity_is_a_degenerate_plane(self, p):
        # rank drops below 3 only on the plane x = 0, which has p^2+p+1 points
        m = SymmetricLinearMatrix.from_strings(p, X_IDENTITY)
        result = scan_nodes_fp(m)
        assert len(result.points) == p * p + p + 1
        assert result.degenerate  # 57 > 10 at p = 7
        assert all(pt[0] == 0 for pt in result.points)

    @pytest.mark.parametrize("p", [5, 101])
    def test_diagonal_matrix_coordinate_lines(self, p):
        # rank <= 2 iff at least two coordinates vanish: six lines through
        # four points, 6(p-1) + 4 points
        m = SymmetricLinearMatrix.from_strings(p, DIAG_XYZW)
        result = scan_nodes_fp(m)
        assert len(result.points) == 6 * (p - 1) + 4 == (p + 1) * 6 - 8
        assert result.degenerate  # 28 > 10 at p = 5
        expected = {
            _projective_key(tuple(a if k == i else b if k == j else 0 for k in range(4)), p)
            for i, j in itertools.combinations(range(4), 2)
            for a in range(p) for b in range(p) if a or b
        }
        assert set(result.points) == expected
        if p <= 31:  # independent enumeration oracle over all of P^3(F_p)
            assert expected == {
                pt for pt in _enumerate_p3(p)
                if row_list_rank_mod_p([[pt[0], 0, 0, 0], [0, pt[1], 0, 0],
                                      [0, 0, pt[2], 0], [0, 0, 0, pt[3]]], p) <= 2
            }

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [101, 211, 401, 1021])
    def test_web_nodes_are_its_plane_pairs(self, p, seed):
        # the generator's six points, replayed: each 3+3 split gives the plane
        # pair L1 L2, a quadric of the web, and its node is its coordinate
        # vector in the web basis, which nullspace_basis makes the identity on
        # its free columns: the pair's coefficients there
        rng = symmetroid._PCG64(seed)
        while True:
            points = [tuple(rng.integers(p, 4)) for _ in range(6)]
            if all(row_list_rank_mod_p([list(q) for q in quad], p) == 4
                   for quad in itertools.combinations(points, 4)):
                break
        m = random_symmetroid_matrix(p, seed)
        assert _web_through(p, points) == m
        rows = [[pt[i] * pt[j] % p for i, j in QUADRIC_MONOMIALS] for pt in points]
        web = nullspace_basis(ExactMatrix.from_rows(PrimeField(p), rows))
        free = [next(c for c in range(10) if b[c] == 1 and all(o[c] == 0 for o in web if o is not b))
                for b in web]
        nodes = set()
        for trio in itertools.combinations(range(1, 6), 2):
            first = [points[0]] + [points[k] for k in trio]
            second = [points[k] for k in range(1, 6) if k not in trio]
            l1, l2 = _plane_through(first, p), _plane_through(second, p)
            pair = [l1[i] * l2[j] + (l1[j] * l2[i] if i != j else 0) for i, j in QUADRIC_MONOMIALS]
            nodes.add(_projective_key([pair[c] for c in free], p))
        assert len(nodes) == 10
        assert scan_nodes_fp(m).points == tuple(sorted(nodes))

    @settings(deadline=None, max_examples=60)
    @given(_scan_inputs())
    def test_matches_brute_force_on_drawn_matrices(self, m):
        self._check_against_enumeration(m)

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


def _forms(m):
    """forms[i][j]: the (x, y, z, w) coefficients of entry (i, j)."""
    forms = [[None] * 4 for _ in range(4)]
    for (i, j), row in zip(QUADRIC_MONOMIALS, m.coefficients):
        forms[i][j] = forms[j][i] = row
    return forms


@functools.lru_cache(maxsize=None)
def _span(basis, p):
    """The points of P^3(F_p) in the span of basis, normalized."""
    return sorted({_projective_key([sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(4)], p)
                   for coeffs in itertools.product(range(p), repeat=len(basis)) if any(coeffs)})


def _kernel_incidence_matrix(m, v):
    """A(v) = [M_x v | M_y v | M_z v | M_w v] mod p, as a tuple of rows."""
    p = m.prime
    pencil = [m.evaluate(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    return tuple(tuple(sum(pencil[k][i][j] * v[j] for j in range(4)) % p for k in range(4))
                 for i in range(4))


class TestPlaneKernels:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_cofactor_kernel_is_the_nullspace_point(self, data):
        # B C with B 4 x r and C r x 4 has rank <= r; the rank oracle decides
        # which answer is due
        p = data.draw(st.sampled_from([3, 5, 7, 13, 101, 1021]))
        r = data.draw(st.integers(0, 3))
        residue = st.integers(0, p - 1)
        b = data.draw(st.lists(st.lists(residue, min_size=r, max_size=r), min_size=4, max_size=4))
        c = data.draw(st.lists(st.lists(residue, min_size=4, max_size=4), min_size=r, max_size=r))
        a = [[sum(b[i][t] * c[t][j] for t in range(r)) % p for j in range(4)] for i in range(4)]
        point = symmetroid._cofactor_kernel(a, p)
        if row_list_rank_mod_p(a, p) == 3:
            (vec,) = nullspace_basis(ExactMatrix.from_rows(PrimeField(p), a))
            assert point == _projective_key(vec, p)
        else:
            assert point is None

    def test_rank_two_fallback_is_reached_on_the_coplanar_web(self, monkeypatch):
        # the line of plane pairs gives rank-2 matrices A(v), whose kernels
        # are planes: the brute-force oracles cover the elimination fallback
        p = 13
        m = _web_through(p, COPLANAR_SIX)
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return nullspace_basis(matrix)

        monkeypatch.setattr(symmetroid, "nullspace_basis", counting)
        assert len(scan_nodes_fp(m).points) == p + 7
        assert calls
        assert all(row_list_rank_mod_p([list(r) for r in a.entries], p) <= 2 for a in calls)

    def test_packed_quartic_slots_cannot_carry(self, monkeypatch):
        # the quartic in u and each of its coefficients g_l(b) are sums of at
        # most five terms c_k t^k with c_k and t^k mod p below p, so no slot
        # reaches 2^32 up to the largest prime
        assert 5 * (symmetroid._PRIME_CAP - 1) ** 2 < 2**32
        # every det A coefficient at p - 1, the largest slot values: the roots
        # found are those of sum a^i b^j u^l over the whole plane v_z = 0
        p = 101
        m = random_symmetroid_matrix(p, 0)
        quartic = {(i, j, 0, 4 - i - j): p - 1 for i in range(5) for j in range(5 - i)}
        monkeypatch.setattr(symmetroid, "_det", lambda rows, q: dict(quartic))
        seen = []

        def recording(a, q):
            seen.append(tuple(map(tuple, a)))
            return cofactor_kernel(a, q)

        cofactor_kernel = symmetroid._cofactor_kernel
        monkeypatch.setattr(symmetroid, "_cofactor_kernel", recording)
        symmetroid._plane_kernels(m, _forms(m))
        plane = [(1, b, 0, u) for b in range(p) for u in range(p)] + [(0, 1, 0, u) for u in range(p)]
        roots = [v for v in plane + [(0, 0, 0, 1)] if not sum(
            v[0] ** i * v[1] ** j * v[3] ** (4 - i - j) for i in range(5) for j in range(5 - i)) % p]
        assert roots
        assert sorted(seen) == sorted(_kernel_incidence_matrix(m, v) for v in roots)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_one_principal_minor_decides_every_kernel_point(self, p):
        # every pair with A(v) x = M(x) v = 0, grouped by v: the minor off the
        # first i with v_i != 0 agrees with all sixteen minors, also where
        # v_0 = 0 and where M(x) has rank <= 2
        matrices = [random_symmetroid_matrix(p, 0), random_symmetric_matrix(p, 0),
                    _web_through(p, COPLANAR_SIX), _web_through(p, self.ONE_LINE_WEB)]
        matrices += [SymmetricLinearMatrix.from_strings(p, forms)
                     for forms in (X_IDENTITY, DIAG_XYZW, COMMON_KERNEL)]
        field = PrimeField(p)
        for m in matrices:
            pairs, rank_two = collections.defaultdict(list), set()
            for x in sorted(_enumerate_p3(p)):
                mx = m.evaluate(x)
                if minors_vanish_at(m, x):
                    rank_two.add(x)
                kernel = gauss_jordan_nullspace(ExactMatrix.from_rows(field, mx))
                for v in _span(tuple(kernel), p):
                    pairs[v].append(x)
            assert any(v[0] == 0 for v in pairs)
            forms = _forms(m)
            for v, xs in pairs.items():
                assert list(symmetroid._rank_two_in_kernel(forms, v, xs, p)) == \
                    [x for x in xs if x in rank_two], (m.coefficients, v)

    # three points on x = 0 and three on z = 0, no four coplanar mod 5..13:
    # the plane pair x z is in the web and kills the line x = z = 0, so
    # det A vanishes on the line (0, 1, 0, u) of the plane v_z = 0 only
    ONE_LINE_WEB = [(0, 1, 2, 1), (0, 2, 1, 1), (0, 1, 1, 0), (1, 0, 0, 3), (1, 0, 0, 1), (2, 3, 0, 1)]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_quartic_vanishing_on_one_line_keeps_every_u(self, p, monkeypatch):
        m = _web_through(p, self.ONE_LINE_WEB)
        line = [_kernel_incidence_matrix(m, (0, 1, 0, u)) for u in range(p)]
        assert all(row_list_rank_mod_p(a, p) < 4 for a in line)
        plane = [v for v in _enumerate_p3(p) if v[2] == 0]
        assert any(row_list_rank_mod_p(_kernel_incidence_matrix(m, v), p) == 4 for v in plane)
        seen = set()

        def recording(a, q):
            seen.add(tuple(map(tuple, a)))
            return cofactor_kernel(a, q)

        cofactor_kernel = symmetroid._cofactor_kernel
        monkeypatch.setattr(symmetroid, "_cofactor_kernel", recording)
        TestScan._check_against_enumeration(m)
        assert seen.issuperset(line)
        assert len(scan_nodes_fp(m).points) == 10


def _cubic_roots_by_search(c, p):
    return [u for u in range(p) if (c[0] + c[1] * u + c[2] * u * u + c[3] * u**3) % p == 0]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_cubic_roots_of_every_nonzero_cubic(p):
    tables = symmetroid._root_tables(p)
    for c in itertools.product(range(p), repeat=4):
        if any(c):
            assert sorted(symmetroid._cubic_roots(c, p, tables)) == _cubic_roots_by_search(c, p), c


@pytest.mark.parametrize("p", [101, 1021])
def test_cubic_roots_of_random_and_planted_cubics(p):
    rng = random.Random(p)
    cubics = [[rng.randrange(p) for _ in range(4)] for _ in range(300)]
    for _ in range(300):  # a (u - r_1) ... (u - r_k) for k = 1..3, repeated roots allowed
        c = [rng.randrange(1, p)]
        for _ in range(rng.randint(1, 3)):
            r = rng.randrange(p)
            c = [(s - r * t) % p for s, t in zip([0] + c, c + [0])]
        cubics.append(c + [0] * (4 - len(c)))
    tables = symmetroid._root_tables(p)
    for c in cubics:
        if any(c):
            assert sorted(symmetroid._cubic_roots(c, p, tables)) == _cubic_roots_by_search(c, p), c


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
        # refused before drawing, like the scan itself
        with pytest.raises(ResourceError):
            random_symmetric_matrix(p, 0)
        with pytest.raises(ResourceError):
            random_symmetroid_matrix(p, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 101, 211, 1021])
def test_seeded_generators_match_numpy_draws(p, monkeypatch):
    numpy = pytest.importorskip("numpy")
    runs = []  # (seed, [(p, n, draws), ...]) of each generator run

    class LoggedPCG64(symmetroid._PCG64):  # the port, recording every draw
        def __init__(self, seed):
            super().__init__(seed)
            self.calls = []
            runs.append((seed, self.calls))

        def integers(self, p, n):
            out = super().integers(p, n)
            self.calls.append((p, n, out))
            return out

    monkeypatch.setattr(symmetroid, "_PCG64", LoggedPCG64)
    seeds = list(range(200)) + [2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]
    for seed in seeds:
        random_symmetric_matrix(p, seed)
        if p > 3:
            random_symmetroid_matrix(p, seed)
    assert len(runs) == len(seeds) * (2 if p > 3 else 1)
    # numpy's own default_rng, asked for the same draws in the same order
    for seed, calls in runs:
        rng = numpy.random.default_rng(seed)
        for q, n, out in calls:
            assert [int(c) for c in rng.integers(0, q, size=n)] == out, seed


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("p", [3 * 2**30 + 1, 2**31 + 11, 2**32 - 5])
def test_bounded_draws_match_numpy_where_rejection_is_common(p, seed):
    # Lemire's draw tests the threshold when the low word of m is below p and
    # rejects with probability (2^32 mod p) / 2^32: about 1/4 at 3 * 2^30 + 1
    # and 1/2 at 2^31 + 11, while at 2^32 - 5 nearly every draw takes the
    # threshold test; the pending high half carries over between the calls
    numpy = pytest.importorskip("numpy")
    ours, theirs = symmetroid._PCG64(seed), numpy.random.default_rng(seed)
    for n in (500, 333):
        assert ours.integers(p, n) == [int(c) for c in theirs.integers(0, p, size=n)]


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
