"""Node verification, evaluation matrices, vanishing dimensions, defects."""

import itertools
import json
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes.errors import DataError, DomainError, ResourceError
from nodalcodes.fields import PrimeField, QQ
from nodalcodes.forms import grevlex_key, parse_form
from nodalcodes.nodes import (
    MONOMIAL_CAP,
    NodeConfiguration,
    config_from_dict,
    defect,
    defect_from_nodes,
    evaluation_matrix,
    load_node_file,
    monomial_basis,
    normalize_point,
    vanishing_dimension,
    verify_configuration,
    verify_node,
)
from rank_oracle import field_evaluation_matrix, rank_and_rref


class TestVerifyNode:
    def test_local_cone_model_is_node(self):
        assert verify_node(parse_form("x^2 + y^2 + z^2"), (0, 0, 0, 1))

    def test_smooth_point_is_not(self):
        assert not verify_node(parse_form("x"), (0, 1, 0, 0))

    def test_hessian_rank_two_is_not(self):
        assert not verify_node(parse_form("x^2 + y^2"), (0, 0, 0, 1))

    def test_nonvanishing_point_is_not(self):
        assert not verify_node(parse_form("x^2 + y^2 + z^2"), (1, 0, 0, 1))


class TestMonomialBasis:
    def test_counts(self):
        assert len(monomial_basis(0)) == 1
        assert len(monomial_basis(2)) == 10
        assert len(monomial_basis(5)) == 56

    def test_degree_two_grevlex_order(self):
        names = {
            (2, 0, 0, 0): "x^2", (1, 1, 0, 0): "xy", (0, 2, 0, 0): "y^2",
            (1, 0, 1, 0): "xz", (0, 1, 1, 0): "yz", (0, 0, 2, 0): "z^2",
            (1, 0, 0, 1): "xw", (0, 1, 0, 1): "yw", (0, 0, 1, 1): "zw",
            (0, 0, 0, 2): "w^2",
        }
        got = [names[m] for m in monomial_basis(2)]
        assert got == ["x^2", "xy", "y^2", "xz", "yz", "z^2", "xw", "yw", "zw", "w^2"]

    def test_built_in_grevlex_key_order(self):
        # every monomial of degree d, each once, sorted by the key, at each
        # form degree MONOMIAL_CAP allows
        for d in range(21):
            every = [m for m in itertools.product(range(d + 1), repeat=4) if sum(m) == d]
            assert monomial_basis(d) == sorted(every, key=grevlex_key), d

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            monomial_basis(-1)


def _config(points, degree=4, field=QQ, surface=None):
    return NodeConfiguration(degree, field, tuple(points), surface)


class TestVanishingDimension:
    def test_no_nodes(self):
        # an empty evaluation matrix has rank 0: every form vanishes
        assert vanishing_dimension(_config([]), 2) == 10
        for field in (QQ, PrimeField(7)):
            for d in (0, 2, 20):
                assert vanishing_dimension(_config([], field=field), d) == comb(d + 3, 3), (field, d)

    def test_one_node(self):
        assert vanishing_dimension(_config([(1, 0, 0, 0)]), 2) == 9

    def test_monotone_under_adding_nodes(self):
        rng = random.Random(11)
        points = []
        previous = None
        while len(points) < 9:
            pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
            try:
                cfg = _config(points + [pt])
            except DataError:
                continue
            points.append(pt)
            dim = vanishing_dimension(cfg, 3)
            if previous is not None:
                assert previous - 1 <= dim <= previous
            previous = dim

    def test_duplicate_points_rejected(self):
        with pytest.raises(DataError):
            _config([(1, 2, 3, 4), (2, 4, 6, 8)])  # same projective point

    def test_matches_independent_oracle(self):
        # independent route: build the evaluation matrix one product at a
        # time and reduce it by the Gauss-Jordan oracle
        rng = random.Random(42)
        for _ in range(50):
            npts = rng.randint(1, 12)
            d = rng.randint(1, 3)
            pts, cfg = [], None
            while cfg is None:
                pts = [
                    tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
                    for _ in range(npts)
                ]
                try:
                    cfg = _config(pts)
                except DataError:
                    cfg = None
            m = field_evaluation_matrix(cfg, d)
            rank, _ = rank_and_rref(m)
            assert vanishing_dimension(cfg, d) == m.ncols - rank

    def test_monomial_cap(self):
        cfg = _config([(1, 2, 3, 4)])
        assert comb(20 + 3, 3) <= MONOMIAL_CAP < comb(21 + 3, 3)
        assert vanishing_dimension(cfg, 20) == comb(23, 3) - 1
        with pytest.raises(ResourceError):
            vanishing_dimension(cfg, 21)
        with pytest.raises(ResourceError):
            defect_from_nodes(NodeConfiguration(40000, QQ, cfg.points))


_FIELDS = (QQ, PrimeField(3), PrimeField(10007), PrimeField(2**61 - 1))


@st.composite
def _configurations(draw):
    """Distinct points over Q (fractional, negative and zero-leading
    coordinates) or F_p, and a form degree 0..8."""
    field = draw(st.sampled_from(_FIELDS))
    if field == QQ:
        coord = st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9)),
        )
    else:
        coord = st.one_of(st.just(0), st.integers(0, field.p - 1))
    points = {}
    for _ in range(draw(st.integers(0, 8))):
        pt = tuple(draw(coord) for _ in range(4))
        if any(pt):
            points.setdefault(normalize_point(field, pt), pt)
    return NodeConfiguration(4, field, tuple(points.values())), draw(st.integers(0, 8))


@settings(deadline=None, max_examples=150)
@given(_configurations())
def test_evaluation_matrix_matches_the_field_interface_builder(case):
    # over Q each row is the oracle's row times L^d, L the lcm of the point's
    # denominators; over F_p the entries are unreduced products of powers,
    # which the elimination reduces, and equal the oracle's mod p; all are ints
    cfg, d = case
    m = evaluation_matrix(cfg, d)
    oracle = field_evaluation_matrix(cfg, d)
    assert m.field == oracle.field and len(m.entries) == len(oracle.entries) == cfg.mu
    for pt, row, expected in zip(cfg.points, m.entries, oracle.entries):
        if cfg.field == QQ:
            scale = lcm(*(c.denominator for c in pt)) ** d
            assert row == tuple(a * scale for a in expected)
        else:
            assert tuple(a % cfg.field.p for a in row) == expected
    assert all(type(a) is int for row in m.entries for a in row)


def _quadric_grid(d, rng):
    """(d+2)^2 points (su : sv : tu : tv) on xw = yz, a grid in P^1 x P^1.

    Degree-d forms restrict onto the bidegree-(d,d) forms, which a grid with
    at least d+1 values per factor separates, so the rank is (d+1)^2."""
    ss = rng.sample(range(-6, 7), d + 2)
    us = rng.sample(range(-6, 7), d + 2)
    return [(s * u, s, u, 1) for s in ss for u in us]


def _twisted_cubic(n, rng):
    """n points (s^3 : s^2 t : s t^2 : t^3) of the twisted cubic.

    Degree-d forms restrict onto binary forms of degree 3d, which n >= 3d+1
    distinct points separate, so the rank is 3d+1."""
    return [(s**3, s**2, s, 1) for s in rng.sample(range(-40, 41), n)]


class TestDeficientRanks:
    """Rank-deficient configurations reach their closed-form ranks."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
    @pytest.mark.parametrize("degree", [6, 8])
    def test_quadric_grid(self, degree, field):
        d = 3 * degree // 2 - 4
        cfg = NodeConfiguration(degree, field, tuple(_quadric_grid(d, random.Random(degree))))
        report = defect_from_nodes(cfg)
        assert report.dim_m == comb(d + 3, 3) - (d + 1) ** 2
        assert report.defect == cfg.mu - (d + 1) ** 2

    @pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
    @pytest.mark.parametrize("degree", [6, 8])
    def test_twisted_cubic(self, degree, field):
        d = 3 * degree // 2 - 4
        pts = _twisted_cubic(3 * d + 5, random.Random(degree))
        cfg = NodeConfiguration(degree, field, tuple(pts))
        report = defect_from_nodes(cfg)
        assert report.dim_m == comb(d + 3, 3) - (3 * d + 1)
        assert report.defect == cfg.mu - (3 * d + 1)


class TestDefect:
    def test_sextic_sixty_five_nodes(self):
        # the defect 13 itself is acceptance criterion 2
        report = defect(6, 65, 4)
        assert report.m_degree == 5
        assert report.estimate == comb(8, 3) - 65 == -9

    def test_nodeless_surfaces_have_zero_defect(self):
        for b in (4, 6, 8):
            full = comb(3 * b // 2 - 1, 3)
            assert defect(b, 0, full).defect == 0

    def test_odd_degree_rejected(self):
        with pytest.raises(DomainError):
            defect(5, 10, 0)

    def test_defect_is_signed_and_unclamped(self):
        # inconsistent input: a reported dim below the estimate goes negative
        assert defect(4, 2, 0).defect == -8

    def test_defect_from_nodes_empty_quartic(self):
        assert defect_from_nodes(_config([])).defect == 0

    def test_eleven_generic_points_defect_one(self):
        rng = random.Random(2)
        while True:
            pts = [tuple(Fraction(rng.randint(-7, 7)) for _ in range(4)) for _ in range(11)]
            try:
                cfg = _config(pts)
            except DataError:
                continue
            # generic-rank gate: the evaluation matrix must have full rank 10
            if rank_and_rref(evaluation_matrix(cfg, 2))[0] == 10:
                break
        report = defect_from_nodes(cfg)
        assert report.dim_m == 0
        assert report.estimate == -1
        assert report.defect == 1


class TestSymmetroidNodesIntegration:
    def test_scanned_ten_nodes_span_all_quadric_conditions(self, scan_survey):
        seed, matrix, result = next(
            (s for s in scan_survey if not s[2].degenerate and len(s[2].points) == 10)
        )
        field = PrimeField(result.prime)
        cfg = NodeConfiguration(4, field, result.points)
        assert vanishing_dimension(cfg, 2) == 0
        assert defect_from_nodes(cfg).defect == 0


class TestNodeFiles:
    def test_rational_coordinates_from_dict(self):
        data = {"degree": 4, "field": "rational",
                "nodes": [["1/2", "1", "0", "3"], ["0", "1", "1", "1"]]}
        assert config_from_dict(data) == _config([(Fraction(1, 2), 1, 0, 3), (0, 1, 1, 1)])

    def test_load_with_surface_and_verify(self, tmp_path):
        payload = {
            "degree": 2,
            "field": "rational",
            "surface": "x^2 + y^2 + z^2",
            "nodes": [["0", "0", "0", "1"]],
        }
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(payload))
        cfg = load_node_file(str(path))
        assert verify_configuration(cfg) == [True]

    def test_prime_field_mode(self):
        cfg = config_from_dict(
            {"degree": 4, "field": {"prime": 7}, "nodes": [["1", "2", "3", "4"], ["1", "0", "0", "0"]]}
        )
        assert cfg.field == PrimeField(7)
        assert cfg.mu == 2

    def test_missing_keys(self):
        with pytest.raises(DataError):
            config_from_dict({"nodes": []})

    @pytest.mark.parametrize("data", [
        {"degree": 4, "nodes": 7},
        {"degree": 4, "nodes": [5]},
        {"degree": 4, "nodes": ["1000"]},
        {"degree": 4, "nodes": [["1", "0", "0", "0"]], "surface": 5},
    ], ids=["nodes-not-list", "node-int", "node-string", "surface-int"])
    def test_schema_errors(self, data):
        with pytest.raises(DataError):
            config_from_dict(data)

    def test_zero_point_rejected(self):
        with pytest.raises(DataError):
            normalize_point(QQ, (0, 0, 0, 0))
