"""Closed-form bounds, their exact identities, and torsion ranks."""

from math import comb

import pytest

from nodalcodes.bounds import (
    beauville_bound,
    beauville_bound_printed,
    improved_bound,
    jacobian_slice_dim,
    miyaoka_max_nodes,
    second_betti_of_resolution,
    torsion_rank,
)
from nodalcodes.errors import DomainError, InconsistencyError


class TestBeauville:
    def test_printed_form_is_exactly_two_below(self):
        for b in range(4, 41, 2):
            assert beauville_bound(b, 100) - beauville_bound_printed(b, 100) == 2

    def test_odd_degree_rejected(self):
        with pytest.raises(DomainError):
            beauville_bound(5, 10)


class TestImproved:
    def test_sextic_value(self):
        assert improved_bound(6, 65) == 13  # 65 - 52

    def test_quartic_value(self):
        assert improved_bound(4, 16) == 6  # 16 - 10

    def test_equals_mu_minus_monomials_plus_jacobian_slice(self):
        for b in range(4, 41, 2):
            mu = 1000
            assert improved_bound(b, mu) == mu - comb(3 * b // 2 - 1, 3) + jacobian_slice_dim(b)


class TestMiyaoka:
    def test_quartic_cap_is_sixteen(self):
        assert miyaoka_max_nodes(4) == 16

    def test_sextic_cap(self):
        assert miyaoka_max_nodes(6) == 66

    def test_octic_cap(self):
        assert miyaoka_max_nodes(8) == 174

    def test_exact_floor(self):
        for b in range(1, 50):
            assert miyaoka_max_nodes(b) == (4 * b * (b - 1) ** 2) // 9

    def test_degree_must_be_positive(self):
        with pytest.raises(DomainError):
            miyaoka_max_nodes(0)


class TestVacuousRegions:
    def test_printed_beauville_vacuous_from_degree_18(self):
        for b in range(18, 41, 2):
            assert beauville_bound_printed(b, miyaoka_max_nodes(b)) < 0
        assert beauville_bound_printed(16, miyaoka_max_nodes(16)) >= 0


class TestJacobianSlice:
    def test_values(self):
        assert jacobian_slice_dim(4) == 0
        assert jacobian_slice_dim(6) == 4
        assert jacobian_slice_dim(8) == 16

    def test_odd_degree_rejected(self):
        with pytest.raises(DomainError):
            jacobian_slice_dim(7)


class TestTorsionRank:
    def test_equal_inputs_always_torsion_free(self):
        for d in range(20):
            assert torsion_rank(d, d) == (0, 0)

    def test_dimension_below_defect_is_inconsistent(self):
        with pytest.raises(InconsistencyError):
            torsion_rank(3, 5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            torsion_rank(3, -1)


def test_second_betti_values():
    # smooth quartic: b2 = 22; sextic: 106; octic: 302
    assert second_betti_of_resolution(4) == 22
    assert second_betti_of_resolution(6) == 106
    assert second_betti_of_resolution(8) == 302
