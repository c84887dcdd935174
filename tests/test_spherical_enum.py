from fractions import Fraction

import pytest

from k3lax import (
    GoodBasis,
    MukaiVector,
    SearchBox,
    companion_classes,
    delta_mu_plus,
    enumerate_spherical,
    good_basis,
    is_spherical,
    mukai_pairing,
    pairing_matrix,
)
from k3lax.errors import BasisError, BoxTooSmall, DomainError
from k3lax.mukai_lattice import NSLattice
from k3lax.selftest import brute_force_spherical
from k3lax.spherical_enum import _orthogonal_complement_of_ample


class TestSearchBox:
    def test_contains(self):
        box = SearchBox(2, 1, 5)
        assert box.contains(MukaiVector(2, (1,), 1))
        assert not box.contains(MukaiVector(3, (1,), 1))
        assert not box.contains(MukaiVector(2, (2,), 1))
        assert not box.contains(MukaiVector(2, (1,), 6))

    def test_rejects_negative_bounds(self):
        with pytest.raises(DomainError):
            SearchBox(-1, 1, 1)
        with pytest.raises(DomainError):
            SearchBox(1, 1, -2)
        with pytest.raises(DomainError):
            SearchBox(1, Fraction(1, 2), 1)

    @pytest.mark.parametrize("bounds", [(True, 1, 1), (1, False, 1), (1, 1, True)])
    def test_rejects_booleans(self, bounds):
        # bool is an int, so True would otherwise pass as the bound 1
        with pytest.raises(DomainError):
            SearchBox(*bounds)


class TestEnumerateSpherical:
    def test_matches_brute_force(self, rho1_d1, rho1_d2, rho2_d1):
        cases = [
            (rho1_d1, SearchBox(3, 3, 12)),
            (rho1_d2, SearchBox(3, 3, 12)),
            (rho2_d1, SearchBox(2, 2, 8)),
        ]
        for lat, box in cases:
            found = enumerate_spherical(lat, box)
            assert {cls.v for cls in found} == brute_force_spherical(lat, box)

    def test_lex_order(self, rho1_d1):
        found = enumerate_spherical(rho1_d1, SearchBox(4, 4, 20))
        coords = [cls.v.coords() for cls in found]
        assert coords == sorted(coords)
        assert len(coords) == len(set(coords))

    def test_small_box(self, rho1_d1):
        found = enumerate_spherical(rho1_d1, SearchBox(1, 0, 1))
        assert [cls.v for cls in found] == [
            MukaiVector(-1, (0,), -1),
            MukaiVector(1, (0,), 1),
        ]

    def test_contains_named_class(self, rho1_d1):
        found = enumerate_spherical(rho1_d1, SearchBox(2, 1, 5))
        assert MukaiVector(2, (1,), 1) in {cls.v for cls in found}

    def test_rank_zero_slice(self, rho1_d1, rho2_d1):
        # no -2 classes in a positive definite rank-one Picard lattice
        assert enumerate_spherical(rho1_d1, SearchBox(0, 5, 5)) == []
        # the (1, +-1) directions square to -2 once a negative direction exists
        found = enumerate_spherical(rho2_d1, SearchBox(0, 1, 2))
        assert len(found) == 20
        assert all(cls.v.r == 0 and abs(cls.v.D[0]) == 1 for cls in found)


class TestDeltaMuPlus:
    def test_slope_zero(self, rho1_d1):
        found, r0 = delta_mu_plus(rho1_d1, Fraction(0), SearchBox(8, 8, 40))
        assert r0 == 1
        assert MukaiVector(1, (0,), 1) in {cls.v for cls in found}
        for cls in found:
            assert cls.v.r > 0
            assert rho1_d1.dot_ample(cls.v.D) == 0

    def test_slope_one(self, rho1_d1):
        found, r0 = delta_mu_plus(rho1_d1, 1, SearchBox(8, 8, 40))
        assert r0 == 2
        minimal = [cls.v for cls in found if cls.v.r == r0]
        assert minimal[0] == MukaiVector(2, (1,), 1)
        for cls in found:
            assert Fraction(rho1_d1.dot_ample(cls.v.D), cls.v.r) == 1

    def test_empty_slope(self, rho1_d1):
        found, r0 = delta_mu_plus(rho1_d1, Fraction(1, 3), SearchBox(2, 2, 10))
        assert found == []
        assert r0 is None


class TestGoodBasis:
    def test_rank_one_vectors(self, rho1_d1):
        basis = good_basis(rho1_d1, SearchBox(8, 8, 40))
        assert [cls.v for cls in basis.vectors] == [
            MukaiVector(1, (0,), 1),
            MukaiVector(1, (-1,), 2),
            MukaiVector(1, (2,), 5),
        ]
        assert basis.pair_matrix == (
            (-2, -3, -6),
            (-3, -2, -11),
            (-6, -11, -2),
        )

    def test_invariants_all_lattices(self, all_lattices):
        for lat in all_lattices:
            basis = good_basis(lat, SearchBox(8, 8, 40))
            assert len(basis.vectors) == lat.rank + 2
            basis.validate(lat)
            for row in basis.pair_matrix:
                assert all(entry != 0 for entry in row)

    def test_rank_two_scaling(self, rho2_d1):
        # the complement direction squares to -4, too shallow; doubling it
        # lands at -16, past both excluded squares
        basis = good_basis(rho2_d1, SearchBox(8, 8, 40))
        assert basis.vectors[3].v == MukaiVector(1, (0, 2), -7)

    def test_box_too_small(self, rho1_d1):
        with pytest.raises(BoxTooSmall):
            good_basis(rho1_d1, SearchBox(1, 1, 4))

    def test_validate_rejects_tampering(self, rho1_d1):
        basis = good_basis(rho1_d1, SearchBox(8, 8, 40))
        wrong = GoodBasis(basis.vectors, ((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
        with pytest.raises(BasisError):
            wrong.validate(rho1_d1)
        short = GoodBasis(basis.vectors[:2], basis.pair_matrix)
        with pytest.raises(BasisError):
            short.validate(rho1_d1)

    def test_validate_rejects_repeated_vector(self, all_lattices):
        # spherical, pairwise non-orthogonal, matching matrix, no span
        for lat in all_lattices:
            vectors = good_basis(lat, SearchBox(8, 8, 40)).vectors
            vectors = (*vectors[:-1], vectors[0])
            repeated = GoodBasis(vectors, pairing_matrix(lat, vectors))
            with pytest.raises(BasisError, match="does not span"):
                repeated.validate(lat)

    def test_picard_rank_three(self):
        # the kernel basis of H . x is not orthogonal here, so the
        # complement really is a Gram-Schmidt of it
        lat = NSLattice([[2, 0, 0], [0, -4, 2], [0, 2, -4]], [1, 0, 0])
        assert _orthogonal_complement_of_ample(lat) == [(0, 1, 0), (0, 1, 2)]
        basis = good_basis(lat, SearchBox(8, 8, 40))
        assert [cls.v.coords() for cls in basis.vectors] == [
            (1, 0, 0, 0, 1),
            (1, -1, 0, 0, 2),
            (1, 2, 0, 0, 5),
            (1, 0, 2, 0, -7),
            (1, 0, 2, 4, -23),
        ]


class TestCompanions:
    def test_worked_example(self, rho1_d1):
        basis = good_basis(rho1_d1, SearchBox(8, 8, 40))
        companions = companion_classes(rho1_d1, basis)
        assert set(companions) == {(0, 1), (0, 2), (1, 2)}
        assert companions[(0, 1)].v == MukaiVector(-2, (-1,), -1)

    def test_invariants(self, all_lattices):
        for lat in all_lattices:
            basis = good_basis(lat, SearchBox(8, 8, 40))
            for (i, j), w in companion_classes(lat, basis).items():
                c = basis.pair_matrix[i][j]
                assert is_spherical(lat, w)
                assert w.v == basis.vectors[j].v + c * basis.vectors[i].v
                assert mukai_pairing(lat, basis.vectors[i], w) == -c
