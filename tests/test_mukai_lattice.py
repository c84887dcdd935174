import random

import pytest

from k3lax import (
    MukaiVector,
    NSLattice,
    SphericalClass,
    SphericalNormBasis,
    is_spherical,
    line_bundle_vector,
    mukai_pairing,
    pairing_matrix,
    reflect,
    spherical_norm,
    tensor_line_bundle,
)
from k3lax.errors import BasisError, DimensionError, LatticeError
from k3lax.mukai_lattice import pairing_functional

from conftest import random_vector


class TestNSLattice:
    def test_basic_properties(self, rho1_d1, rho1_d2, rho2_d1):
        assert (rho1_d1.rank, rho1_d1.degree) == (1, 1)
        assert (rho1_d2.rank, rho1_d2.degree) == (1, 2)
        assert (rho2_d1.rank, rho2_d1.degree) == (2, 1)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(LatticeError):
            NSLattice([[2, 1], [0, 2]], [1, 0])

    def test_rejects_wrong_signature(self):
        # negative definite: no hyperbolic direction
        with pytest.raises(LatticeError):
            NSLattice([[-2]], [1])
        # two positive directions
        with pytest.raises(LatticeError):
            NSLattice([[2, 0], [0, 2]], [1, 0])

    def test_rejects_degenerate(self):
        with pytest.raises(LatticeError):
            NSLattice([[2, 0], [0, 0]], [1, 0])

    def test_rejects_bad_ample(self):
        # negative square
        with pytest.raises(LatticeError):
            NSLattice([[2, 0], [0, -4]], [0, 1])
        # odd square
        with pytest.raises(LatticeError):
            NSLattice([[1]], [1])
        # wrong length
        with pytest.raises(LatticeError):
            NSLattice([[2]], [1, 0])

    def test_rejects_noninteger_entries(self):
        with pytest.raises(LatticeError):
            NSLattice([[2.0]], [1])

    def test_from_dict(self):
        lat = NSLattice.from_dict({"gram": [[2]], "H": [1], "name": "x"})
        assert lat.name == "x"
        with pytest.raises(LatticeError):
            NSLattice.from_dict({"gram": [[2]]})
        with pytest.raises(LatticeError):
            NSLattice.from_dict({"gram": [[2, 1], [0, 2]], "H": [1, 0]})
        with pytest.raises(LatticeError):
            NSLattice.from_dict([1, 2])

    def test_dot_dimension_check(self, rho1_d1):
        with pytest.raises(DimensionError):
            rho1_d1.dot((1, 2), (1,))


class TestPairing:
    def test_worked_values(self, rho1_d1):
        v = MukaiVector(1, (0,), 1)
        assert mukai_pairing(rho1_d1, v, v) == -2
        assert mukai_pairing(
            rho1_d1, MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0)
        ) == -1
        w = MukaiVector(1, (1,), 2)
        assert mukai_pairing(rho1_d1, w, w) == -2

    def test_symmetry_and_bilinearity(self, all_lattices):
        rng = random.Random(23)
        for lat in all_lattices:
            for _ in range(100):
                u = random_vector(rng, lat.rank)
                v = random_vector(rng, lat.rank)
                w = random_vector(rng, lat.rank)
                k = rng.randint(-5, 5)
                assert mukai_pairing(lat, u, v) == mukai_pairing(lat, v, u)
                assert mukai_pairing(lat, u + v, w) == mukai_pairing(
                    lat, u, w
                ) + mukai_pairing(lat, v, w)
                assert mukai_pairing(lat, k * u, v) == k * mukai_pairing(lat, u, v)

    def test_mismatched_rank(self, rho2_d1):
        with pytest.raises(DimensionError):
            mukai_pairing(rho2_d1, MukaiVector(1, (0,), 1), MukaiVector(1, (0,), 1))


class TestSphericality:
    def test_examples(self, rho1_d1):
        assert is_spherical(rho1_d1, MukaiVector(1, (0,), 1))
        assert not is_spherical(rho1_d1, MukaiVector(0, (0,), 1))
        assert not is_spherical(rho1_d1, MukaiVector(2, (0,), 1))

    def test_class_constructor_checks(self, rho1_d1):
        cls = SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1))
        assert cls.v == MukaiVector(1, (0,), 1)
        with pytest.raises(BasisError):
            SphericalClass.from_vector(rho1_d1, MukaiVector(0, (0,), 1))


class TestReflect:
    def test_self_reflection(self, rho1_d1):
        delta = SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1))
        assert reflect(rho1_d1, delta, delta.v) == -delta.v

    def test_worked_example(self, rho1_d1):
        delta = SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1))
        assert reflect(rho1_d1, delta, MukaiVector(0, (0,), 1)) == MukaiVector(
            -1, (0,), 0
        )

    def test_involution_and_isometry(self, all_lattices):
        rng = random.Random(29)
        for lat in all_lattices:
            delta = SphericalClass.from_vector(
                lat, MukaiVector(1, (0,) * lat.rank, 1)
            )
            for _ in range(60):
                u = random_vector(rng, lat.rank)
                v = random_vector(rng, lat.rank)
                assert reflect(lat, delta, reflect(lat, delta, v)) == v
                assert mukai_pairing(
                    lat, reflect(lat, delta, u), reflect(lat, delta, v)
                ) == mukai_pairing(lat, u, v)

    def test_preserves_sphericality(self, rho2_d1):
        rng = random.Random(31)
        delta = SphericalClass.from_vector(rho2_d1, MukaiVector(1, (0, 0), 1))
        count = 0
        for _ in range(300):
            v = random_vector(rng, 2, bound=6)
            if is_spherical(rho2_d1, v):
                count += 1
                assert is_spherical(rho2_d1, reflect(rho2_d1, delta, v))
        assert count > 0

    def test_rejects_nonspherical_axis(self, rho1_d1):
        with pytest.raises(BasisError):
            reflect(rho1_d1, MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 1))


class TestTensorLineBundle:
    def test_identity_at_zero(self, rho1_d1):
        v = MukaiVector(3, (2,), -5)
        assert tensor_line_bundle(rho1_d1, 0, v) == v

    def test_worked_examples(self, rho1_d1):
        delta0 = MukaiVector(1, (0,), 1)
        assert tensor_line_bundle(rho1_d1, 1, delta0) == MukaiVector(1, (1,), 2)
        assert tensor_line_bundle(rho1_d1, -1, delta0) == MukaiVector(1, (-1,), 2)
        assert is_spherical(rho1_d1, tensor_line_bundle(rho1_d1, 1, delta0))

    def test_action_law_and_isometry(self, all_lattices):
        rng = random.Random(37)
        for lat in all_lattices:
            for _ in range(60):
                u = random_vector(rng, lat.rank)
                v = random_vector(rng, lat.rank)
                k1, k2 = rng.randint(-6, 6), rng.randint(-6, 6)
                composed = tensor_line_bundle(
                    lat, k2, tensor_line_bundle(lat, k1, v)
                )
                assert composed == tensor_line_bundle(lat, k1 + k2, v)
                assert mukai_pairing(
                    lat,
                    tensor_line_bundle(lat, k1, u),
                    tensor_line_bundle(lat, k1, v),
                ) == mukai_pairing(lat, u, v)

    def test_rejects_noninteger_exponent(self, rho1_d1):
        with pytest.raises(DimensionError):
            tensor_line_bundle(rho1_d1, 1.5, MukaiVector(1, (0,), 1))


class TestLineBundleVector:
    def test_examples(self, rho1_d1, rho1_d2):
        assert line_bundle_vector(rho1_d1, (0,)) == MukaiVector(1, (0,), 1)
        assert line_bundle_vector(rho1_d1, (-1,)) == MukaiVector(1, (-1,), 2)
        assert line_bundle_vector(rho1_d1, (2,)) == MukaiVector(1, (2,), 5)
        assert line_bundle_vector(rho1_d2, (-1,)) == MukaiVector(1, (-1,), 3)

    def test_always_spherical(self, all_lattices):
        rng = random.Random(41)
        for lat in all_lattices:
            for _ in range(40):
                D = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
                try:
                    v = line_bundle_vector(lat, D)
                except LatticeError:
                    continue
                assert is_spherical(lat, v)


class TestSphericalNorm:
    def test_basis_construction(self, rho1_d1):
        delta0 = SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1))
        basis = SphericalNormBasis.build(rho1_d1, delta0)
        assert basis.v1 == delta0
        assert basis.complement == (
            MukaiVector(1, (0,), -1),
            MukaiVector(0, (1,), 0),
        )
        for w in basis.complement:
            assert mukai_pairing(rho1_d1, delta0.v, w) == 0

    def test_worked_norms(self, rho1_d1):
        delta0 = SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1))
        basis = SphericalNormBasis.build(rho1_d1, delta0)
        assert spherical_norm(rho1_d1, basis, delta0.v) == 2
        assert spherical_norm(rho1_d1, basis, MukaiVector(0, (0,), 0)) == 0
        assert spherical_norm(rho1_d1, basis, MukaiVector(0, (0,), 1)) == 2

    def test_validate_rejects_repeated_complement_vector(self, all_lattices):
        for lat in all_lattices:
            basis = SphericalNormBasis.build(
                lat, MukaiVector(1, (0,) * lat.rank, 1)
            )
            first = basis.complement[0]
            repeated = SphericalNormBasis(
                basis.v1, (first, *basis.complement[:-1])
            )
            with pytest.raises(BasisError, match="does not span"):
                repeated.validate(lat)

    def test_norm_axioms(self, all_lattices):
        rng = random.Random(43)
        for lat in all_lattices:
            delta0 = SphericalClass.from_vector(
                lat, MukaiVector(1, (0,) * lat.rank, 1)
            )
            basis = SphericalNormBasis.build(lat, delta0)
            for _ in range(60):
                u = random_vector(rng, lat.rank)
                v = random_vector(rng, lat.rank)
                k = rng.randint(-7, 7)
                nu = spherical_norm(lat, basis, u)
                nv = spherical_norm(lat, basis, v)
                assert spherical_norm(lat, basis, u + v) <= nu + nv
                assert spherical_norm(lat, basis, k * u) == abs(k) * nu
                if any(u.coords()):
                    assert nu > 0


def test_pairing_functional(all_lattices):
    rng = random.Random(17)
    for lat in all_lattices:
        for _ in range(60):
            u = random_vector(rng, lat.rank)
            v = random_vector(rng, lat.rank)
            coeffs = pairing_functional(lat, u.r, u.D, u.s)
            assert len(coeffs) == lat.rank + 2
            assert sum(c * x for c, x in zip(coeffs, v.coords())) == mukai_pairing(
                lat, u, v
            )


def test_pairing_matrix(rho1_d1):
    classes = [
        SphericalClass.from_vector(rho1_d1, MukaiVector(1, (0,), 1)),
        SphericalClass.from_vector(rho1_d1, MukaiVector(1, (-1,), 2)),
    ]
    assert pairing_matrix(rho1_d1, classes) == ((-2, -3), (-3, -2))
