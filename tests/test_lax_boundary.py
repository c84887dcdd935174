import random
from fractions import Fraction

import pytest

from k3lax import (
    IrrationalityCertificate,
    LaxPoint,
    MukaiVector,
    QuadNumber,
    SearchBox,
    build_lax_point,
    chi_functional,
    family_masses,
    irrationality_certificate,
    separate_from_hom_functionals,
    tensor_line_bundle,
    verify_certificate,
    z_alpha0,
)
from k3lax.errors import (
    DomainError,
    InternalInvariantError,
    NoSphericalClass,
    SearchLimitExceeded,
)
from k3lax.selftest import random_vector

BOX = SearchBox(8, 8, 40)


class TestBuildLaxPoint:
    def test_slope_zero_degree_one(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        assert lp.delta0.v == MukaiVector(1, (0,), 1)
        assert lp.r0 == 1
        assert lp.b0 == (Fraction(0),)
        assert lp.alpha0 == 1

    def test_slope_one_degree_one(self, rho1_d1):
        lp = build_lax_point(rho1_d1, 1, BOX)
        assert lp.delta0.v == MukaiVector(2, (1,), 1)
        assert lp.r0 == 2
        assert lp.b0 == (Fraction(1, 2),)
        assert lp.alpha0 == Fraction(1, 2)

    def test_degree_two(self, rho1_d2):
        lp = build_lax_point(rho1_d2, Fraction(0), BOX)
        assert lp.r0 == 1
        # 1/(r0 sqrt(2)) written over the lattice field
        assert lp.alpha0 == QuadNumber(0, Fraction(1, 2), 2)

    def test_rank_two_tie_break(self, rho2_d1):
        # slope 0 admits many rank-one classes; the lexicographically
        # smallest (D, s) wins
        lp = build_lax_point(rho2_d1, Fraction(0), BOX)
        assert lp.delta0.v == MukaiVector(1, (0, -4), -31)
        assert lp.b0 == (Fraction(0), Fraction(-4))

    def test_missing_slope(self, rho1_d1):
        with pytest.raises(NoSphericalClass):
            build_lax_point(rho1_d1, Fraction(1, 3), SearchBox(2, 2, 10))

    def test_validate_catches_tampering(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        broken = LaxPoint(
            lp.lattice, lp.delta0, (Fraction(1),), lp.alpha0, lp.d, lp.mu
        )
        with pytest.raises(InternalInvariantError):
            broken.validate()
        wrong_alpha = LaxPoint(
            lp.lattice, lp.delta0, lp.b0, QuadNumber(2), lp.d, lp.mu
        )
        with pytest.raises(InternalInvariantError):
            wrong_alpha.validate()


class TestBoundaryCharge:
    def test_kills_head_class(self, all_lattices):
        for lat in all_lattices:
            lp = build_lax_point(lat, Fraction(0), BOX)
            assert z_alpha0(lp, lp.delta0).is_zero

    def test_worked_values(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        assert z_alpha0(lp, MukaiVector(1, (0,), 0)) == QuadNumber(1)
        assert z_alpha0(lp, MukaiVector(0, (0,), 1)) == QuadNumber(-1)
        z = z_alpha0(lp, MukaiVector(1, (1,), 2))
        assert (z.re, z.im) == (QuadNumber(-1), QuadNumber(2))

    def test_discrete_value_group(self, all_lattices):
        rng = random.Random(67)
        for lat in all_lattices:
            for mu in (Fraction(0), Fraction(1)):
                try:
                    lp = build_lax_point(lat, mu, BOX)
                except NoSphericalClass:
                    continue
                sqrt_d = QuadNumber.sqrt_radicand(lp.d)
                r0_sq = lp.r0 * lp.r0
                for _ in range(200):
                    v = random_vector(rng, lat.rank)
                    z = z_alpha0(lp, v)
                    re_scaled = z.re * r0_sq
                    im_scaled = z.im * sqrt_d * r0_sq
                    for part in (re_scaled, im_scaled):
                        assert part.is_rational
                        assert part.a.denominator == 1

    def test_guard_on_broken_point(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        # bypassing validate with an off-ray B-field breaks discreteness
        broken = LaxPoint(
            lp.lattice, lp.delta0, (Fraction(1, 3),), lp.alpha0, lp.d, lp.mu
        )
        with pytest.raises(InternalInvariantError):
            z_alpha0(broken, MukaiVector(0, (1,), 0))


class TestFamilyMasses:
    def test_worked_values(self, rho1_d1, rho1_d2):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        masses = dict(family_masses(lp, -2, 2))
        assert masses[0] == 0
        assert masses[1] == 5 and masses[-1] == 5
        assert masses[2] == 32 and masses[-2] == 32

        lp1 = build_lax_point(rho1_d1, Fraction(1), BOX)
        masses1 = dict(family_masses(lp1, 1, 2))
        assert masses1[1] == 8
        assert masses1[2] == 80

        lp2 = build_lax_point(rho1_d2, Fraction(0), BOX)
        assert dict(family_masses(lp2, 1, 1))[1] == 12

    def test_matches_integer_formula(self, all_lattices):
        for lat in all_lattices:
            lp = build_lax_point(lat, Fraction(0), BOX)
            d, r0 = lp.d, lp.r0
            for ell, mass in family_masses(lp, -20, 20):
                assert mass == d * ell * ell * (r0 * r0 * d * ell * ell + 4)

    def test_empty_range(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        with pytest.raises(DomainError):
            family_masses(lp, 3, 2)


class TestChiFunctional:
    def test_worked_values(self, rho1_d1):
        delta0 = MukaiVector(1, (0,), 1)
        assert chi_functional(rho1_d1, delta0, delta0) == 2
        assert chi_functional(rho1_d1, delta0, MukaiVector(0, (0,), 1)) == 1
        for ell in range(-6, 7):
            twisted = tensor_line_bundle(rho1_d1, ell, delta0)
            assert chi_functional(rho1_d1, delta0, twisted) == ell * ell + 2

    def test_additive(self, all_lattices):
        rng = random.Random(71)
        for lat in all_lattices:
            a_vec = MukaiVector(1, (0,) * lat.rank, 1)
            for _ in range(50):
                u = random_vector(rng, lat.rank)
                v = random_vector(rng, lat.rank)
                assert chi_functional(lat, a_vec, u + v) == chi_functional(
                    lat, a_vec, u
                ) + chi_functional(lat, a_vec, v)


class TestCertificates:
    def test_known_small_cases(self):
        cases = {
            1: (5, 2, 1),
            2: (17, 1, 7),
            3: (13, 1, 4),
            4: (5, 1, 2),
            8: (17, 1, 5),
        }
        for a, (p, l0, l1) in cases.items():
            cert = irrationality_certificate(a)
            assert (cert.p, cert.l0, cert.l1) == (p, l0, l1)
            assert (cert.val_l0, cert.val_l1) == (0, 1)

    def test_range_verifies(self):
        for a in range(1, 51):
            cert = irrationality_certificate(a)
            assert cert.a == a
            verify_certificate(cert)

    def test_verify_rejects_tampering(self):
        good = irrationality_certificate(1)
        bad_fields = [
            {"p": 6},  # composite
            {"p": 7},  # 3 mod 4
            {"p": 13},  # prime, right class, wrong divisibility
            {"l0": good.l1},
            {"l1": good.l0},
            {"val_l0": 1},
            {"val_l1": 0},
            {"a": 0},
            {"l1": -1},
        ]
        for patch in bad_fields:
            fields = {
                "a": good.a,
                "p": good.p,
                "l0": good.l0,
                "l1": good.l1,
                "val_l0": good.val_l0,
                "val_l1": good.val_l1,
            }
            fields.update(patch)
            with pytest.raises(DomainError):
                verify_certificate(IrrationalityCertificate(**fields))

    def test_small_modulus_rejected(self):
        # p = 5 passes every congruence test for a = 7 but is not above a
        with pytest.raises(DomainError):
            verify_certificate(
                IrrationalityCertificate(a=7, p=5, l0=1, l1=2, val_l0=0, val_l1=1)
            )

    def test_input_validation(self):
        with pytest.raises(DomainError):
            irrationality_certificate(0)
        with pytest.raises(DomainError):
            irrationality_certificate(-3)
        with pytest.raises(DomainError):
            irrationality_certificate(Fraction(1, 2))

    def test_search_limit(self):
        with pytest.raises(SearchLimitExceeded):
            irrationality_certificate(1, search_limit=1)


class TestSeparation:
    def test_degree_one_slope_zero(self, rho1_d1):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        report = separate_from_hom_functionals(lp)
        assert (report.mu, report.r0, report.d, report.a) == (0, 1, 1, 1)
        assert (report.certificate.p, report.certificate.l0, report.certificate.l1) == (
            5,
            2,
            1,
        )
        assert (report.mass_sq_l0, report.mass_sq_l1) == (32, 5)
        assert report.ratio_valuation == 1
        assert (report.chi_l0, report.chi_l1) == (6, 3)
        assert "irrational" in report.conclusion
        assert "odd" in report.conclusion

    def test_degree_one_slope_one(self, rho1_d1):
        report = separate_from_hom_functionals(
            build_lax_point(rho1_d1, Fraction(1), BOX)
        )
        assert report.a == 4
        assert (report.mass_sq_l0, report.mass_sq_l1) == (8, 80)
        assert report.ratio_valuation == 1

    def test_degree_two(self, rho1_d2):
        report = separate_from_hom_functionals(
            build_lax_point(rho1_d2, Fraction(0), BOX)
        )
        assert report.a == 2
        assert report.certificate.p == 17
        assert (report.mass_sq_l0, report.mass_sq_l1) == (12, 9996)
        assert report.ratio_valuation % 2 == 1
        assert (report.chi_l0, report.chi_l1) == (4, 100)

    def test_odd_valuation_everywhere(self, all_lattices):
        for lat in all_lattices:
            report = separate_from_hom_functionals(
                build_lax_point(lat, Fraction(0), BOX)
            )
            assert report.ratio_valuation % 2 == 1
            # the functional side stays integral, with nonzero values
            assert report.chi_l0 != 0 and report.chi_l1 != 0
