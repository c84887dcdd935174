import random
from fractions import Fraction

import pytest

from k3lax import (
    BWParams,
    IrrationalityCertificate,
    LaxPoint,
    MukaiVector,
    NSLattice,
    QuadNumber,
    SearchBox,
    SphericalClass,
    build_lax_point,
    chi_functional,
    closed_form_Z,
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
from k3lax import lax_boundary
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

    def test_point_is_its_class(self, all_lattices):
        assert LaxPoint._fields == ("lattice", "delta0")
        for lat in all_lattices:
            lp = build_lax_point(lat, Fraction(0), BOX)
            assert lp == LaxPoint(lat, lp.delta0)
            assert lp.d == lat.degree
            assert lp.mu == 0 and isinstance(lp.mu, Fraction)
            assert all(isinstance(c, Fraction) for c in lp.b0)
            assert lp.alpha0 == QuadNumber(0, Fraction(1, lp.r0 * lp.d), lp.d)

    def test_validate_catches_tampering(self, rho1_d1):
        # a point is its class, so only a bad class can break it;
        # SphericalClass itself would refuse (1, 0, 0), so bypass it
        for v, message in (
            (MukaiVector(1, (0,), 0), "not spherical"),
            (MukaiVector(-1, (0,), -1), "positive rank"),
        ):
            head = object.__new__(SphericalClass)
            object.__setattr__(head, "v", v)
            with pytest.raises(InternalInvariantError, match=message):
                LaxPoint(rho1_d1, head).validate()


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

    def test_guard_on_broken_point(self, rho1_d1, monkeypatch):
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        # a derived point cannot leave its ray, so the fault is injected:
        # the charge is built at the off-ray B-field 1/3
        real = lax_boundary.omega_from_bw
        monkeypatch.setattr(
            lax_boundary,
            "omega_from_bw",
            lambda lat, params: real(lat, BWParams((Fraction(1, 3),), params.alpha)),
        )
        with pytest.raises(InternalInvariantError, match="discrete value group"):
            z_alpha0(lp, MukaiVector(0, (1,), 0))
        with pytest.raises(InternalInvariantError, match="discrete value group"):
            family_masses(lp, 1, 1)

    def test_compiled_charge_matches_closed_form(self, all_lattices):
        # sqrt(4) folds into Q on the square degree, so its sqrt(d) forms vanish
        lattices = all_lattices + [NSLattice([[8]], [1])]
        rng = random.Random(23)
        for lat in lattices:
            points = []
            for mu in (Fraction(0), Fraction(1), Fraction(8)):
                try:
                    points.append(build_lax_point(lat, mu, BOX))
                except NoSphericalClass:
                    continue
            assert points, lat
            for lp in points:
                for _ in range(200):
                    v = random_vector(rng, lat.rank)
                    assert z_alpha0(lp, v) == closed_form_Z(lat, lp.b0, lp.alpha0, v)
                for ell, mass in family_masses(lp, -4, 4):
                    twisted = tensor_line_bundle(lat, ell, lp.delta0)
                    assert mass == closed_form_Z(lat, lp.b0, lp.alpha0, twisted).norm_square()


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
            {"a": True},  # True == 1 would pass every arithmetic check
            {"l0": True},
            {"val_l0": False, "val_l1": True},
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
        with pytest.raises(DomainError):
            irrationality_certificate(True)

    def test_search_limit(self):
        with pytest.raises(SearchLimitExceeded):
            irrationality_certificate(1, search_limit=1)
        # True would otherwise run as a limit of one step
        with pytest.raises(DomainError, match="search_limit must be an integer"):
            irrationality_certificate(5, search_limit=True)


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

    def test_degree_two(self, rho1_d2, monkeypatch):
        lp = build_lax_point(rho1_d2, Fraction(0), BOX)
        evaluated = []

        def spy(lp, charge, v, real=lax_boundary._discrete_value):
            evaluated.append(v)
            return real(lp, charge, v)

        monkeypatch.setattr(lax_boundary, "_discrete_value", spy)
        report = separate_from_hom_functionals(lp)
        assert report.a == 2
        assert (report.certificate.p, report.certificate.l0, report.certificate.l1) == (17, 1, 7)
        # the charge is evaluated on the two certificate twists only, not on 1..7
        assert evaluated == [tensor_line_bundle(rho1_d2, ell, lp.delta0) for ell in (1, 7)]
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
