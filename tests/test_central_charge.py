import math
import random
from fractions import Fraction

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lax import (
    BWParams,
    ChargeForms,
    MassOracle,
    MukaiVector,
    OmegaVector,
    QuadComplex,
    QuadNumber,
    SearchBox,
    SphericalClass,
    SphericalNormBasis,
    closed_form_Z,
    compile_charge,
    enumerate_spherical,
    eval_Z,
    good_basis,
    in_P_plus,
    omega_from_bw,
    reconstruct,
    reference_omega,
    spherical_norm,
    spherical_wall_hits,
    support_constant,
    wall_scan_alpha,
)
from k3lax.central_charge import WallHit, WallScan, _float_quad
from k3lax.exact_scalars import try_sqrt
from k3lax.selftest import default_lattices
from k3lax.errors import DimensionError, DomainError, EmptySupport, RadicandMismatch


def _complex_image(omega):
    """The same charge with Python complex components, as float mode has."""
    return OmegaVector(
        complex(omega.r), tuple(complex(c) for c in omega.D), complex(omega.s)
    )


def _rational_invariants(lat, B, v):
    """I_v and c_v recomputed from scratch, Fractions only."""
    i_v = Fraction(lat.dot_ample(v.D)) - v.r * Fraction(lat.dot_ample(B))
    c_v = (
        Fraction(lat.dot(B, v.D))
        - v.s
        - v.r * Fraction(lat.dot(B, B)) / 2
    )
    return i_v, c_v


class TestOmegaFromBW:
    def test_reference_point(self, rho1_d1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 1))
        assert omega.r == QuadComplex(QuadNumber(1), QuadNumber(0))
        assert omega.D == (QuadComplex(QuadNumber(0), QuadNumber(1)),)
        assert omega.s == QuadComplex(QuadNumber(-1), QuadNumber(0))
        assert omega == reference_omega(rho1_d1)

    def test_shifted_point(self, rho1_d1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1),), 1))
        assert omega.D == (QuadComplex(QuadNumber(1), QuadNumber(1)),)
        # s = (B^2 - alpha^2 H^2)/2 + i alpha (B . H) = 0 + 2i
        assert omega.s == QuadComplex(QuadNumber(0), QuadNumber(2))

    def test_quadratic_alpha(self, rho1_d2):
        half_sqrt2 = QuadNumber(0, Fraction(1, 2), 2)
        omega = omega_from_bw(rho1_d2, BWParams((Fraction(0),), half_sqrt2))
        # alpha^2 = 1/2, so Re s = -alpha^2 d = -1
        assert omega.s.re == QuadNumber(-1)
        assert omega.D[0].im == half_sqrt2

    def test_rejections(self, rho1_d1):
        with pytest.raises(DimensionError):
            omega_from_bw(rho1_d1, BWParams((Fraction(0), Fraction(0)), 1))
        with pytest.raises(DomainError):
            omega_from_bw(rho1_d1, BWParams((Fraction(0),), 0))
        with pytest.raises(DomainError):
            omega_from_bw(rho1_d1, BWParams((Fraction(0),), -2))
        with pytest.raises(DomainError):
            # alpha from the wrong quadratic field
            omega_from_bw(rho1_d1, BWParams((Fraction(0),), QuadNumber(0, 1, 3)))

    def test_conjugate_flips_imaginary(self, rho1_d1):
        omega = reference_omega(rho1_d1)
        conj = omega.conjugate()
        assert conj.D[0].im == QuadNumber(-1)
        assert conj.conjugate() == omega


class TestEvalZ:
    def test_point_class(self, rho1_d1):
        omega = reference_omega(rho1_d1)
        z = eval_Z(rho1_d1, omega, MukaiVector(0, (0,), 1))
        assert z == QuadComplex(QuadNumber(-1), QuadNumber(0))

    def test_vanishes_on_boundary_kernel(self, rho1_d1):
        omega = reference_omega(rho1_d1)
        assert eval_Z(rho1_d1, omega, MukaiVector(1, (0,), 1)).is_zero

    def test_shifted_sphere(self, rho1_d1):
        omega = reference_omega(rho1_d1)
        z = eval_Z(rho1_d1, omega, MukaiVector(1, (0,), -1))
        assert z == QuadComplex(QuadNumber(2), QuadNumber(0))

    def test_closed_form_agrees(self, all_lattices):
        rng = random.Random(47)
        for lat in all_lattices:
            for _ in range(40):
                B = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(lat.rank)
                )
                if rng.random() < 0.5:
                    alpha = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                else:
                    alpha = QuadNumber(0, Fraction(rng.randint(1, 5)), lat.degree)
                omega = omega_from_bw(lat, BWParams(B, alpha))
                v = MukaiVector(
                    rng.randint(-8, 8),
                    tuple(rng.randint(-8, 8) for _ in range(lat.rank)),
                    rng.randint(-8, 8),
                )
                assert eval_Z(lat, omega, v) == closed_form_Z(lat, B, alpha, v)

    def test_accepts_spherical_class(self, rho1_d1):
        omega = reference_omega(rho1_d1)
        cls = SphericalClass(MukaiVector(1, (0,), 1))
        assert eval_Z(rho1_d1, omega, cls).is_zero


def _pair_by_hand(lat, omega, v):
    """<omega, v> = sum_ij omega.D_i G_ij v.D_j - omega.r v.s - omega.s v.r,
    term by term in QuadComplex arithmetic."""
    acc = -(omega.r * v.s) - (omega.s * v.r)
    for i, row in enumerate(lat.gram):
        for j, g in enumerate(row):
            acc = acc + omega.D[i] * (g * v.D[j])
    return acc


def _random_quad_complex(rng, d):
    def part():
        return QuadNumber(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            d,
        )

    return QuadComplex(part(), part())


class TestCompileCharge:
    def test_value_matches_closed_form(self, all_lattices):
        rng = random.Random(71)
        for lat in all_lattices:
            irrational_forms = False
            for _ in range(40):
                B = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(lat.rank)
                )
                p_q = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                # p/q * sqrt(d): irrational on rho1_d2, rational where d = 1
                alpha = p_q if rng.random() < 0.5 else QuadNumber(0, p_q, lat.degree)
                forms = compile_charge(lat, omega_from_bw(lat, BWParams(B, alpha)))
                assert isinstance(forms, ChargeForms)
                assert forms.d == lat.degree
                assert len(forms.re_a) == lat.rank + 2
                irrational_forms |= any(forms.re_b) or any(forms.im_b)
                for _ in range(5):
                    v = MukaiVector(
                        rng.randint(-8, 8),
                        tuple(rng.randint(-8, 8) for _ in range(lat.rank)),
                        rng.randint(-8, 8),
                    )
                    z = closed_form_Z(lat, B, alpha, v)
                    assert forms.value(v) == z
                    ra, rb, ia, ib = forms.ints(v)
                    L = forms.denom
                    assert QuadNumber(ra, rb, lat.degree) == z.re * L
                    assert QuadNumber(ia, ib, lat.degree) == z.im * L
            assert irrational_forms == (lat.degree == 2)

    def test_general_charge_matches_hand_pairing(self, all_lattices):
        rng = random.Random(73)
        for lat in all_lattices:
            for _ in range(10):
                omega = OmegaVector(
                    _random_quad_complex(rng, lat.degree),
                    tuple(
                        _random_quad_complex(rng, lat.degree) for _ in range(lat.rank)
                    ),
                    _random_quad_complex(rng, lat.degree),
                )
                for charge in (omega, omega.conjugate()):
                    forms = compile_charge(lat, charge)
                    for cls in enumerate_spherical(lat, SearchBox(2, 2, 6)):
                        assert forms.value(cls) == _pair_by_hand(lat, charge, cls.v)

    def test_reconstructed_charge(self, rho1_d2):
        basis = good_basis(rho1_d2, SearchBox(8, 8, 40))
        hidden = omega_from_bw(
            rho1_d2, BWParams((Fraction(1, 3),), QuadNumber(0, Fraction(1, 2), 2))
        )
        rec = reconstruct(rho1_d2, basis, MassOracle.from_charge(rho1_d2, hidden))
        for charge in (rec.omega, rec.omega.conjugate()):
            forms = compile_charge(rho1_d2, charge)
            for cls in enumerate_spherical(rho1_d2, SearchBox(3, 3, 20)):
                assert forms.value(cls) == _pair_by_hand(rho1_d2, charge, cls.v)

    def test_rejections(self, rho1_d2):
        sqrt3 = QuadNumber(0, 1, 3)
        zero = QuadComplex(0, 0)
        with pytest.raises(RadicandMismatch):
            compile_charge(rho1_d2, OmegaVector(zero, (QuadComplex(0, sqrt3),), zero))
        with pytest.raises(DimensionError):
            compile_charge(rho1_d2, OmegaVector(zero, (zero, zero), zero))
        with pytest.raises(DomainError):
            compile_charge(rho1_d2, _complex_image(reference_omega(rho1_d2)))
        forms = compile_charge(rho1_d2, reference_omega(rho1_d2))
        with pytest.raises(DimensionError):
            forms.ints(MukaiVector(1, (0, 0), 1))


class TestPositiveCone:
    def test_reference_inside(self, all_lattices):
        for lat in all_lattices:
            assert in_P_plus(lat, reference_omega(lat))

    def test_all_bw_charges_inside(self, all_lattices):
        rng = random.Random(53)
        for lat in all_lattices:
            for _ in range(25):
                B = tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(lat.rank)
                )
                alpha = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                omega = omega_from_bw(lat, BWParams(B, alpha))
                assert in_P_plus(lat, omega)
                assert in_P_plus(lat, _complex_image(omega))

    def test_conjugate_outside(self, all_lattices):
        for lat in all_lattices:
            conjugate = reference_omega(lat).conjugate()
            assert not in_P_plus(lat, conjugate)
            assert not in_P_plus(lat, _complex_image(conjugate))

    def test_degenerate_outside(self, rho1_d1):
        one = QuadNumber(1)
        zero = QuadNumber(0)
        flat = OmegaVector(
            QuadComplex(one, zero),
            (QuadComplex(zero, zero),),
            QuadComplex(zero, zero),
        )
        assert not in_P_plus(rho1_d1, flat)


class TestSphericalWallHits:
    def test_boundary_kernel_found(self, rho1_d1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 1))
        hits = spherical_wall_hits(rho1_d1, omega, SearchBox(4, 4, 20))
        vs = {cls.v for cls in hits}
        assert MukaiVector(1, (0,), 1) in vs
        for cls in hits:
            assert eval_Z(rho1_d1, omega, cls).is_zero

    def test_generic_alpha_empty(self, rho1_d1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 2))
        assert spherical_wall_hits(rho1_d1, omega, SearchBox(6, 6, 40)) == []

    def test_float_mode_agrees(self, rho1_d1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 1))
        box = SearchBox(4, 4, 20)
        exact = spherical_wall_hits(rho1_d1, omega, box, mode="exact")
        loose = spherical_wall_hits(rho1_d1, omega, box, mode="float", tol=1e-9)
        assert exact == loose

    def test_float_mode_near_cancellation(self, rho1_d2):
        # Z(v) = -v.r * (a + b sqrt(2)): the float nearest b*sqrt(2) is
        # exactly -a, so the naive sum is 0.0 while the true value is not
        b = -(10**16 + 1)
        a = int(-b * math.sqrt(2))
        assert a + b * math.sqrt(2) == 0.0
        true_value = QuadNumber(a, b, 2)
        assert 0.01 < abs(float(true_value.approx(64))) < 2
        zero = QuadComplex(0, 0)
        omega = OmegaVector(zero, (zero,), QuadComplex(true_value, 0))
        box = SearchBox(1, 1, 3)
        assert enumerate_spherical(rho1_d2, box)
        assert spherical_wall_hits(rho1_d2, omega, box, mode="float") == []

    def test_float_quad_is_accurate(self):
        # Pell pairs a^2 - 2 b^2 = 1 make a - b sqrt(2) = 1 / (a + b sqrt(2))
        a, b = 3, 2
        for _ in range(20):
            exact = 1 / (a + b * math.sqrt(2))
            assert _float_quad(a, -b, 2) == pytest.approx(exact, rel=1e-14)
            assert _float_quad(-a, b, 2) == pytest.approx(-exact, rel=1e-14)
            assert _float_quad(a, b, 2) == pytest.approx(1 / exact, rel=1e-14)
            a, b = 3 * a + 4 * b, 2 * a + 3 * b

    def test_bad_mode(self, rho1_d1):
        with pytest.raises(DomainError):
            spherical_wall_hits(
                rho1_d1, reference_omega(rho1_d1), SearchBox(1, 1, 1), mode="fast"
            )


def brute_force_wall_scan(lat, b_field, delta, alpha_min, box):
    """`wall_scan_alpha` one candidate at a time: every (r, D, s) in the
    box is built as a vector and filtered in turn, in scaled integers
    with q clearing the denominators of B."""
    B = tuple(Fraction(c) for c in b_field)
    q = math.lcm(*(c.denominator for c in B))
    P = tuple(int(c * q) for c in B)
    d, H = lat.degree, lat.ample_class
    ph, pp = lat.dot(P, H), lat.dot(P, P)

    def scaled_invariants(v):
        # (q * I_v, 2 * q^2 * c_v)
        return (
            q * lat.dot(H, v.D) - v.r * ph,
            2 * q * lat.dot(P, v.D) - 2 * q * q * v.s - v.r * pp,
        )

    i_delta, c_delta = scaled_invariants(delta)
    alpha_min_sq = alpha_min * alpha_min
    roots, aligned = {}, []
    d_range = range(-box.d_bound, box.d_bound + 1)
    for r in range(-box.r_max, box.r_max + 1):
        for D in itertools.product(d_range, repeat=lat.rank):
            for s in range(-box.s_bound, box.s_bound + 1):
                w = MukaiVector(r, D, s)
                if w.is_zero or w == delta:
                    continue
                rest = delta - w
                if lat.dot(D, D) - 2 * r * s < -2:
                    continue
                if lat.dot(rest.D, rest.D) - 2 * rest.r * rest.s < -2:
                    continue
                i_w, c_w = scaled_invariants(w)
                coeff = i_w * delta.r - i_delta * r
                const = i_w * c_delta - i_delta * c_w
                if coeff == 0:
                    if const == 0:
                        aligned.append(w)
                    continue
                alpha_sq = Fraction(-const, 2 * q * q * d * coeff)
                if alpha_sq > 0 and alpha_sq > alpha_min_sq:
                    roots.setdefault(alpha_sq, []).append(w)
    hits = tuple(
        WallHit(x, try_sqrt(QuadNumber(x, 0, d)), tuple(roots[x])) for x in sorted(roots)
    )
    return WallScan(hits, tuple(aligned))


def _alpha_mins():
    rational = st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6)
    quadratic = st.builds(
        QuadNumber,
        st.fractions(min_value=-1, max_value=1, max_denominator=4),
        st.fractions(min_value=Fraction(1, 4), max_value=1, max_denominator=4),
        st.sampled_from([2, 3, 5]),
    ).filter(lambda x: x.sign() > 0)
    return st.one_of(rational, quadratic)


class TestWallScan:
    @settings(max_examples=150, deadline=None)
    @given(
        which=st.integers(0, 2),
        b_entries=st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=2,
            max_size=2,
        ),
        delta=st.tuples(
            st.integers(-3, 3),
            st.lists(st.integers(-5, 5), min_size=2, max_size=2),
            st.integers(-9, 9),
        ),
        box=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 8)),
        alpha_min=_alpha_mins(),
    )
    # rho1_d2 with alpha_min = 1/2 + sqrt(2)/4, whose square is irrational
    @example(
        which=1,
        b_entries=[Fraction(0)] * 2,
        delta=(1, [1, 0], 0),
        box=(2, 2, 6),
        alpha_min=QuadNumber(Fraction(1, 2), Fraction(1, 4), 2),
    )
    # delta inside the box of the spherical class (0, 0, 1); box (0, 0, 0)
    @example(
        which=2,
        b_entries=[Fraction(1, 2), Fraction(-1, 3)],
        delta=(0, [0, 0], 1),
        box=(0, 0, 0),
        alpha_min=Fraction(1, 3),
    )
    # non-spherical delta of square +2 with classes aligned at every alpha
    @example(
        which=0,
        b_entries=[Fraction(0)] * 2,
        delta=(1, [0, 0], -1),
        box=(2, 2, 6),
        alpha_min=Fraction(1, 2),
    )
    # rho2_d1 with B = (1/2, 1/3): the compiled charge's denominator is 36,
    # not 6, the lcm of B's denominators, so the root scale must be L * d
    @example(
        which=2,
        b_entries=[Fraction(1, 2), Fraction(1, 3)],
        delta=(1, [1, 0], 1),
        box=(2, 2, 6),
        alpha_min=Fraction(1, 6),
    )
    def test_matches_brute_force(self, which, b_entries, delta, box, alpha_min):
        lat = default_lattices()[which]
        r, D, s = delta
        delta = MukaiVector(r, D[: lat.rank], s)
        if delta.is_zero:
            delta = MukaiVector(0, (0,) * lat.rank, 1)
        B, box = tuple(b_entries[: lat.rank]), SearchBox(*box)
        got = wall_scan_alpha(lat, B, delta, alpha_min, box)
        assert got == brute_force_wall_scan(lat, B, delta, alpha_min, box)

    def test_aligned_nonspherical_reference(self, rho1_d1):
        # reference class of square +2; (1, 0, 1) stays aligned with it
        # at every alpha along the B = 0 ray
        scan = wall_scan_alpha(
            rho1_d1,
            (Fraction(0),),
            MukaiVector(1, (0,), -1),
            Fraction(1, 2),
            SearchBox(2, 2, 6),
        )
        assert MukaiVector(1, (0,), 1) in scan.aligned

    def test_roots_satisfy_equation(self, rho1_d1):
        B = (Fraction(1, 2),)
        delta = MukaiVector(1, (1,), 2)
        scan = wall_scan_alpha(rho1_d1, B, delta, Fraction(1, 4), SearchBox(3, 3, 10))
        assert scan.hits
        d = rho1_d1.degree
        i_d, c_d = _rational_invariants(rho1_d1, B, delta)
        previous = Fraction(0)
        for hit in scan.hits:
            assert hit.alpha_sq > previous
            previous = hit.alpha_sq
            assert hit.alpha_sq > Fraction(1, 4) ** 2
            assert hit.witnesses
            for w in hit.witnesses:
                assert not w.is_zero and w != delta
                i_w, c_w = _rational_invariants(rho1_d1, B, w)
                assert hit.alpha_sq * d * (i_w * delta.r - i_d * w.r) + (
                    i_w * c_d - i_d * c_w
                ) == 0
            if hit.alpha is not None:
                assert hit.alpha * hit.alpha == QuadNumber(hit.alpha_sq, 0, d)
                assert hit.alpha.sign() > 0

    def test_candidate_filter(self, rho1_d1):
        delta = MukaiVector(1, (1,), 2)
        scan = wall_scan_alpha(
            rho1_d1, (Fraction(0),), delta, Fraction(1), SearchBox(3, 3, 10)
        )
        for hit in scan.hits:
            for w in hit.witnesses:
                rest = delta - w
                assert rho1_d1.dot(w.D, w.D) - 2 * w.r * w.s >= -2
                assert rho1_d1.dot(rest.D, rest.D) - 2 * rest.r * rest.s >= -2

    def test_boundary_ray_has_no_walls(self, rho1_d1):
        # along B = B_0 every root for the minimal class collapses onto the
        # boundary scale itself, so the open ray above it stays clear
        scan = wall_scan_alpha(
            rho1_d1,
            (Fraction(0),),
            MukaiVector(1, (0,), 1),
            Fraction(1),
            SearchBox(6, 6, 40),
        )
        assert scan.hits == ()

    def test_rejections(self, rho1_d1):
        delta = MukaiVector(1, (0,), 1)
        with pytest.raises(DomainError):
            wall_scan_alpha(
                rho1_d1, (Fraction(0),), MukaiVector(0, (0,), 0), 1, SearchBox(1, 1, 1)
            )
        with pytest.raises(DomainError):
            wall_scan_alpha(rho1_d1, (Fraction(0),), delta, 0, SearchBox(1, 1, 1))
        with pytest.raises(DimensionError):
            wall_scan_alpha(
                rho1_d1, (Fraction(0), Fraction(0)), delta, 1, SearchBox(1, 1, 1)
            )


class TestSupportConstant:
    def _basis(self, lat):
        head = SphericalClass.from_vector(
            lat, MukaiVector(1, (0,) * lat.rank, 1)
        )
        return SphericalNormBasis.build(lat, head)

    def test_empty_box(self, rho1_d1):
        basis = self._basis(rho1_d1)
        with pytest.raises(EmptySupport):
            support_constant(
                rho1_d1, basis, reference_omega(rho1_d1), SearchBox(0, 0, 0)
            )

    def test_kernel_only_box(self, rho1_d1):
        # every class in this box sits in the charge kernel
        basis = self._basis(rho1_d1)
        with pytest.raises(EmptySupport):
            support_constant(
                rho1_d1, basis, reference_omega(rho1_d1), SearchBox(1, 0, 1)
            )

    def test_worked_ratio(self, rho1_d1):
        basis = self._basis(rho1_d1)
        bound = support_constant(
            rho1_d1, basis, reference_omega(rho1_d1), SearchBox(1, 1, 2)
        )
        # the (+-1, +-1, +-2) classes all give norm 6 and |Z|^2 = 5
        assert bound.ratio_sq == Fraction(36, 5)
        assert bound.witness.v == MukaiVector(-1, (-1,), -2)
        assert bound.value == pytest.approx((36 / 5) ** 0.5)

    def test_value_is_faithful_on_irrational_ratio(self, rho1_d2):
        # alpha in Q(sqrt 2) makes the ratio irrational; value must lie
        # within one ulp of its exact square root
        basis = self._basis(rho1_d2)
        alpha = QuadNumber(1, Fraction(1, 3), 2)
        omega = omega_from_bw(rho1_d2, BWParams((Fraction(1, 5),), alpha))
        bound = support_constant(rho1_d2, basis, omega, SearchBox(2, 2, 8))
        assert not bound.ratio_sq.is_rational
        value = bound.value
        below = Fraction(math.nextafter(value, 0.0))
        above = Fraction(math.nextafter(value, math.inf))
        assert bound.ratio_sq > below * below
        assert bound.ratio_sq < above * above

    def test_ties_keep_first_enumerated(self, all_lattices):
        # Z(-v) = -Z(v) and the norm is symmetric under negation, so every
        # maximum is attained at least twice; the witness is the first
        # maximiser enumerated
        rng = random.Random(79)
        for lat in all_lattices:
            basis = self._basis(lat)
            box = SearchBox(2, 2, 8)
            for _ in range(4):
                B = tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(lat.rank)
                )
                p_q = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                alpha = QuadNumber(0, p_q, lat.degree) if lat.degree == 2 else p_q
                omega = omega_from_bw(lat, BWParams(B, alpha))
                ratios = []
                for cls in enumerate_spherical(lat, box):
                    z = closed_form_Z(lat, B, alpha, cls)
                    if not z.is_zero:
                        n = spherical_norm(lat, basis, cls)
                        ratio = QuadNumber(n * n, 0, lat.degree) / z.norm_square()
                        ratios.append((ratio, cls))
                top = max(ratio for ratio, _ in ratios)
                maximisers = [cls for ratio, cls in ratios if ratio == top]
                assert len(maximisers) >= 2
                bound = support_constant(lat, basis, omega, box)
                assert bound.ratio_sq == top
                assert bound.witness == maximisers[0]

    def test_monotone_in_box(self, all_lattices):
        for lat in all_lattices:
            basis = self._basis(lat)
            omega = reference_omega(lat)
            previous = None
            for k in (1, 2, 3):
                bound = support_constant(
                    lat, basis, omega, SearchBox(k, k, 3 * k)
                )
                if previous is not None:
                    assert bound.ratio_sq >= previous
                previous = bound.ratio_sq
