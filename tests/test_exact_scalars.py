import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lax import (
    QuadComplex,
    QuadNumber,
    Rational,
    approx,
    norm_square,
    quad_add,
    quad_mul,
    quad_neg,
    try_sqrt,
)
from k3lax.errors import DomainError, RadicandMismatch
from k3lax.exact_scalars import quad_sign


def q(a, b=0, d=2):
    return QuadNumber(Fraction(a), Fraction(b), d)


fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@st.composite
def quad_numbers(draw, d=2):
    return QuadNumber(draw(fractions), draw(fractions), d)


class TestConstruction:
    def test_rational_alias(self):
        assert Rational is Fraction

    def test_perfect_square_radicand_folds(self):
        x = QuadNumber(0, 1, 4)
        assert x.is_rational
        assert x.a == 2 and x.b == 0

    def test_d_one_folds(self):
        x = QuadNumber(Fraction(1, 2), Fraction(1, 3), 1)
        assert x == Fraction(5, 6)

    def test_nonsquare_radicand_kept(self):
        x = q(1, 2)
        assert not x.is_rational
        assert (x.a, x.b, x.d) == (1, 2, 2)

    def test_invalid_radicand(self):
        with pytest.raises(DomainError):
            QuadNumber(1, 1, 0)
        with pytest.raises(DomainError):
            QuadNumber(1, 1, -3)

    def test_zero_b_ignores_radicand_mismatch(self):
        assert q(3, 0, 2) == QuadNumber(3, 0, 7)


class TestArithmetic:
    def test_module_functions_match_operators(self):
        x, y = q(1, 2), q(3, -1)
        assert quad_add(x, y) == x + y
        assert quad_mul(x, y) == x * y
        assert quad_neg(x) == -x

    def test_folded_addition(self):
        assert QuadNumber(0, 1, 4) + QuadNumber(0, 0, 4) == 2

    def test_conjugate_product(self):
        assert q(1, 1) * q(1, -1) == -1

    def test_componentwise_addition(self):
        assert q(Fraction(1, 2)) + q(0, Fraction(3, 2)) == q(
            Fraction(1, 2), Fraction(3, 2)
        )

    def test_rational_operands_lift(self):
        x = q(1, 1)
        assert x + Fraction(1, 2) == q(Fraction(3, 2), 1)
        assert 2 * x == q(2, 2)
        assert x - 1 == q(0, 1)
        assert (x * x) == q(3, 2)

    def test_division(self):
        x = q(1, 1)
        assert x / x == 1
        assert 1 / x == q(-1, 1)  # (1 + s2)^-1 = s2 - 1
        with pytest.raises(ZeroDivisionError):
            x / q(0)

    def test_mismatched_radicands(self):
        with pytest.raises(RadicandMismatch):
            q(0, 1, 2) + QuadNumber(0, 1, 3)
        with pytest.raises(RadicandMismatch):
            q(0, 1, 2) * QuadNumber(0, 1, 3)

    def test_pow(self):
        x = q(1, 1)
        assert x**0 == 1
        assert x**3 == x * x * x

    def test_conjugate(self):
        assert q(2, 5).conjugate() == q(2, -5)

    @settings(max_examples=120, deadline=None)
    @given(quad_numbers(), quad_numbers(), quad_numbers())
    def test_field_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0
        if not x.is_zero:
            assert x * (1 / x) == 1


class TestComparison:
    def test_exact_sign(self):
        assert q(0).sign() == 0
        # 17/12 is above s2, 7/5 below; both within 2e-3 of it
        assert q(Fraction(17, 12), -1).sign() == 1
        assert q(Fraction(7, 5), -1).sign() == -1
        assert q(-3, 2).sign() == -1
        assert q(-1, 1).sign() == 1

    def test_total_order(self):
        values = [q(0, 1), q(1), q(Fraction(3, 2)), q(-1), q(0, -1)]
        ordered = sorted(values)
        assert ordered == [q(0, -1), q(-1), q(1), q(0, 1), q(Fraction(3, 2))]

    def test_compare_with_rationals(self):
        assert q(0, 1) > 1
        assert q(0, 1) < Fraction(3, 2)
        assert Fraction(3, 2) > q(0, 1)

    def test_abs_and_tolerance_comparisons(self):
        # 577/408 - sqrt(2) is about 2.1e-6: a comparison against a rational
        # tolerance must see the cancellation exactly
        x = q(Fraction(577, 408), -1)
        assert x > 0 and -x < 0
        assert x <= Fraction(1, 400000) and not x <= Fraction(1, 500000)
        assert abs(x) == x and abs(-x) == x and abs(q(0)) == 0

    def test_hash_consistent_with_rational_equality(self):
        assert hash(q(Fraction(5, 6))) == hash(Fraction(5, 6))
        assert len({q(Fraction(1, 2)), Fraction(1, 2)}) == 1


class TestTrySqrt:
    def test_rational_square(self):
        assert try_sqrt(q(Fraction(9, 4))) == Fraction(3, 2)

    def test_radicand_itself(self):
        assert try_sqrt(q(2)) == q(0, 1)

    def test_no_root(self):
        assert try_sqrt(q(3)) is None

    def test_negative_input(self):
        with pytest.raises(DomainError):
            try_sqrt(q(-1))

    def test_zero(self):
        assert try_sqrt(q(0)) == 0

    def test_mixed_square(self):
        x = q(1, 1)
        root = try_sqrt(x * x)
        assert root == x

    @settings(max_examples=100, deadline=None)
    @given(quad_numbers())
    def test_square_roundtrip(self, x):
        root = try_sqrt(x * x)
        assert root is not None
        assert root * root == x * x
        assert root.sign() >= 0


class TestApprox:
    def test_radicand_value(self):
        value = approx(q(0, 1), 64)
        assert abs(float(value) - 2**0.5) < 1e-15

    def test_rational_exact(self):
        assert float(approx(q(1), 64)) == 1.0

    def test_third(self):
        assert abs(float(approx(q(Fraction(1, 3)), 80)) - 1 / 3) < 1e-18

    def test_minimum_precision(self):
        with pytest.raises(DomainError):
            q(0, 1).approx(32)

    def test_respects_order(self):
        lo, hi = q(Fraction(7, 5), -1), q(Fraction(17, 12), -1)
        assert lo < hi
        assert lo.approx(64) < hi.approx(64)

    def test_float_conversion(self):
        assert abs(float(q(1, 1)) - (1 + 2**0.5)) < 1e-15


def _pell(x1, y1, d, n):
    """The n-th power of the unit x1 + y1*sqrt(d), as integers (x, y)."""
    x, y = 1, 0
    for _ in range(n):
        x, y = x * x1 + y * y1 * d, x * y1 + y * x1
    return x, y


class TestCorrectRounding:
    """float(QuadNumber) is the double nearest to a + b*sqrt(d).

    Checked exactly: a + b*sqrt(d) must lie strictly between the
    midpoints from the result to its two neighbouring doubles, and each
    comparison is an exact sign in Q(sqrt(d)).
    """

    @staticmethod
    def assert_nearest(a, b, d):
        got = float(QuadNumber(a, b, d))
        assert math.isfinite(got)
        for toward in (-math.inf, math.inf):
            midpoint = (Fraction(got) + Fraction(math.nextafter(got, toward))) / 2
            side = quad_sign(Fraction(a) - midpoint, b, d)
            assert side == (1 if toward < 0 else -1), (a, b, d, got)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**12),
        st.fractions(max_denominator=10**6).filter(
            lambda x: x != 0 and abs(x) < 10**12
        ),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_random_rationals(self, a, b, d):
        self.assert_nearest(a, b, d)

    @pytest.mark.parametrize(
        "a, b, d",
        [
            (Fraction(577, 408), -1, 2),
            (Fraction(7, 5), -1, 2),
            (Fraction(17, 12), -1, 2),
            (Fraction(-26, 15), 1, 3),
            (Fraction(9, 4), -1, 5),
            (Fraction(127, 48), -1, 7),
        ],
    )
    def test_near_cancellation(self, a, b, d):
        self.assert_nearest(a, b, d)

    @pytest.mark.parametrize("n", [1, 5, 20, 60])
    def test_units_close_to_zero(self, n):
        # x - y*sqrt(d) = 1 / (x + y*sqrt(d)) for a unit: tiny, the two
        # terms agreeing in about 2n*log2(x1 + y1*sqrt(d)) leading bits
        for x1, y1, d in ((3, 2, 2), (2, 1, 3), (9, 4, 5), (8, 3, 7)):
            x, y = _pell(x1, y1, d, n)
            self.assert_nearest(x, -y, d)
            # and a sum over large denominators
            self.assert_nearest(Fraction(1, x), Fraction(1, y), d)

    def test_rational_and_complex(self):
        assert float(q(Fraction(1, 3))) == 1 / 3
        z = QuadComplex(q(Fraction(7, 5), -1), q(0, 1))
        assert complex(z) == complex(float(q(Fraction(7, 5), -1)), 2**0.5)
        assert z.approx(64) == complex(z)


class TestQuadComplex:
    def test_norm_square_radical_parts(self):
        z = QuadComplex(q(-2), q(0, 2))
        assert norm_square(z) == 12

    def test_norm_square_zero_and_one(self):
        assert norm_square(QuadComplex(q(0), q(0))) == 0
        assert norm_square(QuadComplex(q(1), q(0))) == 1

    def test_arithmetic(self):
        z = QuadComplex(q(1), q(0, 1))
        w = QuadComplex(q(0), q(1))
        assert z + w == QuadComplex(q(1), q(1, 1))
        assert z * w == QuadComplex(q(0, -1), q(1))
        assert -z == QuadComplex(q(-1), q(0, -1))

    def test_division(self):
        z = QuadComplex(q(1), q(0, 1))
        assert z / z == QuadComplex(q(1), q(0))
        assert (z * z) / z == z

    def test_conjugate(self):
        z = QuadComplex(q(1, 2), q(3, -1))
        assert z.conjugate() == QuadComplex(q(1, 2), q(-3, 1))
        assert norm_square(z.conjugate()) == norm_square(z)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(RadicandMismatch):
            QuadComplex(q(0, 1, 2), QuadNumber(0, 1, 3))

    def test_complex_conversion(self):
        z = QuadComplex(q(-2), q(0, 2))
        approx_z = complex(z)
        assert abs(approx_z - complex(-2, 2 * 2**0.5)) < 1e-14

    def test_approx(self):
        z = QuadComplex(q(0, 1), q(1))
        value = z.approx(64)
        assert abs(complex(value) - complex(2**0.5, 1)) < 1e-15
