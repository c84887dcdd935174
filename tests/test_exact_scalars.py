import math
import operator
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


class TestQuadComplexHash:
    def test_real_value_hashes_as_its_real_part(self):
        assert hash(QuadComplex(1)) == hash(1)
        assert len({QuadComplex(1), 1, QuadNumber(1)}) == 1
        half = Fraction(1, 2)
        assert hash(QuadComplex(q(half), q(0))) == hash(half)
        assert len({QuadComplex(half), half, q(half)}) == 1
        assert QuadComplex(q(0, 1)) == q(0, 1)
        assert hash(QuadComplex(q(0, 1))) == hash(q(0, 1))


# ------------------------------------------------------ reference model
#
# a + b*sqrt(d) as a plain (Fraction, Fraction, d) triple, with the rules
# QuadNumber documents: a square radicand folds into a (d = 1), and of two
# operands over different radicands at least one must be rational, the
# pair then taking the radicand of the irrational one (of the left one
# when both are rational).

RADICANDS = [1, 2, 3, 4, 5, 12]


def ref_make(a, b, d):
    root = math.isqrt(d)
    if root * root == d:
        return (Fraction(a) + Fraction(b) * root, Fraction(0), 1)
    return (Fraction(a), Fraction(b), d)


def ref_radicand(x, y):
    if x[2] == y[2] or y[1] == 0:
        return x[2]
    if x[1] == 0:
        return y[2]
    return None


def ref_add(x, y, d):
    return (x[0] + y[0], x[1] + y[1], d)


def ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def ref_div(x, y, d):
    norm = y[0] * y[0] - y[1] * y[1] * d
    return ref_mul(x, (y[0] / norm, -y[1] / norm, d), d)


def ref_sign(x):
    a, b, d = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    # opposite signs; a^2 = b^2 d would make sqrt(d) rational
    return sa if a * a > b * b * d else sb


def ref_str(x):
    a, b, d = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt({d})"
    return f"{a} {'+' if b > 0 else '-'} {abs(b)}*sqrt({d})"


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def ref_pairs(draw):
    """A model triple and its QuadNumber, irrational or not at random."""
    a = draw(small_fractions)
    b = draw(st.sampled_from([Fraction(0), draw(small_fractions)]))
    d = draw(st.sampled_from(RADICANDS))
    return ref_make(a, b, d), QuadNumber(a, b, d)


def assert_matches(got, model):
    assert (got.a, got.b, got.d) == model
    assert str(got) == ref_str(model)
    assert repr(got) == f"QuadNumber({model[0]}, {model[1]}, d={model[2]})"


class TestReferenceModel:
    @settings(max_examples=300, deadline=None)
    @given(ref_pairs())
    def test_unary(self, pair):
        model, x = pair
        assert_matches(x, model)
        assert_matches(-x, (-model[0], -model[1], model[2]))
        assert_matches(x.conjugate(), (model[0], -model[1], model[2]))
        assert x.sign() == ref_sign(model)
        assert x.is_rational == (model[1] == 0)
        if model[1] == 0:
            a = model[0]
            assert x == a and a == x and hash(x) == hash(a)
            if a.denominator == 1:
                assert x == int(a) and hash(x) == hash(int(a))
            assert x != a + 1

    @settings(max_examples=400, deadline=None)
    @given(ref_pairs(), ref_pairs())
    def test_binary(self, left, right):
        (mx, x), (my, y) = left, right
        d = ref_radicand(mx, my)
        if d is None:
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(RadicandMismatch):
                    op(x, y)
            with pytest.raises(RadicandMismatch):
                x < y
            assert x != y
            return
        assert_matches(x + y, ref_add(mx, my, d))
        assert_matches(x - y, ref_add(mx, (-my[0], -my[1], my[2]), d))
        assert_matches(x * y, ref_mul(mx, my, d))
        if my[0] == 0 and my[1] == 0:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert_matches(x / y, ref_div(mx, my, d))
        diff = ref_sign(ref_add(mx, (-my[0], -my[1], my[2]), d))
        assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
        assert (x == y) == (diff == 0)
        if x == y:
            assert hash(x) == hash(y)

    @settings(max_examples=200, deadline=None)
    @given(ref_pairs(), small_fractions, st.integers(-6, 6))
    def test_rational_operands(self, pair, f, n):
        model, x = pair
        for r in (f, n):
            rm = (Fraction(r), Fraction(0), model[2])
            assert_matches(x + r, ref_add(model, rm, model[2]))
            assert_matches(r - x, ref_add(rm, (-model[0], -model[1], model[2]), model[2]))
            assert_matches(r * x, ref_mul(rm, model, model[2]))
            if r:
                assert_matches(x / r, ref_div(model, rm, model[2]))
            if not x.is_zero:
                assert_matches(r / x, ref_div(rm, model, model[2]))
            diff = ref_sign(ref_add(model, (-rm[0], 0, model[2]), model[2]))
            assert (x < r, x > r, x == r) == (diff < 0, diff > 0, diff == 0)

    @settings(max_examples=200, deadline=None)
    @given(small_fractions, st.sampled_from([2, 3, 5, 12]), ref_pairs())
    def test_rational_takes_the_radicand(self, f, d, pair):
        # a rational over one radicand meets a number over another
        model, x = pair
        r = QuadNumber(f, 0, d)
        if model[1] != 0:
            assert (r + x).d == model[2] and (x * r).d == model[2]
        else:
            assert (r + x).d == d and (x * r).d == model[2]
        equal = QuadNumber(model[0], 0, d) if model[1] == 0 else x
        assert equal == x and hash(equal) == hash(x)
