"""Exact arithmetic in real quadratic fields Q(sqrt(d)) and their complexifications.

A number a + b*sqrt(d), d a positive integer radicand, is stored as
integers (A + B*sqrt(d)) / L in the normal form L > 0, gcd(A, B, L) = 1,
so equal numbers store equal integers.  A perfect-square radicand folds
into the rational part (B = 0, d = 1) at construction, so one code path
serves the rational and the quadratic case.  Arithmetic runs on the
integers and reduces each result once; `Fraction` enters only as the
parts `a` and `b` and as rational operands.  Every comparison is exact,
and `approx` returns the correctly rounded double, computed from integers.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError, RadicandMismatch

# The stdlib Fraction already maintains lowest terms and a positive
# denominator, which is exactly the rational type needed here.
Rational = Fraction


def quad_to_float(A: int, B: int, L: int, d: int) -> float:
    """The double nearest to (A + B*sqrt(d)) / L, L > 0, d not a perfect square.

    isqrt brackets B*sqrt(d)*2^k between consecutive integers, so the
    number lies in a rational interval of width 1 / (L*2^k).  Once both
    ends round to the same double, so does the number; otherwise k
    doubles.  An irrational number is never a rounding midpoint, so the
    loop ends whenever B != 0.
    """
    if B == 0:
        return A / L
    k = 64
    while True:
        # floor(|B| sqrt(d) 2^k) < |B| sqrt(d) 2^k < floor(...) + 1
        low = isqrt(B * B * d << (2 * k))
        if B < 0:
            low = -low - 1
        num = (A << k) + low
        scale = L << k
        # int / int rounds correctly in CPython, whatever the sizes
        nearest = num / scale
        if nearest == (num + 1) / scale:
            return nearest
        k *= 2


def quad_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rationals (or integers) a and b.

    When the two terms have opposite signs the result hinges on
    comparing a^2 with b^2*d, which stays in exact arithmetic.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:
        return 0
    # a and b disagree in sign; the larger square decides.
    bigger_is_a = lhs > rhs
    return 1 if (a > 0) == bigger_is_a else -1


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of anything Fraction accepts."""
    if isinstance(x, int):
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _reduced(A: int, B: int, L: int, d: int) -> QuadNumber:
    """(A + B*sqrt(d)) / L in normal form, for L != 0 and d = 1 or not a
    square.  Arithmetic builds its results here, past __init__."""
    g = gcd(A, B, L)
    if L < 0:
        g = -g
    x = object.__new__(QuadNumber)
    x._A, x._B, x._L, x._d = A // g, B // g, L // g, d
    return x


def _folded(A: int, B: int, L: int, d: int) -> QuadNumber:
    """(A + B*sqrt(d)) / L for any positive radicand d, folding a square one."""
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"radicand must be a positive integer, got {d!r}")
    if L == 0:
        raise ZeroDivisionError("quadratic number with denominator zero")
    root = isqrt(d)
    if root * root == d:
        # sqrt(d) is an integer: collapse to the rational part.
        A, B, d = A + B * root, 0, 1
    return _reduced(A, B, L, d)


# The kernels of the four operations take both operands as integers
# (A, B, L) over the radicand d they share.


def _sum(A1: int, B1: int, L1: int, A2: int, B2: int, L2: int, d: int) -> QuadNumber:
    if L1 == L2:
        return _reduced(A1 + A2, B1 + B2, L1, d)
    return _reduced(A1 * L2 + A2 * L1, B1 * L2 + B2 * L1, L1 * L2, d)


def _difference(A1: int, B1: int, L1: int, A2: int, B2: int, L2: int, d: int) -> QuadNumber:
    return _sum(A1, B1, L1, -A2, -B2, L2, d)


def _product(A1: int, B1: int, L1: int, A2: int, B2: int, L2: int, d: int) -> QuadNumber:
    return _reduced(A1 * A2 + B1 * B2 * d, A1 * B2 + B1 * A2, L1 * L2, d)


def _quotient(A1: int, B1: int, L1: int, A2: int, B2: int, L2: int, d: int) -> QuadNumber:
    # the numerator times L2 (A2 - B2 sqrt(d)), over L1 times the norm
    if A2 == 0 and B2 == 0:
        raise ZeroDivisionError("division by zero quadratic number")
    num_a, num_b = (A1 * A2 - B1 * B2 * d) * L2, (B1 * A2 - A1 * B2) * L2
    return _reduced(num_a, num_b, L1 * (A2 * A2 - B2 * B2 * d), d)


def _binary(kernel, reflected: bool = False):
    """The operator method applying `kernel` to self and the coerced
    operand, in that order, or the other way round if reflected."""
    def method(self, other):
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        A, B, L, d = rhs
        if reflected:
            return kernel(A, B, L, self._A, self._B, self._L, d)
        return kernel(self._A, self._B, self._L, A, B, L, d)

    return method


def _comparison(op):
    return lambda self, other: op(self._cmp(other), 0)


def _sqrt_ratio(num: int, den: int) -> tuple[int, int] | None:
    """(p, q) in lowest terms with (p/q)^2 = num/den for den > 0, or None."""
    g = gcd(num, den)
    num, den = num // g, den // g
    p, q = isqrt(max(num, 0)), isqrt(den)
    return (p, q) if p * p == num and q * q == den else None


class QuadNumber:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a positive integer.

    Held as integers (A + B*sqrt(d)) / L with L > 0 and gcd(A, B, L) = 1;
    a perfect-square d is folded away (B = 0, d = 1).  `a` and `b` are
    the rational parts A/L and B/L.  An operand sharing the field (the
    same radicand, or rational) enters the arithmetic as it is.
    """

    __slots__ = ("_A", "_B", "_L", "_d")

    def __init__(self, a: Fraction | int, b: Fraction | int = 0, d: int = 1):
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        x = _folded(an * bd, bn * ad, ad * bd, d)
        self._A, self._B, self._L, self._d = x._A, x._B, x._L, x._d

    # (A + B*sqrt(d)) / L from integers, L nonzero
    from_integers = staticmethod(_folded)

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._L)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._L)

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def sqrt_radicand(cls, d: int) -> QuadNumber:
        """The element sqrt(d) itself."""
        return cls(0, 1, d)

    @property
    def is_rational(self) -> bool:
        return self._B == 0

    @property
    def is_zero(self) -> bool:
        return self._A == 0 and self._B == 0

    def _operand(self, other) -> tuple[int, int, int, int] | None:
        """(A, B, L, d) of `other` with d the radicand the pair shares,
        or None for a type that is not a rational or quadratic number."""
        if type(other) is QuadNumber:
            d = self._d
            if other._d != d and other._B:
                if self._B:
                    raise RadicandMismatch(
                        f"cannot combine sqrt({d}) with sqrt({other._d})"
                    )
                d = other._d
            return other._A, other._B, other._L, d
        if isinstance(other, int):
            return other, 0, 1, self._d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self._d
        return None

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return quad_sign(self._A, self._B, self._d)

    def conjugate(self) -> QuadNumber:
        """Field conjugate a - b*sqrt(d)."""
        return _reduced(self._A, -self._B, self._L, self._d)

    def approx(self, precision_bits: int = 64) -> float:
        """The correctly rounded double nearest to this number.

        precision_bits is the least working precision the caller asks
        for; it must be at least 64, and any such request is met because
        the result is exact up to the one final rounding.
        """
        if precision_bits < 64:
            raise DomainError("precision_bits must be at least 64")
        return quad_to_float(self._A, self._B, self._L, self._d)

    __add__ = __radd__ = _binary(_sum)
    __sub__ = _binary(_difference)
    __rsub__ = _binary(_difference, reflected=True)
    __mul__ = __rmul__ = _binary(_product)
    __truediv__ = _binary(_quotient)
    __rtruediv__ = _binary(_quotient, reflected=True)

    def __neg__(self) -> QuadNumber:
        return _reduced(-self._A, -self._B, self._L, self._d)

    def __pos__(self) -> QuadNumber:
        return self

    def __abs__(self) -> QuadNumber:
        return self if self.sign() >= 0 else -self

    def __pow__(self, exponent: int) -> QuadNumber:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = _reduced(1, 0, 1, self._d)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if type(other) is not QuadNumber:
            rhs = self._operand(other)
            return NotImplemented if rhs is None else (self._A, self._B, self._L) == rhs[:3]
        # normal forms are unique; a rational's radicand does not count
        return (self._A, self._B, self._L) == (other._A, other._B, other._L) and (
            not self._B or self._d == other._d
        )

    def __hash__(self):
        if self._B:
            return hash((self._A, self._B, self._L, self._d))
        # equal to the hash of the equal int or Fraction
        return hash(self._A) if self._L == 1 else hash(Fraction(self._A, self._L))

    def _cmp(self, other) -> int:
        """Sign of self - other."""
        rhs = self._operand(other)
        if rhs is None:
            raise TypeError(f"cannot compare QuadNumber with {type(other).__name__}")
        A, B, L, d = rhs
        return quad_sign(self._A * L - A * self._L, self._B * L - B * self._L, d)

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __float__(self) -> float:
        return quad_to_float(self._A, self._B, self._L, self._d)

    def __repr__(self) -> str:
        return f"QuadNumber({self.a}, {self.b}, d={self._d})"

    def __str__(self) -> str:
        if self._B == 0:
            return str(self.a)
        if self._A == 0:
            return f"{self.b}*sqrt({self._d})"
        op = "+" if self._B > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self._d})"


_REAL = (QuadNumber, int, Fraction)


class QuadComplex:
    """A complex number whose real and imaginary parts live in Q(sqrt(d))."""

    __slots__ = ("_re", "_im")

    def __init__(self, re, im=0):
        if not isinstance(re, QuadNumber):
            re = QuadNumber(re)
        if not isinstance(im, QuadNumber):
            im = QuadNumber(im)
        if re.d != im.d and not re.is_rational and not im.is_rational:
            raise RadicandMismatch(
                f"real part over sqrt({re.d}), imaginary part over sqrt({im.d})"
            )
        self._re = re
        self._im = im

    @property
    def re(self) -> QuadNumber:
        return self._re

    @property
    def im(self) -> QuadNumber:
        return self._im

    # the names of `complex`, so code reading parts serves both types
    real = re
    imag = im

    @property
    def is_zero(self) -> bool:
        return self._re.is_zero and self._im.is_zero

    def conjugate(self) -> QuadComplex:
        return QuadComplex(self._re, -self._im)

    def norm_square(self) -> QuadNumber:
        return self._re * self._re + self._im * self._im

    def approx(self, precision_bits: int = 64) -> complex:
        return complex(self._re.approx(precision_bits), self._im.approx(precision_bits))

    # A rational or quadratic operand enters each part on its own.

    def __add__(self, other) -> QuadComplex:
        if isinstance(other, _REAL):
            return QuadComplex(self._re + other, self._im)
        if not isinstance(other, QuadComplex):
            return NotImplemented
        return QuadComplex(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __sub__(self, other) -> QuadComplex:
        return self + -other if isinstance(other, (QuadComplex, *_REAL)) else NotImplemented

    def __rsub__(self, other) -> QuadComplex:
        return (-self).__add__(other)

    def __mul__(self, other) -> QuadComplex:
        if isinstance(other, _REAL):
            return QuadComplex(self._re * other, self._im * other)
        if not isinstance(other, QuadComplex):
            return NotImplemented
        return QuadComplex(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadComplex:
        if isinstance(other, QuadComplex):
            return self * other.conjugate() / other.norm_square()
        if not isinstance(other, _REAL):
            return NotImplemented
        return QuadComplex(self._re / other, self._im / other)

    def __neg__(self) -> QuadComplex:
        return QuadComplex(-self._re, -self._im)

    def __eq__(self, other) -> bool:
        if isinstance(other, _REAL):
            return self._im.is_zero and self._re == other
        if not isinstance(other, QuadComplex):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        # a real value hashes as its real part, as complex(x, 0) does
        if self._im.is_zero:
            return hash(self._re)
        return hash((self._re, self._im))

    def __complex__(self) -> complex:
        return complex(float(self._re), float(self._im))

    def __repr__(self) -> str:
        return f"QuadComplex({self._re!r}, {self._im!r})"

    def __str__(self) -> str:
        return f"({self._re}) + ({self._im})*i"


# the operators as functions
quad_add, quad_mul, quad_neg = operator.add, operator.mul, operator.neg
norm_square = QuadComplex.norm_square


def approx(x: QuadNumber | QuadComplex | Fraction | int, precision_bits: int = 64):
    return (x if isinstance(x, (QuadNumber, QuadComplex)) else QuadNumber(x)).approx(precision_bits)


def try_sqrt(x: QuadNumber) -> QuadNumber | None:
    """Square root of x inside Q(sqrt(d)), if one exists.

    Writing y = p + q*sqrt(d) and squaring, y*y = x forces either q = 0
    (plain rational root), p = 0 (a rational multiple of sqrt(d)), or the
    mixed case 2pq = b where p^2 solves a quadratic whose discriminant is
    the field norm a^2 - b^2 d.  Each case reduces to integer square
    roots of the numerators and denominators, so existence is decidable
    exactly.

    Raises DomainError when x < 0; returns None when x is positive but
    has no root in the field.
    """
    if not isinstance(x, QuadNumber):
        x = QuadNumber(x)
    if x.sign() < 0:
        raise DomainError(f"square root of negative number {x}")
    A, B, L, d = x._A, x._B, x._L, x._d
    if B == 0:
        root = _sqrt_ratio(A, L)
        if root is not None:
            return _reduced(root[0], 0, root[1], d)
        root = _sqrt_ratio(A, L * d)
        if root is not None:
            return _reduced(0, root[0], root[1], d)
        return None
    # x = (A + B sqrt(d)) / L has norm (A^2 - B^2 d) / L^2 = t^2
    root = _sqrt_ratio(A * A - B * B * d, 1)
    if root is None:
        return None
    for num in (A + root[0], A - root[0]):
        # p^2 = (a +- t) / 2 and q = b / (2p), over the denominator 2 L p
        root = _sqrt_ratio(num, 2 * L)
        if root is None or root[0] == 0:
            continue
        pn, pd = root
        y = _reduced(2 * L * pn * pn, B * pd * pd, 2 * L * pn * pd, d)
        if y.sign() < 0:
            y = -y
        if y * y == x:
            return y
    return None
