"""Exact arithmetic in real quadratic fields Q(sqrt(d)) and their complexifications.

A number is stored as a pair of rationals (a, b) meaning a + b*sqrt(d) for a
fixed positive integer radicand d.  Perfect-square radicands fold into the
rational part at construction time, so a single code path serves both the
rational and the genuinely quadratic case.  Every comparison is exact; no
floating point enters unless `approx` is called, and `approx` returns the
correctly rounded double, computed from integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, RadicandMismatch

# The stdlib Fraction already maintains lowest terms and a positive
# denominator, which is exactly the rational type needed here.
Rational = Fraction

_RATIONAL_TYPES = (int, Fraction)
_F0 = Fraction(0)


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if there is none."""
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


def quad_to_float(a: Fraction, b: Fraction, d: int) -> float:
    """The double nearest to a + b*sqrt(d), d not a perfect square.

    With x = (A + B*sqrt(d)) / L over integers, isqrt brackets
    B*sqrt(d)*2^k between consecutive integers, so x lies in a rational
    interval of width 1 / (L*2^k).  Once both ends round to the same
    double, so does x; otherwise k doubles.  An irrational x is never a
    rounding midpoint, so the loop ends whenever b != 0.
    """
    if b == 0:
        return float(a)
    L = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (L // a.denominator)
    B = b.numerator * (L // b.denominator)
    k = 64
    while True:
        # floor(|B| sqrt(d) 2^k) < |B| sqrt(d) 2^k < floor(...) + 1
        low = math.isqrt(B * B * d << (2 * k))
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


class QuadNumber:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a positive integer."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: Fraction | int, b: Fraction | int = 0, d: int = 1):
        if not isinstance(d, int) or d < 1:
            raise DomainError(f"radicand must be a positive integer, got {d!r}")
        # arithmetic feeds Fractions back in; rewrapping them dominated
        # profiles, so convert only what is not one already
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if d != 1:
            root = math.isqrt(d)
            if root * root == d:
                # sqrt(d) is an integer: collapse to the rational part.
                a, b, d = a + b * root, _F0, 1
        elif b:
            a, b = a + b, _F0
        self._a = a
        self._b = b
        self._d = d

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def sqrt_radicand(cls, d: int) -> QuadNumber:
        """The element sqrt(d) itself."""
        return cls(Fraction(0), Fraction(1), d)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def _coerce(self, other) -> "QuadNumber | None":
        """Bring `other` into this number's field, or None if impossible."""
        if isinstance(other, _RATIONAL_TYPES):
            return QuadNumber(Fraction(other), Fraction(0), self._d)
        if not isinstance(other, QuadNumber):
            return None
        if other._d == self._d or other._b == 0:
            return QuadNumber(other._a, other._b, self._d)
        if self._b == 0:
            return other
        raise RadicandMismatch(
            f"cannot combine sqrt({self._d}) with sqrt({other._d})"
        )

    def _promote_self(self, other: "QuadNumber") -> "QuadNumber":
        # After _coerce the pair shares a radicand unless self was rational.
        if self._d == other._d or self._b == 0:
            return QuadNumber(self._a, self._b, other._d)
        return self

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return quad_sign(self._a, self._b, self._d)

    def conjugate(self) -> QuadNumber:
        """Field conjugate a - b*sqrt(d)."""
        return QuadNumber(self._a, -self._b, self._d)

    def approx(self, precision_bits: int = 64) -> float:
        """The correctly rounded double nearest to this number.

        precision_bits is the least working precision the caller asks
        for; it must be at least 64, and any such request is met because
        the result is exact up to the one final rounding.
        """
        if precision_bits < 64:
            raise DomainError("precision_bits must be at least 64")
        return quad_to_float(self._a, self._b, self._d)

    def __add__(self, other) -> QuadNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs = self._promote_self(rhs)
        return QuadNumber(lhs._a + rhs._a, lhs._b + rhs._b, lhs._d)

    __radd__ = __add__

    def __sub__(self, other) -> QuadNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> QuadNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> QuadNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs = self._promote_self(rhs)
        return QuadNumber(
            lhs._a * rhs._a + lhs._b * rhs._b * lhs._d,
            lhs._a * rhs._b + lhs._b * rhs._a,
            lhs._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise ZeroDivisionError("division by zero quadratic number")
        norm = rhs._a * rhs._a - rhs._b * rhs._b * rhs._d
        inverse = QuadNumber(rhs._a / norm, -rhs._b / norm, rhs._d)
        return self * inverse

    def __rtruediv__(self, other) -> QuadNumber:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __neg__(self) -> QuadNumber:
        return QuadNumber(-self._a, -self._b, self._d)

    def __pos__(self) -> QuadNumber:
        return self

    def __abs__(self) -> QuadNumber:
        return self if self.sign() >= 0 else -self

    def __pow__(self, exponent: int) -> QuadNumber:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = QuadNumber(1, 0, self._d)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, _RATIONAL_TYPES):
            return self._b == 0 and self._a == other
        if not isinstance(other, QuadNumber):
            return NotImplemented
        if self._b == 0 and other._b == 0:
            return self._a == other._a
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def _cmp(self, other) -> int:
        if isinstance(other, _RATIONAL_TYPES):
            return quad_sign(self._a - other, self._b, self._d)
        diff = self - other
        if not isinstance(diff, QuadNumber):
            raise TypeError(f"cannot compare QuadNumber with {type(other).__name__}")
        return diff.sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __float__(self) -> float:
        return quad_to_float(self._a, self._b, self._d)

    def __repr__(self) -> str:
        return f"QuadNumber({self._a}, {self._b}, d={self._d})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt({self._d})"
        op = "+" if self._b > 0 else "-"
        return f"{self._a} {op} {abs(self._b)}*sqrt({self._d})"


class QuadComplex:
    """A complex number whose real and imaginary parts live in Q(sqrt(d))."""

    __slots__ = ("_re", "_im")

    def __init__(self, re, im=0):
        if not isinstance(re, QuadNumber):
            re = QuadNumber(Fraction(re))
        if not isinstance(im, QuadNumber):
            im = QuadNumber(Fraction(im))
        if re.b != 0 and im.b != 0 and re.d != im.d:
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
        return complex(
            self._re.approx(precision_bits), self._im.approx(precision_bits)
        )

    def _coerce(self, other) -> "QuadComplex | None":
        if isinstance(other, QuadComplex):
            return other
        if isinstance(other, (QuadNumber, *_RATIONAL_TYPES)):
            return QuadComplex(other, 0)
        return None

    def __add__(self, other) -> QuadComplex:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadComplex(self._re + rhs._re, self._im + rhs._im)

    __radd__ = __add__

    def __sub__(self, other) -> QuadComplex:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadComplex(self._re - rhs._re, self._im - rhs._im)

    def __rsub__(self, other) -> QuadComplex:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> QuadComplex:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadComplex(
            self._re * rhs._re - self._im * rhs._im,
            self._re * rhs._im + self._im * rhs._re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadComplex:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        denom = rhs.norm_square()
        if denom.is_zero:
            raise ZeroDivisionError("division by zero quadratic complex number")
        numer = self * rhs.conjugate()
        return QuadComplex(numer._re / denom, numer._im / denom)

    def __neg__(self) -> QuadComplex:
        return QuadComplex(-self._re, -self._im)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._re == rhs._re and self._im == rhs._im

    def __hash__(self):
        return hash((self._re, self._im))

    def __complex__(self) -> complex:
        return complex(float(self._re), float(self._im))

    def __repr__(self) -> str:
        return f"QuadComplex({self._re!r}, {self._im!r})"

    def __str__(self) -> str:
        return f"({self._re}) + ({self._im})*i"


def quad_add(x: QuadNumber, y: QuadNumber) -> QuadNumber:
    return x + y


def quad_mul(x: QuadNumber, y: QuadNumber) -> QuadNumber:
    return x * y


def quad_neg(x: QuadNumber) -> QuadNumber:
    return -x


def norm_square(z: QuadComplex) -> QuadNumber:
    return z.norm_square()


def approx(x: QuadNumber | QuadComplex | Fraction | int, precision_bits: int = 64):
    if isinstance(x, _RATIONAL_TYPES):
        x = QuadNumber(Fraction(x))
    return x.approx(precision_bits)


def try_sqrt(x: QuadNumber) -> QuadNumber | None:
    """Square root of x inside Q(sqrt(d)), if one exists.

    Writing y = p + q*sqrt(d) and squaring, y*y = x forces either q = 0
    (plain rational root), p = 0 (a rational multiple of sqrt(d)), or the
    mixed case 2pq = b where p^2 solves a quadratic whose discriminant is
    the field norm a^2 - b^2 d.  Each case reduces to rational square
    roots, so existence is decidable exactly.

    Raises DomainError when x < 0; returns None when x is positive but
    has no root in the field.
    """
    if not isinstance(x, QuadNumber):
        x = QuadNumber(Fraction(x))
    s = x.sign()
    if s < 0:
        raise DomainError(f"square root of negative number {x}")
    if s == 0:
        return QuadNumber(0, 0, x.d)
    a, b, d = x.a, x.b, x.d
    if b == 0:
        root = sqrt_fraction(a)
        if root is not None:
            return QuadNumber(root, 0, d)
        scaled = sqrt_fraction(a / d)
        if scaled is not None:
            return QuadNumber(0, scaled, d)
        return None
    t = sqrt_fraction(a * a - b * b * d)
    if t is None:
        return None
    for candidate in ((a + t) / 2, (a - t) / 2):
        p = sqrt_fraction(candidate)
        if p is None or p == 0:
            continue
        q = b / (2 * p)
        y = QuadNumber(p, q, d)
        if y.sign() < 0:
            y = -y
        if y * y == x:
            return y
    return None
