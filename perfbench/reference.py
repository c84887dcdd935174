"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports k3lax.  Vectors are plain tuples (r, D, s) with D a
tuple of integers, a lattice is its Gram matrix plus the ample class H,
and every quantity is an int or a Fraction, so a check built from these
functions cannot inherit a defect of the code it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


def dot(gram, x, y):
    return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram))


def pairing(gram, u, v):
    """Mukai pairing D_u . D_v - r_u s_v - r_v s_u."""
    return dot(gram, u[1], v[1]) - u[0] * v[2] - v[0] * u[2]


def degree(gram, H):
    return dot(gram, H, H) // 2


def in_box(v, box):
    R, Dmax, S = box
    return abs(v[0]) <= R and abs(v[2]) <= S and all(abs(c) <= Dmax for c in v[1])


def spherical_classes(gram, box):
    """Every (r, D, s) in the box with self-pairing -2, in lexicographic order.

    For r != 0 the equation D^2 - 2rs = -2 fixes s; for r = 0 every s
    works once D^2 = -2.
    """
    R, Dmax, S = box
    out = []
    for r in range(-R, R + 1):
        for D in itertools.product(range(-Dmax, Dmax + 1), repeat=len(gram)):
            dd = dot(gram, D, D)
            if r == 0:
                if dd == -2:
                    out.extend((0, D, s) for s in range(-S, S + 1))
            elif (dd + 2) % (2 * r) == 0 and abs((dd + 2) // (2 * r)) <= S:
                out.append((r, D, (dd + 2) // (2 * r)))
    return out


def charge(gram, H, B, alpha, v):
    """(Re Z, Im Z) of the charge exp(B + i alpha H) on v, for rational alpha:

        Re Z = B.D - s - r B^2/2 + r d alpha^2,   Im Z = alpha (D - r B).H
    """
    r, D, s = v
    d = degree(gram, H)
    re = Fraction(dot(gram, B, D)) - s - r * Fraction(dot(gram, B, B)) / 2 + r * d * alpha * alpha
    im = alpha * (Fraction(dot(gram, D, H)) - r * Fraction(dot(gram, B, H)))
    return re, im


def twist(gram, H, ell, v):
    """Tensor by O(ell H): (r, D + ell r H, s + ell H.D + d ell^2 r)."""
    r, D, s = v
    return (
        r,
        tuple(c + ell * r * h for c, h in zip(D, H)),
        s + ell * dot(gram, H, D) + degree(gram, H) * ell * ell * r,
    )


def minimal_class_of_slope(gram, H, mu, box):
    """Smallest positive rank r0 with a spherical class of slope mu in the box,
    and the lexicographically first such class; None when the box holds none."""
    R, Dmax, S = box
    for r in range(1, R + 1):
        for D in itertools.product(range(-Dmax, Dmax + 1), repeat=len(gram)):
            if Fraction(dot(gram, H, D), r) != mu:
                continue
            num = dot(gram, D, D) + 2
            if num % (2 * r) == 0 and abs(num // (2 * r)) <= S:
                return (r, D, num // (2 * r))
    return None


class Alignment:
    """The alignment equation of w with delta along the ray (B fixed, alpha):

        alpha^2 d (I_w r_delta - I_delta r_w) + (I_w c_delta - I_delta c_w) = 0

    with I_v = (D - rB).H and c_v = B.D - s - r B^2/2.  With q clearing
    the denominators of B and P = qB, the integers qI_v and 2q^2 c_v
    carry the same information, so the check needs no Fractions.
    """

    def __init__(self, gram, H, B, delta):
        self.gram, self.H = gram, H
        self.q = 1
        for c in B:
            self.q = self.q * c.denominator // gcd(self.q, c.denominator)
        self.P = tuple(int(c * self.q) for c in B)
        self.ph, self.pp = dot(gram, self.P, H), dot(gram, self.P, self.P)
        self.d = degree(gram, H)
        self.delta = delta
        self.i_d, self.c_d = self.scaled(delta)

    def scaled(self, v):
        """(q I_v, 2 q^2 c_v)."""
        r, D, s = v
        q = self.q
        return q * dot(self.gram, D, self.H) - r * self.ph, 2 * q * dot(self.gram, self.P, D) - 2 * q * q * s - r * self.pp

    def coefficients(self, w):
        """(slope, constant) of the equation in alpha^2, scaled by 2q^3."""
        i_w, c_w = self.scaled(w)
        q = self.q
        return 2 * q * q * self.d * (i_w * self.delta[0] - self.i_d * w[0]), i_w * self.c_d - self.i_d * c_w

    def holds(self, alpha_sq, w):
        slope, const = self.coefficients(w)
        return alpha_sq.numerator * slope + alpha_sq.denominator * const == 0

    def aligned(self, w):
        return self.coefficients(w) == (0, 0)


def is_prime_trial(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def complex_div(x, y):
    """(a + bi) / (c + di) over the rationals."""
    a, b = x
    c, d = y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_CALIBRATION = (((2, 0), (0, -4)), (1, 0), (Fraction(1, 3), Fraction(-1, 2)), Fraction(3, 2))


def calibration_work():
    """Fixed integer and Fraction work that measures the speed of the host.

    It does what the program does most, in code the program cannot
    change: the box search and closed-form charges on rho2_d1 in box
    (3, 3, 12), 266 classes."""
    gram, H, B, alpha = _CALIBRATION
    for v in spherical_classes(gram, (3, 3, 12)):
        charge(gram, H, B, alpha, v)
