"""Central charges <exp(B + i*alpha*H), .> and the positive cone they live in.

A charge is packaged as its characteristic vector exp(B + i*alpha*H) with
complexified Mukai coordinates

    (1,  B + i*alpha*H,  (B^2 - alpha^2 H^2)/2 + i*alpha*(B . H)),

so evaluation is just the Mukai pairing.  For rational B and alpha in
Q(sqrt(d)) every component stays inside the quadratic-complex scalars and
all predicates below are decided exactly.

Evaluation has one kernel: `compile_charge` clears the denominators of
the characteristic vector once and turns Z into four integer linear
forms, so each class costs four integer dot products.  `closed_form_Z`
computes the same charge from (B, alpha) directly and is kept as the
independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from ._value import Value
from .spherical_enum import SearchBox, enumerate_spherical
from .errors import DimensionError, DomainError, EmptySupport, RadicandMismatch
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    SphericalClass,
    SphericalNormBasis,
    as_vector,
    pairing_functional,
    spherical_norm,
)
from .exact_scalars import QuadComplex, QuadNumber, quad_sign, try_sqrt


class BWParams(Value):
    """A rational B-field and a positive scale alpha along the polarization."""

    b_field: tuple[Fraction, ...]
    alpha: QuadNumber | Fraction | int

    def __post_init__(self):
        object.__setattr__(
            self, "b_field", tuple(Fraction(c) for c in self.b_field)
        )


class OmegaVector(Value):
    """Complexified Mukai vector of a charge.  Components are exact, or
    Python `complex` for a charge reconstructed in float mode; only
    `compile_charge` and what is built on it need exact ones."""

    r: QuadComplex | complex
    D: tuple[QuadComplex | complex, ...]
    s: QuadComplex | complex

    def conjugate(self) -> OmegaVector:
        return OmegaVector(
            self.r.conjugate(),
            tuple(c.conjugate() for c in self.D),
            self.s.conjugate(),
        )

    def real_part(self) -> tuple:
        return (self.r.real, tuple(c.real for c in self.D), self.s.real)

    def imag_part(self) -> tuple:
        return (self.r.imag, tuple(c.imag for c in self.D), self.s.imag)


def _normalize_alpha(lat: NSLattice, alpha) -> QuadNumber:
    if not isinstance(alpha, QuadNumber):
        alpha = QuadNumber(Fraction(alpha))
    if not alpha.is_rational and alpha.d != lat.degree:
        raise DomainError(
            f"alpha lives over sqrt({alpha.d}), the lattice field is sqrt({lat.degree})"
        )
    if alpha.sign() <= 0:
        raise DomainError("alpha must be positive")
    return QuadNumber(alpha.a, alpha.b, lat.degree) if alpha.is_rational else alpha


def omega_from_bw(lat: NSLattice, params: BWParams) -> OmegaVector:
    """Characteristic vector of the charge with the given (B, alpha)."""
    B = params.b_field
    if len(B) != lat.rank:
        raise DimensionError(
            f"B has length {len(B)}, lattice rank is {lat.rank}"
        )
    alpha = _normalize_alpha(lat, params.alpha)
    d = lat.degree
    H = lat.ample_class
    alpha_sq = alpha * alpha
    b_sq = Fraction(lat.dot(B, B))
    bh = Fraction(lat.dot_ample(B))
    one = QuadNumber(1, 0, d)
    zero = QuadNumber(0, 0, d)
    r = QuadComplex(one, zero)
    D = tuple(
        QuadComplex(QuadNumber(Fraction(b), 0, d), alpha * h)
        for b, h in zip(B, H)
    )
    s_re = QuadNumber(b_sq / 2, 0, d) - alpha_sq * d
    s_im = alpha * bh
    return OmegaVector(r, D, QuadComplex(s_re, s_im))


class ChargeForms(namedtuple("ChargeForms", "denom d re_a re_b im_a im_b")):
    """A charge compiled to four integer linear forms on (r, D, s).

    With L = denom clearing every denominator of the characteristic
    vector,

        L * Z(v) = (re_a . v + (re_b . v) sqrt(d)) + i (im_a . v + (im_b . v) sqrt(d)),

    each form an integer tuple indexed like (r, D_0, ..., s).  Built once
    by `compile_charge`, it evaluates a class with four integer dot
    products and no rational arithmetic.  A `collections.namedtuple`,
    which `typing.NamedTuple` would also give but at the import cost of
    `typing` that every CLI command pays.
    """

    __slots__ = ()
    denom: int
    d: int
    re_a: tuple[int, ...]
    re_b: tuple[int, ...]
    im_a: tuple[int, ...]
    im_b: tuple[int, ...]

    def ints(self, v) -> tuple[int, int, int, int]:
        """(re_a . v, re_b . v, im_a . v, im_b . v); zero exactly on the kernel."""
        x = (v.v if isinstance(v, SphericalClass) else v).coords()
        if len(x) != len(self.re_a):
            raise DimensionError(
                f"class has {len(x)} coordinates, the charge expects {len(self.re_a)}"
            )
        return (
            sum(map(operator.mul, self.re_a, x)),
            sum(map(operator.mul, self.re_b, x)),
            sum(map(operator.mul, self.im_a, x)),
            sum(map(operator.mul, self.im_b, x)),
        )

    def value(self, v) -> QuadComplex:
        """Z(v) as an exact quadratic-complex number."""
        ra, rb, ia, ib = self.ints(v)
        L, d = self.denom, self.d
        return QuadComplex(
            QuadNumber.from_integers(ra, rb, L, d),
            QuadNumber.from_integers(ia, ib, L, d),
        )


def compile_charge(lat: NSLattice, omega: OmegaVector) -> ChargeForms:
    """The integer forms of Z(v) = <omega, v> for any characteristic vector.

    Z(v) = sum_ij omega.D_i G_ij v.D_j - omega.r v.s - omega.s v.r, so the
    coefficient of v.r is -omega.s, of v.D_j is (G omega.D)_j and of v.s
    is -omega.r.  Every component must be rational or live over
    sqrt(lat.degree).
    """
    if len(omega.D) != lat.rank:
        raise DimensionError(
            f"charge has {len(omega.D)} divisor components, lattice rank is {lat.rank}"
        )
    components = (omega.r, *omega.D, omega.s)
    if not all(isinstance(z, QuadComplex) for z in components):
        raise DomainError("only a charge with exact components compiles")
    d = lat.degree
    parts = [x for z in components for x in (z.re, z.im)]
    for x in parts:
        if x.b != 0 and x.d != d:
            raise RadicandMismatch(
                f"charge component over sqrt({x.d}), the lattice field is sqrt({d})"
            )
    L = math.lcm(*(q.denominator for x in parts for q in (x.a, x.b)))

    def scaled(q: Fraction) -> int:
        return q.numerator * (L // q.denominator)

    def form(part) -> tuple[int, ...]:
        # part picks one rational part of a component
        w_D = [scaled(part(z)) for z in omega.D]
        return pairing_functional(lat, scaled(part(omega.r)), w_D, scaled(part(omega.s)))

    return ChargeForms(
        L,
        d,
        form(lambda z: z.re.a),
        form(lambda z: z.re.b),
        form(lambda z: z.im.a),
        form(lambda z: z.im.b),
    )


def eval_Z(lat: NSLattice, omega: OmegaVector, v) -> QuadComplex:
    """Mukai pairing of the characteristic vector with an integer class.

    Compiles the charge on every call; to evaluate many classes, compile
    once with `compile_charge` and call `value` on the result.
    """
    return compile_charge(lat, omega).value(v)


def closed_form_Z(lat: NSLattice, B: Sequence[Fraction], alpha, v) -> QuadComplex:
    """The same charge written without the characteristic vector:

        Re Z = B . D - s - r*B^2/2 + r*d*alpha^2
        Im Z = alpha * ((D - r*B) . H)

    Kept separate from `eval_Z` so the two can cross-check each other.
    """
    v = as_vector(v)
    if len(B) != lat.rank:
        raise DimensionError(f"B has length {len(B)}, lattice rank is {lat.rank}")
    alpha = _normalize_alpha(lat, alpha)
    d = lat.degree
    B = tuple(Fraction(c) for c in B)
    b_sq = lat.dot(B, B)
    re_rat = Fraction(lat.dot(B, v.D)) - v.s - Fraction(v.r) * b_sq / 2
    re = QuadNumber(re_rat, 0, d) + (alpha * alpha) * (v.r * d)
    i_v = Fraction(lat.dot_ample(v.D)) - Fraction(v.r) * lat.dot_ample(B)
    im = alpha * i_v
    return QuadComplex(re, im)


def _pair_real(lat: NSLattice, u, v):
    """Mukai pairing of two real vectors with exact or float coordinates."""
    (ur, uD, us), (vr, vD, vs) = u, v
    return lat.dot(uD, vD) - ur * vs - vr * us


def reference_omega(lat: NSLattice) -> OmegaVector:
    """The charge exp(i*H), the agreed base point of the positive cone."""
    zero_b = tuple(Fraction(0) for _ in range(lat.rank))
    return omega_from_bw(lat, BWParams(zero_b, Fraction(1)))


def in_P_plus(lat: NSLattice, omega: OmegaVector) -> bool:
    """Whether the real and imaginary parts span an oriented positive plane.

    Components may be exact (decided exactly) or Python `complex`.
    Positivity is the positive definiteness of the 2x2 Gram matrix of
    (Re, Im); the orientation is compared against exp(i*H), the integral
    plane Re = (1, 0, -d), Im = (0, H, 0), through the determinant of the
    cross-pairing matrix, which is nonzero whenever both planes are
    positive, and has constant sign on each connected component of the
    positive cone.
    """
    re = omega.real_part()
    im = omega.imag_part()
    g11 = _pair_real(lat, re, re)
    g12 = _pair_real(lat, re, im)
    g22 = _pair_real(lat, im, im)
    if g11 <= 0 or g11 * g22 - g12 * g12 <= 0:
        return False
    base_re = (1, (0,) * lat.rank, -lat.degree)
    base_im = (0, lat.ample_class, 0)
    m11 = _pair_real(lat, re, base_re)
    m12 = _pair_real(lat, re, base_im)
    m21 = _pair_real(lat, im, base_re)
    m22 = _pair_real(lat, im, base_im)
    return m11 * m22 - m12 * m21 > 0


def _euclid_norm(v: MukaiVector) -> float:
    return math.sqrt(sum(c * c for c in v.coords()))


def _float_quad(a: int, b: int, d: int) -> float:
    """a + b*sqrt(d) as a float, free of cancellation between the terms.

    When the terms have opposite signs the value is computed as
    (a^2 - b^2 d) / (a - b sqrt(d)): the numerator is an exact integer
    and the denominator adds two numbers of one sign.
    """
    if (a > 0 and b < 0) or (a < 0 and b > 0):
        return (a * a - b * b * d) / (a - b * math.sqrt(d))
    return a + b * math.sqrt(d)


def spherical_wall_hits(
    lat: NSLattice,
    omega: OmegaVector,
    box: SearchBox,
    mode: str = "exact",
    tol: float = 1e-9,
) -> list[SphericalClass]:
    """Spherical classes in the box on which the charge vanishes.

    Exact mode demands both components be identically zero; float mode
    accepts |Z| <= tol * max(1, |v|) with |v| the Euclidean coordinate
    size of the class.
    """
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    forms = compile_charge(lat, omega)
    L, d = forms.denom, forms.d
    hits = []
    for cls in enumerate_spherical(lat, box):
        ra, rb, ia, ib = forms.ints(cls.v)
        if not (ra or rb or ia or ib):
            hits.append(cls)
        elif mode == "float":
            size = math.hypot(_float_quad(ra, rb, d) / L, _float_quad(ia, ib, d) / L)
            if size <= tol * max(1.0, _euclid_norm(cls.v)):
                hits.append(cls)
    return hits


class WallHit(Value):
    """One solution alpha of the alignment equation, with its witnesses."""

    alpha_sq: Fraction
    alpha: QuadNumber | None
    witnesses: tuple[MukaiVector, ...]


class WallScan(Value):
    hits: tuple[WallHit, ...]
    aligned: tuple[MukaiVector, ...]


def wall_scan_alpha(
    lat: NSLattice,
    b_field: Sequence[Fraction],
    delta,
    alpha_min,
    box: SearchBox,
) -> WallScan:
    """Parameters alpha > alpha_min where some class aligns with delta.

    Along the ray (B fixed, alpha varying) the condition
    Im(Z(w) * conj(Z(delta))) = 0 reduces to

        alpha^2 * d * (I_w r_delta - I_delta r_w) + (I_w c_delta - I_delta c_w) = 0

    with I_v = (D_v - r_v B) . H and c_v = B . D_v - s_v - r_v B^2 / 2,
    so each candidate w contributes at most one positive root, and the
    root is the square root of a rational.  Candidates are the classes in
    the box with w != 0, w != delta and both w and delta - w of square
    >= -2.  A candidate aligned at every alpha (both coefficients zero)
    is reported separately and contributes no root.

    The scan runs in integer arithmetic on the charge compiled at alpha =
    1, where re_a . v = L (c_v + r_v d) and im_a . v = L I_v.  For fixed
    (r, D) both square filters, w^2 = D^2 - 2rs and (delta - w)^2, are
    linear in s, so they cut the s range down to one interval [lo, hi].
    The cost is one pass over the D grid plus one step per (r, D) and per
    candidate inside its interval, not per class in the box; a vector is
    built only for a root above alpha_min or an aligned class.
    """
    delta_v = as_vector(delta)
    forms = compile_charge(lat, omega_from_bw(lat, BWParams(b_field, 1)))
    if not isinstance(alpha_min, QuadNumber):
        alpha_min = QuadNumber(Fraction(alpha_min))
    if alpha_min.sign() <= 0:
        raise DomainError("alpha_min must be positive")
    if delta_v.is_zero:
        raise DomainError("reference class must be nonzero")
    # alpha_min^2 = (A + M * sqrt(e)) / F with integers A, M and F > 0
    floor_sq = alpha_min * alpha_min
    a, m, e = floor_sq.a, floor_sq.b, floor_sq.d
    F = math.lcm(a.denominator, m.denominator)
    A, M = a.numerator * (F // a.denominator), m.numerator * (F // m.denominator)
    L, d = forms.denom, forms.d
    # L * I_w = im_r * r + im_D . D and L * c_w = re_r * r + re_D . D - L * s
    im_r, im_D = forms.im_a[0], forms.im_a[1:-1]
    re_r, re_D = forms.re_a[0] - L * d, forms.re_a[1:-1]
    dr, dD, ds = delta_v.r, delta_v.D, delta_v.s
    re_delta, _, i_delta, _ = forms.ints(delta_v)  # L * (c_delta + dr d), L * I_delta
    c_delta = re_delta - L * d * dr
    k1 = L * i_delta  # the s-coefficient of I_w c_delta - I_delta c_w
    scale = L * d
    grid = []  # per D: D^2, (delta_D - D)^2, L * H.D, L * B.D
    for D in itertools.product(range(-box.d_bound, box.d_bound + 1), repeat=lat.rank):
        rest = tuple(map(operator.sub, dD, D))
        hd, bd = sum(map(operator.mul, im_D, D)), sum(map(operator.mul, re_D, D))
        grid.append((D, lat.dot(D, D), lat.dot(rest, rest), hd, bd))
    roots: dict[tuple[int, int], list[MukaiVector]] = {}
    aligned: list[MukaiVector] = []
    for r in range(-box.r_max, box.r_max + 1):
        rho = dr - r
        for D, d_sq, e_sq, hd, bd in grid:
            # w^2 >= -2 is 2rs <= D^2 + 2; (delta - w)^2 >= -2 is
            # 2 rho (ds - s) <= e^2 + 2 with rho = dr - r
            lo, hi = -box.s_bound, box.s_bound
            if r > 0:
                hi = min(hi, (d_sq + 2) // (2 * r))
            elif r < 0:
                lo = max(lo, -((d_sq + 2) // (-2 * r)))
            elif d_sq < -2:
                continue
            if rho > 0:
                lo = max(lo, ds - (e_sq + 2) // (2 * rho))
            elif rho < 0:
                hi = min(hi, ds + (e_sq + 2) // (-2 * rho))
            elif e_sq < -2:
                continue
            i_w = hd + r * im_r
            coeff = i_w * dr - i_delta * r
            k0 = i_w * c_delta - i_delta * (bd + r * re_r)  # const = k0 + k1 * s
            if coeff == 0:
                for s in range(lo, hi + 1):
                    if k0 + k1 * s == 0:
                        w = MukaiVector(r, D, s)
                        if not w.is_zero and w != delta_v:
                            aligned.append(w)
                continue
            # alpha^2 = num / den with den > 0 and num = n0 + n1 * s; it
            # exceeds alpha_min^2 where F * num - A * den > M * den * sqrt(e)
            den, n0, n1 = (scale * coeff, -k0, -k1) if coeff > 0 else (-scale * coeff, k0, k1)
            g0, g1, mden = n0 * F - A * den, n1 * F, -M * den
            for s in range(lo, hi + 1):
                gap = g0 + g1 * s  # F * num - A * den
                if (gap if M == 0 else quad_sign(gap, mden, e)) <= 0:
                    continue
                num = n0 + n1 * s
                g = math.gcd(num, den)
                roots.setdefault((num // g, den // g), []).append(MukaiVector(r, D, s))
    # the floor of 2^64 alpha^2 orders the roots in integer compares, up to
    # ties, which the exact Fraction breaks
    order = sorted(((num << 64) // den, Fraction(num, den), (num, den)) for num, den in roots)
    hits = tuple(
        WallHit(x, try_sqrt(QuadNumber(x, 0, lat.degree)), tuple(roots[key]))
        for _, x, key in order
    )
    return WallScan(hits, tuple(aligned))


class SupportBound(Value):
    """Largest ratio (norm / mass)^2 over a box, with the class attaining it."""

    ratio_sq: QuadNumber
    witness: SphericalClass

    @property
    def value(self) -> float:
        return math.sqrt(float(self.ratio_sq))


def support_constant(
    lat: NSLattice,
    basis: SphericalNormBasis,
    omega: OmegaVector,
    box: SearchBox,
) -> SupportBound:
    """Best constant C with |v| <= C |Z(v)| over spherical classes in the box.

    Classes in the kernel of the charge are skipped (no finite constant
    covers them); if nothing in the box carries nonzero charge the bound
    is undefined and EmptySupport is raised.  Growing the box can only
    increase the bound, which is what makes it usable as a monotone
    lower estimate of the true support constant.
    """
    forms = compile_charge(lat, omega)
    d = forms.d
    # L^2 |Z(v)|^2 = P + Q sqrt(d) > 0 off the kernel, so the ratio is
    # n^2 L^2 / (P + Q sqrt(d)) and ratios compare by cross-multiplying
    best = None
    for cls in enumerate_spherical(lat, box):
        ra, rb, ia, ib = forms.ints(cls.v)
        if not (ra or rb or ia or ib):
            continue
        n = spherical_norm(lat, basis, cls)
        n_sq = n * n
        P = ra * ra + ia * ia + d * (rb * rb + ib * ib)
        Q = 2 * (ra * rb + ia * ib)
        if best is not None:
            _, best_n_sq, best_P, best_Q = best
            # strictly larger only, so ties keep the first class enumerated
            gain = quad_sign(
                n_sq * best_P - best_n_sq * P, n_sq * best_Q - best_n_sq * Q, d
            )
            if gain <= 0:
                continue
        best = (cls, n_sq, P, Q)
    if best is None:
        raise EmptySupport(f"no class with nonzero charge in box {box.as_tuple()}")
    cls, n_sq, P, Q = best
    L = forms.denom
    ratio = QuadNumber(n_sq * L * L, 0, d) / QuadNumber(P, Q, d)
    return SupportBound(ratio, cls)
