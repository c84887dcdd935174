"""Boundary charges annihilating a spherical class, and the number theory
that separates their mass profiles from counting functionals.

For a slope mu, the positive-rank spherical classes of that slope (within
a search box) single out a minimal rank r0 attained by a class delta0.
Setting B = D0/r0 and alpha0 = 1/(r0*sqrt(d)) produces a charge whose
value on delta0 is exactly zero while all values stay in the discrete
subgroup (1/r0^2)(Z + Z/sqrt(d)) of C.  Twisting delta0 by powers of the
polarization yields a family whose squared masses are the integers
d*l^2*(r0^2*d*l^2 + 4); an elementary prime certificate then shows two
of these masses have irrational ratio, something no integer-valued
counting functional can reproduce projectively.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .central_charge import BWParams, ChargeForms, closed_form_Z, compile_charge, omega_from_bw
from .spherical_enum import SearchBox, delta_mu_plus
from .errors import (
    DomainError,
    InternalInvariantError,
    NoSphericalClass,
    SearchLimitExceeded,
)
from .mukai_lattice import (
    NSLattice,
    SphericalClass,
    as_vector,
    mukai_pairing,
    tensor_line_bundle,
)
from .numbertheory import (
    crt,
    invert,
    is_prime,
    legendre,
    squarefree_decompose,
    tonelli,
    valuation,
)
from .exact_scalars import QuadComplex, QuadNumber


class LaxPoint(Value):
    """A boundary charge built from a minimal-rank spherical class.

    Everything else follows from delta0 = (r0, D0, s0): the rational
    B-field b0 = D0/r0, the boundary scale alpha0 = 1/(r0*sqrt(d)), the
    slope mu = D0.H/r0 and the degree d of the lattice.  The charge with
    (b0, alpha0) kills delta0.
    """

    lattice: NSLattice
    delta0: SphericalClass

    def validate(self) -> None:
        v = self.delta0.v
        if mukai_pairing(self.lattice, v, v) != -2:
            raise InternalInvariantError("lax head class is not spherical")
        if v.r <= 0:
            raise InternalInvariantError("lax head class must have positive rank")
        if not closed_form_Z(self.lattice, self.b0, self.alpha0, v).is_zero:
            raise InternalInvariantError("charge does not vanish on delta0")

    @property
    def r0(self) -> int:
        return self.delta0.v.r

    @property
    def d(self) -> int:
        return self.lattice.degree

    @property
    def b0(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.r0) for c in self.delta0.v.D)

    @property
    def alpha0(self) -> QuadNumber:
        return QuadNumber(0, Fraction(1, self.r0 * self.d), self.d)

    @property
    def mu(self) -> Fraction:
        return Fraction(self.lattice.dot_ample(self.delta0.v.D), self.r0)


def build_lax_point(lat: NSLattice, mu: Fraction, box: SearchBox) -> LaxPoint:
    """Boundary charge for the given slope, from a box-relative search.

    Among positive-rank spherical classes of slope mu in the box, the
    minimal rank wins; ties go to the lexicographically smallest (D, s).
    """
    mu = Fraction(mu)
    classes, r0 = delta_mu_plus(lat, mu, box)
    if r0 is None:
        raise NoSphericalClass(
            f"no positive-rank spherical class of slope {mu} in box {box.as_tuple()}"
        )
    point = LaxPoint(lat, next(cls for cls in classes if cls.v.r == r0))
    point.validate()
    return point


def _charge(lp: LaxPoint) -> ChargeForms:
    return compile_charge(lp.lattice, omega_from_bw(lp.lattice, BWParams(lp.b0, lp.alpha0)))


def _discrete_value(lp: LaxPoint, charge: ChargeForms, v) -> QuadComplex:
    """Z(v), after checking that r0^2 Re Z and r0^2 sqrt(d) Im Z are
    integers; a failure means the arithmetic is broken, so it raises."""
    z = charge.value(v)
    r0_sq = lp.r0 * lp.r0
    re_scaled = z.re * r0_sq
    im_scaled = z.im * QuadNumber.sqrt_radicand(lp.d) * r0_sq
    for part, label in ((re_scaled, "real"), (im_scaled, "imaginary")):
        if not part.is_rational or part.a.denominator != 1:
            raise InternalInvariantError(
                f"{label} part of Z({v}) leaves the discrete value group"
            )
    return z


def z_alpha0(lp: LaxPoint, v) -> QuadComplex:
    """Boundary charge value, with the discreteness contract enforced:
    the real part times r0^2 and the imaginary part times r0^2*sqrt(d)
    lie in Z."""
    return _discrete_value(lp, _charge(lp), as_vector(v))


def family_masses(
    lp: LaxPoint, l_min: int, l_max: int
) -> list[tuple[int, QuadNumber]]:
    """Squared masses of the twisted family delta_l, both ways.

    Each value is computed from the charge and from the closed formula
    d*l^2*(r0^2*d*l^2 + 4); any mismatch raises, keeping the two
    derivations honest against each other.
    """
    if l_min > l_max:
        raise DomainError("empty twist range")
    lat = lp.lattice
    d, r0 = lp.d, lp.r0
    charge = _charge(lp)
    out: list[tuple[int, QuadNumber]] = []
    for ell in range(l_min, l_max + 1):
        twisted = tensor_line_bundle(lat, ell, lp.delta0)
        measured = _discrete_value(lp, charge, twisted).norm_square()
        predicted = QuadNumber(
            Fraction(d * ell * ell * (r0 * r0 * d * ell * ell + 4)), 0, d
        )
        if measured != predicted:
            raise InternalInvariantError(
                f"family mass mismatch at twist {ell}: {measured} vs {predicted}"
            )
        out.append((ell, measured))
    return out


def chi_functional(lat: NSLattice, a_vector, v) -> int:
    """Euler-characteristic functional -<v(A), v> of a reference class.

    Integer-valued and additive in v; the numerical stand-in for hom
    counting against a fixed object.
    """
    return -mukai_pairing(lat, a_vector, v)


class IrrationalityCertificate(Value):
    """Prime witness that f(x) = a*x^2 + 4 takes values of irrational ratio.

    The defining checks: p is a prime congruent to 1 mod 4 exceeding
    max(a, 4), p does not divide f(l0), and p divides f(l1) exactly once.
    Then f(l1)/f(l0) has odd p-adic valuation, so it is no rational
    square, and l1*sqrt(f(l1)) / (l0*sqrt(f(l0))) is irrational.
    """

    a: int
    p: int
    l0: int
    l1: int
    val_l0: int
    val_l1: int


def verify_certificate(cert: IrrationalityCertificate) -> None:
    """Re-check every certificate condition by direct integer arithmetic."""
    a, p, l0, l1 = cert.a, cert.p, cert.l0, cert.l1
    entries = (a, p, l0, l1, cert.val_l0, cert.val_l1)
    # bool is a subclass of int; True must not pass as 1
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in entries):
        raise DomainError(f"certificate entries must be integers, got {entries!r}")
    if a < 1:
        raise DomainError(f"certificate coefficient a = {a!r} must be a positive integer")
    if l0 < 1 or l1 < 1:
        raise DomainError("certificate twists must be positive")
    if not is_prime(p):
        raise DomainError(f"certificate modulus {p} is not prime")
    if p % 4 != 1:
        raise DomainError(f"certificate modulus {p} is not 1 mod 4")
    if p <= max(a, 4):
        raise DomainError(f"certificate modulus {p} is not above max(a, 4)")
    f0 = a * l0 * l0 + 4
    f1 = a * l1 * l1 + 4
    if f0 % p == 0:
        raise DomainError(f"p = {p} divides f(l0) = {f0}")
    if f1 % p != 0:
        raise DomainError(f"p = {p} does not divide f(l1) = {f1}")
    if f1 % (p * p) == 0:
        raise DomainError(f"p^2 = {p * p} divides f(l1) = {f1}")
    if cert.val_l0 != 0 or valuation(f0, p) != 0:
        raise DomainError("stored valuation at l0 must be 0")
    if cert.val_l1 != 1 or valuation(f1, p) != 1:
        raise DomainError("stored valuation at l1 must be 1")


def irrationality_certificate(
    a: int, search_limit: int = 10**6
) -> IrrationalityCertificate:
    """Construct a certificate for f(x) = a*x^2 + 4 by residue assembly.

    Split a = m^2 * b with b squarefree.  A prime p with p = 1 mod 4 (mod
    8 when b is even, so that 2 is a residue) and p = quadratic-residue
    witness mod every odd prime of b makes -4/a a square mod p; such
    primes exist in the assembled progression by Dirichlet.  A modular
    square root then gives l1 with p | f(l1), bumped by p if p^2 got in
    the way, and l0 is the first point where p divides nothing.  The
    returned tuple is re-verified by direct divisibility before it leaves.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise DomainError(f"certificate coefficient must be a positive integer, got {a!r}")
    if not isinstance(search_limit, int) or isinstance(search_limit, bool):
        raise DomainError(f"search_limit must be an integer, got {search_limit!r}")
    _, b = squarefree_decompose(a)
    # Residue class 1 mod 4 makes -1 a square; widening to 1 mod 8 for
    # even b makes 2 one as well, which "1 mod 2b" alone would not.
    moduli = [8 if b % 2 == 0 else 4]
    residues = [1]
    for q in sorted(q for q in range(3, b + 1) if b % q == 0 and is_prime(q)):
        witness = next(t for t in range(1, q) if legendre(t, q) == 1)
        residues.append(witness)
        moduli.append(q)
    start, modulus = crt(residues, moduli)
    if start == 0:
        start = modulus
    p = None
    candidate = start
    for _ in range(search_limit):
        if candidate > max(a, 4) and is_prime(candidate):
            if legendre(-4 * invert(a, candidate) % candidate, candidate) == 1:
                p = candidate
                break
        candidate += modulus
    if p is None:
        raise SearchLimitExceeded(
            f"no usable prime in {start} + k*{modulus} within {search_limit} steps"
        )
    root = tonelli(-4 * invert(a, p) % p, p)
    l1 = min(root, p - root)
    if (a * l1 * l1 + 4) % (p * p) == 0:
        # f(l1 + p) = f(l1) + 2*a*p*l1 mod p^2, and p divides neither 2a nor l1.
        l1 += p
    l0 = next(t for t in range(1, p + 1) if (a * t * t + 4) % p != 0)
    cert = IrrationalityCertificate(
        a=a,
        p=p,
        l0=l0,
        l1=l1,
        val_l0=valuation(a * l0 * l0 + 4, p),
        val_l1=valuation(a * l1 * l1 + 4, p),
    )
    try:
        verify_certificate(cert)
    except DomainError as exc:
        raise InternalInvariantError(f"constructed certificate failed: {exc}")
    return cert


class SeparationReport(Value):
    """Why the boundary mass profile is not a counting profile.

    Two members of the twisted family carry squared masses whose ratio
    has odd p-adic valuation, hence an irrational mass ratio; the values
    of any integer-valued functional on the same two classes have a
    rational ratio.  No projective rescaling reconciles the two.
    """

    mu: Fraction
    r0: int
    d: int
    a: int
    certificate: IrrationalityCertificate
    mass_sq_l0: int
    mass_sq_l1: int
    ratio_valuation: int
    chi_l0: int
    chi_l1: int
    hom_ratio_note: str
    conclusion: str


def separate_from_hom_functionals(
    lp: LaxPoint, search_limit: int = 10**6
) -> SeparationReport:
    """Certificate-backed separation of the mass profile at the boundary."""
    a = lp.r0 * lp.r0 * lp.d
    cert = irrationality_certificate(a, search_limit=search_limit)
    lat = lp.lattice
    # family_masses checks each of the two against the integer d*l^2*f(l)
    m0, m1 = (int(family_masses(lp, ell, ell)[0][1].a) for ell in (cert.l0, cert.l1))
    ratio_val = valuation(m1, cert.p) - valuation(m0, cert.p)
    if ratio_val % 2 == 0:
        raise InternalInvariantError("squared-mass ratio has even valuation")
    chi0 = chi_functional(lat, lp.delta0, tensor_line_bundle(lat, cert.l0, lp.delta0))
    chi1 = chi_functional(lat, lp.delta0, tensor_line_bundle(lat, cert.l1, lp.delta0))
    return SeparationReport(
        mu=lp.mu,
        r0=lp.r0,
        d=lp.d,
        a=a,
        certificate=cert,
        mass_sq_l0=m0,
        mass_sq_l1=m1,
        ratio_valuation=ratio_val,
        chi_l0=chi0,
        chi_l1=chi1,
        hom_ratio_note=(
            "an integer-valued additive functional takes values in Z on the "
            "twisted family, so any ratio of its values is rational"
        ),
        conclusion=(
            f"squared-mass ratio {m1}/{m0} has {cert.p}-adic valuation "
            f"{ratio_val}, which is odd, so the mass ratio is irrational and "
            "the mass profile matches no counting functional up to scale"
        ),
    )
