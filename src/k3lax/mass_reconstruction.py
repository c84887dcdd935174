"""Recovering a central charge from the masses of a good spherical basis.

The input is projective squared-mass data: an oracle returning |Z(v)|^2
for the basis vectors v_i and their companions w_ij = v_j + <v_i, v_j> v_i.
Writing Z(v_j) = a_j + i b_j in the gauge Z(v_1) = 1, the masses pin down
every a_j and every b_j^2, and the companion masses recover the mixed
products a_i a_j + b_i b_j.  That determines the tuple (a, b) up to the
overall conjugation (a, -b); the surviving ambiguity is resolved by
insisting the charge lie in the oriented positive cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .central_charge import OmegaVector, compile_charge, in_P_plus
from .spherical_enum import GoodBasis, companion_classes
from .errors import (
    DegenerateCharge,
    DomainError,
    ExactSqrtUnavailable,
    InconsistentMasses,
    InternalInvariantError,
    NoOrientation,
)
from .mukai_lattice import MukaiVector, NSLattice, SphericalClass, mukai_pairing
from .linalg import solve_linear
from .exact_scalars import QuadComplex, QuadNumber, try_sqrt


@dataclass(frozen=True)
class MassOracle:
    """Source of squared masses for spherical classes."""

    query: Callable[[SphericalClass], object]

    @classmethod
    def from_charge(cls, lat: NSLattice, omega: OmegaVector) -> MassOracle:
        """Oracle computing |<omega, v>|^2 exactly from a known charge."""
        forms = compile_charge(lat, omega)

        def query(v: SphericalClass):
            return forms.value(v).norm_square()

        return cls(query)

    @classmethod
    def from_table(cls, table: Mapping[MukaiVector, object]) -> MassOracle:
        def query(v: SphericalClass):
            key = v.v if isinstance(v, SphericalClass) else v
            try:
                return table[key]
            except KeyError:
                raise InconsistentMasses(f"mass table has no entry for {key}")

        return cls(query)


def cross_terms(c_ij: object, m_i: object, m_j: object, m_ij: object):
    """Recover Re(Z_i * conj(Z_j)) from three masses.

    |Z(v_j + c Z v_i)|^2 expands to M_j + c^2 M_i + 2c Re(Z_i conj Z_j),
    so the mixed term is (M_ij - M_j - c^2 M_i) / (2c).
    """
    if c_ij == 0:
        raise ZeroDivisionError("companion pairing coefficient is zero")
    return (m_ij - m_j - c_ij * c_ij * m_i) / (2 * c_ij)


@dataclass(frozen=True)
class FloatOmega:
    """Float-mode counterpart of OmegaVector."""

    r: complex
    D: tuple[complex, ...]
    s: complex


@dataclass(frozen=True)
class ReconstructedCharge:
    """Gauge-fixed charge values on the basis plus the solved vector.

    coefficients[j] is the pair (a_j, b_j) with Z(v_j) = a_j + i b_j in
    the gauge Z(v_1) = 1; omega is the characteristic vector solving
    <omega, v_j> = a_j + i b_j.  residual is the largest deviation left
    in the defining equations (identically zero in exact mode).  branch
    records which of the two conjugate sign choices landed in the
    positive cone: "principal" for (a, b), "conjugate" for (a, -b).
    """

    coefficients: tuple[tuple[object, object], ...]
    omega: OmegaVector | FloatOmega
    residual: object
    branch: str = "principal"


def _lift(value, d: int) -> QuadNumber:
    if isinstance(value, QuadNumber):
        if not value.is_rational and value.d != d:
            raise DomainError(
                f"mass over sqrt({value.d}) in a lattice with field sqrt({d})"
            )
        return QuadNumber(value.a, value.b, d)
    return QuadNumber(Fraction(value), 0, d)


def _abs_exact(x: QuadNumber) -> QuadNumber:
    return x if x.sign() >= 0 else -x


def _query_masses(lat: NSLattice, basis: GoodBasis, oracle: MassOracle, exact: bool):
    """Squared masses of the basis vectors and of their companions, lifted
    to Q(sqrt(d)) in exact mode and made floats otherwise."""
    d = lat.degree
    lift = (lambda m: _lift(m, d)) if exact else float
    masses = [lift(oracle.query(cls)) for cls in basis.vectors]
    companions = companion_classes(lat, basis)
    return masses, {key: lift(oracle.query(cls)) for key, cls in companions.items()}


def _solve_omega(lat: NSLattice, basis: GoodBasis, values: list):
    """Coordinates (r, D, s) of the omega with <omega, v_j> = values[j]."""
    unit = [MukaiVector(1, (0,) * lat.rank, 0)] + [
        MukaiVector(0, tuple(1 if k == i else 0 for k in range(lat.rank)), 0)
        for i in range(lat.rank)
    ] + [MukaiVector(0, (0,) * lat.rank, 1)]
    rows = [
        [mukai_pairing(lat, e, cls) for e in unit] for cls in basis.vectors
    ]
    x = solve_linear(rows, values)
    return x[0], tuple(x[1:-1]), x[-1]


def _pair_float(lat: NSLattice, u, v) -> float:
    ur, uD, us = u
    vr, vD, vs = v
    acc = 0.0
    for i, row in enumerate(lat.gram):
        for j, g in enumerate(row):
            if g != 0:
                acc += uD[i] * vD[j] * g
    return acc - ur * vs - vr * us


def _in_P_plus_float(lat: NSLattice, omega: FloatOmega) -> bool:
    re = (omega.r.real, tuple(c.real for c in omega.D), omega.s.real)
    im = (omega.r.imag, tuple(c.imag for c in omega.D), omega.s.imag)
    g11 = _pair_float(lat, re, re)
    g12 = _pair_float(lat, re, im)
    g22 = _pair_float(lat, im, im)
    if g11 <= 0 or g11 * g22 - g12 * g12 <= 0:
        return False
    # the plane of exp(i*H), the orientation reference of `in_P_plus`:
    # Re = (1, 0, -d) and Im = (0, H, 0), both integral
    ref_re = (1, (0,) * lat.rank, -lat.degree)
    ref_im = (0, lat.ample_class, 0)
    m11 = _pair_float(lat, re, ref_re)
    m12 = _pair_float(lat, re, ref_im)
    m21 = _pair_float(lat, im, ref_re)
    m22 = _pair_float(lat, im, ref_im)
    return m11 * m22 - m12 * m21 > 0


def reconstruct(
    lat: NSLattice,
    basis: GoodBasis,
    oracle: MassOracle,
    mode: str = "exact",
    tol: float | None = None,
) -> ReconstructedCharge:
    """Invert projective mass data to a charge in the positive cone.

    Exact mode works in Q(sqrt(d)) with tolerance zero and raises
    ExactSqrtUnavailable if the pivot square root leaves the field (mass
    data of rational charges never does).  Float mode accepts IEEE input
    and checks consistency up to tol (default 1e-9).
    """
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    if tol is None:
        tol = 0.0 if mode == "exact" else 1e-9
    if mode == "exact" and tol != 0.0:
        raise DomainError("exact mode runs at tolerance zero")
    n = len(basis.vectors)
    masses, crosses_raw = _query_masses(lat, basis, oracle, mode == "exact")
    if mode == "exact":
        zero = QuadNumber(0, 0, lat.degree)
        one = QuadNumber(1, 0, lat.degree)
    else:
        zero = 0.0
        one = 1.0
    for i, m in enumerate(masses):
        if (m.sign() if mode == "exact" else m) < 0:
            raise InconsistentMasses(
                f"squared mass of basis vector {i} is negative"
            )
    gauge = masses[0]
    if (gauge.sign() == 0) if mode == "exact" else (gauge <= tol):
        raise DegenerateCharge("gauge class is massless; cannot normalize")
    masses = [m / gauge for m in masses]
    crosses_raw = {k: m / gauge for k, m in crosses_raw.items()}

    def cross(i: int, j: int):
        lo, hi = (i, j) if i < j else (j, i)
        c = basis.pair_matrix[lo][hi]
        value = cross_terms(c, masses[lo], masses[hi], crosses_raw[(lo, hi)])
        return value

    a = [zero] * n
    b = [zero] * n
    a[0] = one
    b_sq = [zero] * n
    for j in range(1, n):
        a[j] = cross(0, j)
        b_sq[j] = masses[j] - a[j] * a[j]
        negative = b_sq[j].sign() < 0 if mode == "exact" else b_sq[j] < -tol
        if negative:
            raise InconsistentMasses(
                f"squared imaginary part of coefficient {j} is negative"
            )
    if mode == "exact":
        degenerate = all(b_sq[j].sign() == 0 for j in range(1, n))
    else:
        degenerate = all(b_sq[j] <= tol for j in range(1, n))
    if degenerate:
        raise DegenerateCharge("mass data is consistent with a real charge only")
    pivot = 1
    for j in range(2, n):
        if b_sq[j] > b_sq[pivot]:
            pivot = j
    if mode == "exact":
        root = try_sqrt(b_sq[pivot])
        if root is None:
            raise ExactSqrtUnavailable(
                "pivot square root leaves Q(sqrt(d)); rerun in float mode"
            )
        b[pivot] = root
    else:
        b[pivot] = max(b_sq[pivot], 0.0) ** 0.5
    for j in range(1, n):
        if j != pivot:
            b[j] = (cross(pivot, j) - a[pivot] * a[j]) / b[pivot]

    deviations = []
    for i in range(n):
        deviations.append(a[i] * a[i] + b[i] * b[i] - masses[i])
        for j in range(i + 1, n):
            deviations.append(a[i] * a[j] + b[i] * b[j] - cross(i, j))
    if mode == "exact":
        residual = zero
        for dev in deviations:
            dev = _abs_exact(dev)
            if dev > residual:
                residual = dev
        if residual.sign() != 0:
            raise InconsistentMasses(
                f"mass data violates the pairing relations by {residual}"
            )
    else:
        residual = max(abs(dev) for dev in deviations)
        if residual > tol:
            raise InconsistentMasses(
                f"mass data violates the pairing relations by {residual:.3e}"
            )

    if mode == "exact":
        values = [QuadComplex(a[j], b[j]) for j in range(n)]
        omega_plus = OmegaVector(*_solve_omega(lat, basis, values))
        omega_minus = omega_plus.conjugate()
        plus_ok = in_P_plus(lat, omega_plus)
        minus_ok = in_P_plus(lat, omega_minus)
    else:
        values = [complex(a[j], b[j]) for j in range(n)]
        omega_plus = FloatOmega(*_solve_omega(lat, basis, values))
        omega_minus = FloatOmega(
            omega_plus.r.conjugate(),
            tuple(c.conjugate() for c in omega_plus.D),
            omega_plus.s.conjugate(),
        )
        plus_ok = _in_P_plus_float(lat, omega_plus)
        minus_ok = _in_P_plus_float(lat, omega_minus)
    if plus_ok and minus_ok:
        raise InternalInvariantError(
            "both conjugate branches claim the positive cone"
        )
    if plus_ok:
        chosen, sign = omega_plus, 1
    elif minus_ok:
        chosen, sign = omega_minus, -1
    else:
        raise NoOrientation("neither conjugate branch lies in the positive cone")
    coeffs = tuple(
        (a[j], b[j] if sign > 0 else -b[j]) for j in range(n)
    )
    return ReconstructedCharge(
        coeffs, chosen, residual, "principal" if sign > 0 else "conjugate"
    )


def residual(
    lat: NSLattice,
    basis: GoodBasis,
    oracle: MassOracle,
    charge: ReconstructedCharge,
):
    """A posteriori consistency of a charge against fresh oracle probes.

    Re-queries every basis and companion mass, rescales to the gauge
    M_1 = 1, and returns the largest absolute deviation of
    a_i a_j + b_i b_j from the probed cross term and of a_i^2 + b_i^2
    from the probed mass.  Zero on consistent exact data.
    """
    exact = isinstance(charge.omega, OmegaVector)
    n = len(basis.vectors)
    masses, crosses_raw = _query_masses(lat, basis, oracle, exact)
    gauge = masses[0]
    if (gauge.sign() == 0) if exact else (gauge == 0.0):
        raise DegenerateCharge("gauge class is massless; cannot normalize")
    masses = [m / gauge for m in masses]
    crosses_raw = {k: m / gauge for k, m in crosses_raw.items()}
    absolute = _abs_exact if exact else abs
    worst = masses[0] - masses[0]
    for i in range(n):
        a_i, b_i = charge.coefficients[i]
        dev = absolute(a_i * a_i + b_i * b_i - masses[i])
        if dev > worst:
            worst = dev
        for j in range(i + 1, n):
            a_j, b_j = charge.coefficients[j]
            c = basis.pair_matrix[i][j]
            target = cross_terms(c, masses[i], masses[j], crosses_raw[(i, j)])
            dev = absolute(a_i * a_j + b_i * b_j - target)
            if dev > worst:
                worst = dev
    return worst
