"""Recovering a central charge from the masses of a good spherical basis.

The input is projective squared-mass data: an oracle returning |Z(v)|^2
for the basis vectors v_i and their companions w_ij = v_j + <v_i, v_j> v_i.
Writing Z(v_j) = a_j + i b_j in the gauge Z(v_1) = 1, the masses pin down
every a_j and every b_j^2, and the companion masses recover the mixed
products a_i a_j + b_i b_j.  That determines the tuple (a, b) up to the
overall conjugation (a, -b); the surviving ambiguity is resolved by
insisting the charge lie in the oriented positive cone.

Exact and float data take one path; the mode picks only the scalar
policy: the lift of the masses (to Q(sqrt(d)) or float), the pivot square
root, the complex type of the charge and the tolerance (0 or tol).  Every
predicate compares against the tolerance, exactly on QuadNumber.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from ._value import Value
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
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    SphericalClass,
    as_vector,
    pairing_functional,
)
from .linalg import solve_linear
from .exact_scalars import QuadComplex, QuadNumber, try_sqrt


class MassOracle(Value):
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
            key = as_vector(v)
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


class ReconstructedCharge(Value):
    """Gauge-fixed charge values on the basis plus the solved vector.

    coefficients[j] is the pair (a_j, b_j) with Z(v_j) = a_j + i b_j in
    the gauge Z(v_1) = 1; omega is the characteristic vector solving
    <omega, v_j> = a_j + i b_j.  residual is the largest deviation left
    in the defining equations (identically zero in exact mode).  branch
    records which of the two conjugate sign choices landed in the
    positive cone: "principal" for (a, b), "conjugate" for (a, -b).
    """

    coefficients: tuple[tuple[object, object], ...]
    omega: OmegaVector
    residual: object
    branch: str = "principal"


def _lift(value, d: int) -> QuadNumber:
    if not isinstance(value, QuadNumber):
        return QuadNumber(value, 0, d)
    if not value.is_rational and value.d != d:
        raise DomainError(f"mass over sqrt({value.d}) in a lattice with field sqrt({d})")
    # a mass in the field is used as it is; a rational one joins the field
    return value if value.d == d else QuadNumber(value.a, 0, d)


def _gauged_masses(lat: NSLattice, basis: GoodBasis, oracle: MassOracle, exact: bool, tol):
    """The squared masses of the basis in the gauge M_1 = 1, lifted to
    Q(sqrt(d)) or made floats, and cross(i, j) = Re(Z_i conj Z_j) from the
    companion masses in that gauge."""
    def lift(cls: SphericalClass):
        m = oracle.query(cls)
        if isinstance(m, float) and not math.isfinite(m):
            raise InconsistentMasses(f"squared mass of {cls.v} is {m}, not finite")
        try:
            return _lift(m, lat.degree) if exact else float(m)
        except OverflowError:
            raise InconsistentMasses(f"squared mass of {cls.v} is beyond the double range")

    masses = [lift(cls) for cls in basis.vectors]
    companions = {
        key: lift(cls) for key, cls in companion_classes(lat, basis).items()
    }
    for i, m in enumerate(masses):
        if m < 0:
            raise InconsistentMasses(f"squared mass of basis vector {i} is negative")
    gauge = masses[0]
    if gauge <= tol:
        raise DegenerateCharge("gauge class is massless; cannot normalize")
    masses = [m / gauge for m in masses]
    companions = {key: m / gauge for key, m in companions.items()}

    def cross(i: int, j: int):
        lo, hi = (i, j) if i < j else (j, i)
        c = basis.pair_matrix[lo][hi]
        return cross_terms(c, masses[lo], masses[hi], companions[(lo, hi)])

    return masses, cross


def _max_deviation(coefficients, masses: list, cross) -> object:
    """Largest |a_i a_j + b_i b_j - target| over i <= j, where the target
    is the gauged mass for i = j and the mixed term cross(i, j) otherwise."""
    worst = abs(masses[0] - masses[0])
    n = len(coefficients)
    for i, (a_i, b_i) in enumerate(coefficients):
        for j in range(i, n):
            a_j, b_j = coefficients[j]
            target = masses[i] if i == j else cross(i, j)
            dev = abs(a_i * a_j + b_i * b_j - target)
            if dev > worst:
                worst = dev
    return worst


def _solve_omega(lat: NSLattice, basis: GoodBasis, values: list):
    """Coordinates (r, D, s) of the omega with <omega, v_j> = values[j]."""
    rows = [pairing_functional(lat, c.v.r, c.v.D, c.v.s) for c in basis.vectors]
    x = solve_linear(rows, values)
    return x[0], tuple(x[1:-1]), x[-1]


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
    and checks consistency up to tol (default 1e-9), which must be finite
    and positive; its charge has Python `complex` components.
    """
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    if exact:
        if tol not in (None, 0):
            raise DomainError("exact mode runs at tolerance zero")
        tol, sqrt, make_complex, shown = 0, try_sqrt, QuadComplex, ""
    else:
        tol = 1e-9 if tol is None else tol
        if not 0 < tol < math.inf:
            raise DomainError(f"float mode needs a finite positive tol, got {tol}")
        sqrt, make_complex, shown = (lambda x: x**0.5), complex, ".3e"
    n = len(basis.vectors)
    masses, cross = _gauged_masses(lat, basis, oracle, exact, tol)
    one = masses[0]  # the gauge mass, exactly 1 after normalizing
    zero = one - one
    a = [one] + [cross(0, j) for j in range(1, n)]
    b = [zero] * n
    b_sq = [zero] + [masses[j] - a[j] * a[j] for j in range(1, n)]
    for j in range(1, n):
        if b_sq[j] < -tol:
            raise InconsistentMasses(
                f"squared imaginary part of coefficient {j} is negative"
            )
    pivot = max(range(1, n), key=b_sq.__getitem__)
    if b_sq[pivot] <= tol:
        raise DegenerateCharge("mass data is consistent with a real charge only")
    b[pivot] = sqrt(b_sq[pivot])
    if b[pivot] is None:
        raise ExactSqrtUnavailable(
            "pivot square root leaves Q(sqrt(d)); rerun in float mode"
        )
    for j in range(1, n):
        if j != pivot:
            b[j] = (cross(pivot, j) - a[pivot] * a[j]) / b[pivot]

    worst = _max_deviation(list(zip(a, b)), masses, cross)
    if worst > tol:
        raise InconsistentMasses(
            f"mass data violates the pairing relations by {worst:{shown}}"
        )

    values = [make_complex(a[j], b[j]) for j in range(n)]
    omega_plus = OmegaVector(*_solve_omega(lat, basis, values))
    omega_minus = omega_plus.conjugate()
    plus_ok = in_P_plus(lat, omega_plus)
    minus_ok = in_P_plus(lat, omega_minus)
    if plus_ok and minus_ok:
        raise InternalInvariantError("both conjugate branches claim the positive cone")
    if not (plus_ok or minus_ok):
        raise NoOrientation("neither conjugate branch lies in the positive cone")
    if plus_ok:
        return ReconstructedCharge(tuple(zip(a, b)), omega_plus, worst, "principal")
    b = [-x for x in b]
    return ReconstructedCharge(tuple(zip(a, b)), omega_minus, worst, "conjugate")


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
    exact = isinstance(charge.omega.r, QuadComplex)
    masses, cross = _gauged_masses(lat, basis, oracle, exact, 0)
    return _max_deviation(charge.coefficients, masses, cross)
