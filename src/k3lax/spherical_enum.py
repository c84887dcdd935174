"""Searches for spherical classes in coordinate boxes, and bases made of them.

All searches are box-relative: a statement like "the classes of slope mu"
always means "within the given coordinate bounds".  Results come back in
lexicographic order of (r, D, s), so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ._value import Value
from .errors import BasisError, BoxTooSmall, DomainError
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    SphericalClass,
    line_bundle_vector,
    mukai_pairing,
    pairing_functional,
    pairing_matrix,
)
from .linalg import diagonalize, exact_signature, functional_kernel


class SearchBox(Value):
    """Coordinate bounds |r| <= r_max, |D_i| <= d_bound, |s| <= s_bound."""

    r_max: int
    d_bound: int
    s_bound: int

    def __post_init__(self):
        for label, bound in (
            ("r_max", self.r_max),
            ("d_bound", self.d_bound),
            ("s_bound", self.s_bound),
        ):
            # bool is a subclass of int; True must not pass as 1
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
                raise DomainError(f"{label} must be a nonnegative integer, got {bound!r}")

    def contains(self, v: MukaiVector) -> bool:
        if abs(v.r) > self.r_max or abs(v.s) > self.s_bound:
            return False
        return all(abs(c) <= self.d_bound for c in v.D)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r_max, self.d_bound, self.s_bound)


def enumerate_spherical(lat: NSLattice, box: SearchBox) -> list[SphericalClass]:
    """Every spherical class inside the box, sorted lexicographically.

    One pass over the D grid computes each D^2; the rank loop then reuses
    it.  At r != 0, <v, v> = D^2 - 2rs = -2 pins s; at r = 0 the class is
    spherical iff D^2 = -2, for every s in the box.
    """
    span = range(-box.d_bound, box.d_bound + 1)
    grid = [(D, lat.dot(D, D)) for D in itertools.product(span, repeat=lat.rank)]
    s_range = range(-box.s_bound, box.s_bound + 1)
    out: list[SphericalClass] = []
    for r in range(-box.r_max, box.r_max + 1):
        if r == 0:
            out.extend(
                SphericalClass(MukaiVector(0, D, s))
                for D, d_sq in grid
                if d_sq == -2
                for s in s_range
            )
            continue
        for D, d_sq in grid:
            s, rest = divmod(d_sq + 2, 2 * r)
            if rest == 0 and abs(s) <= box.s_bound:
                out.append(SphericalClass(MukaiVector(r, D, s)))
    return out


def delta_mu_plus(
    lat: NSLattice, mu: Fraction, box: SearchBox
) -> tuple[list[SphericalClass], int | None]:
    """Positive-rank spherical classes of slope mu in the box, plus the
    minimal rank among them (None when the set is empty)."""
    mu = Fraction(mu)
    found = [
        cls
        for cls in enumerate_spherical(lat, box)
        if cls.v.r > 0 and Fraction(lat.dot_ample(cls.v.D), cls.v.r) == mu
    ]
    r0 = min((cls.v.r for cls in found), default=None)
    return found, r0


class GoodBasis(Value):
    """rho + 2 spherical classes, pairwise non-orthogonal, spanning the
    rational Mukai lattice.  The head vector plays the role of the gauge
    class in mass reconstruction."""

    vectors: tuple[SphericalClass, ...]
    pair_matrix: tuple[tuple[int, ...], ...]

    def validate(self, lat: NSLattice) -> None:
        n = lat.rank + 2
        if len(self.vectors) != n:
            raise BasisError(f"good basis needs {n} vectors, got {len(self.vectors)}")
        for cls in self.vectors:
            if mukai_pairing(lat, cls, cls) != -2:
                raise BasisError(f"{cls.v} is not spherical")
        if self.pair_matrix != pairing_matrix(lat, self.vectors):
            raise BasisError("stored pairing matrix does not match the vectors")
        for i in range(n):
            for j in range(i + 1, n):
                if self.pair_matrix[i][j] == 0:
                    raise BasisError(
                        f"basis vectors {i} and {j} are orthogonal"
                    )
        # in a nondegenerate lattice, n vectors span iff their pairings do
        if exact_signature(self.pair_matrix)[2]:
            raise BasisError("good basis does not span the Mukai lattice")


def _primitive(vector: list[Fraction]) -> tuple[int, ...]:
    """Clear denominators and common factors; first nonzero entry positive."""
    denom = math.lcm(*(c.denominator for c in vector))
    ints = [int(c * denom) for c in vector]
    g = math.gcd(*ints) or 1
    ints = [c // g for c in ints]
    lead = next((c for c in ints if c != 0), 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _orthogonal_complement_of_ample(lat: NSLattice) -> list[tuple[int, ...]]:
    """Pairwise orthogonal primitive integer classes spanning H-perp.

    Starts from the canonical kernel basis of the functional H . x, whose
    coefficients are G H, and diagonalizes its Gram matrix.  H-perp is
    negative definite, so T is unit lower triangular and its rows are the
    Gram-Schmidt combinations of the kernel basis.
    """
    raw = functional_kernel(pairing_functional(lat, 0, lat.ample_class, 0)[1:-1])
    T, _ = diagonalize([[lat.dot(x, y) for y in raw] for x in raw])
    columns = list(zip(*raw))
    return [_primitive([sum(map(operator.mul, row, c)) for c in columns]) for row in T]


def good_basis(lat: NSLattice, box: SearchBox) -> GoodBasis:
    """Spherical basis built from line bundles along the polarization.

    The three classes of O, O(-H) and O(2H) already span the rank-one
    slice; for higher Picard rank each orthogonal direction D contributes
    the class of O(D) after D is scaled to even self-intersection below
    -4.  Two further square values are skipped because they would make
    O(D) orthogonal to the O(-H) or O(2H) class; with those excluded,
    every pair of basis vectors pairs nonzero, which `validate` rechecks.
    """
    H = lat.ample_class
    d = lat.degree
    minus_h = tuple(-c for c in H)
    twice_h = tuple(2 * c for c in H)
    vectors = [
        line_bundle_vector(lat, (0,) * lat.rank),
        line_bundle_vector(lat, minus_h),
        line_bundle_vector(lat, twice_h),
    ]
    for direction in _orthogonal_complement_of_ample(lat):
        square = lat.dot(direction, direction)
        if square >= 0:
            raise BasisError(
                f"complement direction {direction} has nonnegative square {square}"
            )
        k = 1
        while True:
            scaled_square = k * k * square
            if (
                scaled_square % 2 == 0
                and scaled_square < -4
                and scaled_square != -(4 + 2 * d)
                and scaled_square != -(4 + 8 * d)
            ):
                break
            k += 1
        vectors.append(
            line_bundle_vector(lat, tuple(k * c for c in direction))
        )
    for v in vectors:
        if not box.contains(v):
            raise BoxTooSmall(
                f"basis vector {v} falls outside box {box.as_tuple()}"
            )
    classes = tuple(SphericalClass.from_vector(lat, v) for v in vectors)
    basis = GoodBasis(classes, pairing_matrix(lat, classes))
    basis.validate(lat)
    return basis


def companion_classes(
    lat: NSLattice, basis: GoodBasis
) -> dict[tuple[int, int], SphericalClass]:
    """The auxiliary classes w_ij = v_j + <v_i, v_j> v_i for i < j.

    Each one is spherical again, and its mass ties the charge values on
    v_i and v_j together during reconstruction.
    """
    out: dict[tuple[int, int], SphericalClass] = {}
    n = len(basis.vectors)
    for i in range(n):
        for j in range(i + 1, n):
            c = basis.pair_matrix[i][j]
            if c == 0:
                raise BasisError(f"vectors {i} and {j} are orthogonal")
            w = basis.vectors[j].v + c * basis.vectors[i].v
            out[(i, j)] = SphericalClass.from_vector(lat, w)
    return out
