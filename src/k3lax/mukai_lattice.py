"""Mukai lattice of a polarized K3 surface, in integer coordinates.

A Mukai vector is a triple (r, D, s) with r and s integers and D a class
in the Neron-Severi lattice, written in the coordinates of a fixed Gram
matrix.  The pairing is

    <(r1, D1, s1), (r2, D2, s2)> = D1 . D2 - r1*s2 - r2*s1,

with D1 . D2 the Neron-Severi intersection product.  On a K3 surface this
lattice has signature (2, rho) and the pairing of a vector with itself is
-2 exactly for the spherical classes, the numerical shadows of rigid
simple objects.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

from ._value import Value
from .errors import BasisError, DimensionError, LatticeError
from .linalg import exact_signature, functional_kernel


class NSLattice:
    """Neron-Severi lattice with a distinguished ample class H.

    The Gram matrix must be symmetric with integer entries and signature
    (1, rho - 1); H must have positive even self-intersection.  The degree
    d = H^2 / 2 doubles as the radicand of the quadratic field in which
    the boundary central charges live.
    """

    __slots__ = ("_gram", "_ample", "_name", "_d", "_gh")

    def __init__(
        self,
        gram: Sequence[Sequence[int]],
        ample_class: Sequence[int],
        name: str = "",
    ):
        rows = tuple(tuple(entry for entry in row) for row in gram)
        if not rows:
            raise LatticeError("empty Gram matrix")
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise LatticeError("Gram matrix is not square")
            for entry in row:
                # bool is a subclass of int; JSON true must not pass as 1
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise LatticeError(f"non-integer Gram entry {entry!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError(
                        f"Gram matrix is not symmetric at ({i}, {j})"
                    )
        pos, neg, null = exact_signature(rows)
        if null:
            raise LatticeError("Gram matrix is degenerate")
        if (pos, neg) != (1, n - 1):
            raise LatticeError(
                f"signature is ({pos}, {neg}); a K3 Picard lattice needs (1, {n - 1})"
            )
        ample = tuple(ample_class)
        if len(ample) != n:
            raise LatticeError(
                f"ample class has length {len(ample)}, rank is {n}"
            )
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in ample):
            raise LatticeError("ample class must have integer coordinates")
        self._gram = rows
        self._ample = ample
        self._name = name
        # G.H, so that the degree H.x is one dot product
        self._gh = tuple(sum(map(operator.mul, row, ample)) for row in rows)
        h2 = self.dot_ample(ample)
        if h2 <= 0 or h2 % 2 != 0:
            raise LatticeError(f"H^2 must be positive and even, got {h2}")
        self._d = h2 // 2

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        return self._gram

    @property
    def ample_class(self) -> tuple[int, ...]:
        return self._ample

    @property
    def name(self) -> str:
        return self._name

    @property
    def rank(self) -> int:
        return len(self._gram)

    @property
    def degree(self) -> int:
        """d = H^2 / 2."""
        return self._d

    def dot(self, x: Sequence, y: Sequence):
        """Intersection product of two Neron-Severi classes."""
        n = self.rank
        if len(x) != n or len(y) != n:
            raise DimensionError(
                f"expected coordinate vectors of length {n}"
            )
        total = 0
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self._gram[i]
            acc = 0
            for j, yj in enumerate(y):
                if yj != 0:
                    acc += row[j] * yj
            total += xi * acc
        return total

    def dot_ample(self, x: Sequence):
        """H . x, the degree of a class against the polarization."""
        if len(x) != len(self._gh):
            raise DimensionError(f"expected coordinate vectors of length {self.rank}")
        return sum(map(operator.mul, self._gh, x))

    @classmethod
    def from_dict(cls, data: dict) -> NSLattice:
        if not isinstance(data, dict):
            raise LatticeError("lattice description must be an object")
        missing = {"gram", "H"} - set(data)
        if missing:
            raise LatticeError(f"lattice description missing {sorted(missing)}")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise LatticeError("lattice name must be a string")
        gram = data["gram"]
        ample = data["H"]
        if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
            raise LatticeError("gram must be a list of rows")
        if not isinstance(ample, list):
            raise LatticeError("H must be a list of integer coordinates")
        return cls(gram, ample, name=name)

    def __repr__(self) -> str:
        label = self._name or f"rank {self.rank}, degree {self._d}"
        return f"NSLattice({label})"


class MukaiVector(Value):
    """Integer Mukai vector (r, D, s)."""

    __slots__ = ("r", "D", "s")
    r: int
    D: tuple[int, ...]
    s: int

    # built once per candidate class in every box search, so written by hand
    def __init__(self, r: int, D, s: int):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "D", tuple(D))
        object.__setattr__(self, "s", s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.D == other.D and self.s == other.s

    def __hash__(self):
        return hash((self.r, self.D, self.s))

    @property
    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and not any(self.D)

    def __add__(self, other: MukaiVector) -> MukaiVector:
        return MukaiVector(
            self.r + other.r,
            tuple(a + b for a, b in zip(self.D, other.D)),
            self.s + other.s,
        )

    def __sub__(self, other: MukaiVector) -> MukaiVector:
        return MukaiVector(
            self.r - other.r,
            tuple(a - b for a, b in zip(self.D, other.D)),
            self.s - other.s,
        )

    def __neg__(self) -> MukaiVector:
        return MukaiVector(-self.r, tuple(-c for c in self.D), -self.s)

    def __mul__(self, k: int) -> MukaiVector:
        # bool is a subclass of int, so True would otherwise scale by 1
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return MukaiVector(k * self.r, tuple(k * c for c in self.D), k * self.s)

    __rmul__ = __mul__

    def coords(self) -> tuple[int, ...]:
        return (self.r, *self.D, self.s)


class SphericalClass(Value):
    """A Mukai vector of self-pairing -2.

    Construct through `from_vector` to have the pairing checked; the bare
    constructor trusts the caller.
    """

    __slots__ = ("v",)
    v: MukaiVector

    # one per class an enumeration finds, so written by hand like MukaiVector
    def __init__(self, v: MukaiVector):
        object.__setattr__(self, "v", v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash((self.v,))

    @classmethod
    def from_vector(cls, lat: NSLattice, v: MukaiVector) -> SphericalClass:
        self_pairing = mukai_pairing(lat, v, v)
        if self_pairing != -2:
            raise BasisError(
                f"{v} has self-pairing {self_pairing}, not -2"
            )
        return cls(v)


def as_vector(x) -> MukaiVector:
    """The Mukai vector of a MukaiVector or SphericalClass."""
    return x.v if isinstance(x, SphericalClass) else x


def pairing_functional(lat: NSLattice, r, D: Sequence, s) -> tuple:
    """Coefficients (-s, G D, -r) of <(r, D, s), .> on the coordinates
    (r', D', s') of the second argument, for entries of any numeric type."""
    return (-s, *(sum(map(operator.mul, row, D)) for row in lat.gram), -r)


def mukai_pairing(lat: NSLattice, u, v):
    """<u, v> = D_u . D_v - r_u * s_v - r_v * s_u."""
    u = as_vector(u)
    v = as_vector(v)
    return lat.dot(u.D, v.D) - u.r * v.s - v.r * u.s


def is_spherical(lat: NSLattice, v) -> bool:
    return mukai_pairing(lat, v, v) == -2


def reflect(lat: NSLattice, delta, v) -> MukaiVector:
    """Reflection of v in the hyperplane of a spherical class.

    v |-> v + <v, delta> delta is an involutive isometry because delta
    has self-pairing -2.
    """
    delta_v = as_vector(delta)
    if not is_spherical(lat, delta_v):
        raise BasisError(f"reflection axis {delta_v} is not spherical")
    return as_vector(v) + mukai_pairing(lat, v, delta_v) * delta_v


def tensor_line_bundle(lat: NSLattice, ell: int, v) -> MukaiVector:
    """Twist by the ell-th power of the polarization line bundle.

    (r, D, s) |-> (r, D + ell*r*H, s + ell*(H . D) + d*ell^2*r); these
    maps form a Z-action by isometries.
    """
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise DimensionError(f"twist exponent must be an integer, got {ell!r}")
    v = as_vector(v)
    H = lat.ample_class
    D = tuple(c + ell * v.r * h for c, h in zip(v.D, H))
    s = v.s + ell * lat.dot_ample(v.D) + lat.degree * ell * ell * v.r
    return MukaiVector(v.r, D, s)


def line_bundle_vector(lat: NSLattice, D: Sequence[int]) -> MukaiVector:
    """Mukai vector (1, D, D^2/2 + 1) of a line bundle with class D."""
    square = lat.dot(D, D)
    if square % 2 != 0:
        raise LatticeError(f"class {tuple(D)} has odd self-intersection {square}")
    return MukaiVector(1, tuple(D), square // 2 + 1)


class SphericalNormBasis(Value):
    """A spherical vector v1 together with a basis of its orthogonal complement.

    The associated norm |<v1, .>| + sum |<w, .>| over the complement
    vectors separates points because the full set has rank rho + 2.
    """

    v1: SphericalClass
    complement: tuple[MukaiVector, ...]

    @classmethod
    def build(cls, lat: NSLattice, delta0) -> SphericalNormBasis:
        """Canonical complement basis for a given spherical vector.

        The orthogonality condition <delta0, .> = 0 is a single integer
        functional on (r, D, s); its kernel lattice has rank rho + 1 and
        a unique Hermite-form basis, which is what gets stored.
        """
        v1 = delta0 if isinstance(delta0, SphericalClass) else SphericalClass.from_vector(lat, delta0)
        kernel = functional_kernel(pairing_functional(lat, v1.v.r, v1.v.D, v1.v.s))
        complement = tuple(
            MukaiVector(row[0], row[1:-1], row[-1]) for row in kernel
        )
        basis = cls(v1, complement)
        basis.validate(lat)
        return basis

    def validate(self, lat: NSLattice) -> None:
        if not is_spherical(lat, self.v1):
            raise BasisError("norm basis head vector is not spherical")
        if len(self.complement) != lat.rank + 1:
            raise BasisError(
                f"complement has {len(self.complement)} vectors, need {lat.rank + 1}"
            )
        for w in self.complement:
            if mukai_pairing(lat, self.v1, w) != 0:
                raise BasisError(f"complement vector {w} not orthogonal to head")
        # in a nondegenerate lattice, rank + 2 vectors span iff their pairings do
        if exact_signature(pairing_matrix(lat, (self.v1, *self.complement)))[2]:
            raise BasisError("norm basis does not span the Mukai lattice")


def spherical_norm(lat: NSLattice, basis: SphericalNormBasis, v):
    """Sum of absolute pairings against the norm basis.

    Vanishes only at v = 0, is symmetric under negation, and obeys the
    triangle inequality, giving a convenient integer-valued size gauge
    on Mukai vectors.
    """
    v = as_vector(v)
    total = abs(mukai_pairing(lat, basis.v1, v))
    for w in basis.complement:
        total += abs(mukai_pairing(lat, w, v))
    return total


def pairing_matrix(lat: NSLattice, vectors: Iterable) -> tuple[tuple[int, ...], ...]:
    vs = [as_vector(x) for x in vectors]
    return tuple(
        tuple(mukai_pairing(lat, u, w) for w in vs) for u in vs
    )
