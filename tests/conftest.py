import itertools
import random
from fractions import Fraction

import pytest

from k3lax import (
    BWParams,
    MassOracle,
    MukaiVector,
    NSLattice,
    SearchBox,
    companion_classes,
    good_basis,
    mukai_pairing,
    omega_from_bw,
)


@pytest.fixture
def rho1_d1():
    return NSLattice([[2]], [1], name="rho1-d1")


@pytest.fixture
def rho1_d2():
    return NSLattice([[4]], [1], name="rho1-d2")


@pytest.fixture
def rho2_d1():
    return NSLattice([[2, 0], [0, -4]], [1, 0], name="rho2-d1")


@pytest.fixture
def all_lattices(rho1_d1, rho1_d2, rho2_d1):
    return [rho1_d1, rho1_d2, rho2_d1]


def random_vector(rng: random.Random, rank: int, bound: int = 15) -> MukaiVector:
    return MukaiVector(
        rng.randint(-bound, bound),
        tuple(rng.randint(-bound, bound) for _ in range(rank)),
        rng.randint(-bound, bound),
    )


def brute_force_spherical(lat: NSLattice, box: SearchBox) -> set[MukaiVector]:
    """Reference enumeration: the naive triple loop, nothing shared with
    the package's double-loop implementation."""
    out = set()
    span = range(-box.d_bound, box.d_bound + 1)
    for r in range(-box.r_max, box.r_max + 1):
        for D in itertools.product(span, repeat=lat.rank):
            for s in range(-box.s_bound, box.s_bound + 1):
                v = MukaiVector(r, D, s)
                if mukai_pairing(lat, v, v) == -2:
                    out.add(v)
    return out


def mass_table_entries() -> list[dict]:
    """A consistent `--mass-table` for rho1_d1: the exact squared masses
    of the good basis of box (8, 8, 40) and of its companions under the
    charge B = 1/2, alpha = 3/2, as fraction strings."""
    lat = NSLattice([[2]], [1], name="rho1-d1")
    basis = good_basis(lat, SearchBox(8, 8, 40))
    omega = omega_from_bw(lat, BWParams((Fraction(1, 2),), Fraction(3, 2)))
    oracle = MassOracle.from_charge(lat, omega)
    targets = list(basis.vectors) + list(companion_classes(lat, basis).values())
    return [
        {"r": c.v.r, "D": list(c.v.D), "s": c.v.s, "mass_sq": str(oracle.query(c).a)}
        for c in targets
    ]
