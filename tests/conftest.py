from fractions import Fraction

import pytest

from k3lax import (
    BWParams,
    MassOracle,
    SearchBox,
    companion_classes,
    good_basis,
    omega_from_bw,
)
from k3lax.selftest import default_lattices


@pytest.fixture
def all_lattices():
    return default_lattices()


@pytest.fixture
def rho1_d1(all_lattices):
    return all_lattices[0]


@pytest.fixture
def rho1_d2(all_lattices):
    return all_lattices[1]


@pytest.fixture
def rho2_d1(all_lattices):
    return all_lattices[2]


def mass_table_entries() -> list[dict]:
    """A consistent `--mass-table` for rho1_d1: the exact squared masses
    of the good basis of box (8, 8, 40) and of its companions under the
    charge B = 1/2, alpha = 3/2, as fraction strings."""
    lat = default_lattices()[0]
    basis = good_basis(lat, SearchBox(8, 8, 40))
    omega = omega_from_bw(lat, BWParams((Fraction(1, 2),), Fraction(3, 2)))
    oracle = MassOracle.from_charge(lat, omega)
    targets = list(basis.vectors) + list(companion_classes(lat, basis).values())
    return [
        {"r": c.v.r, "D": list(c.v.D), "s": c.v.s, "mass_sq": str(oracle.query(c).a)}
        for c in targets
    ]
