"""Value semantics of the package's record types.

Each type equals only an instance of its own class with equal fields,
hashes as the tuple of its fields, prints as `Name(field=value, ...)`,
refuses assignment and deletion, and is built positionally or by
keyword, with defaults where a field has one.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from k3lax import (
    BWParams,
    GoodBasis,
    IrrationalityCertificate,
    LaxPoint,
    MassOracle,
    MukaiVector,
    NSLattice,
    OmegaVector,
    QuadNumber,
    ReconstructedCharge,
    SearchBox,
    SeparationReport,
    SphericalClass,
    SphericalNormBasis,
    SupportBound,
    WallHit,
    WallScan,
)
from k3lax.cli import Report, RunConfig
from k3lax.errors import DomainError

LAT = NSLattice([[2]], [1], name="rho1-d1")
MV = MukaiVector(1, (0,), 1)
SC = SphericalClass(MV)
OMEGA = OmegaVector(1j, (2j,), 3 + 0j)
CERT = IrrationalityCertificate(2, 5, 1, 2, 0, 1)
HIT = WallHit(Fraction(1, 4), None, (MV,))
MV_REPR = "MukaiVector(r=1, D=(0,), s=1)"
SC_REPR = f"SphericalClass(v={MV_REPR})"
CERT_REPR = "IrrationalityCertificate(a=2, p=5, l0=1, l1=2, val_l0=0, val_l1=1)"
HIT_REPR = f"WallHit(alpha_sq=Fraction(1, 4), alpha=None, witnesses=({MV_REPR},))"
OMEGA_REPR = "OmegaVector(r=1j, D=(2j,), s=(3+0j))"


def _query(v):
    return 1


# (type, fields in order, expected repr)
CASES = [
    (
        BWParams,
        {"b_field": (Fraction(1, 2), Fraction(-3)), "alpha": Fraction(3, 2)},
        "BWParams(b_field=(Fraction(1, 2), Fraction(-3, 1)), alpha=Fraction(3, 2))",
    ),
    (OmegaVector, {"r": 1j, "D": (2j,), "s": 3 + 0j}, OMEGA_REPR),
    (WallHit, {"alpha_sq": Fraction(1, 4), "alpha": None, "witnesses": (MV,)}, HIT_REPR),
    (WallScan, {"hits": (HIT,), "aligned": (MV,)}, f"WallScan(hits=({HIT_REPR},), aligned=({MV_REPR},))"),
    (
        SupportBound,
        {"ratio_sq": QuadNumber(2), "witness": SC},
        f"SupportBound(ratio_sq=QuadNumber(2, 0, d=1), witness={SC_REPR})",
    ),
    (MukaiVector, {"r": 1, "D": (0,), "s": 1}, MV_REPR),
    (SphericalClass, {"v": MV}, SC_REPR),
    (
        SphericalNormBasis,
        {"v1": SC, "complement": (MV,)},
        f"SphericalNormBasis(v1={SC_REPR}, complement=({MV_REPR},))",
    ),
    (SearchBox, {"r_max": 1, "d_bound": 2, "s_bound": 3}, "SearchBox(r_max=1, d_bound=2, s_bound=3)"),
    (
        GoodBasis,
        {"vectors": (SC,), "pair_matrix": ((-2,),)},
        f"GoodBasis(vectors=({SC_REPR},), pair_matrix=((-2,),))",
    ),
    (
        LaxPoint,
        {
            "lattice": LAT,
            "delta0": SC,
            "b0": (Fraction(0),),
            "alpha0": QuadNumber(0, 1, 1),
            "d": 1,
            "mu": Fraction(0),
        },
        f"LaxPoint(lattice=NSLattice(rho1-d1), delta0={SC_REPR}, b0=(Fraction(0, 1),), "
        "alpha0=QuadNumber(1, 0, d=1), d=1, mu=Fraction(0, 1))",
    ),
    (
        IrrationalityCertificate,
        {"a": 2, "p": 5, "l0": 1, "l1": 2, "val_l0": 0, "val_l1": 1},
        CERT_REPR,
    ),
    (
        SeparationReport,
        {
            "mu": Fraction(0),
            "r0": 1,
            "d": 1,
            "a": 2,
            "certificate": CERT,
            "mass_sq_l0": 6,
            "mass_sq_l1": 24,
            "ratio_valuation": 1,
            "chi_l0": 2,
            "chi_l1": 4,
            "hom_ratio_note": "note",
            "conclusion": "done",
        },
        f"SeparationReport(mu=Fraction(0, 1), r0=1, d=1, a=2, certificate={CERT_REPR}, "
        "mass_sq_l0=6, mass_sq_l1=24, ratio_valuation=1, chi_l0=2, chi_l1=4, "
        "hom_ratio_note='note', conclusion='done')",
    ),
    (MassOracle, {"query": _query}, f"MassOracle(query={_query!r})"),
    (
        ReconstructedCharge,
        {"coefficients": ((1, 0),), "omega": OMEGA, "residual": 0, "branch": "conjugate"},
        f"ReconstructedCharge(coefficients=((1, 0),), omega={OMEGA_REPR}, residual=0, "
        "branch='conjugate')",
    ),
    (
        RunConfig,
        {
            "command": "walls",
            "lattice_path": "x.json",
            "box": (1, 2, 3),
            "mode": "float",
            "seed": 7,
            "output": "csv",
            "tolerance": 0.5,
            "jobs": 2,
            "mu": Fraction(1, 2),
            "u": (1, 0, 1),
            "v": (2, 1, 1),
            "b_field": (Fraction(1),),
            "alpha": Fraction(2),
            "delta": (1, 0, 1),
            "alpha_min": Fraction(1, 3),
            "l_min": -1,
            "l_max": 1,
            "mass_table": "m.json",
            "search_limit": 10,
        },
        "RunConfig(command='walls', lattice_path='x.json', box=(1, 2, 3), mode='float', "
        "seed=7, output='csv', tolerance=0.5, jobs=2, mu=Fraction(1, 2), u=(1, 0, 1), "
        "v=(2, 1, 1), b_field=(Fraction(1, 1),), alpha=Fraction(2, 1), delta=(1, 0, 1), "
        "alpha_min=Fraction(1, 3), l_min=-1, l_max=1, mass_table='m.json', search_limit=10)",
    ),
    (
        Report,
        {"command": "pair", "inputs": {"u": [1]}, "results": {}, "provenance": {}},
        "Report(command='pair', inputs={'u': [1]}, results={}, provenance={})",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _build(cls, fields):
    return cls(*fields.values())


def _field_tuple(x, fields):
    return tuple(getattr(x, name) for name in fields)


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_equality_only_within_the_class(cls, fields, text):
    x, y = _build(cls, fields), _build(cls, fields)
    assert x == y and not x != y
    assert x == x
    as_tuple = _field_tuple(x, fields)
    assert x != as_tuple and as_tuple != x
    assert x != tuple(fields.values())
    subclass = type("Sub", (cls,), {})
    assert x != _build(subclass, fields)


def test_equality_compares_fields():
    assert MukaiVector(1, (0,), 1) != (1, (0,), 1)
    assert MukaiVector(1, (0,), 1) != MukaiVector(1, (0,), 2)
    assert MukaiVector(1, (0,), 1) != MukaiVector(1, (1,), 1)
    assert SphericalClass(MV) != MV
    assert SearchBox(1, 2, 3) != SearchBox(1, 2, 4)
    assert len({MukaiVector(1, (0,), 1), MukaiVector(1, [0], 1), SC, SearchBox(1, 0, 1)}) == 3


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(cls, fields, text):
    x = _build(cls, fields)
    as_tuple = _field_tuple(x, fields)
    try:
        expected = hash(as_tuple)
    except TypeError:
        # a dict field makes both unhashable
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == expected


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(_build(cls, fields)) == text
    assert str(_build(cls, fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, text):
    x = _build(cls, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert repr(x) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_keyword_construction(cls, fields, text):
    assert cls(**fields) == _build(cls, fields)
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_shallow_copy(cls, fields, text):
    x = _build(cls, fields)
    y = copy.copy(x)
    assert type(y) is cls and y == x and repr(y) == text


@pytest.mark.parametrize(
    "x",
    [MV, SC, SearchBox(1, 2, 3), BWParams((1,), 2), CERT, HIT],
    ids=["MukaiVector", "SphericalClass", "SearchBox", "BWParams", "IrrationalityCertificate", "WallHit"],
)
def test_pickle_round_trip(x):
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_defaults():
    cfg = RunConfig("pair")
    assert cfg == RunConfig(command="pair")
    assert repr(cfg) == (
        "RunConfig(command='pair', lattice_path=None, box=(8, 8, 40), mode='exact', "
        "seed=0, output='json', tolerance=1e-09, jobs=1, mu=None, u=None, v=None, "
        "b_field=None, alpha=None, delta=None, alpha_min=None, l_min=-5, l_max=5, "
        "mass_table=None, search_limit=1000000)"
    )
    assert RunConfig("enum", seed=3).seed == 3
    charge = ReconstructedCharge(((1, 0),), OMEGA, 0)
    assert charge.branch == "principal"
    assert charge == ReconstructedCharge(coefficients=((1, 0),), omega=OMEGA, residual=0)


def test_construction_errors():
    with pytest.raises(TypeError):
        RunConfig()
    with pytest.raises(TypeError):
        RunConfig("pair", not_an_option=1)
    with pytest.raises(TypeError):
        RunConfig("pair", command="enum")
    with pytest.raises(TypeError):
        SearchBox(1, 2, 3, 4)
    with pytest.raises(TypeError):
        MukaiVector(1, (0,))


def test_normalisations():
    v = MukaiVector(1, [0, 2], 1)
    assert type(v.D) is tuple and v.D == (0, 2)
    assert v == MukaiVector(1, (0, 2), 1) and hash(v) == hash(MukaiVector(1, (0, 2), 1))
    params = BWParams([1, Fraction(1, 2), 0.25], 1)
    assert type(params.b_field) is tuple
    assert all(type(c) is Fraction for c in params.b_field)
    assert params.b_field == (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    assert params == BWParams(b_field=(1, Fraction(1, 2), Fraction(1, 4)), alpha=1)
    for bad in [(-1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, "1")]:
        with pytest.raises(DomainError):
            SearchBox(*bad)


def test_vector_arithmetic():
    u, w = MukaiVector(3, (1, -2), 5), MukaiVector(1, (4, 0), -1)
    assert u - w == MukaiVector(2, (-3, -2), 6)
    assert u - w == u + (-w)
    assert w - w == MukaiVector(0, (0, 0), 0) and (w - w).is_zero
