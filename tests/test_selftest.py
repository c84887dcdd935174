"""The invariant suite behind `k3lax selftest`: every check fails under a
fault aimed at it, the suite still checks under `python -O`, and it runs
on the shipped lattices."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from k3lax import (
    MukaiVector,
    SupportBound,
    WallHit,
    WallScan,
    closed_form_Z,
    enumerate_spherical,
    eval_Z,
    irrationality_certificate,
    mukai_pairing,
    support_constant,
    tensor_line_bundle,
    wall_scan_alpha,
    z_alpha0,
)
from k3lax import selftest
from k3lax.cli import load_lattice
from k3lax.errors import K3LaxError

ROOT = Path(__file__).resolve().parents[1]


def _alpha_sq_off_by_one(*args):
    scan = wall_scan_alpha(*args)
    hits = tuple(WallHit(h.alpha_sq + 1, h.alpha, h.witnesses) for h in scan.hits)
    return WallScan(hits, ())


def _asymmetric_pairing(lat, u, v):
    return mukai_pairing(lat, u, v) + u.r


def _shrunk_support_bound(*args):
    return SupportBound(support_constant(*args).ratio_sq / args[3].r_max, None)


def _null_companions(lat, basis):
    return {(0, 1): MukaiVector(0, (0,) * lat.rank, 0)}


# (check name, name rebound in k3lax.selftest, the fault bound to it)
FAULTS = [
    ("scalar field laws", "try_sqrt", lambda x: None),
    ("pairing symmetric and bilinear", "mukai_pairing", _asymmetric_pairing),
    ("reflections are involutive isometries", "reflect", lambda lat, d, v: 2 * v),
    (
        "twists form an isometric action",
        "tensor_line_bundle",
        lambda lat, k, v: tensor_line_bundle(lat, k + 1, v),
    ),
    (
        "enumeration matches brute force",
        "enumerate_spherical",
        lambda lat, box: enumerate_spherical(lat, box)[1:],
    ),
    ("good bases validate", "companion_classes", _null_companions),
    (
        "charge forms agree and orient",
        "closed_form_Z",
        lambda *args: closed_form_Z(*args) + 1,
    ),
    (
        "boundary values are discrete",
        "z_alpha0",
        lambda lp, v: z_alpha0(lp, v) + 1,
    ),
    (
        "certificates verify",
        "irrationality_certificate",
        lambda a: irrationality_certificate(a + 1),
    ),
    ("mass reconstruction round-trips", "eval_Z", lambda *args: eval_Z(*args) + 1),
    (
        "wall roots solve the alignment equation",
        "wall_scan_alpha",
        _alpha_sq_off_by_one,
    ),
    (
        "wall roots solve the alignment equation",
        "wall_scan_alpha",
        lambda *args: WallScan((), ()),
    ),
    ("support bound grows with the box", "support_constant", _shrunk_support_bound),
]


def test_every_check_has_a_fault():
    faulted = dict.fromkeys(name for name, _, _ in FAULTS)
    assert [name for name, _ in selftest.CHECKS] == list(faulted)


@pytest.mark.parametrize(
    "name, target, fault", FAULTS, ids=[f"{n}: {t}" for n, t, _ in FAULTS]
)
def test_check_fails_under_aimed_fault(monkeypatch, name, target, fault):
    check = dict(selftest.CHECKS)[name]
    lattices = selftest.default_lattices()
    check(random.Random(0), lattices)
    monkeypatch.setattr(selftest, target, fault)
    with pytest.raises(K3LaxError):
        check(random.Random(0), lattices)


_RUN = """
import sys
from k3lax import cli, selftest

assert sys.flags.optimize  # stripped under -O; without -O the run exits 1
if sys.argv[1] == "asymmetric":
    pairing = selftest.mukai_pairing
    selftest.mukai_pairing = lambda lat, u, v: pairing(lat, u, v) + u.r
sys.exit(cli.main(["selftest"]))
"""


@pytest.mark.parametrize("fault, code", [("none", 0), ("asymmetric", 4)])
def test_selftest_checks_under_optimize(fault, code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RUN, fault],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    checks = json.loads(proc.stdout)["results"]["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    assert ("pairing symmetric and bilinear" in failed) == (fault == "asymmetric")


def test_default_lattices_are_the_shipped_ones():
    def fields(lat):
        return lat.gram, lat.ample_class, lat.name

    paths = sorted((ROOT / "lattices").glob("*.json"))
    shipped = [fields(load_lattice(str(path))) for path in paths]
    assert [fields(lat) for lat in selftest.default_lattices()] == shipped
