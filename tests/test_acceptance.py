"""Acceptance gate: ten numbered end-to-end checks, one test and one
printed pass/fail line each (run with -s or read the -v test lines).

Frozen numbers (wall-scan sizes, support ratios) were computed once with
an independent re-check of the defining equations and are asserted
exactly; a change in any of them is a behavior change, not noise.
Criteria 01, 02, 04, 06, 08 and 09 run the checks of `k3lax selftest`
at larger sizes and their own seeds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from k3lax import (
    MukaiVector,
    SearchBox,
    build_lax_point,
    irrationality_certificate,
    tensor_line_bundle,
    wall_scan_alpha,
    z_alpha0,
)
from k3lax import cli
from k3lax.cli import RunConfig
from k3lax.selftest import (
    check_enumeration_oracle,
    check_lax_discreteness,
    check_pairing_bilinear,
    check_reconstruction_roundtrip,
    check_reflection,
    check_support_monotone,
    check_tensor_action,
    check_wall_scan_equation,
)

BOX = SearchBox(8, 8, 40)
LATTICE_DIR = Path(__file__).resolve().parents[1] / "lattices"


@contextmanager
def _criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"acceptance {num:02d} PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_lattice_invariants(all_lattices):
    with _criterion(1, "core lattice invariants on 10^4 seeded vectors per lattice"):
        start = time.perf_counter()
        rng = random.Random(101)
        for check in (check_pairing_bilinear, check_reflection, check_tensor_action):
            check(rng, all_lattices, samples=10_000)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_enumeration_matches_brute_force(all_lattices):
    with _criterion(2, "box enumeration equals the naive triple loop"):
        boxes = [
            SearchBox(0, 0, 0),
            SearchBox(1, 0, 1),
            SearchBox(2, 1, 5),
            SearchBox(3, 3, 12),
            SearchBox(5, 2, 20),
            SearchBox(8, 8, 40),
        ]
        check_enumeration_oracle(random.Random(102), all_lattices, boxes=boxes)


def test_criterion_03_minimal_rank_boundary_data(rho1_d1):
    with _criterion(3, "minimal-rank class, rank and scale at slopes 0 and 1"):
        lp0 = build_lax_point(rho1_d1, Fraction(0), BOX)
        assert lp0.delta0.v == MukaiVector(1, (0,), 1)
        assert lp0.r0 == 1
        assert lp0.alpha0 == 1

        lp1 = build_lax_point(rho1_d1, Fraction(1), BOX)
        assert lp1.delta0.v == MukaiVector(2, (1,), 1)
        assert lp1.r0 == 2
        assert lp1.alpha0 == Fraction(1, 2)


def test_criterion_04_discrete_boundary_values(all_lattices):
    with _criterion(4, "boundary values stay in the discrete subgroup, 10^3 per lattice"):
        check_lax_discreteness(random.Random(104), all_lattices, samples=1_000, box=BOX)


def test_criterion_05_twisted_family_masses(all_lattices, rho1_d1):
    with _criterion(5, "family squared masses match the closed form on [-20, 20]"):
        for lat in all_lattices:
            lp = build_lax_point(lat, Fraction(0), BOX)
            d, r0 = lp.d, lp.r0
            for ell in range(-20, 21):
                twisted = tensor_line_bundle(lat, ell, lp.delta0)
                measured = z_alpha0(lp, twisted).norm_square()
                assert measured == d * ell * ell * (r0 * r0 * d * ell * ell + 4)
        lp = build_lax_point(rho1_d1, Fraction(0), BOX)
        one_twist = tensor_line_bundle(rho1_d1, 1, lp.delta0)
        assert z_alpha0(lp, one_twist).norm_square() == 5


def test_criterion_06_reconstruction_round_trip(all_lattices):
    with _criterion(6, "mass data round-trips to the oriented charge, 100 per lattice"):
        start = time.perf_counter()
        check_reconstruction_roundtrip(random.Random(106), all_lattices, samples=100)
        assert time.perf_counter() - start < 10.0


def _is_prime_by_division(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def test_criterion_07_irrationality_certificates():
    with _criterion(7, "certificates for a in [1, 50], independently re-verified"):
        for a in range(1, 51):
            start = time.perf_counter()
            cert = irrationality_certificate(a)
            assert time.perf_counter() - start < 1.0
            # verification below shares nothing with the package: trial
            # division and direct remainders only
            p = cert.p
            assert _is_prime_by_division(p)
            assert p % 4 == 1
            assert p > max(a, 4)
            f0 = a * cert.l0 * cert.l0 + 4
            f1 = a * cert.l1 * cert.l1 + 4
            assert f0 % p != 0
            assert f1 % p == 0
            assert f1 % (p * p) != 0
        cert = irrationality_certificate(1)
        f0 = cert.l0 * cert.l0 + 4
        f1 = cert.l1 * cert.l1 + 4
        count0 = 0
        while f0 % cert.p == 0:
            f0 //= cert.p
            count0 += 1
        count1 = 0
        while f1 % cert.p == 0:
            f1 //= cert.p
            count1 += 1
        assert (count1 - count0) % 2 == 1


def test_criterion_08_wall_scan_baselines(rho1_d1):
    with _criterion(8, "wall scans are finite, exact, and match frozen sizes"):
        box = SearchBox(6, 6, 40)
        lp = build_lax_point(rho1_d1, Fraction(0), box)
        scan0 = wall_scan_alpha(rho1_d1, lp.b0, lp.delta0, lp.alpha0, box)
        assert scan0.hits == ()
        assert len(scan0.aligned) == 526

        # against delta0 twisted once; every root solves the alignment equation
        [scan1] = check_wall_scan_equation(random.Random(108), [rho1_d1], box=box)
        assert len(scan1.hits) == 258
        assert scan1.aligned == ()
        assert sum(len(h.witnesses) for h in scan1.hits) == 2049
        assert scan1.hits[0].alpha_sq == Fraction(13, 12)


def test_criterion_09_support_bound_monotone(rho1_d1):
    with _criterion(9, "support bound is finite, nondecreasing, at frozen values"):
        ratios = check_support_monotone(random.Random(109), [rho1_d1])
        assert ratios == [[Fraction(36, 5), Fraction(36, 5), Fraction(36, 5)]]


def test_criterion_10_report_determinism():
    with _criterion(10, "every subcommand renders byte-identical at jobs 1 and 4"):
        lattice = str(LATTICE_DIR / "rho1_d1.json")
        rho2 = str(LATTICE_DIR / "rho2_d1.json")
        base = dict(lattice_path=lattice)
        configs = [
            dict(command="pair", u=(1, 0, 1), v=(2, 1, 1), **base),
            dict(command="enum", lattice_path=rho2, box=(3, 3, 12)),
            dict(command="enum", output="csv", box=(2, 2, 8), **base),
            dict(command="basis", **base),
            dict(
                command="chamber",
                b_field=(Fraction(0),),
                alpha=Fraction(1),
                box=(4, 4, 20),
                **base,
            ),
            dict(command="walls", mu=Fraction(0), box=(4, 4, 12), **base),
            dict(
                command="reconstruct",
                b_field=(Fraction(1, 2),),
                alpha=Fraction(3, 2),
                **base,
            ),
            dict(command="lax", mu=Fraction(0), **base),
            dict(command="lax", output="csv", mu=Fraction(0), **base),
            dict(command="separate", mu=Fraction(0), **base),
            dict(command="selftest"),
        ]
        for fields in configs:
            renders = []
            for jobs in (1, 4):
                config = RunConfig(jobs=jobs, **fields)
                report, table = cli._execute(config)
                renders.append(cli.render_report(report, config, table))
            assert renders[0] == renders[1], fields["command"]
