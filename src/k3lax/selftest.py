"""The invariant suite of `k3lax selftest`.  A check takes a seeded generator
and a list of lattices; the acceptance gate passes larger sizes as keywords.
A check raises through `expect`, never assert, so that the suite checks under
`python -O` too."""

import itertools
import random
from fractions import Fraction

from .central_charge import (
    BWParams,
    closed_form_Z,
    eval_Z,
    in_P_plus,
    omega_from_bw,
    support_constant,
    wall_scan_alpha,
)
from .errors import InternalInvariantError
from .exact_scalars import QuadComplex, QuadNumber, try_sqrt
from .lax_boundary import (
    build_lax_point,
    family_masses,
    irrationality_certificate,
    verify_certificate,
    z_alpha0,
)
from .mass_reconstruction import MassOracle, reconstruct
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    SphericalNormBasis,
    is_spherical,
    mukai_pairing,
    reflect,
    tensor_line_bundle,
)
from .spherical_enum import (
    SearchBox,
    companion_classes,
    enumerate_spherical,
    good_basis,
)


def expect(cond, message: str) -> None:
    if not cond:
        raise InternalInvariantError(message)


def default_lattices() -> list[NSLattice]:
    """The lattices of `lattices/*.json`."""
    return [
        NSLattice([[2]], [1], name="rho1-d1"),
        NSLattice([[4]], [1], name="rho1-d2"),
        NSLattice([[2, 0], [0, -4]], [1, 0], name="rho2-d1"),
    ]


def random_vector(rng: random.Random, rank: int, bound: int = 15) -> MukaiVector:
    return MukaiVector(
        rng.randint(-bound, bound),
        tuple(rng.randint(-bound, bound) for _ in range(rank)),
        rng.randint(-bound, bound),
    )


def brute_force_spherical(lat: NSLattice, box: SearchBox) -> set[MukaiVector]:
    """Reference enumeration by the naive triple loop, sharing nothing with
    `enumerate_spherical`."""
    out = set()
    span = range(-box.d_bound, box.d_bound + 1)
    for r in range(-box.r_max, box.r_max + 1):
        for D in itertools.product(span, repeat=lat.rank):
            for s in range(-box.s_bound, box.s_bound + 1):
                v = MukaiVector(r, D, s)
                if mukai_pairing(lat, v, v) == -2:
                    out.add(v)
    return out


def alignment_invariants(
    lat: NSLattice, B, v: MukaiVector
) -> tuple[Fraction, Fraction]:
    """(I_v, c_v) with Z(v) = c_v + r d alpha^2 + i alpha I_v at (B, alpha H),
    read off `closed_form_Z`."""
    z = closed_form_Z(lat, B, 1, v)
    return z.im.a, z.re.a - v.r * lat.degree


# ---------------------------------------------------------------- checks


def check_scalar_field_laws(rng, lattices):
    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(150):
        x, y, z = (QuadNumber(fraction(), fraction(), 2) for _ in range(3))
        expect((x + y) + z == x + (y + z), "addition is not associative")
        expect((x * y) * z == x * (y * z), "multiplication is not associative")
        expect(x * (y + z) == x * y + x * z, "multiplication is not distributive")
        expect(x.is_zero or x * (1 / x) == 1, "x * (1/x) is not 1")
        root = try_sqrt(x * x)
        expect(root is not None and root * root == x * x, "try_sqrt(x * x) is no root")


def check_pairing_bilinear(rng, lattices, *, samples=60):
    for lat in lattices:
        for _ in range(samples):
            u, v, w = (random_vector(rng, lat.rank) for _ in range(3))
            k = rng.randint(-6, 6)
            uv = mukai_pairing(lat, u, v)
            expect(uv == mukai_pairing(lat, v, u), "pairing is not symmetric")
            uw_vw = mukai_pairing(lat, u, w) + mukai_pairing(lat, v, w)
            expect(mukai_pairing(lat, u + v, w) == uw_vw, "pairing is not additive")
            expect(mukai_pairing(lat, k * u, v) == k * uv, "<k u, v> is not k <u, v>")


def check_reflection(rng, lattices, *, samples=40):
    """Each sample reflects in one of the axes O, O(1), O(-2) in turn and in a
    random spherical class of box (2, 2, 6)."""
    for lat in lattices:
        structure_sheaf = MukaiVector(1, (0,) * lat.rank, 1)
        axes = [tensor_line_bundle(lat, k, structure_sheaf) for k in (0, 1, -2)]
        deltas = enumerate_spherical(lat, SearchBox(2, 2, 6))
        for i in range(samples):
            u, v = random_vector(rng, lat.rank), random_vector(rng, lat.rank)
            uv = mukai_pairing(lat, u, v)
            for delta in (axes[i % 3], deltas[rng.randrange(len(deltas))]):
                once = reflect(lat, delta, v)
                expect(reflect(lat, delta, once) == v, "reflection is not involutive")
                reflected_uv = mukai_pairing(lat, reflect(lat, delta, u), once)
                expect(reflected_uv == uv, "reflection is not an isometry")


def check_tensor_action(rng, lattices, *, samples=40):
    for lat in lattices:
        for _ in range(samples):
            v, w = random_vector(rng, lat.rank), random_vector(rng, lat.rank)
            k1, k2 = rng.randint(-6, 6), rng.randint(-6, 6)
            twice = tensor_line_bundle(lat, k2, tensor_line_bundle(lat, k1, v))
            once = tensor_line_bundle(lat, k1 + k2, v)
            expect(twice == once, "twists do not compose")
            tv, tw = tensor_line_bundle(lat, k1, v), tensor_line_bundle(lat, k1, w)
            tvw = mukai_pairing(lat, tv, tw)
            expect(tvw == mukai_pairing(lat, v, w), "twist is not an isometry")


def check_enumeration_oracle(rng, lattices, *, boxes=(SearchBox(2, 2, 6),)):
    for lat in lattices:
        for box in boxes:
            found = {cls.v for cls in enumerate_spherical(lat, box)}
            expect(found == brute_force_spherical(lat, box), f"{box} differs on {lat}")


def check_good_basis(rng, lattices):
    for lat in lattices:
        basis = good_basis(lat, SearchBox(8, 8, 40))
        basis.validate(lat)
        for w in companion_classes(lat, basis).values():
            expect(is_spherical(lat, w), f"companion {w} is not spherical on {lat}")


def check_charge_forms_agree(rng, lattices):
    for lat in lattices:
        for _ in range(30):
            b = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(lat.rank)
            )
            alpha = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            omega = omega_from_bw(lat, BWParams(b, alpha))
            v = random_vector(rng, lat.rank)
            closed = closed_form_Z(lat, b, alpha, v)
            expect(eval_Z(lat, omega, v) == closed, "Z differs from its closed form")
            expect(in_P_plus(lat, omega), "charge is not in P+")
            expect(not in_P_plus(lat, omega.conjugate()), "conjugate charge is in P+")


def check_lax_discreteness(rng, lattices, *, samples=40, box=SearchBox(4, 4, 12)):
    """Z(delta0) = 0 at the lax point of slope 0.  `z_alpha0` raises unless
    r0^2 Re Z and r0^2 sqrt(d) Im Z are integers, so evaluating it on
    random classes checks discreteness."""
    for lat in lattices:
        lp = build_lax_point(lat, Fraction(0), box)
        expect(z_alpha0(lp, lp.delta0).is_zero, f"Z(delta0) is not 0 on {lat}")
        for _ in range(samples):
            z_alpha0(lp, random_vector(rng, lat.rank))
        family_masses(lp, -6, 6)


def check_certificates(rng, lattices):
    for a in range(1, 13):
        cert = irrationality_certificate(a)
        expect(cert.a == a, f"certificate for a = {a} is for {cert.a}")
        verify_certificate(cert)


def check_reconstruction_roundtrip(rng, lattices, *, samples=1):
    """Masses give back the charge, gauged by the first basis class, in exact
    and float mode, and so do the conjugate charge's masses.  A charge that
    is massless on the gauge class is drawn again."""
    for lat in lattices:
        basis = good_basis(lat, SearchBox(8, 8, 40))
        done = 0
        while done < samples:
            b = tuple(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(lat.rank)
            )
            alpha = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            hidden = omega_from_bw(lat, BWParams(b, alpha))
            gauge = eval_Z(lat, hidden, basis.vectors[0])
            if gauge.is_zero:
                continue
            done += 1
            oracle = MassOracle.from_charge(lat, hidden)
            rec = reconstruct(lat, basis, oracle)
            expect(rec.residual == 0, f"exact residual {rec.residual} on {lat}")
            for cls, (a_c, b_c) in zip(basis.vectors, rec.coefficients):
                target = eval_Z(lat, hidden, cls)
                ratio = target / gauge
                recovered = eval_Z(lat, rec.omega, cls)
                expect(QuadComplex(a_c, b_c) == ratio, f"coefficient {cls.v} is wrong")
                expect(recovered == ratio, f"Z({cls.v}) is not recovered")
                mass_sq = target.norm_square() / gauge.norm_square()
                expect(recovered.norm_square() == mass_sq, f"mass of {cls.v} is wrong")
            approx = reconstruct(lat, basis, oracle, mode="float")
            expect(approx.residual <= 1e-9, f"float residual {approx.residual}")
            conj_oracle = MassOracle.from_charge(lat, hidden.conjugate())
            conj = reconstruct(lat, basis, conj_oracle)
            resolved = conj == rec and in_P_plus(lat, conj.omega)
            expect(resolved, f"conjugate branch unresolved on {lat}")


def check_wall_scan_equation(rng, lattices, *, box=SearchBox(4, 4, 12)):
    """Wall roots against the boundary class twisted once; returns the scans."""
    scans = []
    for lat in lattices:
        lp = build_lax_point(lat, Fraction(0), box)
        delta = tensor_line_bundle(lat, 1, lp.delta0)
        scan = wall_scan_alpha(lat, lp.b0, delta, lp.alpha0, box)
        expect(any(hit.witnesses for hit in scan.hits), f"no wall root on {lat}")
        i_d, c_d = alignment_invariants(lat, lp.b0, delta)
        for hit in scan.hits:
            above = hit.alpha_sq > lp.alpha0 * lp.alpha0
            expect(above, f"wall {hit.alpha_sq} is below alpha0")
            for w in hit.witnesses:
                i_w, c_w = alignment_invariants(lat, lp.b0, w)
                lhs = hit.alpha_sq * lat.degree * (i_w * delta.r - i_d * w.r)
                lhs += i_w * c_d - i_d * c_w
                expect(lhs == 0, f"{w} does not solve the alignment equation")
        scans.append(scan)
    return scans


def check_support_monotone(rng, lattices):
    """Support bounds at the lax point of slope 0; returns each lattice's ratios."""
    ratios = []
    for lat in lattices:
        lp = build_lax_point(lat, Fraction(0), SearchBox(4, 4, 12))
        basis = SphericalNormBasis.build(lat, lp.delta0)
        omega = omega_from_bw(lat, BWParams(lp.b0, lp.alpha0))
        boxes = [SearchBox(k, k, 3 * k) for k in (2, 3, 4)]
        bounds = [support_constant(lat, basis, omega, box) for box in boxes]
        expect(all(b.value < float("inf") for b in bounds), f"infinite bound on {lat}")
        ratios.append([b.ratio_sq for b in bounds])
        expect(ratios[-1] == sorted(ratios[-1]), f"support ratio shrinks on {lat}")
    return ratios


CHECKS = (
    ("scalar field laws", check_scalar_field_laws),
    ("pairing symmetric and bilinear", check_pairing_bilinear),
    ("reflections are involutive isometries", check_reflection),
    ("twists form an isometric action", check_tensor_action),
    ("enumeration matches brute force", check_enumeration_oracle),
    ("good bases validate", check_good_basis),
    ("charge forms agree and orient", check_charge_forms_agree),
    ("boundary values are discrete", check_lax_discreteness),
    ("certificates verify", check_certificates),
    ("mass reconstruction round-trips", check_reconstruction_roundtrip),
    ("wall roots solve the alignment equation", check_wall_scan_equation),
    ("support bound grows with the box", check_support_monotone),
)


def run_checks(seed: int) -> dict:
    """Run every check in order on one generator seeded with `seed`.  A
    check that raises is reported as failed, with its error."""
    rng = random.Random(seed)
    lattices = default_lattices()
    checks = []
    for name, check in CHECKS:
        try:
            check(rng, lattices)
            checks.append({"name": name, "passed": True})
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            details = f"{type(exc).__name__}: {exc}"
            checks.append({"name": name, "passed": False, "details": details})
    failed = sum(not check["passed"] for check in checks)
    return {"checks": checks, "passed": len(checks) - failed, "failed": failed}
