"""The four benchmark workloads: seeded inputs, the timed job, its checks.

A workload turns a seed into a list of job specs, runs one spec as one
job (the only part that is timed), and checks a job's output against the
independent arithmetic in `reference`.  Inputs are built by the
benchmark alone: slopes that carry a spherical class come from the
integer search in `reference`, never from k3lax.

Every list of specs is a sequence of whole cycles.  A cycle holds one
job of each kind (lattice, box, mode, twist or subcommand), so any run
of whole cycles sees the same mix whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref
from k3lax import (
    BWParams,
    MassOracle,
    MukaiVector,
    SearchBox,
    SphericalNormBasis,
    build_lax_point,
    companion_classes,
    good_basis,
    omega_from_bw,
    reconstruct,
    residual,
    spherical_wall_hits,
    support_constant,
    tensor_line_bundle,
    wall_scan_alpha,
)
from k3lax import cli as cli_module
from k3lax.cli import load_lattice

LATTICES = ("rho1_d1", "rho1_d2", "rho2_d1")
WORK_DIR = Path("perfbench") / "_work"


class CheckFailed(Exception):
    """A job's output disagrees with the reference arithmetic."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Lattice:
    """A shipped lattice: the k3lax object plus plain data for the checks."""

    def __init__(self, name, lat):
        self.name = name
        self.path = f"lattices/{name}.json"
        self.lat = lat
        self.gram = lat.gram
        self.H = lat.ample_class
        self.d = lat.degree
        self.rank = lat.rank


def load_lattices(root):
    return {
        name: Lattice(name, load_lattice(str(Path(root) / "lattices" / f"{name}.json")))
        for name in LATTICES
    }


def coords(v):
    v = getattr(v, "v", v)
    return (v.r, tuple(v.D), v.s)


def frac(x):
    return str(Fraction(x))


def quad_rational(x, label):
    """The rational value of a QuadNumber that must have no sqrt(d) part."""
    expect(x.b == 0, f"{label} is irrational: {x}")
    return x.a


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def random_fraction(rng, lo, hi, dens):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def wall_charge(rng, lattice, box):
    """(B, alpha) vanishing on a spherical class of positive rank: with
    v = (r, D, s), B = D/r and alpha = 1/r give Re Z(v) = -1/r + r d alpha^2,
    which is zero when d = 1."""
    candidates = [
        v for v in ref.spherical_classes(lattice.gram, box) if 1 <= v[0] <= 3
    ]
    r, D, _ = rng.choice(candidates)
    return tuple(Fraction(c, r) for c in D), Fraction(1, r)


def slope_with_class(rng, lattice, box, max_rank=4):
    """A slope mu = H.D / r of some positive-rank spherical class in the box."""
    classes = [
        v for v in ref.spherical_classes(lattice.gram, box) if 1 <= v[0] <= max_rank
    ]
    r, D, _ = rng.choice(classes)
    return Fraction(ref.dot(lattice.gram, lattice.H, D), r)


class Workload:
    """One closed-loop workload: a single client runs one job at a time."""

    name = ""
    # names of the output checks; a run is correct only if each one ran
    checks = ()

    def prepare(self, root, scale):
        """Everything a job needs before the first one runs (timed as setup_s)."""
        return {"lattices": load_lattices(root), "scale": scale}

    def specs(self, ctx, rng, cycles):
        raise NotImplementedError

    def run(self, ctx, spec):
        raise NotImplementedError

    def check(self, ctx, spec, out):
        """Return (canonical output, names of the checks that ran)."""
        raise NotImplementedError

    def run_checks(self, ctx):
        """Checks made once per run, outside the job loop."""
        return []

    def units(self, ctx, spec):
        """Work units of one job, for the per-unit rates."""
        return {}


# ---------------------------------------------------------------- charge-eval


class ChargeEval(Workload):
    """Exact central charges class by class: spherical_wall_hits and
    support_constant build Fraction and QuadNumber objects per class."""

    name = "charge-eval"
    checks = ("wall_hits_closed_form", "support_witness_ratio", "support_sampled_classes")
    boxes = {
        "full": {"rho1": [(16, 16, 100), (20, 20, 150)], "rho2": [(3, 3, 12), (4, 4, 20)]},
        "tiny": {"rho1": [(4, 4, 20), (6, 6, 30)], "rho2": [(1, 1, 4), (2, 2, 6)]},
    }
    # (lattice, box index, mode, charge): float mode on a third of the jobs;
    # "wall" charges vanish on a class (d = 1 only), so the hit set is not empty
    cycle = [
        ("rho1_d1", 0, "exact", "wall"),
        ("rho1_d2", 0, "exact", "generic"),
        ("rho2_d1", 0, "float", "wall"),
        ("rho1_d1", 1, "float", "generic"),
        ("rho1_d2", 1, "exact", "generic"),
        ("rho2_d1", 1, "exact", "generic"),
    ]

    def prepare(self, root, scale):
        ctx = super().prepare(root, scale)
        ctx["norm_basis"] = {
            name: SphericalNormBasis.build(
                lattice.lat, MukaiVector(1, (0,) * lattice.rank, 1)
            )
            for name, lattice in ctx["lattices"].items()
        }
        return ctx

    def box(self, ctx, lattice_name, index):
        family = "rho2" if lattice_name.startswith("rho2") else "rho1"
        return self.boxes[ctx["scale"]][family][index]

    def specs(self, ctx, rng, cycles):
        out = []
        for _ in range(cycles):
            for lattice_name, index, mode, charge in self.cycle:
                lattice = ctx["lattices"][lattice_name]
                box = self.box(ctx, lattice_name, index)
                if charge == "wall":
                    B, alpha = wall_charge(rng, lattice, box)
                else:
                    B = tuple(random_fraction(rng, -6, 6, (1, 2, 3, 4)) for _ in range(lattice.rank))
                    alpha = random_fraction(rng, 1, 8, (1, 2, 3, 4))
                out.append({"lattice": lattice_name, "box": box, "B": B, "alpha": alpha, "mode": mode})
        return out

    def run(self, ctx, spec):
        lat = ctx["lattices"][spec["lattice"]].lat
        box = SearchBox(*spec["box"])
        omega = omega_from_bw(lat, BWParams(spec["B"], spec["alpha"]))
        hits = spherical_wall_hits(lat, omega, box, mode=spec["mode"])
        bound = support_constant(lat, ctx["norm_basis"][spec["lattice"]], omega, box)
        return hits, bound

    def check(self, ctx, spec, out):
        hits, bound = out
        lattice = ctx["lattices"][spec["lattice"]]
        g, H, B, alpha = lattice.gram, lattice.H, spec["B"], spec["alpha"]
        classes = ref.spherical_classes(g, spec["box"])
        values = {v: ref.charge(g, H, B, alpha, v) for v in classes}
        expected = [v for v in classes if values[v] == (0, 0)]
        got = [coords(c) for c in hits]
        expect(got == expected, f"wall hits {got[:3]}... differ from {expected[:3]}...")

        nb = ctx["norm_basis"][spec["lattice"]]
        heads = [coords(nb.v1)] + [coords(w) for w in nb.complement]

        def ratio(v):
            n = sum(abs(ref.pairing(g, h, v)) for h in heads)
            re, im = values[v]
            return Fraction(n * n) / (re * re + im * im)

        witness = coords(bound.witness)
        expect(witness in values and values[witness] != (0, 0), "support witness is not a charged class")
        best = ratio(witness)
        expect(quad_rational(bound.ratio_sq, "support ratio") == best, "support ratio differs from its witness")
        charged = [v for v in classes if values[v] != (0, 0)]
        sample = random.Random(canonical([spec["lattice"], frac(alpha)])).sample(
            charged, min(48, len(charged))
        )
        expect(all(ratio(v) <= best for v in sample), "a sampled class exceeds the support bound")
        text = canonical({"hits": got, "support": [frac(best), witness]})
        return text, ["wall_hits_closed_form", "support_witness_ratio", "support_sampled_classes"]

    def units(self, ctx, spec):
        g = ctx["lattices"][spec["lattice"]].gram
        return {"classes": 2 * len(ref.spherical_classes(g, spec["box"]))}


# ---------------------------------------------------------------- wall-scan


class WallScan(Workload):
    """The same module the other way round: an integer loop over (r, D, s)
    candidates that builds vectors and calls no eval_Z."""

    name = "wall-scan"
    checks = (
        "lax_minimal_class", "witness_alignment_equation", "roots_above_alpha_min",
        "aligned_classes", "acceptance_08_frozen_counts",
    )
    boxes = {
        "full": {"rho1": (8, 8, 40), "rho2": (4, 4, 20)},
        "tiny": {"rho1": (3, 3, 10), "rho2": (2, 2, 6)},
    }
    # twist slot 0 is the twist l = 0, aligned with delta0 at every alpha
    cycle = [(name, slot) for slot in range(3) for name in LATTICES]

    def box(self, ctx, lattice_name):
        return self.boxes[ctx["scale"]]["rho2" if lattice_name.startswith("rho2") else "rho1"]

    def specs(self, ctx, rng, cycles):
        out = []
        for _ in range(cycles):
            for lattice_name, slot in self.cycle:
                lattice = ctx["lattices"][lattice_name]
                box = self.box(ctx, lattice_name)
                mu = slope_with_class(rng, lattice, box)
                ell = 0 if slot == 0 else slot * rng.choice((-1, 1))
                out.append({"lattice": lattice_name, "box": box, "mu": mu, "ell": ell})
        return out

    def run(self, ctx, spec):
        lat = ctx["lattices"][spec["lattice"]].lat
        box = SearchBox(*spec["box"])
        lp = build_lax_point(lat, spec["mu"], box)
        delta = tensor_line_bundle(lat, spec["ell"], lp.delta0)
        return lp, wall_scan_alpha(lat, lp.b0, delta, lp.alpha0, box)

    def check(self, ctx, spec, out):
        lp, scan = out
        lattice = ctx["lattices"][spec["lattice"]]
        text, names = check_wall_scan(lattice, spec["box"], spec["mu"], spec["ell"], lp, scan)
        return text, names

    def run_checks(self, ctx):
        """Acceptance check 08: rho1_d1, slope 0, box (6, 6, 40)."""
        lattice = ctx["lattices"]["rho1_d1"]
        box = (6, 6, 40)
        lp = build_lax_point(lattice.lat, Fraction(0), SearchBox(*box))
        frozen = {0: (0, 0, 526), 1: (258, 2049, 0)}
        for ell, (hits, witnesses, aligned) in frozen.items():
            delta = tensor_line_bundle(lattice.lat, ell, lp.delta0)
            scan = wall_scan_alpha(lattice.lat, lp.b0, delta, lp.alpha0, SearchBox(*box))
            check_wall_scan(lattice, box, Fraction(0), ell, lp, scan)
            got = (len(scan.hits), sum(len(h.witnesses) for h in scan.hits), len(scan.aligned))
            expect(got == (hits, witnesses, aligned), f"acceptance wall scan at l={ell}: {got}")
        return ["acceptance_08_frozen_counts"]

    def units(self, ctx, spec):
        R, D, S = spec["box"]
        rank = ctx["lattices"][spec["lattice"]].rank
        return {"candidates": (2 * R + 1) * (2 * D + 1) ** rank * (2 * S + 1)}


def check_wall_scan(lattice, box, mu, ell, lp, scan):
    g, H, d = lattice.gram, lattice.H, lattice.d
    delta0 = ref.minimal_class_of_slope(g, H, mu, box)
    expect(coords(lp.delta0) == delta0, f"delta0 {coords(lp.delta0)} is not the minimal class {delta0}")
    r0 = delta0[0]
    B = tuple(Fraction(c, r0) for c in delta0[1])
    expect(tuple(lp.b0) == B, "B-field is not D0/r0")
    delta = ref.twist(g, H, ell, delta0)
    eq = ref.Alignment(g, H, B, delta)
    previous = Fraction(1, r0 * r0 * d)  # alpha0^2
    roots = []
    for hit in scan.hits:
        expect(hit.alpha_sq > previous, f"root {hit.alpha_sq} not above {previous}")
        previous = hit.alpha_sq
        if hit.alpha is not None:
            expect(hit.alpha * hit.alpha == hit.alpha_sq and hit.alpha.sign() > 0, "alpha^2 != alpha_sq")
        label = frac(hit.alpha_sq)
        for w in hit.witnesses:
            w = coords(w)
            expect(ref.in_box(w, box) and w != delta, f"witness {w} outside the candidate set")
            expect(eq.holds(hit.alpha_sq, w), f"witness {w} misses the alignment equation at {label}")
            roots.append([label, w])
    aligned = [coords(w) for w in scan.aligned]
    expect(all(eq.aligned(w) for w in aligned), "a class reported aligned is not")
    text = canonical({"delta0": delta0, "roots": roots, "aligned": aligned})
    return text, ["lax_minimal_class", "witness_alignment_equation", "roots_above_alpha_min", "aligned_classes"]


# ---------------------------------------------------------------- reconstruct


class Reconstruct(Workload):
    """Charges from squared masses, exact and float side by side, with
    linalg and in_P_plus doing the work and no box search.

    A job holds one seeded hidden charge on each of the three lattices:
    single charges take 10-25 ms, short enough that a few-ms stall of the
    host decided which jobs made the tail."""

    name = "reconstruct"
    checks = ("exact_vs_hidden_values", "exact_residual_zero", "conjugate_same_charge", "float_within_tolerance")
    FLOAT_TOL = 1e-6

    def prepare(self, root, scale):
        ctx = super().prepare(root, scale)
        ctx["basis"] = {}
        ctx["companions"] = {}
        for name, lattice in ctx["lattices"].items():
            basis = good_basis(lattice.lat, SearchBox(8, 8, 40))
            ctx["basis"][name] = basis
            ctx["companions"][name] = companion_classes(lattice.lat, basis)
        return ctx

    def specs(self, ctx, rng, cycles):
        return [{"charges": [self.charge(ctx, rng, name) for name in LATTICES]} for _ in range(cycles)]

    def charge(self, ctx, rng, lattice_name):
        lattice = ctx["lattices"][lattice_name]
        head = coords(ctx["basis"][lattice_name].vectors[0])
        while True:
            B = tuple(random_fraction(rng, -5, 5, (1, 2, 3)) for _ in range(lattice.rank))
            alpha = random_fraction(rng, 1, 6, (1, 2, 3))
            if ref.charge(lattice.gram, lattice.H, B, alpha, head) != (0, 0):
                break
        return {"lattice": lattice_name, "B": B, "alpha": alpha, "table": self.float_table(ctx, lattice_name, B, alpha)}

    def float_table(self, ctx, lattice_name, B, alpha):
        """Squared masses of the basis and companions as IEEE doubles."""
        lattice = ctx["lattices"][lattice_name]
        classes = list(ctx["basis"][lattice_name].vectors) + list(ctx["companions"][lattice_name].values())
        table = {}
        for cls in classes:
            re, im = ref.charge(lattice.gram, lattice.H, B, alpha, coords(cls))
            table[cls.v] = float(re * re + im * im)
        return table

    def run(self, ctx, spec):
        out = []
        for c in spec["charges"]:
            lat = ctx["lattices"][c["lattice"]].lat
            basis = ctx["basis"][c["lattice"]]
            hidden = omega_from_bw(lat, BWParams(c["B"], c["alpha"]))
            oracle = MassOracle.from_charge(lat, hidden)
            exact = reconstruct(lat, basis, oracle)
            left = residual(lat, basis, oracle, exact)
            approx = reconstruct(lat, basis, MassOracle.from_table(c["table"]), mode="float")
            conj = reconstruct(lat, basis, MassOracle.from_charge(lat, hidden.conjugate()))
            out.append((exact, left, approx, conj))
        return out

    def check(self, ctx, spec, out):
        return canonical([self.check_charge(ctx, c, o) for c, o in zip(spec["charges"], out)]), list(self.checks)

    def check_charge(self, ctx, spec, out):
        exact, left, approx, conj = out
        lattice = ctx["lattices"][spec["lattice"]]
        g, H, B, alpha = lattice.gram, lattice.H, spec["B"], spec["alpha"]
        vectors = [coords(c) for c in ctx["basis"][spec["lattice"]].vectors]
        gauge = ref.charge(g, H, B, alpha, vectors[0])
        expected = [ref.complex_div(ref.charge(g, H, B, alpha, v), gauge) for v in vectors]
        got = [
            (quad_rational(a, "coefficient"), quad_rational(b, "coefficient"))
            for a, b in exact.coefficients
        ]
        expect(got == expected, "exact coefficients differ from the gauge-normalised hidden values")
        expect(exact.residual == 0 and left == 0, "exact residual is not zero")
        expect(conj.coefficients == exact.coefficients, "conjugate charge reconstructs differently")
        for (a, b), (ea, eb) in zip(approx.coefficients, expected):
            for x, e in ((a, ea), (b, eb)):
                expect(abs(x - float(e)) <= self.FLOAT_TOL * max(1.0, abs(float(e))), f"float {x} vs exact {e}")
        expect(approx.residual <= 1e-9, f"float residual {approx.residual}")
        return {
            "coefficients": [[frac(a), frac(b)] for a, b in got],
            "branch": [exact.branch, approx.branch, conj.branch],
        }

    def units(self, ctx, spec):
        n = len(spec["charges"])
        return {"reconstruct_exact": 2 * n, "reconstruct_float": n}


# ---------------------------------------------------------------- cli

CLI_ENTRY = "import sys; from k3lax.cli import main; sys.exit(main())"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    # the timed commands run from a warm bytecode cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(root, argv):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *argv],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


class Cli(Workload):
    """What a user at a shell waits for: interpreter start, imports,
    argument parsing, load_lattice, the command and report rendering."""

    name = "cli"
    checks = (
        "exit_code", "stdout_parses", "error_body", "pairing_formula", "enumeration_reference",
        "basis_pairings", "family_mass_formula", "certificate_trial_division",
        "wall_hits_closed_form", "witness_alignment_equation", "exact_vs_hidden_values",
        "known_defect_probe",
    )
    # the kinds of one cycle; the last four exit with a documented error code
    kinds = [
        "pair", "enum_csv", "enum_jobs2", "basis", "lax", "separate", "chamber",
        "walls", "reconstruct_table", "err_missing_lattice", "err_no_class",
        "err_twist_range", "err_degenerate_masses",
    ]
    small = {"full": (3, 3, 10), "tiny": (2, 2, 6)}
    walls_box = {"full": (4, 4, 20), "tiny": (2, 2, 6)}

    def prepare(self, root, scale):
        ctx = super().prepare(root, scale)
        ctx["root"] = str(root)
        ctx["basis"] = {
            name: good_basis(lattice.lat, SearchBox(8, 8, 40))
            for name, lattice in ctx["lattices"].items()
        }
        (Path(root) / WORK_DIR).mkdir(parents=True, exist_ok=True)
        return ctx

    def specs(self, ctx, rng, cycles):
        return [self.spec(ctx, rng, kind) for _ in range(cycles) for kind in self.kinds]

    def spec(self, ctx, rng, kind):
        # each kind keeps its lattice, so every cycle costs about the same
        lattice = ctx["lattices"][LATTICES[self.kinds.index(kind) % len(LATTICES)]]
        L = lattice.path
        small = ",".join(map(str, self.small[ctx["scale"]]))
        if kind == "pair":
            u, v = (
                (rng.randint(-4, 4), tuple(rng.randint(-4, 4) for _ in range(lattice.rank)), rng.randint(-4, 4))
                for _ in range(2)
            )
            argv = ["pair", "--lattice", L, f"--u={vec_arg(u)}", f"--v={vec_arg(v)}"]
            return {"kind": kind, "lattice": lattice.name, "argv": argv, "exit": 0, "u": u, "v": v}
        if kind == "enum_csv":
            return {"kind": kind, "lattice": lattice.name, "exit": 0, "box": self.small[ctx["scale"]],
                    "argv": ["enum", "--lattice", L, "--box", small, "--out", "csv"]}
        if kind == "enum_jobs2":
            box = self.walls_box[ctx["scale"]]
            return {"kind": kind, "lattice": lattice.name, "exit": 0, "box": box,
                    "argv": ["enum", "--lattice", L, "--box", ",".join(map(str, box)), "--jobs", "2"]}
        if kind == "basis":
            return {"kind": kind, "lattice": lattice.name, "exit": 0, "argv": ["basis", "--lattice", L]}
        if kind in ("lax", "separate", "walls"):
            box = (8, 8, 40) if kind != "walls" else self.walls_box[ctx["scale"]]
            mu = slope_with_class(rng, lattice, box, max_rank=3)
            argv = [kind, "--lattice", L, f"--mu={frac(mu)}"]
            spec = {"kind": kind, "lattice": lattice.name, "exit": 0, "mu": mu, "box": box}
            if kind == "lax":
                lo = rng.randint(-4, 1)
                spec.update(l_min=lo, l_max=lo + rng.randint(1, 4), csv=rng.random() < 0.5)
                argv += [f"--l-min={spec['l_min']}", f"--l-max={spec['l_max']}"]
                if spec["csv"]:
                    argv += ["--out", "csv"]
            if kind == "walls":
                argv += ["--box", ",".join(map(str, box))]
            spec["argv"] = argv
            return spec
        if kind == "chamber":
            box = self.small[ctx["scale"]]
            if rng.random() < 0.5 and lattice.d == 1:
                B, alpha = wall_charge(rng, lattice, box)
            else:
                B = tuple(random_fraction(rng, -4, 4, (1, 2, 3)) for _ in range(lattice.rank))
                alpha = random_fraction(rng, 1, 6, (1, 2, 3))
            argv = ["chamber", "--lattice", L, "--B=" + ",".join(map(frac, B)), f"--alpha={frac(alpha)}", "--box", small]
            return {"kind": kind, "lattice": lattice.name, "exit": 0, "B": B, "alpha": alpha, "box": box, "argv": argv}
        if kind == "reconstruct_table":
            head = coords(ctx["basis"][lattice.name].vectors[0])
            while True:
                B = tuple(random_fraction(rng, -5, 5, (1, 2, 3)) for _ in range(lattice.rank))
                alpha = random_fraction(rng, 1, 6, (1, 2, 3))
                if ref.charge(lattice.gram, lattice.H, B, alpha, head) != (0, 0):
                    break
            path = self.write_table(ctx, lattice, lambda v: ref.charge(lattice.gram, lattice.H, B, alpha, v))
            return {"kind": kind, "lattice": lattice.name, "exit": 0, "B": B, "alpha": alpha, "table": str(path),
                    "argv": ["reconstruct", "--lattice", L, "--mass-table", str(path)]}
        if kind == "err_missing_lattice":
            return {"kind": kind, "exit": 2, "error": "ConfigError",
                    "argv": ["pair", "--lattice", "lattices/absent.json", "--u", "1,0,1", "--v", "1,0,1"]}
        if kind == "err_no_class":
            # slope 1/7 needs rank 14 or more on every shipped lattice
            box = (4, 4, 20)
            expect(ref.minimal_class_of_slope(lattice.gram, lattice.H, Fraction(1, 7), box) is None, "slope 1/7 has a class")
            return {"kind": kind, "exit": 3, "error": "NoSphericalClass",
                    "argv": ["lax", "--lattice", L, "--mu", "1/7", "--box", "4,4,20"]}
        if kind == "err_twist_range":
            return {"kind": kind, "exit": 2, "error": "ConfigError",
                    "argv": ["lax", "--lattice", L, "--mu", "0", "--l-min", "3", "--l-max", "1"]}
        if kind == "err_degenerate_masses":
            path = self.write_table(ctx, lattice, lambda v: (0, 0))
            return {"kind": kind, "exit": 3, "error": "DegenerateCharge", "table": str(path),
                    "argv": ["reconstruct", "--lattice", L, "--mass-table", str(path)]}
        raise ValueError(kind)

    def write_table(self, ctx, lattice, charge):
        """Write the squared masses of the basis and companions; the file is
        named by its content, so runs in one checkout never overwrite a
        table another run is reading."""
        basis = ctx["basis"][lattice.name]
        classes = list(basis.vectors) + list(companion_classes(lattice.lat, basis).values())
        masses = []
        for cls in classes:
            r, D, s = coords(cls)
            re, im = charge((r, D, s))
            masses.append({"r": r, "D": list(D), "s": s, "mass_sq": frac(re * re + im * im)})
        text = json.dumps({"masses": masses})
        path = WORK_DIR / f"masses-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
        (Path(ctx["root"]) / path).write_text(text)
        return path

    def run(self, ctx, spec):
        return run_cli(ctx["root"], spec["argv"])

    def run_in_process(self, ctx, spec):
        """The same command through cli.main, for the traced run."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_module.main(spec["argv"])
        return code, buf.getvalue()

    def check(self, ctx, spec, out):
        code, stdout = out
        expect(code == spec["exit"], f"{spec['argv'][0]} exited {code}, documented {spec['exit']}")
        names = ["exit_code"]
        kind = spec["kind"]
        if kind == "enum_csv" or (kind == "lax" and spec["csv"]):
            body = [line.split(",") for line in stdout.splitlines()]
        else:
            body = json.loads(stdout)
        names.append("stdout_parses")
        if spec["exit"] != 0:
            expect(body["error"]["type"] == spec["error"], f"error type {body['error']['type']}")
            return f"{code}\n{stdout}", names + ["error_body"]
        lattice = ctx["lattices"][spec["lattice"]]
        g, H, d = lattice.gram, lattice.H, lattice.d
        if kind == "pair":
            res = body["results"]
            expect(res["pairing"] == ref.pairing(g, spec["u"], spec["v"]), "pairing differs from the formula")
            expect(res["u_spherical"] == (ref.pairing(g, spec["u"], spec["u"]) == -2), "u_spherical")
            expect(res["v_spherical"] == (ref.pairing(g, spec["v"], spec["v"]) == -2), "v_spherical")
            names.append("pairing_formula")
        elif kind == "enum_csv":
            want = [[str(c) for c in (r, *D, s)] for r, D, s in ref.spherical_classes(g, spec["box"])]
            expect(body[1:] == want, "csv rows differ from the reference enumeration")
            names.append("enumeration_reference")
        elif kind == "enum_jobs2":
            got = [(c["r"], tuple(c["D"]), c["s"]) for c in body["results"]["classes"]]
            expect(got == ref.spherical_classes(g, spec["box"]), "classes differ from the reference enumeration")
            names.append("enumeration_reference")
        elif kind == "basis":
            res = body["results"]
            vecs = [(c["r"], tuple(c["D"]), c["s"]) for c in res["vectors"]]
            expect(all(ref.pairing(g, v, v) == -2 for v in vecs), "basis vector not spherical")
            expect(res["pair_matrix"] == [[ref.pairing(g, u, v) for v in vecs] for u in vecs], "pair matrix")
            for comp in res["companions"]:
                w = comp["w"]
                expect(ref.pairing(g, (w["r"], tuple(w["D"]), w["s"]), (w["r"], tuple(w["D"]), w["s"])) == -2, "companion not spherical")
            names.append("basis_pairings")
        elif kind in ("lax", "separate"):
            delta0 = ref.minimal_class_of_slope(g, H, spec["mu"], spec["box"])
            r0 = delta0[0]

            def mass(ell):
                return d * ell * ell * (r0 * r0 * d * ell * ell + 4)

            if kind == "lax":
                if spec["csv"]:
                    got = {int(l): Fraction(m) for l, m in body[1:]}
                else:
                    res = body["results"]
                    expect((res["delta0"]["r"], tuple(res["delta0"]["D"]), res["delta0"]["s"]) == delta0, "delta0")
                    got = {f["l"]: Fraction(f["mass_sq"]) for f in res["family"]}
                want = {ell: mass(ell) for ell in range(spec["l_min"], spec["l_max"] + 1)}
                expect(got == want, "family masses differ from d l^2 (r0^2 d l^2 + 4)")
                names.append("family_mass_formula")
            else:
                res = body["results"]
                cert = res["certificate"]
                a, p, l0, l1 = cert["a"], cert["p"], cert["l0"], cert["l1"]
                expect(a == r0 * r0 * d, "certificate coefficient is not r0^2 d")
                expect(ref.is_prime_trial(p) and p % 4 == 1 and p > max(a, 4), f"certificate modulus {p}")
                f0, f1 = a * l0 * l0 + 4, a * l1 * l1 + 4
                expect(f0 % p != 0 and f1 % p == 0 and f1 % (p * p) != 0, "certificate divisibility")
                expect(res["mass_sq_l0"] == mass(l0) and res["mass_sq_l1"] == mass(l1), "certificate masses")
                names += ["certificate_trial_division", "family_mass_formula"]
        elif kind == "chamber":
            res = body["results"]
            want = [v for v in ref.spherical_classes(g, spec["box"])
                    if ref.charge(g, H, spec["B"], spec["alpha"], v) == (0, 0)]
            got = [(c["r"], tuple(c["D"]), c["s"]) for c in res["wall_hits"]]
            expect(got == want and res["in_p_plus"] is True, "chamber wall hits differ from the closed form")
            names.append("wall_hits_closed_form")
        elif kind == "walls":
            res = body["results"]
            delta0 = ref.minimal_class_of_slope(g, H, spec["mu"], spec["box"])
            eq = ref.Alignment(g, H, tuple(Fraction(c, delta0[0]) for c in delta0[1]), delta0)
            floor = Fraction(1, delta0[0] ** 2 * d)
            for hit in res["hits"]:
                a2 = Fraction(hit["alpha_sq"])
                expect(a2 > floor, "root below alpha_min")
                for w in hit["witnesses"]:
                    expect(eq.holds(a2, (w["r"], tuple(w["D"]), w["s"])), "alignment equation")
            names.append("witness_alignment_equation")
        elif kind == "reconstruct_table":
            res = body["results"]
            vectors = [coords(c) for c in ctx["basis"][spec["lattice"]].vectors]
            gauge = ref.charge(g, H, spec["B"], spec["alpha"], vectors[0])
            for coef, v in zip(res["coefficients"], vectors):
                ea, eb = ref.complex_div(ref.charge(g, H, spec["B"], spec["alpha"], v), gauge)
                expect(coef["a"]["b"] == "0" and Fraction(coef["a"]["a"]) == ea, "coefficient a")
                expect(coef["b"]["b"] == "0" and Fraction(coef["b"]["a"]) == eb, "coefficient b")
            names.append("exact_vs_hidden_values")
        return f"{code}\n{stdout}", names

    def run_checks(self, ctx):
        """Inputs that the README documents as exit 2 and on which the program
        exits otherwise today (ROADMAP item 4), run once per run.

        They stay out of the timed loop because they fail; the provenance
        line records which still do."""
        bad = WORK_DIR / "masses-bad.json"
        (Path(ctx["root"]) / bad).write_text(json.dumps({"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": "abc"}]}))
        L = "lattices/rho1_d1.json"
        cases = [
            ["enum", "--lattice", L, "--box=-1,2,3"],
            ["chamber", "--lattice", L, "--B", "0", "--alpha", "0"],
            ["reconstruct", "--lattice", L, "--mass-table", str(bad)],
        ]
        wrong = []
        for argv in cases:
            code, _ = run_cli(ctx["root"], argv)
            if code != 2:
                wrong.append({"argv": argv, "exit": code, "documented": 2})
        ctx["known_defects"] = {"attempted": len(cases), "wrong_exit": wrong}
        return ["known_defect_probe"]


def vec_arg(v):
    r, D, s = v
    return ",".join(str(c) for c in (r, *D, s))


WORKLOADS = {w.name: w for w in (ChargeEval(), WallScan(), Reconstruct(), Cli())}
