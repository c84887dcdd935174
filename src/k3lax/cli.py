"""Command-line front end.

Every run is described by a RunConfig and produces a Report whose JSON
rendering is byte-identical for identical configurations.  --jobs is
accepted and validated for compatibility, but every command runs in one
thread and the value never appears in the output.  Exit codes: 0
success, 2 configuration problems, 3 mathematical-input problems, 4
violated internal invariants (including selftest failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from ._value import Value
from . import __version__
from .central_charge import (
    BWParams,
    in_P_plus,
    omega_from_bw,
    spherical_wall_hits,
    wall_scan_alpha,
)
from .spherical_enum import (
    SearchBox,
    companion_classes,
    delta_mu_plus,
    enumerate_spherical,
    good_basis,
)
from .errors import ConfigError, InternalInvariantError, K3LaxError
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    is_spherical,
    mukai_pairing,
)
from .lax_boundary import (
    build_lax_point,
    family_masses,
    separate_from_hom_functionals,
)
from .mass_reconstruction import MassOracle, reconstruct
from .reports import (
    float_str,
    fraction_str,
    mukai_json,
    omega_json,
    quad_json,
    render_csv,
    render_json,
    scalar_json,
)

_CSV_COMMANDS = ("enum", "lax")


class RunConfig(Value):
    command: str
    lattice_path: str | None = None
    box: tuple[int, int, int] = (8, 8, 40)
    mode: str = "exact"
    seed: int = 0
    output: str = "json"
    tolerance: float = 1e-9
    jobs: int = 1
    mu: Fraction | None = None
    u: tuple[int, ...] | None = None
    v: tuple[int, ...] | None = None
    b_field: tuple[Fraction, ...] | None = None
    alpha: Fraction | None = None
    delta: tuple[int, ...] | None = None
    alpha_min: Fraction | None = None
    l_min: int = -5
    l_max: int = 5
    mass_table: str | None = None
    search_limit: int = 10**6


class Report(Value):
    command: str
    inputs: dict
    results: dict
    provenance: dict

    def payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "provenance": self.provenance,
        }


def _read_json(path: str, what: str):
    """Parse a JSON file; parse errors carry the position."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def load_lattice(path: str) -> NSLattice:
    """Read a lattice description file."""
    return NSLattice.from_dict(_read_json(path, "lattice file"))


def _parse_fraction(text: str, label: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{label} must be a fraction like 3/2, got {text!r}")


def _parse_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{label} must be comma-separated integers, got {text!r}")


def _parse_fractions(text: str, label: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part, f"{label} entry") for part in text.split(","))


def _parse_box(text: str, label: str) -> tuple[int, int, int]:
    parts = _parse_ints(text, label)
    if len(parts) != 3:
        raise ConfigError(f"{label} needs three bounds R,D,S, got {text!r}")
    return parts  # type: ignore[return-value]


def _is_int(x) -> bool:
    # bool is a subclass of int, so JSON true would otherwise pass as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _vector(coords: tuple[int, ...], lat: NSLattice, label: str) -> MukaiVector:
    if not all(_is_int(c) for c in coords):
        raise ConfigError(f"{label} coordinates must be integers, got {coords!r}")
    if len(coords) != lat.rank + 2:
        raise ConfigError(
            f"{label} needs {lat.rank + 2} coordinates r,D...,s for rank {lat.rank}"
        )
    return MukaiVector(coords[0], coords[1:-1], coords[-1])


def _b_field(cfg: RunConfig, lat: NSLattice) -> tuple[Fraction, ...]:
    if cfg.b_field is None:
        raise ConfigError("--B is required here")
    if len(cfg.b_field) != lat.rank:
        raise ConfigError(
            f"--B needs {lat.rank} entries for rank {lat.rank}, got {len(cfg.b_field)}"
        )
    return cfg.b_field


def _load_mass_table(path: str, mode: str) -> dict[MukaiVector, object]:
    data = _read_json(path, "mass table")
    if not isinstance(data, dict) or not isinstance(data.get("masses"), list):
        raise ConfigError("mass table must be an object with a 'masses' list")
    table: dict[MukaiVector, object] = {}
    for entry in data["masses"]:
        try:
            key = MukaiVector(entry["r"], tuple(entry["D"]), entry["s"])
            raw = entry["mass_sq"]
        except (KeyError, TypeError):
            raise ConfigError(f"malformed mass entry {entry!r}")
        if not all(_is_int(c) for c in key.coords()):
            raise ConfigError(f"mass entry coordinates must be integers: {entry!r}")
        table[key] = _mass_value(raw, mode)
    return table


def _mass_value(raw, mode: str):
    """One squared mass: an integer, a fraction string, or (float mode) a float."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ConfigError(
            f"mass_sq must be a number or a fraction string, got {raw!r}"
        )
    if mode == "exact" and isinstance(raw, float):
        raise ConfigError(
            "exact mode needs integer or fraction-string masses; "
            "rerun with --mode float for IEEE input"
        )
    if isinstance(raw, str):
        raw = _parse_fraction(raw, "mass_sq")
    if mode == "exact":
        return Fraction(raw)
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"mass_sq must be a finite number, got {raw!r}")
    return value


# ---------------------------------------------------------------- commands


def _cmd_pair(lat: NSLattice, cfg: RunConfig):
    if cfg.u is None or cfg.v is None:
        raise ConfigError("pair needs --u and --v")
    u = _vector(cfg.u, lat, "--u")
    v = _vector(cfg.v, lat, "--v")
    results = {
        "pairing": mukai_pairing(lat, u, v),
        "u_spherical": is_spherical(lat, u),
        "v_spherical": is_spherical(lat, v),
    }
    inputs = {"u": mukai_json(u), "v": mukai_json(v)}
    return inputs, results, None


def _cmd_enum(lat: NSLattice, cfg: RunConfig):
    box = SearchBox(*cfg.box)
    if cfg.mu is not None:
        classes, r0 = delta_mu_plus(lat, cfg.mu, box)
        results = {
            "classes": [mukai_json(c) for c in classes],
            "count": len(classes),
            "r0": r0,
        }
        inputs = {"mu": fraction_str(cfg.mu)}
    else:
        classes = enumerate_spherical(lat, box)
        results = {
            "classes": [mukai_json(c) for c in classes],
            "count": len(classes),
        }
        inputs = {"mu": None}
    header = ["r"] + [f"D{i}" for i in range(lat.rank)] + ["s"]
    rows = [[str(c) for c in cls.v.coords()] for cls in classes]
    return inputs, results, (header, rows)


def _cmd_basis(lat: NSLattice, cfg: RunConfig):
    box = SearchBox(*cfg.box)
    basis = good_basis(lat, box)
    companions = companion_classes(lat, basis)
    results = {
        "vectors": [mukai_json(c) for c in basis.vectors],
        "pair_matrix": [list(row) for row in basis.pair_matrix],
        "companions": [
            {"i": i, "j": j, "w": mukai_json(w)}
            for (i, j), w in sorted(companions.items())
        ],
    }
    return {}, results, None


def _cmd_chamber(lat: NSLattice, cfg: RunConfig):
    if cfg.b_field is None or cfg.alpha is None:
        raise ConfigError("chamber needs --B and --alpha")
    b = _b_field(cfg, lat)
    omega = omega_from_bw(lat, BWParams(b, cfg.alpha))
    box = SearchBox(*cfg.box)
    hits = spherical_wall_hits(lat, omega, box, mode=cfg.mode, tol=cfg.tolerance)
    results = {
        "in_p_plus": in_P_plus(lat, omega),
        "wall_hits": [mukai_json(c) for c in hits],
        "wall_hit_count": len(hits),
        "omega": omega_json(omega),
    }
    inputs = {
        "B": [fraction_str(c) for c in b],
        "alpha": fraction_str(cfg.alpha),
    }
    return inputs, results, None


def _walls_parameters(lat: NSLattice, cfg: RunConfig):
    if cfg.mu is not None:
        lp = build_lax_point(lat, cfg.mu, SearchBox(*cfg.box))
        return lp.b0, lp.delta0, lp.alpha0, {"mu": fraction_str(cfg.mu)}
    if cfg.b_field is None or cfg.delta is None or cfg.alpha_min is None:
        raise ConfigError("walls needs either --mu or all of --B, --delta, --alpha-min")
    b = _b_field(cfg, lat)
    delta = _vector(cfg.delta, lat, "--delta")
    inputs = {
        "B": [fraction_str(c) for c in b],
        "delta": mukai_json(delta),
        "alpha_min": fraction_str(cfg.alpha_min),
    }
    return b, delta, cfg.alpha_min, inputs


def _cmd_walls(lat: NSLattice, cfg: RunConfig):
    b, delta, alpha_min, inputs = _walls_parameters(lat, cfg)
    scan = wall_scan_alpha(lat, b, delta, alpha_min, SearchBox(*cfg.box))
    results = {
        "base": {
            "B": [fraction_str(c) for c in b],
            "delta": mukai_json(delta),
            "alpha_min": scalar_json(alpha_min),
        },
        "hits": [
            {
                "alpha_sq": fraction_str(h.alpha_sq),
                "alpha": None if h.alpha is None else quad_json(h.alpha),
                "witnesses": [mukai_json(w) for w in h.witnesses],
            }
            for h in scan.hits
        ],
        "hit_count": len(scan.hits),
        "aligned": [mukai_json(w) for w in scan.aligned],
    }
    return inputs, results, None


def _cmd_reconstruct(lat: NSLattice, cfg: RunConfig):
    box = SearchBox(*cfg.box)
    basis = good_basis(lat, box)
    if cfg.mass_table is not None:
        oracle = MassOracle.from_table(_load_mass_table(cfg.mass_table, cfg.mode))
        inputs = {"mass_table": cfg.mass_table}
    elif cfg.b_field is not None and cfg.alpha is not None:
        b = _b_field(cfg, lat)
        omega = omega_from_bw(lat, BWParams(b, cfg.alpha))
        oracle = MassOracle.from_charge(lat, omega)
        inputs = {
            "B": [fraction_str(c) for c in b],
            "alpha": fraction_str(cfg.alpha),
        }
    else:
        raise ConfigError("reconstruct needs --mass-table or both --B and --alpha")
    tol = cfg.tolerance if cfg.mode == "float" else None
    charge = reconstruct(lat, basis, oracle, mode=cfg.mode, tol=tol)
    results = {
        "coefficients": [
            {"a": scalar_json(a), "b": scalar_json(b)} for a, b in charge.coefficients
        ],
        "omega": omega_json(charge.omega),
        "residual": scalar_json(charge.residual),
        "branch": charge.branch,
    }
    return inputs, results, None


def _cmd_lax(lat: NSLattice, cfg: RunConfig):
    if cfg.mu is None:
        raise ConfigError("lax needs --mu")
    if cfg.l_min > cfg.l_max:
        raise ConfigError("--l-min must not exceed --l-max")
    lp = build_lax_point(lat, cfg.mu, SearchBox(*cfg.box))
    family = family_masses(lp, cfg.l_min, cfg.l_max)
    results = {
        "delta0": mukai_json(lp.delta0),
        "b0": [fraction_str(c) for c in lp.b0],
        "alpha0": quad_json(lp.alpha0),
        "r0": lp.r0,
        "d": lp.d,
        "family": [
            {"l": ell, "mass_sq": fraction_str(m.a)} for ell, m in family
        ],
    }
    inputs = {
        "mu": fraction_str(cfg.mu),
        "l_min": cfg.l_min,
        "l_max": cfg.l_max,
    }
    header = ["l", "mass_sq"]
    rows = [[str(ell), fraction_str(m.a)] for ell, m in family]
    return inputs, results, (header, rows)


def _cmd_separate(lat: NSLattice, cfg: RunConfig):
    if cfg.mu is None:
        raise ConfigError("separate needs --mu")
    lp = build_lax_point(lat, cfg.mu, SearchBox(*cfg.box))
    report = separate_from_hom_functionals(lp, search_limit=cfg.search_limit)
    cert = report.certificate
    results = {
        "delta0": mukai_json(lp.delta0),
        "a": report.a,
        "certificate": {
            "a": cert.a,
            "p": cert.p,
            "l0": cert.l0,
            "l1": cert.l1,
            "val_l0": cert.val_l0,
            "val_l1": cert.val_l1,
        },
        "mass_sq_l0": report.mass_sq_l0,
        "mass_sq_l1": report.mass_sq_l1,
        "ratio_valuation": report.ratio_valuation,
        "chi_l0": report.chi_l0,
        "chi_l1": report.chi_l1,
        "hom_ratio_note": report.hom_ratio_note,
        "conclusion": report.conclusion,
    }
    inputs = {"mu": fraction_str(cfg.mu), "search_limit": cfg.search_limit}
    return inputs, results, None


def _cmd_selftest(lat: None, cfg: RunConfig):
    # imported here, so that no other command loads the suite or `random`
    from . import selftest

    return {}, selftest.run_checks(cfg.seed), None


# ---------------------------------------------------------------- driver


_HANDLERS = {
    "pair": _cmd_pair,
    "enum": _cmd_enum,
    "basis": _cmd_basis,
    "chamber": _cmd_chamber,
    "walls": _cmd_walls,
    "reconstruct": _cmd_reconstruct,
    "lax": _cmd_lax,
    "separate": _cmd_separate,
    "selftest": _cmd_selftest,
}


def _execute(config: RunConfig):
    """Validate the configuration, run the command, return (Report, table).

    The table part is None unless the command produced a tabular slice
    for csv rendering.
    """
    if config.command not in _HANDLERS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.mode not in ("exact", "float"):
        raise ConfigError(f"--mode must be exact or float, got {config.mode!r}")
    if config.output not in ("json", "csv"):
        raise ConfigError(f"--out must be json or csv, got {config.output!r}")
    if config.output == "csv" and config.command not in _CSV_COMMANDS:
        raise ConfigError(
            f"csv output covers tabular commands {_CSV_COMMANDS}; "
            f"{config.command} reports json only"
        )
    if config.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    if config.search_limit < 1:
        raise ConfigError("--search-limit must be at least 1")
    if not 0 < config.tolerance < math.inf:
        raise ConfigError(f"--tol must be finite and positive, got {config.tolerance!r}")
    if len(config.box) != 3 or not all(_is_int(b) and b >= 0 for b in config.box):
        raise ConfigError(
            f"--box needs three nonnegative integers R,D,S, got {config.box!r}"
        )
    for label, value in (("--alpha", config.alpha), ("--alpha-min", config.alpha_min)):
        if value is not None and value <= 0:
            raise ConfigError(f"{label} must be positive, got {value}")
    lat = None
    if config.command != "selftest":
        if config.lattice_path is None:
            raise ConfigError(f"{config.command} needs --lattice")
        lat = load_lattice(config.lattice_path)
    inputs, results, table = _HANDLERS[config.command](lat, config)
    inputs = dict(inputs)
    inputs["lattice"] = None if lat is None else config.lattice_path
    if config.mode == "float":
        inputs["tolerance"] = float_str(config.tolerance)
    report = Report(
        command=config.command,
        inputs=inputs,
        results=results,
        provenance={
            "box": list(config.box),
            "mode": config.mode,
            "seed": config.seed,
            "version": __version__,
        },
    )
    return report, table


def run(config: RunConfig) -> Report:
    """Execute one command and return its Report."""
    return _execute(config)[0]


def render_report(report: Report, config: RunConfig, table=None) -> str:
    if config.output == "json":
        return render_json(report.payload())
    if table is None:
        raise ConfigError(f"{config.command} produced no tabular slice for csv")
    header, rows = table
    return render_csv(header, rows)


class _Value(argparse.Action):
    """Stores an option's value.  argparse (Python 3.11 at least) parses a
    value of "--", as in --jobs=--, to an empty list instead of rejecting it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise ConfigError(f"{option_string} needs a value")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are configuration errors, so
    they exit 2 with the JSON error body like every other bad input."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """Each option stores its parsed value under its RunConfig field name;
    no option has a default, so RunConfig holds every default."""
    parser = _Parser(
        prog="k3lax",
        description="Exact Mukai-lattice computations for stability charges "
        "on polarized K3 surfaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, flag, parse=None, **kwargs):
        if parse is not None:
            kwargs["type"] = lambda text: parse(text, flag)
        if "dest" in kwargs and "choices" not in kwargs:
            # --help shows the metavar argparse derives from the flag
            kwargs["metavar"] = flag[2:].upper()
        p.add_argument(flag, action=_Value, **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    option(common, "--lattice", dest="lattice_path", help="path to a lattice JSON file")
    option(common, "--box", _parse_box, help="search bounds R,D,S")
    option(common, "--mode", choices=("exact", "float"))
    option(common, "--out", dest="output", choices=("json", "csv"))
    option(common, "--tol", dest="tolerance", type=float)
    option(common, "--jobs", type=int)

    p = sub.add_parser("pair", parents=[common], help="Mukai pairing of two vectors")
    option(p, "--u", _parse_ints, required=True, help="vector r,D...,s")
    option(p, "--v", _parse_ints, required=True, help="vector r,D...,s")

    p = sub.add_parser("enum", parents=[common], help="spherical classes in a box")
    option(p, "--mu", _parse_fraction, help="restrict to positive-rank classes of this slope")

    sub.add_parser("basis", parents=[common], help="good spherical basis and companions")

    p = sub.add_parser("chamber", parents=[common], help="positivity and wall hits of a charge")
    option(p, "--B", _parse_fractions, dest="b_field", required=True, help="B-field entries p/q,...")
    option(p, "--alpha", _parse_fraction, required=True, help="scale alpha as p/q")

    p = sub.add_parser("walls", parents=[common], help="alignment parameters above a base scale")
    option(p, "--mu", _parse_fraction, help="use the boundary data of this slope")
    option(p, "--B", _parse_fractions, dest="b_field", help="B-field entries p/q,...")
    option(p, "--delta", _parse_ints, help="reference spherical vector r,D...,s")
    option(p, "--alpha-min", _parse_fraction, help="report roots above this")

    p = sub.add_parser("reconstruct", parents=[common], help="charge from squared masses")
    option(p, "--B", _parse_fractions, dest="b_field", help="hidden charge B-field p/q,...")
    option(p, "--alpha", _parse_fraction, help="hidden charge alpha p/q")
    option(p, "--mass-table", help="JSON file of squared masses")

    p = sub.add_parser("lax", parents=[common], help="boundary charge and its mass family")
    option(p, "--mu", _parse_fraction, required=True, help="slope of the boundary class")
    option(p, "--l-min", type=int)
    option(p, "--l-max", type=int)

    p = sub.add_parser("separate", parents=[common], help="irrationality separation report")
    option(p, "--mu", _parse_fraction, required=True, help="slope of the boundary class")
    option(p, "--search-limit", type=int)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in invariant suite")
    option(p, "--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        config = RunConfig(**{k: v for k, v in args.items() if v is not None})
        report, table = _execute(config)
        sys.stdout.write(render_report(report, config, table))
    except K3LaxError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(render_json(payload))
        if isinstance(exc, ConfigError):
            return 2
        if isinstance(exc, InternalInvariantError):
            return 4
        return 3
    if config.command == "selftest" and report.results["failed"] > 0:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
