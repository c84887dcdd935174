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
import functools
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
        if key in table:
            raise ConfigError(f"mass table lists the class {key} twice")
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
    explicit = (cfg.b_field, cfg.delta, cfg.alpha_min) != (None, None, None)
    if cfg.mu is not None and explicit:
        raise ConfigError("walls takes either --mu or --B, --delta, --alpha-min, not both")
    if cfg.mu is not None:
        lp = build_lax_point(lat, cfg.mu, SearchBox(*cfg.box))
        return lp.b0, lp.delta0, lp.alpha0, {"mu": fraction_str(cfg.mu)}
    if cfg.b_field is None or cfg.delta is None or cfg.alpha_min is None:
        raise ConfigError("walls needs either --mu or all of --B, --delta, --alpha-min")
    b = _b_field(cfg, lat)
    delta = _vector(cfg.delta, lat, "--delta")
    if delta.is_zero:
        raise ConfigError("--delta must be a nonzero reference class")
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
    if cfg.mass_table is not None and (cfg.b_field, cfg.alpha) != (None, None):
        raise ConfigError("reconstruct takes either --mass-table or --B and --alpha, not both")
    basis = good_basis(lat, SearchBox(*cfg.box))
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


# A range check: a predicate on the parsed value, and the rest of its
# error message after the flag, formatted with the value.
_AT_LEAST_ONE = (lambda n: n >= 1, "must be at least 1")
_POSITIVE = (lambda x: x > 0, "must be positive, got {}")
_FINITE_POSITIVE = (lambda x: 0 < x < math.inf, "must be finite and positive, got {!r}")
_BOX_BOUNDS = (
    lambda box: len(box) == 3 and all(_is_int(b) and b >= 0 for b in box),
    "needs three nonnegative integers R,D,S, got {!r}",
)

# Each flag: the RunConfig field it sets, how its text parses (a function,
# or the tuple of its choices), its range check or None, and its help.
_FLAGS = {
    "--lattice": ("lattice_path", str, None, "path to a lattice JSON file"),
    "--box": ("box", _parse_box, _BOX_BOUNDS, "search bounds R,D,S"),
    "--mode": ("mode", ("exact", "float"), None, "exact arithmetic, or floats within --tol"),
    "--tol": ("tolerance", float, _FINITE_POSITIVE, "float-mode tolerance"),
    "--out": ("output", ("json", "csv"), None, "report format; csv writes the result table"),
    "--jobs": ("jobs", int, _AT_LEAST_ONE, "accepted for compatibility; runs use one thread"),
    "--seed": ("seed", int, None, "seed of the suite's random samples"),
    "--u": ("u", _parse_ints, None, "vector r,D...,s"),
    "--v": ("v", _parse_ints, None, "vector r,D...,s"),
    "--mu": ("mu", _parse_fraction, None, "slope mu as p/q"),
    "--B": ("b_field", _parse_fractions, None, "B-field entries p/q,..."),
    "--alpha": ("alpha", _parse_fraction, _POSITIVE, "scale alpha as p/q"),
    "--delta": ("delta", _parse_ints, None, "reference spherical vector r,D...,s"),
    "--alpha-min": ("alpha_min", _parse_fraction, _POSITIVE, "report roots above this"),
    "--mass-table": ("mass_table", str, None, "JSON file of squared masses"),
    "--l-min": ("l_min", int, None, "first twist l"),
    "--l-max": ("l_max", int, None, "last twist l"),
    "--search-limit": ("search_limit", int, _AT_LEAST_ONE, "steps of the prime search"),
}

# Each command: its handler, its help, and the flags it reads in --help
# order, a trailing "*" marking one the parser requires.  The parser offers
# a command only these flags, and `_execute` rejects a RunConfig that sets
# any other field away from its default.  --lattice carries no mark: the
# file is read after parsing, and `_execute` reports a missing one.
_COMMANDS = {
    "pair": (_cmd_pair, "Mukai pairing of two vectors", "--lattice --jobs --u* --v*"),
    "enum": (_cmd_enum, "spherical classes in a box", "--lattice --box --out --jobs --mu"),
    "basis": (_cmd_basis, "good spherical basis and companions", "--lattice --box --jobs"),
    "chamber": (
        _cmd_chamber,
        "positivity and wall hits of a charge",
        "--lattice --box --mode --tol --jobs --B* --alpha*",
    ),
    "walls": (
        _cmd_walls,
        "alignment parameters above a base scale",
        "--lattice --box --jobs --mu --B --delta --alpha-min",
    ),
    "reconstruct": (
        _cmd_reconstruct,
        "charge from squared masses",
        "--lattice --box --mode --tol --jobs --B --alpha --mass-table",
    ),
    "lax": (
        _cmd_lax,
        "boundary charge and its mass family",
        "--lattice --box --out --jobs --mu* --l-min --l-max",
    ),
    "separate": (
        _cmd_separate,
        "irrationality separation report",
        "--lattice --box --jobs --mu* --search-limit",
    ),
    # the suite fixes its own lattices, box, mode and tolerance
    "selftest": (_cmd_selftest, "run the built-in invariant suite", "--jobs --seed"),
}


def _execute(config: RunConfig):
    """Validate the configuration, run the command, return (Report, table).

    The table part is None unless the command produced a tabular slice
    for csv rendering.
    """
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    handler, _, flags = _COMMANDS[config.command]
    reads = {flag.rstrip("*"): flag.endswith("*") for flag in flags.split()}
    for flag, (field, parse, check, _) in _FLAGS.items():
        value = getattr(config, field)
        if parse is int and not _is_int(value):
            raise ConfigError(f"{flag} must be an integer, got {value!r}")
        if flag not in reads:
            if value != RunConfig._defaults[field]:
                raise ConfigError(f"{config.command} does not take {flag}")
        elif isinstance(parse, tuple):
            if value not in parse:
                raise ConfigError(f"{flag} must be {' or '.join(parse)}, got {value!r}")
        elif value is None:
            if reads[flag]:
                raise ConfigError(f"{config.command} needs {flag}")
        elif check is not None and not check[0](value):
            raise ConfigError(f"{flag} {check[1].format(value)}")
    lat = None
    if "--lattice" in reads:
        if config.lattice_path is None:
            raise ConfigError(f"{config.command} needs --lattice")
        lat = load_lattice(config.lattice_path)
    inputs, results, table = handler(lat, config)
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
    # only a command that returns a table takes --out
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
    no option has a default, so RunConfig holds every default.  None may be
    abbreviated, so walls --alpha is unrecognized, not --alpha-min."""
    parser = _Parser(
        prog="k3lax",
        allow_abbrev=False,
        description="Exact Mukai-lattice computations for stability charges "
        "on polarized K3 surfaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for marked in flags.split():
            flag = marked.rstrip("*")
            field, parse, _, text = _FLAGS[flag]
            if isinstance(parse, tuple):
                kwargs = {"choices": parse}
            else:
                # argparse names int, float and str in its own errors; the
                # package's parsers name the flag in theirs
                if parse not in (int, float, str):
                    parse = functools.partial(parse, label=flag)
                # --help shows the metavar argparse derives from the flag
                kwargs = {"type": parse, "metavar": flag[2:].replace("-", "_").upper()}
            p.add_argument(
                flag, action=_Value, dest=field, required=marked.endswith("*"), help=text, **kwargs
            )
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
