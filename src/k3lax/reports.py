"""Deterministic serialization of package values for reports.

Exact scalars render as fraction strings inside small objects, floats as
decimal strings with 18 significant digits, and JSON output is always
key-sorted, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .mukai_lattice import MukaiVector, SphericalClass, as_vector
from .exact_scalars import QuadComplex, QuadNumber


def fraction_str(x: Fraction | int) -> str:
    return str(Fraction(x))


def float_str(x: float) -> str:
    return format(float(x), ".17e")


def quad_json(x: QuadNumber) -> dict:
    return {"a": fraction_str(x.a), "b": fraction_str(x.b), "d": x.d}


def scalar_json(x):
    """Render any numeric value the package hands around."""
    if isinstance(x, QuadComplex):
        return {"re": quad_json(x.re), "im": quad_json(x.im)}
    if isinstance(x, QuadNumber):
        return quad_json(x)
    if isinstance(x, (Fraction, int)):
        return fraction_str(x)
    if isinstance(x, float):
        return float_str(x)
    if isinstance(x, complex):
        return {"re": float_str(x.real), "im": float_str(x.imag)}
    raise TypeError(f"no serialization for {type(x).__name__}")


def mukai_json(v: MukaiVector | SphericalClass) -> dict:
    v = as_vector(v)
    return {"r": v.r, "D": list(v.D), "s": v.s}


def omega_json(omega) -> dict:
    return {
        "r": scalar_json(omega.r),
        "D": [scalar_json(c) for c in omega.D],
        "s": scalar_json(omega.s),
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"
