"""Span and count recording around the public functions of k3lax.

Nothing inside the program changes.  A function is wrapped by rebinding
the attribute in every module that holds it, so the by-name imports
(`central_charge.enumerate_spherical`, `mass_reconstruction.eval_Z`,
`lax_boundary.delta_mu_plus`, `lax_boundary.is_prime`,
`cli.load_lattice`, ...) and the benchmark's own imports see the wrapper
too.  Spans stay in memory until the run writes them out.

Two recorders exist because their costs differ: `SpanRecorder` times
calls, `CountRecorder` only counts, around functions too hot to time
(QuadNumber construction, mukai_pairing) and is run as its own pass so
its overhead stays out of the span timings.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed as spans, named "<module>.<function>"
SPAN_TARGETS = [
    ("exact_scalars", "try_sqrt"),
    ("mukai_lattice", "tensor_line_bundle"),
    ("mukai_lattice", "spherical_norm"),
    ("spherical_enum", "enumerate_spherical"),
    ("spherical_enum", "delta_mu_plus"),
    ("spherical_enum", "good_basis"),
    ("central_charge", "eval_Z"),
    ("central_charge", "spherical_wall_hits"),
    ("central_charge", "support_constant"),
    ("central_charge", "wall_scan_alpha"),
    ("central_charge", "in_P_plus"),
    ("central_charge", "omega_from_bw"),
    ("mass_reconstruction", "reconstruct"),
    ("mass_reconstruction", "residual"),
    ("linalg", "solve_linear"),
    ("lax_boundary", "build_lax_point"),
    ("lax_boundary", "family_masses"),
    ("lax_boundary", "irrationality_certificate"),
    ("numbertheory", "is_prime"),
    ("reports", "render_json"),
    ("reports", "render_csv"),
    ("cli", "load_lattice"),
    ("cli", "_execute"),
    ("cli", "render_report"),
]

# by-name imports that must be rebound for the spans to be complete
REQUIRED_ALIASES = [
    ("central_charge", "enumerate_spherical"),
    ("mass_reconstruction", "eval_Z"),
    ("lax_boundary", "delta_mu_plus"),
    ("lax_boundary", "is_prime"),
    ("cli", "load_lattice"),
]


def span_name(module, attr):
    return f"{module}.{attr.lstrip('_')}"


def _enum_units(args, kwargs, result):
    lat, box = args[0], args[1] if len(args) > 1 else kwargs["box"]
    return {"grid_points": (2 * box.r_max + 1) * (2 * box.d_bound + 1) ** lat.rank, "classes": len(result)}


def _scan_units(args, kwargs, result):
    lat, box = args[0], args[4] if len(args) > 4 else kwargs["box"]
    candidates = (2 * box.r_max + 1) * (2 * box.d_bound + 1) ** lat.rank * (2 * box.s_bound + 1)
    return {
        "candidates": candidates,
        "roots": sum(len(h.witnesses) for h in result.hits),
        "hits": len(result.hits),
        "aligned": len(result.aligned),
    }


def _json_units(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _reconstruct_tag(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("mode", "exact")


UNITS = {
    "spherical_enum.enumerate_spherical": _enum_units,
    "central_charge.wall_scan_alpha": _scan_units,
    "reports.render_json": _json_units,
}
TAGS = {"mass_reconstruction.reconstruct": _reconstruct_tag}


def _modules(extra):
    mods = [m for name, m in sys.modules.items() if name == "k3lax" or name.startswith("k3lax.")]
    return mods + list(extra)


class Rebinding:
    """Replace one function everywhere it is bound; undo on exit."""

    def __init__(self, extra_modules=()):
        self.extra = extra_modules
        self.undo = []
        self.bound = set()

    def replace(self, module, attr, make_wrapper):
        original = getattr(sys.modules[f"k3lax.{module}"], attr)
        wrapper = make_wrapper(original)
        for mod in _modules(self.extra):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self.undo.append((mod, attr, original))
                self.bound.add((mod.__name__.removeprefix("k3lax."), attr))
        return original

    def replace_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self.undo.append((cls, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


class SpanRecorder:
    """Spans (name, start_ns, end_ns, parent, job, raised, units) in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name):
        units = UNITS.get(name)
        tag = TAGS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                extra = {"tag": tag(args, kwargs)} if tag else {}
                raised = False
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    raised = True
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.job, raised, extra)
                if units:
                    extra.update(units(args, kwargs, result))
                return result

            return wrapper

        return make

    def install(self, rebinding):
        for module, attr in SPAN_TARGETS:
            rebinding.replace(module, attr, self.wrap(span_name(module, attr)))

    def stats(self):
        """Per span name: calls, total and self ns, raised, summed units."""
        child_ns = defaultdict(int)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "raised": 0, "units": Counter(), "by_tag": Counter()})
        for i, (name, start, end, parent, job, raised, extra) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
            s["raised"] += raised
            for key, value in extra.items():
                if key == "tag":
                    s["by_tag"][f"{value}.calls"] += 1
                    s["by_tag"][f"{value}.total_ns"] += end - start
                else:
                    s["units"][key] += value
            if parent >= 0 and name == "numbertheory.is_prime":
                parent_name = self.spans[parent][0]
                out[parent_name]["units"]["primes_tried"] += 1
        return out


class CountRecorder:
    """Counts only: QuadNumber construction, hot calls, oracle queries."""

    def __init__(self):
        self.counts = Counter()

    def install(self, rebinding):
        from k3lax.exact_scalars import QuadNumber
        from k3lax.mass_reconstruction import MassOracle

        counts = self.counts

        def counting_init(init):
            def __init__(self, *args, **kwargs):
                counts["exact_scalars.quad_built"] += 1
                init(self, *args, **kwargs)

            return __init__

        rebinding.replace_method(QuadNumber, "__init__", counting_init)

        def counted(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)

                return wrapper

            return make

        rebinding.replace("mukai_lattice", "mukai_pairing", counted("mukai_lattice.mukai_pairing.calls"))
        rebinding.replace("exact_scalars", "try_sqrt", counted("exact_scalars.try_sqrt.calls"))

        def eval_counter(fn):
            def wrapper(*args, **kwargs):
                counts["central_charge.eval_Z.calls"] += 1
                before = counts["exact_scalars.quad_built"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts["exact_scalars.quad_built_in_eval"] += counts["exact_scalars.quad_built"] - before

            return wrapper

        rebinding.replace("central_charge", "eval_Z", eval_counter)

        def oracle_factory(factory):
            def make(cls, *args, **kwargs):
                oracle = factory.__func__(cls, *args, **kwargs)
                query = oracle.query

                def counted_query(v):
                    counts["mass_reconstruction.oracle_queries"] += 1
                    return query(v)

                return cls(counted_query)

            return classmethod(make)

        rebinding.replace_method(MassOracle, "from_charge", oracle_factory)
        rebinding.replace_method(MassOracle, "from_table", oracle_factory)
