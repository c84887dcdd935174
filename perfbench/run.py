"""Benchmark for k3lax: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload charge-eval --seed 1 --seconds 20 --trace 0

`--workload` is one of charge-eval, wall-scan, reconstruct, cli, or all.
With `--trace 0` each workload runs as a closed loop with one client,
one job at a time, in whole cycles until its jobs have taken `--seconds`
seconds of time rescaled to a reference host speed (see HostSpeed), and
reports the end-to-end metrics.  With `--trace 1` the run
times the calls into every layer's public functions instead (see
spans.py), for each of the four workloads in turn, and reports the
per-layer metrics.  Either way every job's output is checked against
independent arithmetic, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from src/ of the checkout this file sits in;
nothing is installed.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = Path("perfbench") / "_out"
NAMES = ("charge-eval", "wall-scan", "reconstruct", "cli")
SETUP_REPS = 5
HASH_CYCLES = 2
# reference.calibration_work() takes this long on the host that defines the
# scale; every reported time is rescaled to it (see HostSpeed)
REFERENCE_MS = 25.0
SPEED_EVERY_S = 0.25
MAX_SLOWDOWN = 1.5

END_TO_END = {
    "jobs_per_s": ("jobs/s", "higher"),
    "job_ms_p50": ("ms", "lower"),
    "job_ms_tail": ("ms", "lower"),
    "cpu_ms_per_job": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# per-layer metrics of the traced run, per workload: name -> (unit, better)
_MS = ("ms", "lower")
_COUNT = ("count", "lower")
_US = ("us", "lower")
LAYER_METRICS = {
    "charge-eval": {
        "central_charge.eval_Z.calls": _COUNT,
        "central_charge.eval_Z.us_per_call": _US,
        "central_charge.spherical_wall_hits.total_ms": _MS,
        "central_charge.spherical_wall_hits.self_ms": _MS,
        "central_charge.support_constant.total_ms": _MS,
        "central_charge.support_constant.self_ms": _MS,
        "central_charge.omega_from_bw.total_ms": _MS,
        "mukai_lattice.spherical_norm.total_ms": _MS,
        "spherical_enum.enumerate_spherical.total_ms": _MS,
        "spherical_enum.enumerate_spherical.ns_per_grid_point": ("ns/point", "lower"),
        "spherical_enum.enumerate_spherical.classes": ("count", "higher"),
        "exact_scalars.quad_built": _COUNT,
        "exact_scalars.quad_built_per_eval": ("count/call", "lower"),
        "mukai_lattice.mukai_pairing.calls": _COUNT,
        "trace.overhead_ratio": ("1", "lower"),
    },
    "wall-scan": {
        "central_charge.wall_scan_alpha.calls": _COUNT,
        "central_charge.wall_scan_alpha.total_ms": _MS,
        "central_charge.wall_scan_alpha.self_ms": _MS,
        "central_charge.wall_scan_alpha.ns_per_candidate": ("ns/candidate", "lower"),
        "central_charge.wall_scan_alpha.roots": ("count", "higher"),
        "central_charge.wall_scan_alpha.aligned": ("count", "higher"),
        "lax_boundary.build_lax_point.total_ms": _MS,
        "lax_boundary.build_lax_point.self_ms": _MS,
        "spherical_enum.delta_mu_plus.self_ms": _MS,
        "spherical_enum.enumerate_spherical.ns_per_grid_point": ("ns/point", "lower"),
        "mukai_lattice.tensor_line_bundle.calls": _COUNT,
        "exact_scalars.try_sqrt.calls": _COUNT,
        "exact_scalars.quad_built": _COUNT,
        "mukai_lattice.mukai_pairing.calls": _COUNT,
        "trace.overhead_ratio": ("1", "lower"),
    },
    "reconstruct": {
        "mass_reconstruction.reconstruct.calls": _COUNT,
        "mass_reconstruction.reconstruct.self_ms": _MS,
        "mass_reconstruction.reconstruct.us_per_call.exact": _US,
        "mass_reconstruction.reconstruct.us_per_call.float": _US,
        "mass_reconstruction.residual.total_ms": _MS,
        "mass_reconstruction.oracle_queries": _COUNT,
        "linalg.solve_linear.calls": _COUNT,
        "linalg.solve_linear.us_per_call": _US,
        "central_charge.in_P_plus.calls": _COUNT,
        "central_charge.in_P_plus.us_per_call": _US,
        "central_charge.eval_Z.calls": _COUNT,
        "central_charge.eval_Z.us_per_call": _US,
        "exact_scalars.try_sqrt.calls": _COUNT,
        "exact_scalars.quad_built": _COUNT,
        "exact_scalars.quad_built_per_eval": ("count/call", "lower"),
        "mukai_lattice.mukai_pairing.calls": _COUNT,
        "trace.overhead_ratio": ("1", "lower"),
    },
    "cli": {
        "cli.process_start_ms": _MS,
        "cli.import_ms": _MS,
        "cli.load_lattice.self_ms": _MS,
        "cli.load_lattice.raised": _COUNT,
        "cli.execute.self_ms": _MS,
        "cli.render_report.self_ms": _MS,
        "reports.render_json.self_ms": _MS,
        "reports.render_json.bytes": ("bytes", "lower"),
        "reports.render_csv.calls": _COUNT,
        "lax_boundary.irrationality_certificate.primes_tried": _COUNT,
        "lax_boundary.family_masses.total_ms": _MS,
        "lax_boundary.build_lax_point.raised": _COUNT,
        "spherical_enum.good_basis.total_ms": _MS,
        "spherical_enum.enumerate_spherical.ns_per_grid_point": ("ns/point", "lower"),
        "central_charge.wall_scan_alpha.ns_per_candidate": ("ns/candidate", "lower"),
        "mass_reconstruction.reconstruct.us_per_call.exact": _US,
        "exact_scalars.quad_built": _COUNT,
        "mukai_lattice.mukai_pairing.calls": _COUNT,
        "trace.overhead_ratio": ("1", "lower"),
    },
}


def per_layer_catalog():
    """Flat name -> (unit, better) over all workloads, prefixed by workload."""
    return {
        f"{w}.{name}": spec for w, metrics in LAYER_METRICS.items() for name, spec in metrics.items()
    }


# ---------------------------------------------------------------- helpers


def run_child(code):
    """Run `code` in a fresh interpreter; return its stdout."""
    import workloads

    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()[-400:]}")
    return proc.stdout


SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}].prepare({root!r}, {scale!r})
print(time.perf_counter() - t0)
"""
IMPORT_CODE = "import time\nt0 = time.perf_counter()\nimport k3lax.cli\nprint(time.perf_counter() - t0)\n"


def setup_seconds(name, scale, speed):
    """Median over fresh interpreters of the time to be ready for a first job.

    For cli that is `import k3lax.cli`, which every command pays; for the
    others, import plus lattice loading plus per-lattice state.  The first
    child only warms the bytecode cache and is not counted.  Returns the
    rescaled and the unscaled median."""
    if name == "cli":
        code = IMPORT_CODE
    else:
        code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, root=str(ROOT), scale=scale)
    run_child(code)
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        raw.append(float(run_child(code)))
        t1 = time.perf_counter()
        speed.sample()
        scaled.append(raw[-1] * speed.scale_at(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


class HostSpeed:
    """How fast the host runs Python right now, from a fixed yardstick.

    On a shared host the same job can take twice as long from one second
    to the next, and CPU time drifts with wall time.  The benchmark's own
    `calibration_work` slows down with it: the ratio of a job's time to
    the yardstick's time next to it stays within a few percent while both
    drift by 50%.  So the run times the yardstick between jobs, and
    multiplies each time it reports by REFERENCE_MS over the yardstick's
    time around it: the time the job would take on a host where the
    yardstick takes REFERENCE_MS.  Unscaled values go to the provenance."""

    def __init__(self):
        self.at = []
        self.ms = []

    def sample(self):
        import reference

        t0 = time.perf_counter()
        reference.calibration_work()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ms.append((t1 - t0) * 1e3)

    def maybe_sample(self):
        if time.perf_counter() - self.at[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale_at(self, start, end):
        """REFERENCE_MS over the mean of the last sample before `start` and
        the first one after `end`."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        near = [self.ms[i] for i in (before, after) if 0 <= i < len(self.ms)]
        return REFERENCE_MS * len(near) / sum(near)

    def info(self):
        return {
            "yardstick_ms_median": statistics.median(self.ms),
            "yardstick_samples": len(self.ms),
            "reference_ms": REFERENCE_MS,
        }


def tail(times_ms):
    """The highest percentile with at least ten jobs beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_seconds(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None where it is no git repository (git
    would otherwise report a repository around it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "loop": "closed, one client, one job at a time",
    }


class Tally:
    """Jobs attempted and failed, check names that ran, first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.errors = []

    def record(self, workload, ctx, spec, out):
        self.attempted += 1
        try:
            if isinstance(out, BaseException):
                raise out
            text, names = workload.check(ctx, spec, out)
        except Exception as exc:  # any failure of one job counts, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{workload.name}: {type(exc).__name__}: {exc}")
            return None
        for n in names:
            self.checks[n] = self.checks.get(n, 0) + 1
        return text

    def missing_checks(self, workload):
        return [f"{workload.name}.{c}" for c in workload.checks if not self.checks.get(c)]

    def run_checks(self, workload, ctx):
        try:
            for n in workload.run_checks(ctx):
                self.checks[n] = self.checks.get(n, 0) + 1
        except Exception as exc:  # a failed run check counts as one failed job
            self.failed += 1
            self.attempted += 1
            self.errors.append(f"{workload.name} run check: {type(exc).__name__}: {exc}")


def cycles(workload, ctx, seed):
    """Whole cycles of specs, generated as needed from one seeded stream."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.specs(ctx, rng, 1)


def run_job(workload, ctx, spec, runner=None):
    runner = runner or workload.run
    try:
        return runner(ctx, spec)
    except Exception as exc:  # a raising job is a failed job, recorded by Tally
        return exc


# ---------------------------------------------------------------- untraced run


def measure(name, seed, seconds, scale="full"):
    """End-to-end metrics of one workload, untraced.

    Each job's wall and CPU time is rescaled by the host speed around it
    (HostSpeed).  Throughput and CPU per job are medians over cycles."""
    import workloads as wl

    workload = wl.WORKLOADS[name]
    ctx = workload.prepare(ROOT, scale)
    speed = HostSpeed()
    speed.sample()
    setup_s, setup_raw = setup_seconds(name, scale, speed)
    tally = Tally()
    stream = cycles(workload, ctx, seed)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    jobs, units, hashed = [], {}, []  # jobs: (cycle, start, end, wall s, cpu s)
    clock = time.perf_counter
    busy = scaled_busy = 0.0
    cycle_no = 0
    # Stop on rescaled job time, so the number of cycles, and with it the
    # rank behind job_ms_tail, does not follow the host's speed; the cap
    # on unscaled time bounds the run on a very slow host.
    while scaled_busy < seconds and busy < MAX_SLOWDOWN * seconds:
        cycle = next(stream)
        for spec in cycle:
            speed.maybe_sample()
            c0 = cpu_seconds(who)
            t0 = clock()
            out = run_job(workload, ctx, spec)
            t1 = clock()
            jobs.append((cycle_no, t0, t1, t1 - t0, cpu_seconds(who) - c0))
            busy += t1 - t0
            scaled_busy += (t1 - t0) * REFERENCE_MS / speed.ms[-1]
            text = tally.record(workload, ctx, spec, out)
            if len(hashed) < HASH_CYCLES * len(cycle):
                hashed.append(text or "")
            for k, v in workload.units(ctx, spec).items():
                units[k] = units.get(k, 0) + v
        cycle_no += 1
    speed.sample()
    peak = resource.getrusage(who).ru_maxrss / 1024.0
    tally.run_checks(workload, ctx)
    cycle_len = len(cycle)

    def summary(scale_of):
        wall_ms, cycle_wall, cycle_cpu = [], [0.0] * cycle_no, [0.0] * cycle_no
        for c, t0, t1, wall, cpu in jobs:
            k = scale_of(t0, t1)
            wall_ms.append(wall * k * 1e3)
            cycle_wall[c] += wall * k
            cycle_cpu[c] += cpu * k
        tail_ms, pct = tail(wall_ms)
        return {
            "jobs_per_s": cycle_len / statistics.median(cycle_wall),
            "job_ms_p50": statistics.median(wall_ms),
            "job_ms_tail": tail_ms,
            "cpu_ms_per_job": 1e3 * statistics.median(cycle_cpu) / cycle_len,
        }, pct

    metrics, pct = summary(speed.scale_at)
    metrics.update(setup_s=setup_s, peak_rss_mib=peak)
    raw, _ = summary(lambda t0, t1: 1.0)
    raw["setup_s"] = setup_raw
    n = len(jobs)
    info = {
        "jobs": n,
        "cycles": cycle_no,
        "cycle_jobs": cycle_len,
        "busy_s": busy,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "job_ms_tail_percentile": round(pct, 2),
        "job_ms_tail_jobs_beyond": min(10, n - 1),
        "work_units": units,
        "rates_per_s": {k: v / busy for k, v in units.items()},
        "setup_reps": SETUP_REPS,
        "cpu_source": "getrusage children" if name == "cli" else "getrusage self",
        "output_sha256": hashlib.sha256("\n".join(hashed).encode()).hexdigest(),
        "output_sha256_jobs": len(hashed),
        "checks": tally.checks,
        "host_speed": speed.info(),
        "unscaled": raw,
    }
    if "known_defects" in ctx:
        info["known_defects"] = ctx["known_defects"]
    return metrics, info, tally


# ---------------------------------------------------------------- traced run


def traced(name, seed, seconds, scale="full"):
    """Per-layer metrics of one workload over its first cycle of jobs."""
    import spans as sp
    import workloads as wl

    workload = wl.WORKLOADS[name]
    ctx = workload.prepare(ROOT, scale)
    trace_set = next(cycles(workload, ctx, seed))
    runner = getattr(workload, "run_in_process", workload.run)
    tally = Tally()
    extra = [sys.modules["workloads"]]

    speed = HostSpeed()
    counter = sp.CountRecorder()
    with sp.Rebinding(extra) as rb:
        counter.install(rb)
        for spec in trace_set:
            run_job(workload, ctx, spec, runner)

    speed.sample()
    deadline = time.perf_counter() + seconds
    traced_ms, plain_ms, passes, scales, first_spans, bound = [], [], [], [], None, set()
    while not passes or time.perf_counter() < deadline:
        recorder = sp.SpanRecorder()
        with sp.Rebinding(extra) as rb:
            recorder.install(rb)
            bound = rb.bound
            t0 = time.perf_counter()
            for job, spec in enumerate(trace_set):
                recorder.job = job
                run_job(workload, ctx, spec, runner)
            t1 = time.perf_counter()
        speed.sample()
        scales.append(speed.scale_at(t0, t1))
        traced_ms.append((t1 - t0) * 1e3 * scales[-1])
        passes.append(recorder.stats())
        if first_spans is None:
            first_spans = recorder.spans
        t0 = time.perf_counter()
        outs = [run_job(workload, ctx, spec, runner) for spec in trace_set]
        t1 = time.perf_counter()
        speed.sample()
        plain_ms.append((t1 - t0) * 1e3 * speed.scale_at(t0, t1))
        if len(plain_ms) == 1:
            for spec, out in zip(trace_set, outs):
                tally.record(workload, ctx, spec, out)
    tally.run_checks(workload, ctx)
    missing = [a for a in sp.REQUIRED_ALIASES if a not in bound]

    values = layer_values(passes, scales, counter.counts)
    values["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
    if name == "cli":
        starts, imports = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            run_child("pass")
            t1 = time.perf_counter()
            imported = float(run_child(IMPORT_CODE))
            t2 = time.perf_counter()
            speed.sample()
            starts.append((t1 - t0) * speed.scale_at(t0, t1))
            imports.append(imported * speed.scale_at(t1, t2))
        values["cli.process_start_ms"] = 1e3 * statistics.median(starts)
        values["cli.import_ms"] = 1e3 * statistics.median(imports)
    info = {
        "trace_set_jobs": len(trace_set),
        "passes": len(passes),
        "traced_pass_ms": statistics.median(traced_ms),
        "untraced_pass_ms": statistics.median(plain_ms),
        "times": "median over passes, per pass over the trace set",
        "aliases_not_rebound": missing,
        "work_units": {n: dict(st["units"]) for n, st in passes[0].items() if st["units"]},
        "checks": tally.checks,
        "host_speed": speed.info(),
    }
    span_dump = [list(s[:6]) + [s[6]] for s in first_spans]
    return values, info, tally, span_dump


def layer_values(passes, scales, counts):
    """Flatten span stats: times are medians over passes, each pass
    rescaled by the host speed around it; counts come from the first."""
    first = passes[0]
    values = {}

    def timed(key, per_pass):
        values[key] = statistics.median([k * per_pass(p) for p, k in zip(passes, scales)])

    for name, s in first.items():
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.raised"] = s["raised"]
        for unit, v in s["units"].items():
            values[f"{name}.{unit}"] = v
        timed(f"{name}.total_ms", lambda p, n=name: p[n]["total_ns"] / 1e6)
        timed(f"{name}.self_ms", lambda p, n=name: p[n]["self_ns"] / 1e6)
        timed(f"{name}.us_per_call", lambda p, n=name: p[n]["total_ns"] / p[n]["calls"] / 1e3)
        for tag in {k.split(".")[0] for k in s["by_tag"]}:
            timed(
                f"{name}.us_per_call.{tag}",
                lambda p, n=name, t=tag: p[n]["by_tag"][f"{t}.total_ns"] / p[n]["by_tag"][f"{t}.calls"] / 1e3,
            )
        if "grid_points" in s["units"]:
            timed(f"{name}.ns_per_grid_point", lambda p, n=name: p[n]["total_ns"] / p[n]["units"]["grid_points"])
        if "candidates" in s["units"]:
            timed(f"{name}.ns_per_candidate", lambda p, n=name: p[n]["total_ns"] / p[n]["units"]["candidates"])
    values.update(counts)
    if counts.get("central_charge.eval_Z.calls"):
        values["exact_scalars.quad_built_per_eval"] = (
            counts["exact_scalars.quad_built_in_eval"] / counts["central_charge.eval_Z.calls"]
        )
    return values


# ---------------------------------------------------------------- output


def print_workload(name, metrics, info, tally, units_of):
    print(f"workload {name}: {info.get('jobs', info.get('trace_set_jobs'))} jobs")
    for key, value in metrics.items():
        print(f"  {key:<60} {value:>14.6g} {units_of[key][0]}")
    if "failed_ratio" in info:
        print(f"  {'failed_ratio':<60} {info['failed_ratio']:>14.6g} 1")
    for err in tally.errors:
        print(f"  FAILED {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3lax" / "__init__.py").is_file() or not (ROOT / "lattices").is_dir():
        print(f"no k3lax checkout around {HERE}: src/k3lax and lattices/ are required", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


def run(workload, seed, seconds, trace, scale="full"):
    """Run one workload, or all, and return the result line's object."""
    import workloads

    names = NAMES if workload == "all" else (workload,)
    prefix = workload == "all"
    attempted = failed = 0
    metrics = {}
    unchecked = []
    prov = provenance(seed)
    prov["workloads"] = {}
    if trace:
        catalog = per_layer_catalog()
        dump = {}
        for w in NAMES:
            values, info, tally, spans_ = traced(w, seed, seconds / len(NAMES), scale)
            chosen = {}
            for key in LAYER_METRICS[w]:
                if not values.get(key):
                    tally.errors.append(f"{w}: per-layer metric {key} is missing or zero")
                chosen[f"{w}.{key}"] = values.get(key, 0)
            print_workload(w, chosen, info, tally, catalog)
            prov["workloads"][w] = info
            dump[w] = {"values": values, "spans": spans_}
            metrics.update(chosen)
            attempted += tally.attempted
            failed += tally.failed
            unchecked += tally.missing_checks(workloads.WORKLOADS[w])
        out = ROOT / OUT_DIR
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace-seed{seed}.json").write_text(json.dumps(dump))
        units = {k: catalog[k][0] for k in metrics}
    else:
        for w in names:
            m, info, tally = measure(w, seed, seconds, scale)
            print_workload(w, m, info, tally, END_TO_END)
            prov["workloads"][w] = info
            metrics.update({(f"{w}.{k}" if prefix else k): v for k, v in m.items()})
            attempted += tally.attempted
            failed += tally.failed
            unchecked += tally.missing_checks(workloads.WORKLOADS[w])
        units = {k: END_TO_END[k.split(".")[-1]][0] for k in metrics}
    for name in unchecked:
        print(f"  CHECK NOT RUN {name}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": failed == 0 and not unchecked,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
