"""Tiny-size smoke run of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for a second or so at tiny input sizes, untraced and
traced, and exits 1 unless every metric BENCHMARK.json names is present
and nonzero, every output check of every workload ran, and no job
failed.  It also checks that BENCHMARK.json and run.py name the same
workloads and metrics.  The untraced cli run starts by warming the
bytecode cache, as a full run does.  No timing is asserted.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(run.NAMES):
        problems.append("BENCHMARK.json workloads differ from run.NAMES")
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    if layers != run.per_layer_catalog():
        problems.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")

    for name in run.NAMES:
        for trace, wanted in ((0, set(e2e)), (1, set(layers))):
            result = run.run(name, 7, 1.0, trace, scale="tiny")
            label = f"{name} trace={trace}"
            if set(result["metrics"]) != wanted:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted)} missing or extra")
            zero = [k for k, v in result["metrics"].items() if not v["value"]]
            if zero:
                problems.append(f"{label}: zero metrics {zero}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
    for name, workload in workloads.WORKLOADS.items():
        if not workload.checks:
            problems.append(f"{name}: declares no output checks")
    for p in problems:
        print("SMOKE FAILED:", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
