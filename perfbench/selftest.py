"""Self-test of the benchmark at reduced size (about 10 s on 2 cores).

Usage (from the repository root): ``python3 perfbench/selftest.py``

Checks that ``BENCHMARK.json`` is well formed, that the metrics the
benchmark computes are exactly the ones it declares, and that the traced
counts repeat exactly between two runs and match the known call counts of
each workload.  Shrinking the quadrature rule or the sample count
changes what each call costs but not how many calls a run makes.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import sys
from pathlib import Path
from time import perf_counter

from run import ROOT, Runner, end_to_end, per_layer, tally
from workloads import WORKLOADS

REDUCED = {
    "verify-quad": {"nodes": 4},
    "verify-mc": {"nodes": 4, "samples": 20_000},
    "ascent-quad": {"nodes": 4},
}
# Counts that must come out exactly, per workload.  verify-quad's 62
# quadrature calls are 48 finite-difference evaluations, 12 refinement
# evaluations, one error matrix and one information value for the report.
EXPECTED = {
    "verify-quad": {
        "estimator.quad_calls": 62,
        "estimator.quad_mi_calls": 61,
        "estimator.quad_mmse_calls": 1,
        "infogradients.fd_evals": 48,
        "infogradients.refine_evals": 12,
        "flowmodel.lse_calls": 0,
    },
    "verify-mc": {
        "estimator.quad_calls": 12,
        "flowmodel.lse_calls": 49,
        "infogradients.fd_evals": 48,
        "infogradients.refine_evals": 12,
    },
    "ascent-quad": {
        "estimator.quad_calls": 42,
        "estimator.quad_mi_calls": 21,
        "estimator.quad_mmse_calls": 21,
        "scenarios.ascent_candidates": 20,
    },
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end-to-end entry {m}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    setup = [(m["unit"], m["better"]) for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if setup != [("s", "lower")]:
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    return problems


def check_workload(workload: str, spec: dict, out: Path) -> list[str]:
    problems = []
    runner = Runner(workload, 7, out / workload, perf_counter() + 170.0, size=REDUCED[workload])
    setups = [runner.child(setup_only=True)]
    layers = []
    for _ in range(2):
        plain, traced = runner.child(), runner.child(trace=True)
        attempted, failed, found = tally(setups, [plain, traced])
        if found or failed:
            return [f"{workload}: {p}" for p in found] or [f"{workload}: {failed} failed"]
        layers.append(per_layer(plain, traced, failed / attempted))
        declared = {m["name"] for m in spec["per_layer"]}
        if set(layers[-1]) != declared:
            problems.append(f"{workload}: per-layer metrics {sorted(set(layers[-1]) ^ declared)} not both computed and declared")
        if set(end_to_end(setups, [plain])) != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in counts:
        if layers[0][name] != layers[1][name]:
            problems.append(f"{workload}: {name} changed between runs: {layers[0][name]} vs {layers[1][name]}")
    for name, want in EXPECTED[workload].items():
        if layers[0][name] != want:
            problems.append(f"{workload}: {name} = {layers[0][name]}, expected {want}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    out = ROOT / ".perfbench-out" / "selftest"
    try:
        for workload in WORKLOADS:
            found = check_workload(workload, spec, out)
            print(f"{workload}: {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
