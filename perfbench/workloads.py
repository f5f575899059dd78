"""The benchmark's workloads, its set-up step, and the checks on each output.

Library calls go through ``codedflow`` module attributes at call time, so a
traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

CONFIG = "configs/figure1.cfg"
REFERENCE = Path(__file__).resolve().parent / "reference"

# workload -> (CLI command, flags); the seed is passed as --seed on top
CLI_WORKLOADS = {
    "verify-quad": ("verify", {"nodes": 16, "workers": 1}),
    "verify-mc": ("verify", {"method": "mc", "samples": 200_000, "workers": 2, "tolerance": 5e-2}),
    "ascent-quad": ("optimize-precoder", {}),
}
WORKLOADS = tuple(CLI_WORKLOADS)

# Closed forms and the ascent's information values must reproduce the
# reference to 1e-12 relative.  Oracle columns are central differences with
# step h = 1e-3, which amplify the rounding of each information value by
# 1/(2h) = 500: a reordered summation already moves them by up to 7.5e-13
# relative.  1e-9 leaves three orders of headroom over that rounding and is
# four orders below the finite-difference truncation error (2.7e-5), so any
# change to what the oracle computes still shows.
CLOSED_TOL = 1e-12
ORACLE_TOL = 1e-9
# Monte Carlo columns are compared with the exact quadrature reference at the
# workload's own pass tolerance.  With 2e5 samples and seeds 1, 2 and 42 the
# worst gaps to the reference were 0.4e-2 to 1.3e-2 (closed forms) and 0.8e-2
# to 0.9e-2 (oracles).
MC_TOL = 5e-2
MONOTONE_SLACK = 1e-9


def set_up(root: Path, overrides: dict) -> None:
    """Parse the config, build the network, and build the first quadrature rule."""
    from codedflow import cli, netgraph, quadrature

    config = cli.parse_config((root / CONFIG).read_text(), overrides)
    full = netgraph.build_coefficient_matrices(config.topology, config.coefficients, config.n_in, config.n_out)
    netgraph.compact_system(full, config.topology)
    quadrature.complex_gauss_hermite(config.n_out, config.engine.resolve_nodes(config.n_out))


# ---------------------------------------------------------------------------
# command-line workloads
# ---------------------------------------------------------------------------


def run_cli(root: Path, workload: str, seed: int, out_dir: Path, flags: dict):
    """Run one CLI command in this process; returns (wall seconds, exit code, CSV text)."""
    from codedflow import cli

    command, _ = CLI_WORKLOADS[workload]
    argv = [command, "--config", str(root / CONFIG), "--seed", str(seed), "--out", str(out_dir)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    with redirect_stdout(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    csv_path = out_dir / f"{command.replace('-', '_')}.csv"
    return wall, code, csv_path.read_text() if csv_path.exists() else ""


def _rows(text: str) -> list[dict]:
    """CSV rows by column name.  Matrix check ids such as ``A[0,1]`` carry an
    unquoted comma, so the id is whatever lies between the first column and
    the last ten."""
    header, *lines = text.splitlines()
    names = header.split(",")
    rows = []
    for line in lines:
        parts = line.split(",")
        rows.append(dict(zip(names, [parts[0], ",".join(parts[1:-10]), *parts[-10:]])))
    return rows


def _value(row, prefix) -> complex:
    return complex(float(row[prefix + "_re"]), float(row[prefix + "_im"]))


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_cli(workload: str, code: int, text: str) -> dict:
    """Compare a CLI output with the stored seed-commit reference.

    Returns ``problems`` (empty when the output is correct), ``max_rel_err``
    (worst closed-form vs oracle gap the CSV reports, 0 for the ascent) and
    ``ascent_mi_nats`` (final information of the ascent, 0 otherwise).
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    rows = _rows(text)
    command, _ = CLI_WORKLOADS[workload]
    reference = _rows((REFERENCE / f"{command.replace('-', '_')}.csv").read_text())
    key = ("suite", "check_id", "target", "entry_row", "entry_col", "pass")
    if [tuple(r[k] for k in key) for r in rows] != [tuple(r[k] for k in key) for r in reference]:
        problems.append("rows or pass column differ from the reference")
        return {"problems": problems, "max_rel_err": 0.0, "ascent_mi_nats": 0.0}

    if command == "optimize-precoder":
        infos = [float(r["closed_form_re"]) for r in rows]
        ref_infos = [float(r["closed_form_re"]) for r in reference]
        worst = max(_rel(a, b) for a, b in zip(infos, ref_infos))
        if worst > CLOSED_TOL:
            problems.append(f"trajectory differs from the reference by {worst:.2e} relative")
        if any(b < a - MONOTONE_SLACK for a, b in zip(infos, infos[1:])):
            problems.append("trajectory is not monotone")
        return {"problems": problems, "max_rel_err": 0.0, "ascent_mi_nats": infos[-1]}

    closed_tol, oracle_tol = (MC_TOL, MC_TOL) if workload == "verify-mc" else (CLOSED_TOL, ORACLE_TOL)
    closed_gap = max(_rel(_value(r, "closed_form"), _value(q, "closed_form")) for r, q in zip(rows, reference))
    oracle_gap = max(_rel(_value(r, "oracle"), _value(q, "oracle")) for r, q in zip(rows, reference))
    if closed_gap > closed_tol:
        problems.append(f"closed forms differ from the reference by {closed_gap:.2e} relative")
    if oracle_gap > oracle_tol:
        problems.append(f"oracles differ from the reference by {oracle_gap:.2e} relative")
    return {
        "problems": problems,
        "max_rel_err": max(float(r["rel_err"]) for r in rows),
        "ascent_mi_nats": 0.0,
    }
