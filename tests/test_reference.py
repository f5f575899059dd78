"""Stored reference outputs, checked in the test suite.

Runs the figure1 workloads of ``perfbench/workloads.py`` in this process
and applies the benchmark's own output check: the closed forms and the
ascent's information values within 1e-12 relative of the stored CSVs, the
finite-difference oracle columns within 1e-9, the same rows and pass column;
the Monte Carlo ``verify`` within its pass tolerance of the quadrature
reference.  A refactor that moves any of them fails here before it reaches the
benchmark.  The module reads ``perfbench/`` and changes nothing there.

The commands the benchmark does not run (``example1``, ``cuts`` and
``gradients`` on figure1) are held to the same bounds against the CSVs in
``tests/reference/``.

``perfbench/selftest.py`` runs as is, so its exact call-count pins (``verify-mc``'s 49 mixture
log-densities and 12 quadrature calls among them) fail here too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from codedflow.cli import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify-quad", "verify-mc", "ascent-quad"])
def test_cli_output_matches_benchmark_reference(workload, tmp_path):
    workloads = _workloads()
    flags = workloads.CLI_WORKLOADS[workload][1]
    _, code, text = workloads.run_cli(ROOT, workload, 1, tmp_path, flags)
    assert workloads.check_cli(workload, code, text)["problems"] == []


def _complex_cell(row, prefix):
    """The complex value of a ``<prefix>_re``/``<prefix>_im`` pair, None when empty."""
    if row[prefix + "_re"] == "":
        return None
    return complex(float(row[prefix + "_re"]), float(row[prefix + "_im"]))


@pytest.mark.parametrize("command", ["example1", "cuts", "gradients"])
def test_figure1_output_matches_stored_reference(command, tmp_path):
    workloads = _workloads()
    report = run(parse_config((ROOT / workloads.CONFIG).read_text()), command, tmp_path)
    rows = workloads._rows(report.render_csv())
    reference = workloads._rows((REFERENCE / f"{command}.csv").read_text())
    key = ("suite", "check_id", "target", "entry_row", "entry_col", "pass")
    assert [tuple(r[k] for k in key) for r in rows] == [tuple(r[k] for k in key) for r in reference]
    for prefix, tol in (("closed_form", workloads.CLOSED_TOL), ("oracle", workloads.ORACLE_TOL)):
        for row, ref in zip(rows, reference):
            value, expected = _complex_cell(row, prefix), _complex_cell(ref, prefix)
            assert (value is None) == (expected is None), (row["check_id"], prefix)
            if value is not None:
                assert workloads._rel(value, expected) <= tol, (row["check_id"], prefix)


def test_benchmark_selftest_passes():
    # about 7 s; its scratch directory .perfbench-out/ is gitignored and removed by the script
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
