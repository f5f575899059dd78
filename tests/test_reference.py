"""The benchmark's stored reference outputs, checked in the test suite.

Runs the figure1 quadrature workloads of ``perfbench/workloads.py`` in this
process and applies the benchmark's own output check: the closed forms and
the ascent's information values within 1e-12 relative of the stored CSVs,
the finite-difference oracle columns within 1e-9, the same rows and pass
column.  A refactor that moves any of them fails here before it reaches the
benchmark.  The module only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify-quad", "ascent-quad"])
def test_cli_output_matches_benchmark_reference(workload, tmp_path):
    workloads = _workloads()
    flags = workloads.CLI_WORKLOADS[workload][1]
    _, code, text = workloads.run_cli(ROOT, workload, 1, tmp_path, flags)
    assert workloads.check_cli(workload, code, text)["problems"] == []
