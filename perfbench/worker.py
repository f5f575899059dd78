"""One benchmark iteration in a fresh process: set up, run a workload, check it.

Usage: ``python3 perfbench/worker.py JOB`` where JOB is a JSON object with
``workload``, ``seed``, ``out`` (scratch directory for CLI output),
``setup_only``, ``trace``, ``check`` and ``size`` (flag overrides such as
``nodes`` or ``samples``).  The last line of
standard output is a JSON object with the timings, the process's own CPU
time and peak resident memory, the check results and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_codedflow():
    sys.path.insert(0, str(ROOT / "src"))
    import codedflow

    if Path(codedflow.__file__).resolve().parent != ROOT / "src" / "codedflow":
        raise ImportError(f"codedflow was imported from {codedflow.__file__}, not from this checkout")
    return codedflow


def run(job: dict) -> dict:
    import workloads

    codedflow = _import_codedflow()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(codedflow)
    workload, seed, size = job["workload"], job["seed"], job.get("size", {})
    flags = {**workloads.CLI_WORKLOADS[workload][1], **size}
    workloads.set_up(ROOT, {**flags, "seed": seed})
    result = {"setup_s": perf_counter() - _START, "ok": True, "problems": []}
    if job["setup_only"]:
        return result

    wall, code, text = workloads.run_cli(ROOT, workload, seed, Path(job["out"]), flags)
    outcome = workloads.check_cli(workload, code, text) if job["check"] else {"problems": []}
    result.update(
        wall_s=wall,
        attempted=1,
        failed=int(bool(outcome["problems"])),
        problems=outcome["problems"],
        csv_sha256=hashlib.sha256(text.encode()).hexdigest(),
        max_rel_err=outcome.get("max_rel_err", 0.0),
        ascent_mi_nats=outcome.get("ascent_mi_nats", 0.0),
    )
    result["ok"] = not result["problems"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        result = run(job)
    except Exception as exc:  # the parent counts the iteration as failed
        traceback.print_exc()
        result = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
