"""codedflow benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-quad --seed 1 --seconds 30 --trace 0

Load model: a closed loop from this one process.  Each iteration runs in its
own child process (``worker.py``) and starts after the previous one ends, so
peak memory and CPU time are per iteration.  Iterations repeat while the
next one is expected to finish within ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
medians of the iterations' wall time and peak memory, and the median set-up
time over the iterations plus ``SETUP_ONLY`` set-up-only children.  Set-up
is importing codedflow, parsing the config, building the network and the
first quadrature rule; every child pays it once.
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics from the traced one.  Either way the last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  An
environment header line (``env {...}``) precedes it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CONFIG, WORKLOADS  # noqa: E402

SETUP_ONLY = 6
RUN_LIMIT_S = 170.0


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, as the process got it."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cpu_quota() -> str:
    """The cgroup CPU quota, read only (v2 ``cpu.max`` or v1 ``cfs_quota_us``)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    try:
        if v2.exists():
            return v2.read_text().strip()
        if v1.exists():
            period = (v1.parent / "cpu.cfs_period_us").read_text().strip()
            return f"{v1.read_text().strip()} {period}"
    except OSError:
        pass
    return "unavailable"


def _git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": "unknown", "dirty": None}
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
    )
    return {"sha": sha.stdout.strip() or "unknown", "dirty": bool(status.stdout.strip())}


def environment(args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cgroup_cpu_quota": _cpu_quota(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": _git_state(),
    }


class Runner:
    """Starts worker children one after another.

    ``size`` shrinks the workload (see ``worker.py``); outputs of a shrunk
    workload are not checked against the references.
    """

    def __init__(self, workload: str, seed: int, out: Path, deadline: float, size: dict | None = None):
        self.workload, self.seed, self.out, self.deadline = workload, seed, out, deadline
        self.size = size or {}
        self.count = 0

    def child(self, *, setup_only=False, trace=False) -> dict:
        self.count += 1
        job = {
            "workload": self.workload,
            "seed": self.seed,
            "out": str(self.out / str(self.count)),
            "setup_only": setup_only,
            "trace": trace,
            "check": not self.size,
            "size": self.size,
        }
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        timed_out = False
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            timed_out, stdout, stderr = True, "", ""
        finally:
            if proc.poll() is None:  # timed out or interrupted: stop the child and reap it
                proc.kill()
                proc.communicate()
        elapsed = perf_counter() - start
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problem = "timed out" if timed_out else f"worker exited {proc.returncode} without a result"
            result = {"ok": False, "problems": [problem]}
        if not result["ok"]:
            sys.stderr.write(stderr)
        result["elapsed_s"] = elapsed
        return result


def measure(args, runner: Runner) -> tuple[list, list]:
    """Iterations for ``--seconds``, with half of the set-up-only children
    before them and half after, so that the set-up median spans the run."""
    setups = [runner.child(setup_only=True) for _ in range(SETUP_ONLY // 2)]
    iterations = []
    start = perf_counter()
    while True:
        iterations.append(runner.child())
        elapsed = perf_counter() - start
        if elapsed + iterations[-1]["elapsed_s"] > args.seconds or perf_counter() > runner.deadline:
            break
    setups += [runner.child(setup_only=True) for _ in range(SETUP_ONLY - SETUP_ONLY // 2)]
    return setups, iterations


def end_to_end(setups, iterations) -> dict:
    measured = [r for r in iterations if "wall_s" in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in measured),
        "setup_s": statistics.median(r["setup_s"] for r in setups + measured if "setup_s" in r),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
    }


def per_layer(plain: dict, traced: dict, fail_frac: float) -> dict:
    return {
        **traced["layers"],
        "proc.cpu_s": plain["cpu_s"],
        "proc.cpu_per_wall": plain["cpu_s"] / plain["elapsed_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "fail_frac": fail_frac,
        "max_rel_err": plain["max_rel_err"],
        "ascent_mi_nats": plain["ascent_mi_nats"],
    }


def tally(setups: list, iterations: list) -> tuple[int, int, list]:
    """Attempted and failed operations, and every problem the checks found."""
    attempted = sum(r.get("attempted", 1) for r in iterations)
    failed = sum(max(r.get("failed", 0), not r["ok"]) for r in iterations)
    problems = [p for r in setups + iterations for p in r["problems"]]
    if len({r["csv_sha256"] for r in iterations if "csv_sha256" in r}) > 1:
        problems.append("CSV output differs between iterations with the same seed")
    return attempted, failed, problems


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner.child, which stops its child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    missing = [p for p in ("src/codedflow/__init__.py", CONFIG, "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(args)), flush=True)

    out = ROOT / ".perfbench-out" / str(os.getpid())
    runner = Runner(args.workload, args.seed, out, perf_counter() + RUN_LIMIT_S)
    try:
        if args.trace:
            setups, iterations = [], [runner.child(), runner.child(trace=True)]
        else:
            setups, iterations = measure(args, runner)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            out.parent.rmdir()

    attempted, failed, problems = tally(setups, iterations)
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    measured = [r for r in iterations if "wall_s" in r]
    if not measured or (args.trace and ("layers" not in iterations[1] or "wall_s" not in iterations[0])):
        print("perfbench: no measurement to report", file=sys.stderr)
        return 1

    values = per_layer(*iterations, failed / attempted) if args.trace else end_to_end(setups, iterations)
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
