"""One fresh-process step of the benchmark; prints one JSON line.

    python3 bench/worker.py setup
        Cold set-up in this interpreter: import fluxgate, load_config,
        the first assemble_operators and the idle dressed_frame.

    python3 bench/worker.py run --workload W --seed N --seconds S [--traced]
        Set up untimed, then run the workload's points one after another
        (a closed loop with one client), timing each point and the whole
        pass, and check every output against the recorded reference.
        With --traced, every layer call is recorded as a span and the
        per-layer summary is added.

The package is imported from ``src/`` of the checkout this file sits in;
``run.py`` drives this script and aggregates its output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]


def _imported_from_checkout(module) -> bool:
    return Path(module.__file__).resolve().is_relative_to(SRC.resolve())


def setup_probe() -> dict:
    start = time.perf_counter()
    import fluxgate
    from importlib import resources

    from fluxgate import evolve, system
    from fluxgate.config import load_config

    rc = load_config(str(resources.files("fluxgate.data") / "set500.cfg"))
    system.assemble_operators(rc.params)
    evolve.dressed_frame(rc.params, rc.require("gate").flux_idle)
    elapsed = time.perf_counter() - start
    if not _imported_from_checkout(fluxgate):
        raise RuntimeError(f"fluxgate imported from {fluxgate.__file__}, not {SRC}")
    return {"setup_s": elapsed}


def _blas_info() -> dict:
    """BLAS name, version and live thread count of the loaded OpenBLAS."""
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        pass
    info["libraries"] = libs
    info["threads"] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
        if info["threads"] is not None:
            break
    return info


def git_rev() -> str:
    """Commit of the checkout, or a note when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable: git failed"
    return proc.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    import fluxgate

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_rev": git_rev(),
        "fluxgate": fluxgate.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas_info(),
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import fluxgate
    import workloads

    if not _imported_from_checkout(fluxgate):
        raise RuntimeError(f"fluxgate imported from {fluxgate.__file__}, not {SRC}")

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        missed = tracer.unwrapped_bindings()
        if missed:
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("setup"):
        devices = workloads.load_devices()
        workloads.warm_up(devices)
    reference = workloads.load_reference()
    points = workloads.generate(workload, seed, seconds, devices)

    outputs, errors, point_s = [], [], []
    start = time.perf_counter()
    for point in points:
        t0 = time.perf_counter()
        try:
            with span("point"):
                outputs.append(workloads.run_point(point, devices))
            errors.append(None)
        except Exception as exc:  # noqa: BLE001  (a failed point is counted, the run goes on)
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        point_s.append(time.perf_counter() - t0)
    solve_s = time.perf_counter() - start

    for i, point in enumerate(points):
        if errors[i] is None:
            want = reference.get(workloads.point_key(point))
            errors[i] = ("no reference output" if want is None
                         else workloads.check_point(outputs[i], want))

    result = {
        "workload": workload,
        "seed": seed,
        "points": [workloads.point_key(p) for p in points],
        "errors": errors,
        "point_s": point_s,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["nesting_violations"] = tracing.nesting_violations(tracer.spans)
        result["layers"] = tracing.summarize(tracer.spans, tracer.cache_deltas())
        tracer.uninstall()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe()
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
