"""fluxgate benchmark: one workload run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {calibrate,propagate,spectrum} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src/``. Every step runs in a fresh Python process (``worker.py``) with
one client sending the next point only after the previous one returned.

``--trace 0`` measures the end-to-end metrics with tracing off: the
median of several cold set-ups in fresh interpreters (after one discarded
warm-up that byte-compiles the sources), then one pass over the points.
``--trace 1`` runs the same pass untraced, traced, and traced again with
one BLAS thread, and reports the per-layer metrics, the tracing overhead
and the single-thread baseline. BLAS thread variables are never set for
the end-to-end runs; a warning is printed if they are already set.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the checkout has no ``src/fluxgate``, and
1 when a step fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402  (standard library only)

WORKLOADS = ("calibrate", "propagate", "spectrum")
SETUP_PROBES = 5
DEADLINE_S = 170.0
TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("point_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
)
BLAS1_LAYERS = (
    "floquet.monodromy.s",
    "backends.strang_sequence.s",
    "backends.step_sequence.s",
    "system.label_eigenstates.s",
)


class BenchError(RuntimeError):
    pass


def _call(argv: list[str], deadline: float, env_extra: dict | None = None) -> dict:
    """Run one worker step to completion and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(argv[:1]))
    env = dict(os.environ, **(env_extra or {}))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile_or_none(samples: list[float], q: int) -> float | None:
    """q-th percentile when at least TAIL_SAMPLES samples lie beyond it."""
    if len(samples) * (100 - q) < 100 * TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


def _failures(result: dict) -> list[str]:
    return [f"{key}: {err}" for key, err in zip(result["points"], result["errors"]) if err]


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    _call(["setup"], deadline)  # warm-up, discarded
    setups = [_call(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _call(_run_argv(args), deadline)
    p90 = _percentile_or_none(res["point_s"], 90)
    n = len(res["point_s"])
    failed = len(_failures(res))
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": res["solve_s"],
        "point_s_p50": statistics.median(res["point_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"setup_s      {values['setup_s']:.4f} s (median of {SETUP_PROBES} cold set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"solve_s      {values['solve_s']:.4f} s ({n} points)",
        f"point_s_p50  {values['point_s_p50']:.4f} s (n={n})",
        "point_s_p90  " + (f"{p90:.4f} s (n={n})" if p90 is not None else
                           f"not reported: n={n} leaves fewer than {TAIL_SAMPLES} samples above it"),
        f"peak_rss_mb  {values['peak_rss_mb']:.1f} MiB",
        f"fail_frac    {failed / n:.4f} ({failed}/{n})",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, [res], lines


def per_layer(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    base = _call(_run_argv(args), deadline)
    traced = _call(_run_argv(args) + ["--traced"], deadline)
    single = _call(
        _run_argv(args) + ["--traced"], deadline, {var: "1" for var in BLAS_THREAD_VARS}
    )
    for res in (traced, single):
        if res["nesting_violations"]:
            raise BenchError(f"{res['nesting_violations']} spans lie outside their parent")

    values = dict(traced["layers"])
    overhead = traced["solve_s"] - base["solve_s"]
    values.update({
        "trace.solve_s": traced["solve_s"],
        "trace.untraced_solve_s": base["solve_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / base["solve_s"],
        "env.blas_threads": traced["env"]["blas"]["threads"] or 0,
        "blas1.solve_s": single["solve_s"],
        "blas1.point_s_p50": statistics.median(single["point_s"]),
        "blas1.blas_threads": single["env"]["blas"]["threads"] or 0,
    })
    values.update({f"blas1.{name}": single["layers"][name] for name in BLAS1_LAYERS})
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in tracer.LAYER_METRICS
    }
    lines = [f"{name:<48} {values[name]:.6g} {unit}" for name, unit in tracer.LAYER_METRICS]
    return metrics, [base, traced, single], lines


def _run_argv(args) -> list[str]:
    return ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fluxgate benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "fluxgate" / "__init__.py").is_file():
        print(f"error: no fluxgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    preset = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
    if preset:
        print(f"warning: BLAS thread variables already set: {preset}", file=sys.stderr)

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, results, lines = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for res in results for f in _failures(res)]
    attempted = sum(len(res["points"]) for res in results)
    print(f"# env {json.dumps(results[0]['env'], sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    for line in lines:
        print(f"# {line}")
    for failure in failures:
        print(f"# failed point {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
