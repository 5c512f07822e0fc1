"""Command-line entry points for every bundled experiment.

Each command reads one INI config, validates it fully before touching
the filesystem, and writes into a content-addressed run directory its
outputs and a versioned JSON sidecar, ``run.json``. The outputs are
``result.csv``, but for ``gate-opt`` ``report.json`` (a calibration's
report) and ``trace.jsonl`` (one JSON line per objective evaluation, in
order); ``gate-sweep`` also writes ``reports.jsonl``, one line per
finished cell in row order with the cell's ``gate_time`` and
``drive_ramp`` and gate-opt's two files as ``report`` and ``trace``.
Every command but ``spectrum`` runs its points through ``_run_points``,
a gate-opt calibration as its one point, the ``[gate]`` cell keyed as a
gate-sweep cell. The runner holds the one failure rule: a point fails
when its worker raises a library error (``FluxgateError``), or when it
finishes with a value the command's rule marks unmet (a Floquet
transition not found, a calibration that stagnated). Failures are logged
in the sidecar and reflected in the exit code while the scan continues;
any other exception is a bug and propagates. Values and failures of both
kinds come back in job order, fresh or resumed, so output does not
depend on the order in which points finish. Every finished point, met or
not, is checkpointed with the ``code_digest`` of the package's sources,
so ``--resume`` skips it without recomputing and retries raised points
and points another build computed: a checkpoint is reused only by the
build that wrote it. A pool runs min(workers, cores, pending points)
processes, and a pool of one runs in this process.

Every library call computes at one OpenBLAS thread (see ``backends``),
so results depend neither on ``--workers`` nor on the caller's count.

A library error raised outside the point runner fails the whole run:
the sidecar lists it as the run's one failure, under the command's name.

Exit codes: 0 clean, 1 at least one point failed, 2 configuration or
usage errors (nothing is written).

Output files use GHz, ns, and flux quanta, matching the config format.
The integrator step comes from ``[output] dt``, in ns, alone: a
calibration seeds and scores at ``dt`` and searches at
``gates.search_dt``.
Each run setting has one source: the config holds what determines the
results, which the run id hashes, and the command line holds where the
output goes (``--out``, by default ``runs`` in the working directory)
and how many processes run (``--workers``, by default 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import backends, gates
from .circuits import diagonalize_fluxonium, diagonalize_transmon_charge
from .config import LADDER, RunConfig, load_config
from .errors import ConfigError, FluxgateError, LabelingError
from .evolve import (
    DEFAULT_RECORD,
    amplitude_point,
    chevron_column,
    dressed_frame,
    label_key,
)
from .floquet import extract_transition
from .system import build_hamiltonian, label_eigenstates, state_dependent_shifts, zz_coupling

# Named, not __name__, so ``python -m fluxgate.cli`` logs under the package too.
logger = logging.getLogger("fluxgate.cli")


class _LiveStderr(logging.StreamHandler):
    """A stream handler on whatever ``sys.stderr`` is when a record is
    emitted, so a caller that swaps the stream still sees every line."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


# The package logger's one handler, attached by the first ``main`` call:
# INFO lines such as a resume's recompute count reach the terminal.
_STDERR = _LiveStderr()

SIDECAR_SCHEMA = "fluxgate.run/1"
PROGRESS_NAME = "progress.jsonl"
STAGNATED = "optimizer stagnated above the objective limit"


def _fmt(value) -> str:
    """Stable text form for CSV cells."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@cache
def code_digest() -> str:
    """sha256 over the name and bytes of each module of the package, in
    name order: the identity of the build that computes a checkpoint."""
    digest = hashlib.sha256()
    for module in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(module.name.encode() + b"\0" + module.read_bytes())
    return digest.hexdigest()


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


class RunDirectory:
    """Content-addressed output directory with point checkpoints."""

    def __init__(self, root: Path, command: str, payload: dict):
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        self.command = command
        self.run_id = digest[:12]
        self.payload = payload
        self.path = root / f"{command}-{self.run_id}"
        self.path.mkdir(parents=True, exist_ok=True)

    def completed_points(self, resume: bool) -> dict[str, object]:
        """Checkpointed values by key, keeping only points this build
        computed: a line is reused only when its ``code`` is the live
        ``code_digest()``, and any other line is recomputed.

        An interrupted append leaves a torn last line. It is logged and
        dropped from the file, which is rewritten to end in a newline so
        the next append starts a line of its own, and its point is
        recomputed.
        """
        progress = self.path / PROGRESS_NAME
        if not resume:
            progress.unlink(missing_ok=True)
            return {}
        done: dict[str, object] = {}
        stale = 0
        text = progress.read_text(encoding="utf-8") if progress.exists() else ""
        kept = []
        for line in filter(str.strip, text.splitlines()):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                logger.warning("dropping a torn checkpoint line: %.60s", line)
                continue
            kept.append(line)
            if entry.get("code") == code_digest():
                done[entry["key"]] = entry["value"]
            else:
                stale += 1
        clean = "".join(line + "\n" for line in kept)
        if clean != text:
            progress.write_text(clean, encoding="utf-8")
        if stale:
            logger.info("recomputing %d checkpointed point(s) computed by another "
                        "build", stale)
        return done

    def checkpoint(self, key: str, value) -> None:
        with open(self.path / PROGRESS_NAME, "a", encoding="utf-8") as fh:
            entry = {"key": key, "value": value, "code": code_digest()}
            fh.write(json.dumps(entry) + "\n")
            fh.flush()

    def clear_checkpoints(self) -> None:
        (self.path / PROGRESS_NAME).unlink(missing_ok=True)

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> Path:
        target = self.path / name
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return target

    def write_json(self, name: str, payload: dict) -> Path:
        target = self.path / name
        target.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return target

    def write_jsonl(self, name: str, records) -> Path:
        target = self.path / name
        target.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
        )
        return target

    def write_sidecar(self, dt: float, outputs: list[str], failures: list[dict],
                      n_points: int) -> Path:
        return self.write_json(
            "run.json",
            {
                "schema": SIDECAR_SCHEMA,
                "command": self.command,
                "run_id": self.run_id,
                "created": datetime.now(timezone.utc).isoformat(),
                "dt": dt,
                "inputs": self.payload,
                "n_points": n_points,
                "failures": failures,
                "outputs": outputs,
                # The count library calls compute at: 1, or None without
                # numpy's OpenBLAS.
                "blas_threads": backends.one_blas_thread(backends.blas_threads)(),
            },
        )


def _run_points(
    run_dir: RunDirectory,
    jobs: list[tuple[str, tuple]],
    worker,
    workers: int,
    resume: bool,
    unmet=lambda value: None,
) -> tuple[list, list[dict]]:
    """Evaluate keyed jobs, checkpointing each finished point.

    Returns one value per job in job order, None for a point whose
    ``worker`` raised a ``FluxgateError`` (anything else propagates), and
    the failure records of all failed points in job order. A finished
    point fails too when ``unmet(value)`` returns a message; it keeps its
    value and its checkpoint, so ``--resume`` lists it again without
    recomputing it. Values must be JSON-serializable and not None.
    """
    done = run_dir.completed_points(resume)
    values = [done.get(key) for key, _ in jobs]
    pending = [i for i, (key, _) in enumerate(jobs) if key not in done]
    errors: dict[int, str] = {}

    def settle(i: int, compute) -> None:
        try:
            values[i] = compute()
        except FluxgateError as exc:
            errors[i] = str(exc)
        else:
            run_dir.checkpoint(jobs[i][0], values[i])

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, cores or 1, len(pending))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = {pool.submit(worker, *jobs[i][1]): i for i in pending}
            for future in as_completed(futures):
                settle(futures[future], future.result)
    else:
        for i in pending:
            settle(i, partial(worker, *jobs[i][1]))
    failures = []
    for i, (key, _) in enumerate(jobs):
        message = errors[i] if i in errors else unmet(values[i])
        if message is not None:
            failures.append({"point": key, "message": message})
    return values, failures


# Worker functions live at module scope so process pools can import them.

def _shift_point(params, flux: float) -> list:
    # Only an ambiguous labelling is a row of its own; any other library
    # error is a failed point.
    spec = label_eigenstates(build_hamiltonian(params, float(flux)))
    try:
        d0, d1 = state_dependent_shifts(spec)
        zz = zz_coupling(spec)
    except LabelingError:
        return [np.nan, np.nan, np.nan, 1]
    return [d0, d1, zz, 0]


def _floquet_point(params, flux_s, amp, pair, window, resolution, dt) -> list:
    # Either order of the pair names the same resonance.
    frame = dressed_frame(params, flux_s)
    split = abs(frame.energy_of(pair[1]) - frame.energy_of(pair[0]))
    result = extract_transition(
        params, flux_s, amp, pair,
        (split - window, split + window), resolution, dt=dt,
    )
    return [
        result.omega_res if result.found else np.nan,
        result.strength if result.found else np.nan,
        int(result.found),
    ]


def _sweep_cell(params, gate_cfg, t_g, ramp, dt, restarts, budget) -> dict:
    result = gates.optimize_cz(
        params, replace(gate_cfg, gate_time=t_g, drive_ramp=ramp), final_dt=dt,
        restarts=restarts, budget=budget,
    )
    return {"report": result.report(), "trace": list(result.trace)}


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(float(lo), float(hi), int(n))


def cmd_spectrum(rc: RunConfig, run_dir: RunDirectory, workers: int,
                 resume: bool) -> tuple[list[dict], list[str], int]:
    rows: list[list] = []
    for name, qubit in (("q0", rc.params.q0), ("q1", rc.params.q1)):
        data = diagonalize_fluxonium(qubit, n_levels=6)
        for i, j in LADDER:
            rows.append([name, "transition", i, j, data.transition(i, j)])
        for i, j in LADDER:
            rows.append([name, "element", i, j, abs(data.n_elements[i, j])])

    flux_points = [0.0]
    ref = rc.reference
    flux_s = rc.spectrum_flux
    if flux_s is not None:
        flux_points.append(float(flux_s))
    for flux in flux_points:
        data = diagonalize_transmon_charge(rc.params.coupler, n_levels=4, flux=flux)
        for i, j in ((0, 1), (1, 2)):
            rows.append(["coupler", f"transition@{_fmt(flux)}", i, j, data.transition(i, j)])
            rows.append(
                ["coupler", f"element@{_fmt(flux)}", i, j, abs(data.n_elements[i, j])]
            )

    csv = run_dir.write_csv("result.csv", ["circuit", "kind", "i", "j", "value"], rows)
    n_points = len(rows)

    if ref is not None:
        print("reference comparison (computed | reference | diff):")
        computed = {tuple(row[:4]): row[4] for row in rows}
        pairs: list[tuple[str, float, float]] = []
        for kind, symbol, per_qubit in (
            ("transition", "f", (ref.q0_transitions, ref.q1_transitions)),
            ("element", "n", (ref.q0_elements, ref.q1_elements)),
        ):
            for name, values in zip(("q0", "q1"), per_qubit):
                pairs += [
                    (f"{name} {symbol}{i}{j}", computed[name, kind, i, j], v)
                    for (i, j), v in zip(LADDER, values or ())
                ]
        coupler_refs = [("", 0.0, (ref.coupler_w01, ref.coupler_w12))]
        if flux_s is not None:
            coupler_refs.append((
                f"@{_fmt(float(flux_s))}", float(flux_s),
                (ref.coupler_w01_interaction, ref.coupler_w12_interaction),
            ))
        for suffix, flux, values in coupler_refs:
            pairs += [
                (f"coupler w{i}{j}{suffix}",
                 computed["coupler", f"transition@{_fmt(flux)}", i, j], v)
                for (i, j), v in zip(((0, 1), (1, 2)), values)
                if v is not None
            ]
        for label, value, ref_value in pairs:
            print(f"  {label:<14} {value:12.6f} | {ref_value:10.6f} | {abs(value - ref_value):.2e}")

    return [], [csv.name], n_points


def cmd_shift_scan(rc: RunConfig, run_dir: RunDirectory, workers: int,
                   resume: bool) -> tuple[list[dict], list[str], int]:
    scan = rc.require("shift_scan")
    grid = _grid(scan.flux_min, scan.flux_max, scan.points)
    jobs = [(_fmt(float(f)), (rc.params, float(f))) for f in grid]
    values, failures = _run_points(run_dir, jobs, _shift_point, workers, resume)

    rows = []
    for f, value in zip(grid, values):
        d0, d1, zz, ambiguous = value if value is not None else (np.nan, np.nan, np.nan, 1)
        rows.append([float(f), d0, d1, zz, int(ambiguous)])
    csv = run_dir.write_csv(
        "result.csv", ["flux", "shift_p0", "shift_p1", "zz", "ambiguous"], rows
    )
    return failures, [csv.name], len(jobs)


def cmd_chevron(rc: RunConfig, run_dir: RunDirectory, workers: int,
                resume: bool) -> tuple[list[dict], list[str], int]:
    scan = rc.require("chevron")
    freqs = _grid(scan.freq_min, scan.freq_max, scan.freq_points)
    t_grid = _grid(0.0, scan.time_max, scan.time_points)
    template = scan.template()
    record = DEFAULT_RECORD
    jobs = [
        (_fmt(float(f)), (rc.params, template, float(f), t_grid, scan.psi0, None, rc.dt, record))
        for f in freqs
    ]
    columns, failures = _run_points(run_dir, jobs, chevron_column, workers, resume)

    label_keys = [label_key(lab) for lab in record]
    header = ["freq", "time"] + [f"p{k}" for k in label_keys] + ["computational"]
    rows = []
    target_key = label_key(scan.psi0)
    valley_freq, valley_pop = np.nan, np.inf
    for f, column in zip(freqs, columns):
        for ti, t in enumerate(t_grid):
            cells = [float(f), float(t)]
            if column is None:
                cells += [np.nan] * (len(label_keys) + 1)
            else:
                cells += [column[k][ti] for k in label_keys]
                cells.append(column["computational"][ti])
            rows.append(cells)
        if column is not None and target_key in column:
            low = min(column[target_key])
            if low < valley_pop:
                valley_pop, valley_freq = low, float(f)
    csv = run_dir.write_csv("result.csv", header, rows)
    if np.isfinite(valley_freq):
        print(
            f"deepest {target_key} depletion at {valley_freq:.6f} GHz "
            f"(population {valley_pop:.4f})"
        )
    return failures, [csv.name], len(jobs)


def cmd_amplitude(rc: RunConfig, run_dir: RunDirectory, workers: int,
                  resume: bool) -> tuple[list[dict], list[str], int]:
    scan = rc.require("amplitude")
    freqs = _grid(scan.freq_min, scan.freq_max, scan.freq_points)
    amps = _grid(scan.amp_min, scan.amp_max, scan.amp_points)
    template = scan.template()
    cells = [(float(f), float(a)) for f in freqs for a in amps]
    jobs = [
        (
            f"{_fmt(f)}|{_fmt(a)}",
            (rc.params, template, f, a, scan.fixed_time, (1, 0, 1), None, rc.dt),
        )
        for f, a in cells
    ]
    values, failures = _run_points(run_dir, jobs, amplitude_point, workers, resume)

    rows = [
        [f, a, np.nan if p101 is None else p101] for (f, a), p101 in zip(cells, values)
    ]
    csv = run_dir.write_csv("result.csv", ["freq", "amp", "p101"], rows)
    return failures, [csv.name], len(jobs)


def cmd_floquet(rc: RunConfig, run_dir: RunDirectory, workers: int,
                resume: bool) -> tuple[list[dict], list[str], int]:
    scan = rc.require("floquet")
    jobs = [
        (
            _fmt(float(amp)),
            (rc.params, scan.flux_s, float(amp), scan.pair, scan.window,
             scan.resolution, rc.dt),
        )
        for amp in scan.amp_values
    ]
    values, failures = _run_points(
        run_dir, jobs, _floquet_point, workers, resume,
        unmet=lambda value: None if value[2] else "transition not found in the scan window",
    )

    rows = []
    for amp, value in zip(scan.amp_values, values):
        omega, strength, found = value if value is not None else (np.nan, np.nan, 0)
        rows.append([float(amp), omega, strength, int(found)])
    csv = run_dir.write_csv(
        "result.csv", ["amp", "omega_res", "strength", "found"], rows
    )
    for row in rows:
        if row[3]:
            print(
                f"amp {row[0]:+.4f}: resonance {row[1]:.6f} GHz, "
                f"strength {row[2] * 1e3:.3f} MHz"
            )
    return failures, [csv.name], len(jobs)


def _calibrate(rc, run_dir, cells, workers, resume) -> tuple[list, list[dict]]:
    gate_cfg = rc.require("gate")
    jobs = [
        (f"{_fmt(t_g)}|{_fmt(ramp)}",
         (rc.params, gate_cfg, t_g, ramp, rc.dt, rc.gate_restarts, rc.gate_budget))
        for t_g, ramp in cells
    ]
    return _run_points(run_dir, jobs, _sweep_cell, workers, resume,
                       lambda value: None if value["report"]["success"] else STAGNATED)


def cmd_gate_opt(rc: RunConfig, run_dir: RunDirectory, workers: int,
                 resume: bool) -> tuple[list[dict], list[str], int]:
    gate = rc.require("gate")
    (value,), failures = _calibrate(rc, run_dir, [(gate.gate_time, gate.drive_ramp)],
                                    workers, resume)
    if value is None:
        return failures, [], 1
    report = value["report"]
    out = run_dir.write_json("report.json", report)
    trace = run_dir.write_jsonl("trace.jsonl", value["trace"])
    optimum, m = report["optimum"], report["metrics"]
    print(f"optimum: omega_p {optimum['omega_p']:.6f} GHz, amplitude {optimum['drive_amp']:.5f}\n"
          f"error {m['error']:.3e}, leakage {m['leakage']:.3e}, "
          f"conditional phase {m['conditional_phase']:+.5f} rad")
    return failures, [out.name, trace.name], 1


def cmd_gate_sweep(rc: RunConfig, run_dir: RunDirectory, workers: int,
                   resume: bool) -> tuple[list[dict], list[str], int]:
    cells = rc.require("sweep").cells
    values, failures = _calibrate(rc, run_dir, cells, workers, resume)
    # A cell that raised reads as an uncalibrated row, with no report line.
    rows, reports = [], []
    for (t_g, ramp), value in sorted(zip(cells, values), key=lambda cell: cell[0]):
        if value is None:
            rows.append([t_g, ramp] + [np.nan] * 4 + [False])
            continue
        m, optimum = value["report"]["metrics"], value["report"]["optimum"]
        rows.append([t_g, ramp, m["error"], m["leakage"], optimum["omega_p"],
                     optimum["drive_amp"], value["report"]["success"]])
        reports.append({"gate_time": t_g, "drive_ramp": ramp, **value})
    csv = run_dir.write_csv("result.csv", ["gate_time", "drive_ramp", "error", "leakage",
                                           "omega_p", "drive_amp", "success"], rows)
    lines = run_dir.write_jsonl("reports.jsonl", reports)
    return failures, [csv.name, lines.name], len(cells)


_COMMANDS = {
    "spectrum": (cmd_spectrum, None),
    "shift-scan": (cmd_shift_scan, "shift_scan"),
    "chevron": (cmd_chevron, "chevron"),
    "amplitude": (cmd_amplitude, "amplitude"),
    "floquet": (cmd_floquet, "floquet"),
    "gate-opt": (cmd_gate_opt, "gate"),
    "gate-sweep": (cmd_gate_sweep, "sweep"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxgate",
        description="Spectra, parametric transition scans, and CZ gate "
        "calibration for two fluxoniums with a tunable coupler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to an INI config")
        cmd.add_argument("--out", default="runs", help="output root directory")
        cmd.add_argument("--workers", type=int, default=1,
                         help="most processes for independent points")
        cmd.add_argument("--resume", action="store_true",
                         help="skip points this build already checkpointed in the run directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, section = _COMMANDS[args.command]
    package_log = logging.getLogger("fluxgate")
    if _STDERR not in package_log.handlers:
        package_log.addHandler(_STDERR)
        package_log.setLevel(logging.INFO)

    try:
        rc = load_config(args.config)
        if args.workers < 1:
            raise ConfigError("workers must be at least 1", "--workers")

        payload = {
            "command": args.command,
            "params": asdict(rc.params),
            "section": None if section is None else asdict(rc.require(section)),
            "dt": rc.dt,
        }
        if args.command == "spectrum":
            payload["flux"] = rc.spectrum_flux
        if args.command == "gate-sweep":
            payload["gate"] = asdict(rc.require("gate"))
        if args.command in ("gate-opt", "gate-sweep"):
            payload["restarts"] = rc.gate_restarts
            payload["budget"] = rc.gate_budget

        try:
            run_dir = RunDirectory(Path(args.out), args.command, payload)
        except OSError as exc:  # --out names a file, or a path that cannot hold one
            raise ConfigError(str(exc), "--out") from exc
        try:
            failures, outputs, n_points = handler(rc, run_dir, args.workers, args.resume)
        except FluxgateError as exc:
            # The directory exists already: its sidecar records the error
            # as the run's one failure.
            run_dir.write_sidecar(rc.dt, [], [{"point": args.command, "message": str(exc)}], 1)
            raise
        run_dir.write_sidecar(rc.dt, outputs, failures, n_points)
        if not failures:
            run_dir.clear_checkpoints()
        print(f"run directory: {run_dir.path}")
        for failure in failures:
            print(f"point failed: {failure['point']}: {failure['message']}",
                  file=sys.stderr)
        return 1 if failures else 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FluxgateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
