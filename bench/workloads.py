"""Seeded workload inputs, the library calls that run them, and output checks.

Each workload draws its points from a finite pool built from the bundled
device configs, so every point the benchmark can generate has a recorded
reference output in ``reference.json``. The same (workload, seed, seconds)
always yields the same point list; the library only ever sees the
generated inputs.

Points are plain JSON-ready dicts. ``run_point`` makes exactly the
library calls the matching CLI worker makes (``optimize_cz`` for a
``gate-sweep`` cell, ``chevron_column``/``amplitude_point`` for the scan
commands, ``build_hamiltonian`` + ``label_eigenstates`` for
``shift-scan``) and returns the outputs that ``check_point`` compares
against the reference within the repository's accuracy contracts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
from fluxgate import evolve, gates, system
from fluxgate.config import load_config
from fluxgate.errors import FluxgateError
from fluxgate.pulses import ParametricPulse

WORKLOADS = ("calibrate", "propagate", "spectrum")
DEVICES = ("set500", "set300")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# calibrate: one gate-sweep cell = Floquet seed + a small simplex budget,
# searched at 1 ps and re-scored at 0.5 ps as gate-opt does.
CAL_BUDGET = 4
CAL_RESTARTS = 1
CAL_DT = 1e-3
CAL_FINAL_DT = 5e-4
CAL_NOMINAL_S = 30.0

# propagate: per 20 s of nominal work, two amplitude cells and twelve
# shortened chevron columns, all at dt = 0.5 ps on set500. Chevron columns
# are the majority so the median point is a warm chevron column: the first
# point of each kind also fills the _flat_step cache for its step lengths.
PROP_DT = 5e-4
PROP_UNIT_S = 20.0
PROP_AMP_PER_UNIT = 2
PROP_CHEV_PER_UNIT = 12
CHEVRON_TIME_MAX = 30.0
CHEVRON_SNAPSHOTS = 6
AMPLITUDE_STRIDE = 3  # every third frequency and amplitude of [amplitude]

# spectrum: shift-scan points alternating set500 and set300.
SPEC_NOMINAL_S = 0.0105
SPEC_FLUX_POINTS = 181  # [shift_scan] range on a 2.5 mflux grid

# Accuracy contracts the checks hold outputs to (absolute).
GHZ_TOL = 1e-6  # energies, shifts, ZZ, drive frequency
POP_TOL = 1e-6  # populations and gate scores (dt-halving contract)
AMP_TOL = 1e-6  # drive amplitude, flux quanta
PHASE_TOL = 1e-6  # conditional phase, rad

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """The CLI's grid: ``np.linspace`` as plain floats."""
    return np.linspace(float(lo), float(hi), int(n)).tolist()


def load_devices() -> dict:
    """RunConfig of every bundled device the workloads use."""
    data = resources.files("fluxgate.data")
    return {name: load_config(str(data / f"{name}.cfg")) for name in DEVICES}


def pool(name: str, devices: dict) -> list[dict]:
    """Every point the workload can draw, in a fixed order."""
    rc = devices["set500"]
    if name == "calibrate":
        sweep = rc.require("sweep")
        return [
            {"kind": "calibrate", "device": "set500",
             "gate_time": float(t_g), "drive_ramp": float(ramp)}
            for t_g in sweep.gate_times
            for ramp in sweep.drive_ramps
            if float(t_g) >= 2.0 * float(ramp) + 10.0
        ]
    if name == "propagate":
        chev = rc.require("chevron")
        amp = rc.require("amplitude")
        points = [
            {"kind": "chevron", "device": "set500", "freq": f}
            for f in _grid(chev.freq_min, chev.freq_max, chev.freq_points)
        ]
        freqs = _grid(amp.freq_min, amp.freq_max, amp.freq_points)[::AMPLITUDE_STRIDE]
        amps = _grid(amp.amp_min, amp.amp_max, amp.amp_points)[::AMPLITUDE_STRIDE]
        points += [
            {"kind": "amplitude", "device": "set500", "freq": f, "amp": a}
            for f in freqs
            for a in amps
        ]
        return points
    if name == "spectrum":
        points = []
        for device in DEVICES:
            scan = devices[device].require("shift_scan")
            points += [
                {"kind": "shift", "device": device, "flux": f}
                for f in _grid(scan.flux_min, scan.flux_max, SPEC_FLUX_POINTS)
            ]
        return points
    raise ValueError(f"unknown workload {name!r}")


def _draw(rng: random.Random, candidates: list[dict], n: int) -> list[dict]:
    """n distinct candidates while the pool lasts, then with replacement."""
    if n <= len(candidates):
        return rng.sample(candidates, n)
    return rng.sample(candidates, len(candidates)) + rng.choices(
        candidates, k=n - len(candidates)
    )


def generate(name: str, seed: int, seconds: float, devices: dict) -> list[dict]:
    """The point list of one run; sized from ``seconds``, drawn from ``seed``."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    rng = random.Random(f"{name}:{seed}")
    points = pool(name, devices)
    if name == "calibrate":
        # Cells alternate between drive ramps, starting with the bundled
        # gate's. A 10 ns ramp doubles the drive-ramp steps of every
        # evaluation, so a one-cell run drawn across ramps would make the
        # run's cost depend on the seed.
        n = max(1, round(seconds / CAL_NOMINAL_S))
        first = devices["set500"].require("gate").drive_ramp
        ramps = sorted({p["drive_ramp"] for p in points}, key=lambda r: (r != first, r))
        strata = [[p for p in points if p["drive_ramp"] == r] for r in ramps]
        drawn = [_draw(rng, cells, len(range(i, n, len(strata))))
                 for i, cells in enumerate(strata)]
        return [drawn[i % len(strata)][i // len(strata)] for i in range(n)]
    if name == "propagate":
        units = max(1, round(seconds / PROP_UNIT_S))
        chev = [p for p in points if p["kind"] == "chevron"]
        amp = [p for p in points if p["kind"] == "amplitude"]
        chosen = _draw(rng, amp, PROP_AMP_PER_UNIT * units)
        chosen += _draw(rng, chev, PROP_CHEV_PER_UNIT * units)
        rng.shuffle(chosen)
        return chosen
    if name == "spectrum":
        n = max(2, round(seconds / SPEC_NOMINAL_S))
        by_device = {
            device: [p for p in points if p["device"] == device] for device in DEVICES
        }
        return [rng.choice(by_device[DEVICES[i % len(DEVICES)]]) for i in range(n)]
    raise ValueError(f"unknown workload {name!r}")


def point_key(point: dict) -> str:
    kind = point["kind"]
    if kind == "calibrate":
        return f"calibrate|{_fmt(point['gate_time'])}|{_fmt(point['drive_ramp'])}"
    if kind == "chevron":
        return f"chevron|{_fmt(point['freq'])}"
    if kind == "amplitude":
        return f"amplitude|{_fmt(point['freq'])}|{_fmt(point['amp'])}"
    if kind == "shift":
        return f"shift|{point['device']}|{_fmt(point['flux'])}"
    raise ValueError(f"unknown point kind {kind!r}")


def warm_up(devices: dict) -> None:
    """Per-device set-up every run pays once, outside the timed points."""
    for rc in devices.values():
        system.assemble_operators(rc.params)


def _label_text(label) -> str:
    return "".join(str(d) for d in label)


def _finite_or_none(value: float):
    return float(value) if math.isfinite(value) else None


def run_point(point: dict, devices: dict) -> dict:
    """Run one point through the library; JSON-ready outputs."""
    rc = devices[point["device"]]
    params = rc.params
    kind = point["kind"]
    if kind == "calibrate":
        cfg = replace(
            rc.require("gate"),
            gate_time=point["gate_time"],
            drive_ramp=point["drive_ramp"],
        )
        res = gates.optimize_cz(
            params, cfg, dt=CAL_DT, final_dt=CAL_FINAL_DT,
            restarts=CAL_RESTARTS, budget=CAL_BUDGET,
        )
        m = res.metrics
        return {
            "omega_p": res.omega_p,
            "drive_amp": res.drive_amp,
            "error": m.error,
            "leakage": m.leakage,
            "conditional_phase": m.conditional_phase,
            "success": bool(res.success),
        }
    if kind == "chevron":
        scan = rc.require("chevron")
        template = ParametricPulse(
            flux_static=scan.flux_s,
            drive_amp=scan.drive_amp,
            drive_freq=point["freq"],
            ramp_time=scan.ramp_time,
            gate_time=CHEVRON_TIME_MAX,
        )
        t_grid = _grid(0.0, CHEVRON_TIME_MAX, CHEVRON_SNAPSHOTS)
        column = evolve.chevron_column(
            params, template, point["freq"], t_grid, tuple(scan.psi0), None,
            PROP_DT, evolve.DEFAULT_RECORD,
        )
        return {
            ("computational" if key == "computational" else _label_text(key)):
                [float(v) for v in values]
            for key, values in column.items()
        }
    if kind == "amplitude":
        scan = rc.require("amplitude")
        template = ParametricPulse(
            flux_static=scan.flux_s,
            drive_amp=point["amp"],
            drive_freq=point["freq"],
            ramp_time=scan.ramp_time,
            gate_time=scan.fixed_time,
        )
        p101 = evolve.amplitude_point(
            params, template, point["freq"], point["amp"], scan.fixed_time,
            (1, 0, 1), None, PROP_DT,
        )
        return {"p101": float(p101)}
    if kind == "shift":
        try:
            spec = system.label_eigenstates(
                system.build_hamiltonian(params, point["flux"])
            )
            d0, d1 = system.state_dependent_shifts(spec)
            zz = system.zz_coupling(spec)
        except FluxgateError:
            return {"shift_p0": None, "shift_p1": None, "zz": None, "ambiguous": True}
        return {
            "shift_p0": _finite_or_none(d0),
            "shift_p1": _finite_or_none(d1),
            "zz": _finite_or_none(zz),
            "ambiguous": False,
        }
    raise ValueError(f"unknown point kind {kind!r}")


_TOLERANCES = {
    "omega_p": GHZ_TOL,
    "drive_amp": AMP_TOL,
    "error": POP_TOL,
    "leakage": POP_TOL,
    "conditional_phase": PHASE_TOL,
    "shift_p0": GHZ_TOL,
    "shift_p1": GHZ_TOL,
    "zz": GHZ_TOL,
}


def _close(got, want, tol: float) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= tol


def check_point(outputs: dict, reference: dict) -> str | None:
    """None when ``outputs`` match ``reference``, else the first mismatch."""
    if set(outputs) != set(reference):
        return f"output keys {sorted(outputs)} != reference {sorted(reference)}"
    for key, want in reference.items():
        got = outputs[key]
        if isinstance(want, bool):
            if got != want:
                return f"{key}: {got!r} != reference {want!r}"
        elif isinstance(want, list):
            if len(got) != len(want):
                return f"{key}: {len(got)} snapshots != reference {len(want)}"
            for i, (g, w) in enumerate(zip(got, want)):
                if not _close(g, w, POP_TOL):
                    return f"{key}[{i}]: {g!r} differs from reference {w!r} by > {POP_TOL:g}"
        elif not _close(got, want, _TOLERANCES.get(key, POP_TOL)):
            return f"{key}: {got!r} differs from reference {want!r}"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["points"]
