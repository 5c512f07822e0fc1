"""Flux waveforms: flat-top cosine parametric drives and slow bias ramps.

The coupler flux is the sum of a slow bias schedule and a fast
parametric modulation,

    Phi(t) = Phi_bias(t) + delta_Phi env(tau) cos(2 pi f_p tau + phase)

where tau is time measured from the start of the drive window and
``phase`` is the carrier phase there, 0 unless set: a gate and an
amplitude cell set it to ``centred_phase``, which centres the carrier on
the window (``ParametricPulse``). The
envelope rises and falls with half-cosine flanks of length ``ramp_time``
and is flat in between, so the waveform and its first derivative are
continuous at every junction. An optional bias ramp carries the coupler
from its idle flux to the pulse's static flux before the drive window,
and back after it, on the flanks of the same envelope.

Times are in ns, frequencies in GHz, fluxes in units of the flux
quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi
# Length in ns of each drive flank of a scan or gate that sets none.
DEFAULT_DRIVE_RAMP = 5.0


@dataclass(frozen=True)
class ParametricPulse:
    """Flat-top cosine flux modulation around a static bias.

    ``gate_time`` spans the whole drive window including both envelope
    flanks of ``ramp_time`` each. ``phase`` is the carrier phase at the
    window start, in rad. Chevron and Floquet drives leave it at 0;
    ``gates.gate_schedule`` and ``evolve.amplitude_point`` set it to
    ``centred_phase``, so the carrier is cos(2 pi f_p (tau - gate_time / 2)),
    centred on the window, and the waveform is symmetric about the window
    centre. A non-finite field raises DomainError.
    """

    flux_static: float
    drive_amp: float
    drive_freq: float
    ramp_time: float
    gate_time: float
    phase: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.drive_amp < 0:
            raise ValueError("drive_amp must be non-negative")
        if self.drive_freq < 0:
            raise ValueError("drive_freq must be non-negative")
        if self.ramp_time < 0 or 2.0 * self.ramp_time > self.gate_time:
            raise ValueError("drive ramps must satisfy 0 <= 2 ramp_time <= gate_time")


@dataclass(frozen=True)
class BiasRamp:
    """Slow excursion from the idle flux to the pulse's ``flux_static``.

    That flux is held over the drive window; the outer flanks take
    ``ramp_time`` each. ``gates.gate_schedule`` builds one exactly when
    the gate sets an interaction flux. A non-finite field raises
    DomainError.
    """

    flux_idle: float
    ramp_time: float

    def __post_init__(self):
        _require_finite(self)
        if self.ramp_time <= 0:
            raise ValueError("bias ramp_time must be positive")


def _require_finite(waveform) -> None:
    """Raise DomainError on a nan or infinite field, which the range
    checks of ``__post_init__`` would let through."""
    for f in fields(waveform):
        if not math.isfinite(getattr(waveform, f.name)):
            raise DomainError(f"{type(waveform).__name__}.{f.name} must be finite")


def centred_phase(drive_freq: float, gate_time: float) -> float:
    """The carrier phase at the window start, -pi f_p gate_time (mod 2 pi),
    that puts a carrier peak at the centre of a drive window of
    ``gate_time``."""
    return math.remainder(-math.pi * drive_freq * gate_time, 2.0 * math.pi)


def envelope(tau, ramp_time: float, gate_time: float):
    """Flat-top cosine envelope on [0, gate_time], zero outside."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    if ramp_time > 0:
        rising = (tau >= 0) & (tau < ramp_time)
        out[rising] = 0.5 * (1.0 - np.cos(np.pi * tau[rising] / ramp_time))
        # The falling flank mirrors the rising one in gate_time - tau, so
        # the two edges agree even where ramp_time is below ulp(gate_time).
        falling = (gate_time - tau < ramp_time) & (tau <= gate_time)
        out[falling] = 0.5 * (1.0 - np.cos(np.pi * (gate_time - tau[falling]) / ramp_time))
        flat = (tau >= ramp_time) & (gate_time - tau >= ramp_time)
        out[flat] = 1.0
    else:
        out[(tau >= 0) & (tau <= gate_time)] = 1.0
    return out if out.ndim else float(out)


def drive_window(pulse: ParametricPulse, ramp: BiasRamp | None) -> tuple[float, float]:
    """Absolute start and end times of the parametric drive."""
    t0 = 0.0 if ramp is None else ramp.ramp_time
    return t0, t0 + pulse.gate_time


def total_duration(pulse: ParametricPulse, ramp: BiasRamp | None) -> float:
    if ramp is None:
        return pulse.gate_time
    return 2.0 * ramp.ramp_time + pulse.gate_time


def bias_flux(pulse: ParametricPulse, ramp: BiasRamp | None, t):
    """Slow bias component of the flux schedule at time(s) t.

    With a ramp, the bias is an ``envelope`` over the whole schedule from
    ``ramp.flux_idle`` to ``pulse.flux_static``, written from the held
    flux so the hold is exactly ``flux_static``.
    """
    if ramp is None:
        return (
            np.full_like(np.asarray(t, dtype=float), pulse.flux_static)
            if np.ndim(t)
            else pulse.flux_static
        )
    below = 1.0 - envelope(t, ramp.ramp_time, total_duration(pulse, ramp))
    return pulse.flux_static - (pulse.flux_static - ramp.flux_idle) * below


def drive_flux(pulse: ParametricPulse, ramp: BiasRamp | None, t):
    """Fast modulation component, zero outside the drive window.

    The carrier, cos(2 pi f_p tau + phase), is referenced to the start of
    the drive window, so a bias ramp before it does not change the
    waveform seen by the coupler. ``phase`` is 0 except in a gate or an
    amplitude cell, which centre the carrier on the window.
    """
    t0, _ = drive_window(pulse, ramp)
    tau = np.asarray(t, dtype=float) - t0
    env = envelope(tau, pulse.ramp_time, pulse.gate_time)
    out = pulse.drive_amp * env * np.cos(TWO_PI * pulse.drive_freq * tau + pulse.phase)
    return out if np.ndim(out) else float(out)

