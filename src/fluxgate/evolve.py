"""Time-domain propagation under a modulated coupler flux.

The Hamiltonian at any instant splits the flux into the slow bias
Phi_b(t) and the full waveform Phi(t) = Phi_b(t) + drive:

    H(t) = A + c1(t) diag(N) + c2(t) B
    c1(t) = omega_c(Phi_b) + [E_J(Phi(t)) - E_J(Phi_b)] phi_zpf^2(Phi_b)
    c2(t) = n_zpf(Phi_b)

so the static pieces follow the bias exactly while the fast modulation
enters through the junction-energy swing linearized onto the coupler
number operator. At zero drive this reduces to the static Hamiltonian
at the bias flux, term by term.

Propagation is second-order stepping (see ``backends``): split-operator
steps around the exact static step where the bias is constant, and
midpoint-exponential steps across bias ramps. Initial states and
recorded populations live in the dressed eigenbasis of the idle (t = 0)
Hamiltonian. When the drive envelope is flat and the bias constant,
whole drive periods are advanced by powers of the one-period propagator,
which is exact for a periodic Hamiltonian and removes most of the
stepping cost of long gates.

The stepping error falls 4x per halving of dt. The contract that halving
dt moves recorded populations by less than 1e-6 holds at the default
0.5 ps only for drives that leave the populations nearly idle. Measured
on set500 at flux 0.35 (the p101 change from halving 0.5 ps, 100 ns
gate): 8e-10 to 6e-9 at 10.70 and 10.88 GHz with delta_Phi 0.005; 7e-7 at
10.88 GHz and 6e-6 at 10.70 GHz with delta_Phi 0.08; 9e-7 to 2e-6 near
the |101> <-> |202> resonance (10.77-10.79 GHz) with delta_Phi 0.005, and
1e-5 to 2.7e-4 there with delta_Phi 0.02-0.08 (1e-6 to 8e-5 over 30 ns).
A resonant strong drive needs a dt about 16x finer for 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import polar

from . import backends
from .circuits import TransmonParams
from .errors import DomainError, FluxgateError, IntegrationError, LabelingError
from .pulses import BiasRamp, ParametricPulse, bias_flux, drive_flux, drive_window, total_duration
from .system import (
    CompositeParams,
    LabeledSpectrum,
    assemble_operators,
    build_hamiltonian,
    label_eigenstates,
)

DEFAULT_DT = 0.0005
NORM_DRIFT_LIMIT = 1e-8
MIN_STROBE_PERIODS = 3
DRIVELESS_DT_FACTOR = 10.0

COMPUTATIONAL_LABELS = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))
DEFAULT_RECORD = COMPUTATIONAL_LABELS + ((2, 0, 2),)

Label = tuple[int, int, int]


@dataclass(frozen=True)
class EvolutionResult:
    """State trajectory in the dressed idle frame.

    ``populations`` maps each recorded label to its |overlap|^2 time
    series on ``times``; ``norm_drift`` is the final deviation of the
    state norm from one.
    """

    times: np.ndarray
    populations: dict[Label, np.ndarray]
    final_state: np.ndarray
    norm_drift: float


@dataclass(frozen=True)
class ComputationalUnitary:
    """Propagator truncated to the four dressed computational states.

    ``matrix[i, j]`` is the idle-frame amplitude on dressed state i after
    preparing dressed state j, with each row's free phase e^{-i 2 pi E_i t}
    removed. ``residuals[j]`` is the leaked population 1 - ||column j||^2.
    ``final_populations[k, j]`` is the end-of-schedule population of the
    dressed state ``state_labels[k]`` when column j was prepared.
    """

    matrix: np.ndarray
    residuals: np.ndarray
    labels: tuple[Label, ...]
    duration: float
    final_populations: np.ndarray
    state_labels: tuple[Label, ...]


@dataclass(frozen=True)
class ChevronResult:
    """Population maps on a (drive frequency) x (time) grid."""

    freqs: np.ndarray
    times: np.ndarray
    populations: dict[object, np.ndarray]
    failures: tuple[tuple[float, str], ...]


@dataclass(frozen=True)
class AmplitudeScanResult:
    """Final |11> population on a (drive frequency) x (amplitude) grid."""

    freqs: np.ndarray
    amps: np.ndarray
    population: np.ndarray
    failures: tuple[tuple[float, float, str], ...]


def oscillator_coefficients(
    coupler: TransmonParams, flux_bias, flux_full
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pair (c1, c2) of the time-dependent Hamiltonian.

    Vectorized over equally shaped bias and full flux arrays. c1 carries
    the coupler frequency plus the linearized junction-energy swing; c2
    is the charge zero-point fluctuation at the bias.
    """
    fb = np.asarray(flux_bias, dtype=float)
    ff = np.asarray(flux_full, dtype=float)
    ej_b = coupler.e_j_max * np.cos(np.pi * fb)
    ej_f = coupler.e_j_max * np.cos(np.pi * ff)
    if np.any(ej_b <= 0) or np.any(ej_f <= 0):
        raise DomainError("flux schedule leaves the positive-E_J domain")
    phi_zpf_sq = np.sqrt(2.0 * coupler.e_c / ej_b)
    c1 = np.sqrt(8.0 * coupler.e_c * ej_b) - coupler.e_c + (ej_f - ej_b) * phi_zpf_sq
    c2 = 0.5 / np.sqrt(phi_zpf_sq)
    return c1, c2


def drive_coefficients(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None,
    t,
) -> tuple[np.ndarray, np.ndarray]:
    """(c1, c2) evaluated on an arbitrary time grid."""
    fb = np.asarray(bias_flux(pulse, ramp, t), dtype=float)
    ff = fb + np.asarray(drive_flux(pulse, ramp, t), dtype=float)
    return oscillator_coefficients(params.coupler, fb, ff)


@lru_cache(maxsize=32)
def dressed_frame(params: CompositeParams, flux: float) -> LabeledSpectrum:
    """Labeled dressed spectrum at a fixed coupler flux (cached, read-only)."""
    frame = label_eigenstates(build_hamiltonian(params, flux))
    for arr in (frame.energies, frame.states, frame.overlaps, frame.ambiguous):
        arr.flags.writeable = False
    return frame


@lru_cache(maxsize=32)
def _orthonormal_states(params: CompositeParams, flux: float) -> np.ndarray:
    """Dressed eigenvectors at ``flux``, polar-corrected to orthonormal
    columns once per flux (cached, read-only)."""
    states = polar(dressed_frame(params, flux).states)[0]
    states.flags.writeable = False
    return states


def idle_flux(pulse: ParametricPulse, ramp: BiasRamp | None) -> float:
    return pulse.flux_static if ramp is None else ramp.flux_idle


def _check_bias_consistency(pulse: ParametricPulse, ramp: BiasRamp | None):
    if ramp is not None and abs(pulse.flux_static - ramp.flux_interaction) > 1e-12:
        raise ValueError(
            "pulse.flux_static must equal ramp.flux_interaction; the drive "
            "modulates the coupler around the interaction bias"
        )


def _check_dt(pulse: ParametricPulse, dt: float):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if pulse.drive_amp > 0 and pulse.drive_freq > 0:
        limit = 1.0 / (40.0 * pulse.drive_freq)
        if dt > limit:
            raise ValueError(
                f"dt = {dt} ns does not resolve the drive: need dt <= {limit:.2e} ns"
            )


def _resolve_state(frame: LabeledSpectrum, psi0) -> np.ndarray:
    """Initial state from a label, a label -> amplitude map, or a vector."""
    if isinstance(psi0, np.ndarray):
        v = psi0.astype(complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("initial state has zero norm")
        return v / n
    if isinstance(psi0, tuple) and len(psi0) == 3:
        return frame.states[:, frame.index_of(psi0)].astype(complex)
    if isinstance(psi0, dict):
        v = np.zeros(frame.states.shape[0], dtype=complex)
        for label, amp in psi0.items():
            v += amp * frame.states[:, frame.index_of(label)]
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("initial superposition has zero norm")
        return v / n
    raise TypeError(f"cannot interpret initial state of type {type(psi0).__name__}")


def _ambiguity_check(frame: LabeledSpectrum, labels) -> None:
    flagged = [lab for lab in labels if frame.ambiguous[frame.index_of(lab)]]
    if flagged:
        raise LabelingError(
            "initial/recorded states are ambiguous at the idle flux",
            flagged=tuple(flagged),
        )


def _boundaries(pulse: ParametricPulse, ramp: BiasRamp | None) -> list[float]:
    t0, t1 = drive_window(pulse, ramp)
    cuts = {0.0, total_duration(pulse, ramp), t0, t1}
    if pulse.ramp_time > 0:
        cuts.update((t0 + pulse.ramp_time, t1 - pulse.ramp_time))
    if ramp is not None:
        cuts.update((ramp.ramp_time, t1 + ramp.lag))
    return sorted(cuts)


def _flat_interval(pulse: ParametricPulse, ramp: BiasRamp | None) -> tuple[float, float]:
    """Interval where the drive envelope is 1 and the bias constant."""
    t0, t1 = drive_window(pulse, ramp)
    return t0 + pulse.ramp_time, t1 - pulse.ramp_time


@lru_cache(maxsize=64)
def _flat_step(params: CompositeParams, flux: float, h: float) -> np.ndarray:
    """Exact one-step propagator of the static Hamiltonian at ``flux``.

    Built as Q exp(-i 2 pi h E) Q^dag from the dressed energies E and the
    eigenvectors Q orthonormalised once per flux, so a new step length
    costs one matmul and long step products accumulate only matmul
    roundoff, not the eigenbasis orthonormality defect.
    """
    energies = dressed_frame(params, flux).energies
    states = _orthonormal_states(params, flux)
    u0 = (states * np.exp(-2j * np.pi * h * energies)) @ states.conj().T
    u0.flags.writeable = False
    return u0


def _step_interval(params, pulse, ramp, t_a, t_b, dt, block):
    """Step ``block`` across [t_a, t_b] with the scheme the interval allows.

    Constant-bias intervals use the split-operator kernel around the
    exact static step (the drive enters as a diagonal perturbation);
    bias ramps fall back to full midpoint-exponential steps. Intervals
    without any drive carry no carrier to resolve and take steps
    DRIVELESS_DT_FACTOR times coarser. The module docstring says where
    the dt-halving contract holds.
    """
    span = t_b - t_a
    if span <= 0:
        return block
    t0, t1 = drive_window(pulse, ramp)
    driven = pulse.drive_amp > 0 and t_b > t0 and t_a < t1
    dt_eff = dt if driven else dt * DRIVELESS_DT_FACTOR
    n = max(1, int(np.ceil(span / dt_eff)))
    h = span / n
    mids = t_a + (np.arange(n) + 0.5) * h
    fb = np.asarray(bias_flux(pulse, ramp, mids), dtype=float)
    c1, c2 = drive_coefficients(params, pulse, ramp, mids)
    ops = assemble_operators(params)
    if np.ptp(fb) == 0.0:
        flux_b = float(fb[0])
        c1_flat, _ = oscillator_coefficients(params.coupler, flux_b, flux_b)
        u0 = _flat_step(params, flux_b, h)
        return backends.strang_sequence(u0, ops.n_diag, c1 - float(c1_flat), h, block)
    return backends.step_sequence(ops.a_fixed, ops.n_diag, ops.b_op, c1, c2, h, block)


def _propagate_block(params, pulse, ramp, dt, block, stroboscopic):
    """Advance ``block`` through the full schedule; optionally compress
    whole drive periods in the flat-top region into monodromy powers."""
    _check_bias_consistency(pulse, ramp)
    _check_dt(pulse, dt)
    ops = assemble_operators(params)

    flat_a, flat_b = _flat_interval(pulse, ramp)
    period = 1.0 / pulse.drive_freq if pulse.drive_freq > 0 else np.inf
    use_strobe = (
        stroboscopic
        and pulse.drive_amp > 0
        and pulse.drive_freq > 0
        and (flat_b - flat_a) > MIN_STROBE_PERIODS * period
    )

    cuts = [b for b in _boundaries(pulse, ramp)]
    out = block
    for t_a, t_b in zip(cuts[:-1], cuts[1:]):
        if use_strobe and abs(t_a - flat_a) < 1e-12 and abs(t_b - flat_b) < 1e-12:
            n_per = int(np.floor((flat_b - flat_a) / period))
            eye = np.eye(ops.a_fixed.shape[0], dtype=complex)
            mono = _step_interval(params, pulse, ramp, flat_a, flat_a + period, dt, eye)
            out = backends.apply_power(mono, n_per, out)
            out = _step_interval(params, pulse, ramp, flat_a + n_per * period, flat_b, dt, out)
        else:
            out = _step_interval(params, pulse, ramp, t_a, t_b, dt, out)
    return out


def propagate_state(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None = None,
    psi0=(1, 0, 1),
    dt: float = DEFAULT_DT,
    record=None,
    t_grid=None,
) -> EvolutionResult:
    """Integrate the Schroedinger equation and record dressed populations.

    ``psi0`` may be a dressed-state label, a label -> amplitude mapping,
    or a raw vector in the bare product basis. ``record`` lists the
    labels whose populations are tracked ("all" tracks the full dressed
    basis); ``t_grid`` defaults to 201 evenly spaced snapshot times.

    Raises IntegrationError when the final norm drifts from unity by
    more than 1e-8, and LabelingError when a requested dressed label is
    ambiguous at the idle flux.
    """
    _check_bias_consistency(pulse, ramp)
    _check_dt(pulse, dt)
    frame = dressed_frame(params, idle_flux(pulse, ramp))

    if record is None:
        record = DEFAULT_RECORD
    elif isinstance(record, str) and record == "all":
        record = frame.labels
    record = tuple(record)
    if isinstance(psi0, tuple):
        _ambiguity_check(frame, [psi0])
    elif isinstance(psi0, dict):
        _ambiguity_check(frame, list(psi0))

    duration = total_duration(pulse, ramp)
    if t_grid is None:
        t_grid = np.linspace(0.0, duration, 201)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid < 0) or np.any(t_grid > duration + 1e-9):
            raise ValueError("t_grid must lie within the pulse duration")
        if np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")

    psi = _resolve_state(frame, psi0).reshape(-1, 1)
    rec_vecs = {lab: frame.states[:, frame.index_of(lab)] for lab in record}
    pops = {lab: np.empty(t_grid.size) for lab in record}

    cuts = sorted(set(_boundaries(pulse, ramp)) | set(float(t) for t in t_grid))
    snap_at = {float(t) for t in t_grid}
    i_snap = 0
    t_prev = 0.0
    if cuts[0] != 0.0:
        cuts.insert(0, 0.0)
    for t_cut in cuts:
        if t_cut > t_prev:
            psi = _step_interval(params, pulse, ramp, t_prev, t_cut, dt, psi)
            t_prev = t_cut
        if t_cut in snap_at:
            col = psi[:, 0]
            for lab, vec in rec_vecs.items():
                pops[lab][i_snap] = abs(np.vdot(vec, col)) ** 2
            i_snap += 1

    norm_drift = abs(np.linalg.norm(psi[:, 0]) - 1.0)
    if norm_drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"norm drifted by {norm_drift:.3e} (> {NORM_DRIFT_LIMIT:g}); "
            "reduce dt or inspect the flux schedule"
        )
    return EvolutionResult(t_grid, pops, psi[:, 0], norm_drift)


def propagate_computational_unitary(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    stroboscopic: bool = True,
) -> ComputationalUnitary:
    """Truncated propagator over the four dressed computational states.

    Columns are propagated together through the full schedule; whole
    drive periods in the flat-top region are applied as powers of the
    one-period propagator. Row phases rotate at the idle dressed
    energies, so an idle system yields the identity.
    """
    frame = dressed_frame(params, idle_flux(pulse, ramp))
    _ambiguity_check(frame, COMPUTATIONAL_LABELS)
    idx = [frame.index_of(lab) for lab in COMPUTATIONAL_LABELS]
    block = frame.states[:, idx].astype(complex)

    out = _propagate_block(params, pulse, ramp, dt, block, stroboscopic)

    col_norms = np.linalg.norm(out, axis=0)
    if np.any(np.abs(col_norms - 1.0) > NORM_DRIFT_LIMIT):
        raise IntegrationError(
            f"propagator columns drifted from unit norm by up to "
            f"{np.max(np.abs(col_norms - 1.0)):.3e}"
        )

    duration = total_duration(pulse, ramp)
    full = frame.states.conj().T @ out
    phases = np.exp(2j * np.pi * frame.energies[idx] * duration)
    u = phases[:, None] * full[idx, :]
    residuals = 1.0 - np.linalg.norm(u, axis=0) ** 2
    return ComputationalUnitary(
        u, residuals, COMPUTATIONAL_LABELS, duration,
        np.abs(full) ** 2, frame.labels,
    )


def chevron_column(
    params: CompositeParams,
    template: ParametricPulse,
    freq: float,
    t_grid,
    psi0=(1, 0, 1),
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    record=None,
) -> dict[object, np.ndarray]:
    """One chevron column: populations on ``t_grid`` at a single drive
    frequency, keyed by recorded label plus the aggregate
    ``"computational"`` when any computational label is recorded."""
    if record is None:
        record = DEFAULT_RECORD
    record = tuple(record)
    pulse = replace(template, drive_freq=float(freq))
    res = propagate_state(params, pulse, ramp, psi0, dt, record, t_grid)
    column: dict[object, np.ndarray] = {lab: res.populations[lab] for lab in record}
    comp_in_record = [lab for lab in COMPUTATIONAL_LABELS if lab in record]
    if comp_in_record:
        column["computational"] = sum(res.populations[lab] for lab in comp_in_record)
    return column


def amplitude_point(
    params: CompositeParams,
    template: ParametricPulse,
    freq: float,
    amp: float,
    fixed_time: float,
    psi0=(1, 0, 1),
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    target=(1, 0, 1),
) -> float:
    """Final ``target`` population for one (frequency, amplitude) cell."""
    pulse = replace(
        template, drive_freq=float(freq), drive_amp=float(amp),
        gate_time=float(fixed_time),
    )
    res = propagate_state(
        params, pulse, ramp, psi0, dt, (target,),
        t_grid=np.array([0.0, total_duration(pulse, ramp)]),
    )
    return float(res.populations[target][-1])


def chevron_scan(
    params: CompositeParams,
    template: ParametricPulse,
    freq_grid,
    t_grid,
    psi0=(1, 0, 1),
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    record=None,
) -> ChevronResult:
    """Populations versus drive frequency and time.

    Each frequency column is one independent propagation of the template
    pulse with that drive frequency, sampled on ``t_grid``. Failed
    columns are reported and filled with NaN; the scan continues.
    """
    freq_grid = np.asarray(freq_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if freq_grid.size == 0 or t_grid.size == 0:
        raise ValueError("frequency and time grids must be nonempty")
    if record is None:
        record = DEFAULT_RECORD
    record = tuple(record)

    maps: dict[object, np.ndarray] = {
        lab: np.full((freq_grid.size, t_grid.size), np.nan) for lab in record
    }
    maps["computational"] = np.full((freq_grid.size, t_grid.size), np.nan)
    failures = []
    for i, f in enumerate(freq_grid):
        try:
            column = chevron_column(params, template, f, t_grid, psi0, ramp, dt, record)
        except FluxgateError as exc:
            failures.append((float(f), str(exc)))
            continue
        for key, values in column.items():
            maps[key][i] = values
    return ChevronResult(freq_grid, t_grid, maps, tuple(failures))


def amplitude_scan(
    params: CompositeParams,
    template: ParametricPulse,
    freq_grid,
    amp_grid,
    fixed_time: float = 100.0,
    psi0=(1, 0, 1),
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
) -> AmplitudeScanResult:
    """Final |11> population after ``fixed_time`` on an (ω_p, δ_Φ) grid."""
    freq_grid = np.asarray(freq_grid, dtype=float)
    amp_grid = np.asarray(amp_grid, dtype=float)
    if freq_grid.size == 0 or amp_grid.size == 0:
        raise ValueError("frequency and amplitude grids must be nonempty")

    pop = np.full((freq_grid.size, amp_grid.size), np.nan)
    failures = []
    for j, amp in enumerate(amp_grid):
        for i, f in enumerate(freq_grid):
            try:
                pop[i, j] = amplitude_point(
                    params, template, f, amp, fixed_time, psi0, ramp, dt
                )
            except FluxgateError as exc:
                failures.append((float(f), float(amp), str(exc)))
    return AmplitudeScanResult(freq_grid, amp_grid, pop, tuple(failures))
