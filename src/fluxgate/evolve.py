"""Time-domain propagation under a modulated coupler flux.

The Hamiltonian at any instant splits the flux into the slow bias
Phi_b(t) and the full waveform Phi(t) = Phi_b(t) + drive:

    H(t) = A + c1(t) diag(N) + c2(t) B
    c1(t) = omega_c(Phi_b) + [E_J(Phi(t)) - E_J(Phi_b)] phi_zpf^2(Phi_b)
    c2(t) = n_zpf(Phi_b)

so the static pieces follow the bias exactly while the fast modulation
enters through the junction-energy swing linearized onto the coupler
number operator. ``circuits.oscillator_coefficients`` gives (c1, c2)
here and in the static Hamiltonian, so at zero drive this is the
static Hamiltonian at the bias flux, term by term.

Propagation is second-order stepping (see ``backends``): split-operator
steps around the exact static step where the bias is constant, and
midpoint-exponential steps across bias ramps. Initial states and
recorded populations live in the dressed eigenbasis of the idle (t = 0)
Hamiltonian; ``dressed_frame`` holds its states orthonormal, and the
exact static step is built from them. One walker, ``_advance``, carries
a state or a block of columns across a time span cut at the schedule
boundaries, so each piece has one scheme, and one rule,
``_step_samples``, samples every piece and the Floquet monodromy.

Over the flat top, where the drive envelope is flat and the bias
constant, the Hamiltonian is periodic, so the propagator over whole
drive periods is a power of the one-period propagator, the Floquet
monodromy. One function, ``_period``, builds it for ``floquet`` and for
the flat top of a gate alike, from carrier phase 0. The whole periods
therefore start where the carrier phase 2 pi f_p (t - t0), with t0 the
start of the drive window, first reaches a whole number of turns inside
the flat top: at t0 + ceil(ramp_time f_p) / f_p. The lead-in before it
and the remainder after the last whole period are stepped. This removes
most of the stepping cost of long gates.

Every step conserves the total parity of ``system`` (the drive modulates
only the coupler number N), so ``_advance`` splits its block into one
piece per parity sector, skips a sector whose piece is exactly zero, and
steps each piece with the sector's own 75 x 75 operators: a labelled
initial state steps 75 states, and the four computational columns step
as two columns in each sector, batched into one product per step.
Off the symmetric point the one sector is the whole space.

A gate's bias ramp-down is the ramp-up run backwards: it carries no
drive, and ``_step_samples`` gives both ramps the same step count, so
the ramp-down samples the ramp-up's biases in reverse order. Each ramp
step is complex symmetric (``system``), so U_down = U_up^T. The dressed
idle states c are real, so after the ramp-down the computational
amplitudes of the end-of-drive block psi are
<c_i|U_down|psi_j> = (R^T psi)_ij, where R = U_up c is the cached
ramped-up block (``_ramped_up_block``).
``propagate_computational_unitary`` therefore steps only to the end of
the drive window; the ramp-down is stepped only when the
end-of-schedule populations of every dressed state are read.

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

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import backends
from .circuits import oscillator_coefficients
from .errors import DomainError, IntegrationError
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

    ``populations`` maps each recorded label to its |overlap|^2 series on
    the snapshot times; ``final_state`` is the state at the end of the
    schedule, as a column of the product basis of ``system``, and
    ``norm_drift`` the deviation of its norm from one.
    """

    populations: dict[Label, np.ndarray]
    final_state: np.ndarray
    norm_drift: float


@dataclass(frozen=True)
class ComputationalUnitary:
    """Propagator truncated to the four dressed computational states.

    ``matrix[i, j]`` is the idle-frame amplitude on the dressed state
    ``COMPUTATIONAL_LABELS[i]`` after preparing ``COMPUTATIONAL_LABELS[j]``,
    with each row's free phase e^{-i 2 pi E_i t} removed, so
    1 - ||column j||^2 is the population leaked from state j.
    ``norm_drift`` is the largest deviation of a column norm from one at
    the end of the drive window, the last block every call steps (the
    end of the schedule when there is no bias ramp).

    ``final_populations[k, j]`` is the end-of-schedule population of the
    dressed state ``state_labels[k]`` when column j was prepared. A bias
    ramp-down enters ``matrix`` through the ramp-up (U_down = U_up^T,
    see the module docstring) and is stepped only on the first read of
    ``final_populations``, which checks the end-of-schedule norm drift
    against the same limit; later reads return the cached array.
    """

    matrix: np.ndarray
    state_labels: tuple[Label, ...]
    norm_drift: float
    _end_populations: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def final_populations(self) -> np.ndarray:
        return self._end_populations()


@lru_cache(maxsize=32)
def dressed_frame(params: CompositeParams, flux: float) -> LabeledSpectrum:
    """Labeled dressed spectrum at a fixed coupler flux (cached, read-only).

    ``states`` are the eigenvectors polar-corrected once per flux, one
    parity sector at a time, to orthonormal columns (the factor u vh of
    the SVD u s vh of the sector's block), so step products built on them
    (``_flat_step``) accumulate only matmul roundoff, not the eigenbasis
    orthonormality defect, and stay exactly zero outside their sector.
    A miss costs 7 ms on 2 vCPUs (13 ms with one 150-state solve). A grid
    command visits at most two fluxes, the idle and the interaction bias:
    traced on the benchmark (seed 1), a ``calibrate`` cell makes 120
    lookups with 2 misses and a ``propagate`` run 15 with 1, so 32
    entries never evict.
    """
    frame = label_eigenstates(build_hamiltonian(params, flux))
    for rows, cols in zip(assemble_operators(params).sectors, frame.sectors):
        block = np.ix_(rows, cols)
        u, _, vh = np.linalg.svd(frame.states[block])
        frame.states[block] = u @ vh
    for arr in (frame.energies, frame.states, frame.overlaps, frame.ambiguous, *frame.sectors):
        arr.flags.writeable = False
    return frame


def _idle_frame(params, pulse, ramp, dt) -> LabeledSpectrum:
    """Check the schedule and the step, then return the dressed frame at
    the idle flux, where initial states and recorded populations live."""
    if ramp is not None and abs(pulse.flux_static - ramp.flux_interaction) > 1e-12:
        raise ValueError(
            "pulse.flux_static must equal ramp.flux_interaction; the drive "
            "modulates the coupler around the interaction bias"
        )
    if dt <= 0:
        raise ValueError("dt must be positive")
    if pulse.drive_amp > 0 and pulse.drive_freq > 0:
        _check_drive_resolved(dt, pulse.drive_freq)
    return dressed_frame(params, pulse.flux_static if ramp is None else ramp.flux_idle)


def _check_drive_resolved(dt: float, drive_freq: float) -> None:
    """Raise DomainError unless ``dt`` takes at least 40 steps per drive
    period, the resolution of every driven propagation and monodromy."""
    limit = 1.0 / (40.0 * drive_freq)
    if dt > limit:
        raise DomainError(f"dt = {dt} ns does not resolve the drive: need dt <= {limit:.2e} ns")


def _norm_drift(block: np.ndarray) -> float:
    """Largest deviation of a column norm of ``block`` from one; raises
    IntegrationError beyond NORM_DRIFT_LIMIT."""
    drift = float(np.max(np.abs(np.linalg.norm(block, axis=0) - 1.0)))
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g}); "
            "reduce dt or inspect the flux schedule"
        )
    return drift


def _boundaries(pulse: ParametricPulse, ramp: BiasRamp | None) -> list[float]:
    t0, t1 = drive_window(pulse, ramp)
    cuts = {0.0, total_duration(pulse, ramp), t0, t1}
    if pulse.ramp_time > 0:
        cuts.update((t0 + pulse.ramp_time, t1 - pulse.ramp_time))
    return sorted(cuts)


@lru_cache(maxsize=8)
def _flat_step(params: CompositeParams, flux: float, h: float) -> np.ndarray:
    """Exact one-step propagators of the static Hamiltonian at ``flux``,
    one per parity sector, stacked as (sectors, m, m).

    Sector s holds Q exp(-i 2 pi h E) Q^T from the dressed energies E
    and orthonormal states Q of that sector in ``dressed_frame``, on the
    sector's rows of ``ModelOperators.sectors``; a sector smaller than
    the widest, m, is padded with the identity. A new step length costs
    two 75 x 75 products, 0.30 ms on 2 vCPUs (0.80 ms for one 150 x 150).
    Traced on the benchmark (seed 1), a ``calibrate`` cell misses 64 of
    75 lookups, since each monodromy, and each flat top's lead-in and
    remainder, steps a length that no other drive frequency repeats; its
    11 hits are drive-flank steps shared by one search's evaluations and
    the flat-top steps of simplex vertices at one frequency. A
    ``propagate`` run misses 1 of 90. 8 entries keep every hit, in 1.4 MB.
    """
    frame = dressed_frame(params, flux)
    sectors = assemble_operators(params).sectors
    width = max(rows.size for rows in sectors)
    steps = np.zeros((len(sectors), width, width), dtype=complex)
    for step, rows, cols in zip(steps, sectors, frame.sectors):
        q = frame.states[np.ix_(rows, cols)]
        phases = np.exp(-2j * np.pi * h * frame.energies[cols])
        step[: rows.size, : rows.size] = (q * phases) @ q.T
        pad = np.arange(rows.size, width)
        step[pad, pad] = 1.0
    steps.flags.writeable = False
    return steps


class _Pieces(NamedTuple):
    """A block of columns as per-sector pieces.

    ``x[j]`` is the piece of sector ``active[j]``: that sector's rows of
    the block columns ``cols[j]``, zero-padded to (widest sector, k).
    """

    active: tuple[int, ...]
    cols: tuple[np.ndarray, ...]
    x: np.ndarray


def _split(sectors, block: np.ndarray) -> _Pieces:
    """Pieces of ``block`` in the sectors where it has a nonzero entry."""
    parts = []
    for s, rows in enumerate(sectors):
        cols = np.flatnonzero(np.any(block[rows], axis=0))
        if cols.size:
            parts.append((s, cols))
    width = max(rows.size for rows in sectors)
    k = max((cols.size for _, cols in parts), default=0)
    x = np.zeros((len(parts), width, k), dtype=complex)
    for piece, (s, cols) in zip(x, parts):
        piece[: sectors[s].size, : cols.size] = block[np.ix_(sectors[s], cols)]
    return _Pieces(tuple(s for s, _ in parts), tuple(cols for _, cols in parts), x)


def _join(sectors, pieces: _Pieces, shape) -> np.ndarray:
    """The full-space block of ``shape`` that ``pieces`` describe."""
    out = np.zeros(shape, dtype=complex)
    for piece, s, cols in zip(pieces.x, pieces.active, pieces.cols):
        out[np.ix_(sectors[s], cols)] = piece[: sectors[s].size, : cols.size]
    return out


def _strang(u0, n_diag, dc1, h, x):
    """``backends.strang_sequence`` on the stack of pieces ``x``
    (pieces, m, k), which the kernel takes side by side, (m, pieces k)."""
    pieces, width, k = x.shape
    side = x.transpose(1, 0, 2).reshape(width, pieces * k)
    side = backends.strang_sequence(u0, n_diag, dc1, h, side)
    return side.reshape(width, pieces, k).transpose(1, 0, 2)


def _flat_operands(params, flux, h, active, c1):
    """The ``_strang`` operands of the sectors ``active`` at the constant
    bias ``flux``: their ``_flat_step`` steps of length ``h``, their
    coupler occupations zero-padded to the widest sector, (sectors, m),
    and the drive term dc1, the samples ``c1`` less their undriven value."""
    ops = assemble_operators(params)
    u0 = _flat_step(params, flux, h)[list(active)]
    n_diag = np.zeros(u0.shape[:2])
    for row, s in zip(n_diag, active):
        row[: ops.sectors[s].size] = ops.n_diag[ops.sectors[s]]
    c1_flat, _ = oscillator_coefficients(params.coupler, flux, flux)
    return u0, n_diag, c1 - float(c1_flat)


def _step_samples(params, pulse, ramp, t_a, t_b, dt):
    """Step length h of [t_a, t_b] cut into the fewest equal steps no
    longer than ``dt``, and the step midpoints' bias flux and (c1, c2).

    The one sampling rule of every propagation, the gate schedule's
    intervals and the Floquet monodromy's period alike. A span within
    roundoff of a whole number of steps takes that number: the ramp-down
    span (2 tau + t_g) - (tau + t_g) can round above tau, and must take
    the ramp-up's count for U_down = U_up^T to hold.
    """
    n = max(1, int(np.ceil(round((t_b - t_a) / dt, 9))))
    h = (t_b - t_a) / n
    mids = t_a + (np.arange(n) + 0.5) * h
    fb = np.asarray(bias_flux(pulse, ramp, mids), dtype=float)
    ff = fb + np.asarray(drive_flux(pulse, ramp, mids), dtype=float)
    return h, fb, oscillator_coefficients(params.coupler, fb, ff)


def _step_interval(params, pulse, ramp, t_a, t_b, dt, active, x):
    """Step the pieces ``x`` of the sectors ``active`` (as in ``_Pieces``)
    across [t_a, t_b] with the scheme the interval allows.

    Constant-bias intervals use the split-operator kernel around the
    exact static step (the drive enters as a diagonal perturbation),
    all pieces in one call; bias ramps fall back to full
    midpoint-exponential steps, one call per sector. Intervals without
    any drive carry no carrier to resolve and take steps
    DRIVELESS_DT_FACTOR times coarser. The module docstring says where
    the dt-halving contract holds.
    """
    if t_b <= t_a:
        return x
    t0, t1 = drive_window(pulse, ramp)
    driven = pulse.drive_amp > 0 and t_b > t0 and t_a < t1
    dt_eff = dt if driven else dt * DRIVELESS_DT_FACTOR
    h, fb, (c1, c2) = _step_samples(params, pulse, ramp, t_a, t_b, dt_eff)
    if np.ptp(fb) == 0.0:
        u0, n_diag, dc1 = _flat_operands(params, float(fb[0]), h, active, c1)
        return _strang(u0, n_diag, dc1, h, x)
    ops = assemble_operators(params)
    x = x.copy()
    for piece, s in zip(x, active):
        rows = ops.sectors[s]
        sub = np.ix_(rows, rows)
        piece[: rows.size] = backends.step_sequence(
            ops.a_fixed[sub], ops.n_diag[rows], ops.b_op[sub], c1, c2, h, piece[: rows.size]
        )
    return x


def _period(params, flux_s, drive_amp, drive_freq, dt, active):
    """One period of the steady drive from carrier phase 0 at the bias
    ``flux_s``: the Floquet monodromy of the sectors ``active``, stacked
    as (sectors, m, m) like ``_flat_step``.

    The period is cut by ``_step_samples`` into n Strang steps
    S_k = D_k U0 D_k, with D_k diagonal. The cosine drive is symmetric
    about the middle of its period, so D_k = D_{n-1-k}, and the static
    step U0 is complex symmetric (``system``), so each S_k is too: the
    second half of the period is V^T, where V is the product of the
    first n // 2 steps, and M = V^T V; for odd n the middle step D U0 D
    sits between the halves, M = X^T U0 X with X = D V. Only half the
    period is stepped, and M matches the full step product to roundoff.
    """
    period = 1.0 / drive_freq
    # The steady drive as an unenveloped pulse one period long; it
    # rejects a negative amplitude.
    steady = ParametricPulse(flux_s, drive_amp, drive_freq, ramp_time=0.0, gate_time=period)
    h, _, (c1, _) = _step_samples(params, steady, None, 0.0, period, dt)
    u0, n_diag, dc1 = _flat_operands(params, flux_s, h, active, c1)
    eye = np.broadcast_to(np.eye(u0.shape[1], dtype=complex), u0.shape)
    half = c1.size // 2
    v = _strang(u0, n_diag, dc1[:half], h, eye)
    if c1.size % 2:
        v = v * np.exp(-1j * np.pi * h * dc1[half] * n_diag)[:, :, None]
        forward = u0 @ v
    else:
        forward = v
    return v.transpose(0, 2, 1) @ forward


def _advance(params, pulse, ramp, dt, block, t_a, t_b, stroboscopic=False):
    """Advance ``block`` from ``t_a`` to ``t_b``, cut at every schedule
    boundary in between so each piece has one stepping scheme.

    The block is split into its sector pieces once (see ``_Pieces``),
    so only sectors where it is nonzero are stepped. With
    ``stroboscopic``, a piece spanning the whole flat top advances its
    whole drive periods as powers of ``_period`` (the module docstring
    gives the rule).
    """
    t0, t1 = drive_window(pulse, ramp)
    # The flat top: drive envelope 1 and bias constant.
    flat_a, flat_b = t0 + pulse.ramp_time, t1 - pulse.ramp_time
    period = 1.0 / pulse.drive_freq if pulse.drive_freq > 0 else np.inf
    use_strobe = (
        stroboscopic
        and pulse.drive_amp > 0
        and (flat_b - flat_a) > MIN_STROBE_PERIODS * period
    )

    sectors = assemble_operators(params).sectors
    pieces = _split(sectors, block)
    active, x = pieces.active, pieces.x
    cuts = [t_a] + [b for b in _boundaries(pulse, ramp) if t_a < b < t_b] + [t_b]
    for s, e in zip(cuts[:-1], cuts[1:]):
        if use_strobe and abs(s - flat_a) < 1e-12 and abs(e - flat_b) < 1e-12:
            lead = t0 + np.ceil(round(pulse.ramp_time * pulse.drive_freq, 9)) / pulse.drive_freq
            n_per = int(np.floor((flat_b - lead) / period))
            x = _step_interval(params, pulse, ramp, flat_a, lead, dt, active, x)
            mono = _period(params, pulse.flux_static, pulse.drive_amp, pulse.drive_freq, dt, active)
            x = backends.apply_power(mono, n_per, x)
            x = _step_interval(params, pulse, ramp, lead + n_per * period, flat_b, dt, active, x)
        else:
            x = _step_interval(params, pulse, ramp, s, e, dt, active, x)
    return _join(sectors, pieces._replace(x=x), block.shape)


def _computational_block(frame: LabeledSpectrum) -> np.ndarray:
    idx = [frame.index_of(lab) for lab in COMPUTATIONAL_LABELS]
    return frame.states[:, idx].astype(complex)


@lru_cache(maxsize=16)
def _ramped_up_block(params: CompositeParams, ramp: BiasRamp, dt: float) -> np.ndarray:
    """Computational block of the idle frame propagated through the bias
    ramp-up [0, ramp.ramp_time] (cached, read-only).

    No drive acts before the drive window, so the block does not depend
    on the pulse: a driveless stand-in steps the interval exactly as any
    pulse of the schedule would, with the same coarse undriven step. The
    same block scores the ramp-down (see the module docstring).
    """
    driveless = ParametricPulse(
        ramp.flux_interaction, drive_amp=0.0, drive_freq=0.0, ramp_time=0.0, gate_time=0.0
    )
    block = _computational_block(dressed_frame(params, ramp.flux_idle))
    block = _advance(params, driveless, ramp, dt, block, 0.0, ramp.ramp_time)
    block.flags.writeable = False
    return block


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

    ``psi0`` is the dressed-state label of the initial state. ``record``
    lists the labels whose populations are tracked; ``t_grid`` defaults
    to 201 evenly spaced snapshot times.

    Raises IntegrationError when the final norm drifts from unity by
    more than 1e-8, and LabelingError when ``psi0`` is ambiguous at the
    idle flux. Recorded labels are not checked: each names one dressed
    eigenstate, whose population is well defined whatever its label's
    overlap. (At flux 0.35, set500 has 10 ambiguous labels and set300
    19; none is in ``DEFAULT_RECORD``.)
    """
    frame = _idle_frame(params, pulse, ramp, dt)

    record = DEFAULT_RECORD if record is None else tuple(record)
    (start,) = frame.unambiguous([psi0])

    duration = total_duration(pulse, ramp)
    if t_grid is None:
        t_grid = np.linspace(0.0, duration, 201)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid < 0) or np.any(t_grid > duration + 1e-9):
            raise ValueError("t_grid must lie within the pulse duration")
        if np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")

    psi = frame.states[:, [start]].astype(complex)
    rec_vecs = {lab: frame.states[:, frame.index_of(lab)] for lab in record}
    pops = {lab: np.empty(t_grid.size) for lab in record}

    t_prev = 0.0
    for i, t in enumerate(t_grid):
        psi = _advance(params, pulse, ramp, dt, psi, t_prev, float(t))
        t_prev = float(t)
        for lab, vec in rec_vecs.items():
            pops[lab][i] = abs(np.vdot(vec, psi[:, 0])) ** 2
    psi = _advance(params, pulse, ramp, dt, psi, t_prev, duration)
    norm_drift = _norm_drift(psi)
    return EvolutionResult(pops, psi[:, 0], norm_drift)


def propagate_computational_unitary(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    stroboscopic: bool = True,
) -> ComputationalUnitary:
    """Truncated propagator over the four dressed computational states.

    Columns are propagated together to the end of the drive window;
    whole drive periods in the flat-top region are applied as powers of
    the one-period propagator. The bias ramp-up of a dynamic-bias
    schedule carries no drive, so its block R is propagated once per
    (params, ramp, dt) and shared by every drive frequency and amplitude,
    and it also scores the ramp-down: the amplitudes at the end of the
    schedule are R^T psi for the end-of-drive block psi (see the module
    docstring). The ramp-down is stepped only when
    ``final_populations`` is first read. Row phases rotate at the idle
    dressed energies, so an idle system yields the identity.
    """
    frame = _idle_frame(params, pulse, ramp, dt)
    idx = frame.unambiguous(COMPUTATIONAL_LABELS)

    duration = total_duration(pulse, ramp)
    t_end = drive_window(pulse, ramp)[1]
    if ramp is None:
        block, t_start = _computational_block(frame), 0.0
    else:
        block, t_start = _ramped_up_block(params, ramp, dt), ramp.ramp_time
    # bras[i] is <c_i| carried back from the end of the schedule to t_end:
    # c_i is real, and the ramp-down is the transposed ramp-up.
    bras = block.T
    psi = _advance(params, pulse, ramp, dt, block, t_start, t_end, stroboscopic)
    drift = _norm_drift(psi)

    phases = np.exp(2j * np.pi * frame.energies[idx] * duration)
    u = phases[:, None] * (bras @ psi)

    def end_populations() -> np.ndarray:
        out = _advance(params, pulse, ramp, dt, psi, t_end, duration)
        _norm_drift(out)
        return np.abs(frame.states.T @ out) ** 2

    return ComputationalUnitary(u, frame.labels, drift, end_populations)


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
    pulse = replace(template, drive_freq=float(freq))
    res = propagate_state(params, pulse, ramp, psi0, dt, record, t_grid)
    column: dict[object, np.ndarray] = dict(res.populations)
    comp_in_record = [lab for lab in COMPUTATIONAL_LABELS if lab in column]
    if comp_in_record:
        column["computational"] = sum(column[lab] for lab in comp_in_record)
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
) -> float:
    """Final |101> population for one (frequency, amplitude) cell."""
    pulse = replace(
        template, drive_freq=float(freq), drive_amp=float(amp),
        gate_time=float(fixed_time),
    )
    res = propagate_state(
        params, pulse, ramp, psi0, dt, ((1, 0, 1),),
        t_grid=np.array([0.0, total_duration(pulse, ramp)]),
    )
    return float(res.populations[(1, 0, 1)][-1])

