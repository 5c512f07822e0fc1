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
steps around the exact static step where the schedule holds the bias,
and midpoint-exponential steps across bias ramps. Initial states and
recorded populations live in the dressed eigenbasis of the idle (t = 0)
Hamiltonian; ``dressed_frame`` holds its states orthonormal, and the
exact static step is built from them. One walker, ``_advance``, carries
a state or a block of columns across a time span cut at the schedule
boundaries, so each piece has one scheme, and one rule,
``_step_samples``, samples every piece and the Floquet monodromy.

Each piece is sampled and stepped in chunks of at most STEP_CHUNK
steps: ``_step_samples`` draws one chunk's midpoint samples, the kernel
steps them, and the block carries on into the next chunk, so the
working memory of a propagation does not depend on its step count
(measured at STEP_CHUNK). Chunked midpoint steps are the unchunked
ones bit for bit. Chained Strang calls close one call's merged
half-phase and open the next at each chunk boundary, which differs
from one call only at roundoff: ``test_strang_sequence_chains_across_a_split``
pins 1e-12, and the benchmark's amplitude cells moved by at most 9e-14.

Over the flat top, where the drive envelope is flat and the bias
constant, the Hamiltonian is periodic, so the propagator over whole
drive periods is a power of the one-period propagator, the Floquet
monodromy. One function, ``_period``, builds it for ``floquet`` and for
the flat top of a gate alike, from carrier phase 0.

A gate's drive window [t0, t1] is time-symmetric: ``gates.gate_schedule``
centres the carrier on the window centre t_c (``pulses.centred_phase``),
so H(t_c + s) = H(t_c - s). ``propagate_computational_unitary`` takes
the n = 2 floor((t_c - t0 - ramp_time) f_p) whole periods centred on
t_c, which start at carrier phase 0, and steps only G, the propagator
over the up-flank and the lead-in [t0, t_c - nP/2]. ``_step_samples``
gives mirrored spans equal step counts at mirrored midpoints, so the
steps after the periods are G's steps in reverse order, and by the
mirror identity of ``system`` the window is W = G^T M^n G. A gate
evaluation thus steps one flank and less than one period, and takes
one power; a window whose carrier does not peak at t_c raises
ValueError. Chevron columns step every interval. An amplitude cell
centres its carrier as a gate does and reads only p101 at the end of its
schedule, so it steps the first half of the schedule, V, and scores the
whole as V^T V (``amplitude_point``).

Every step conserves the total parity of ``system`` (the drive modulates
only the coupler number N), so ``_advance`` splits its block into one
piece per parity sector, skips a sector whose piece is exactly zero, and
steps each piece with the sector's own 75 x 75 operators: a labelled
initial state steps 75 states, and the four computational columns step
as two columns in each sector, batched into one product per step.

A gate's bias ramp-down is the ramp-up run backwards: it carries no
drive, and ``_step_samples`` gives both ramps the same step count, so
the ramp-down samples the ramp-up's biases in reverse order, and by the
same mirror identity U_down = U_up^T. The dressed idle states c are
real, so with R = U_up c the cached ramped-up block
(``_ramped_up_block``) the gate's computational amplitudes are

    <c_i| U_down W U_up |c_j> = (R^T G^T M^n G R)_ij = (x^T y)_ij,

with x = G R and y = M^n x. The remainder after the periods, the
down-flank and the ramp-down are stepped, from y, only when the
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

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import backends
from .circuits import oscillator_coefficients
from .errors import DomainError, IntegrationError
from .pulses import (
    BiasRamp,
    ParametricPulse,
    bias_flux,
    centred_phase,
    drive_flux,
    drive_window,
    total_duration,
)
from .system import (
    CompositeParams,
    LabeledSpectrum,
    assemble_operators,
    build_hamiltonian,
    label_eigenstates,
)

DEFAULT_DT = 0.0005
NORM_DRIFT_LIMIT = 1e-8
DRIVELESS_DT_FACTOR = 10.0
# Steps sampled and stepped per kernel call (see ``_step_samples``). At
# 0.5 ps a chunk spans 8.2 ns, so chevron snapshot intervals step as one
# chunk. A 100 ns amplitude cell (set500, one BLAS thread, tracemalloc)
# peaks at 1.7 MiB of heap at dt 0.5 and 0.125 ps alike (0.7 MiB at
# 1024 steps, 6.1 MiB at 65536) and takes 0.33-0.37 s at every size from
# 1024 to 262144 steps (one BLAS thread, 2 vCPUs).
STEP_CHUNK = 16384

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
    ``norm_drift`` is the largest deviation of a column norm from one
    after the whole drive periods, at t_c + nP/2 (see the module
    docstring), the last block every call computes. Every later step is
    unitary to roundoff, so it equals the end-of-window drift to
    roundoff.

    ``final_populations[k, j]`` is the end-of-schedule population of the
    dressed state ``state_labels[k]`` when column j was prepared. The
    second half of the drive window and a bias ramp-down enter
    ``matrix`` through their mirrors (see the module docstring) and are
    stepped only on the first read of ``final_populations``, which
    checks the end-of-schedule norm drift against the same limit; later
    reads return the cached array.
    """

    matrix: np.ndarray
    state_labels: tuple[Label, ...]
    norm_drift: float
    _end_populations: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def final_populations(self) -> np.ndarray:
        return self._end_populations()


@lru_cache(maxsize=32)
@backends.one_blas_thread
def dressed_frame(params: CompositeParams, flux: float) -> LabeledSpectrum:
    """Labeled dressed spectrum at a fixed coupler flux (cached, read-only).

    ``states`` are the eigenvectors polar-corrected once per flux, one
    parity sector at a time, to orthonormal columns (the factor u vh of
    the SVD u s vh of the sector's block), so step products built on them
    (``_flat_step``) accumulate only matmul roundoff, not the eigenbasis
    orthonormality defect, and stay exactly zero outside their sector.
    A miss costs 3.2 ms at one BLAS thread on 2 vCPUs, where one 150-state
    eigensolve alone takes 1.9 ms. A grid command visits at most two
    fluxes, the idle and the interaction bias: traced on the benchmark
    (seed 1), a ``calibrate`` cell makes 120 lookups with 2 misses and a
    ``propagate`` run 15 with 1, so 32 entries never evict.
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
    """Check the step, then return the dressed frame at the idle flux,
    where initial states and recorded populations live."""
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
    two 75 x 75 products, 0.28 ms at one BLAS thread on 2 vCPUs (0.55 ms
    for one 150 x 150).
    Traced on the benchmark (seed 1), a ``calibrate`` cell misses 60 of
    65 lookups, since each monodromy and each flat top's lead-in steps a
    length that no other drive frequency repeats; its 5 hits are
    drive-flank steps shared by one search's evaluations and the
    flat-top steps of simplex vertices at one frequency. A ``propagate``
    run misses 1 of 90. 8 entries keep every hit, in 1.4 MB.
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


def _strang(u0, n_diag, dc1_chunks, h, x):
    """``backends.strang_sequence`` on the stack of pieces ``x``
    (pieces, m, k), which the kernel takes side by side, (m, pieces k),
    one call per drive chunk of ``dc1_chunks``, in order."""
    pieces, width, k = x.shape
    side = x.transpose(1, 0, 2).reshape(width, pieces * k)
    for dc1 in dc1_chunks:
        side = backends.strang_sequence(u0, n_diag, dc1, h, side)
    return side.reshape(width, pieces, k).transpose(1, 0, 2)


def _flat_operands(params, flux, h, active):
    """The ``_strang`` operands of the sectors ``active`` at the constant
    bias ``flux``: their ``_flat_step`` steps of length ``h``, their
    coupler occupations zero-padded to the widest sector, (sectors, m),
    and the undriven c1, which drive samples subtract to give dc1."""
    ops = assemble_operators(params)
    u0 = _flat_step(params, flux, h)[list(active)]
    n_diag = np.zeros(u0.shape[:2])
    for row, s in zip(n_diag, active):
        row[: ops.sectors[s].size] = ops.n_diag[ops.sectors[s]]
    c1_flat, _ = oscillator_coefficients(params.coupler, flux, flux)
    return u0, n_diag, float(c1_flat)


def _step_count(t_a, t_b, dt):
    """The fewest equal steps no longer than ``dt`` that cut [t_a, t_b],
    and their length h.

    A span within roundoff of a whole number of steps takes that number:
    the ramp-down span (2 tau + t_g) - (tau + t_g) can round above tau,
    and must take the ramp-up's count for U_down = U_up^T to hold.
    """
    n = max(1, int(np.ceil(round((t_b - t_a) / dt, 9))))
    return n, (t_b - t_a) / n


def _step_samples(params, pulse, ramp, t_a, t_b, dt):
    """The step midpoints' bias flux and (c1, c2) on [t_a, t_b] cut by
    ``_step_count``, yielded as (fb, (c1, c2)) for consecutive chunks of
    at most STEP_CHUNK steps.

    The one sampling rule of every propagation, the gate schedule's
    intervals and the Floquet monodromy's period alike. Step k of the
    span has its midpoint at t_a + (k + 0.5) h whichever chunk holds it,
    so the samples are the same bit for bit at any chunk size, and a
    caller that steps chunk by chunk holds one chunk's samples at a time,
    whatever the step count (see STEP_CHUNK).
    """
    n, h = _step_count(t_a, t_b, dt)
    for start in range(0, n, STEP_CHUNK):
        mids = t_a + (np.arange(start, min(start + STEP_CHUNK, n)) + 0.5) * h
        fb = np.asarray(bias_flux(pulse, ramp, mids), dtype=float)
        ff = fb + np.asarray(drive_flux(pulse, ramp, mids), dtype=float)
        yield fb, oscillator_coefficients(params.coupler, fb, ff)


def _step_interval(params, pulse, ramp, t_a, t_b, dt, active, x):
    """Step the pieces ``x`` of the sectors ``active`` (as in ``_Pieces``)
    across [t_a, t_b] with the scheme the schedule gives the interval.

    Where the bias is held, without a ramp or inside the drive window,
    the split-operator kernel steps around the exact static step at
    ``flux_static`` (the drive enters as a diagonal perturbation), all
    pieces in one call per chunk; across a bias ramp, full
    midpoint-exponential steps, one call per sector and chunk. The
    operands are built once per interval. Intervals without any drive
    carry no carrier to resolve and take steps DRIVELESS_DT_FACTOR times
    coarser. The module docstring says where the dt-halving contract
    holds.

    The steps are sampled and taken one chunk of ``_step_samples`` at a
    time, so the working memory does not grow with the step count
    (measured at STEP_CHUNK). Midpoint steps chain exactly;
    chained Strang calls close and reopen their merged half-phases at
    each chunk boundary, which moves the result only at roundoff
    (``test_strang_sequence_chains_across_a_split`` pins 1e-12).
    """
    if t_b <= t_a:
        return x
    t0, t1 = drive_window(pulse, ramp)
    driven = pulse.drive_amp > 0 and t_b > t0 and t_a < t1
    dt_eff = dt if driven else dt * DRIVELESS_DT_FACTOR
    _, h = _step_count(t_a, t_b, dt_eff)
    chunks = _step_samples(params, pulse, ramp, t_a, t_b, dt_eff)
    if ramp is None or t0 <= t_a and t_b <= t1:
        u0, n_diag, c1_flat = _flat_operands(params, pulse.flux_static, h, active)
        return _strang(u0, n_diag, (c1 - c1_flat for _, (c1, _) in chunks), h, x)
    ops = assemble_operators(params)
    subs = [ops.sectors[s] for s in active]
    terms = [(ops.a_fixed[np.ix_(r, r)], ops.n_diag[r], ops.b_op[np.ix_(r, r)]) for r in subs]
    x = x.copy()
    for _, (c1, c2) in chunks:
        for piece, rows, (a, n_diag, b) in zip(x, subs, terms):
            piece[: rows.size] = backends.step_sequence(a, n_diag, b, c1, c2, h,
                                                        piece[: rows.size])
    return x


def _period(params, flux_s, drive_amp, drive_freq, dt, active):
    """One period of the steady drive from carrier phase 0 at the bias
    ``flux_s``: the Floquet monodromy of the sectors ``active``, stacked
    as (sectors, m, m) like ``_flat_step``.

    The period is cut by ``_step_samples`` into n Strang steps
    S_k = D_k U0 D_k, with D_k diagonal. The cosine drive is symmetric
    about the middle of its period, so D_k = D_{n-1-k}, and by the mirror
    identity of ``system`` the second half of the period is V^T, where V
    is the product of the first n // 2 steps, and M = V^T V; for odd n
    the middle step D U0 D sits between the halves, M = X^T U0 X with
    X = D V. Only half the period is stepped, and M matches the full
    step product to roundoff. The period's samples are joined whole: a
    period is 186 steps at 10.8 GHz and 0.5 ps.
    """
    period = 1.0 / drive_freq
    # The steady drive as an unenveloped pulse one period long; it
    # rejects a negative amplitude.
    steady = ParametricPulse(flux_s, drive_amp, drive_freq, ramp_time=0.0, gate_time=period)
    _, h = _step_count(0.0, period, dt)
    samples = _step_samples(params, steady, None, 0.0, period, dt)
    c1 = np.concatenate([part for _, (part, _) in samples])
    u0, n_diag, c1_flat = _flat_operands(params, flux_s, h, active)
    dc1 = c1 - c1_flat
    eye = np.broadcast_to(np.eye(u0.shape[1], dtype=complex), u0.shape)
    half = c1.size // 2
    v = _strang(u0, n_diag, [dc1[:half]], h, eye)
    if c1.size % 2:
        v = v * np.exp(-1j * np.pi * h * dc1[half] * n_diag)[:, :, None]
        forward = u0 @ v
    else:
        forward = v
    return v.transpose(0, 2, 1) @ forward


def _advance(params, pulse, ramp, dt, block, t_a, t_b):
    """Advance ``block`` from ``t_a`` to ``t_b``, cut at every schedule
    boundary in between so each piece has one stepping scheme.

    The block is split into its sector pieces once (see ``_Pieces``),
    so only sectors where it is nonzero are stepped.
    """
    sectors = assemble_operators(params).sectors
    pieces = _split(sectors, block)
    x = pieces.x
    cuts = [t_a] + [b for b in _boundaries(pulse, ramp) if t_a < b < t_b] + [t_b]
    for s, e in zip(cuts[:-1], cuts[1:]):
        x = _step_interval(params, pulse, ramp, s, e, dt, pieces.active, x)
    return _join(sectors, pieces._replace(x=x), block.shape)


def _centred_periods(pulse: ParametricPulse, ramp: BiasRamp | None):
    """The n = 2 floor((t_c - t0 - ramp_time) f_p) whole drive periods of
    the flat top centred on the window centre t_c: their count and their
    span [t_c - nP/2, t_c + nP/2].

    The carrier must peak at t_c, as ``pulses.centred_phase`` sets it, so
    the window is time-symmetric and the periods start at carrier phase
    0, where ``_period`` starts; ValueError otherwise. A window without a
    drive or a carrier takes no periods.
    """
    t0, t1 = drive_window(pulse, ramp)
    t_c = 0.5 * (t0 + t1)
    if pulse.drive_amp == 0 or pulse.drive_freq == 0:
        return 0, t_c, t_c
    if abs(math.remainder(pulse.phase - centred_phase(pulse.drive_freq, pulse.gate_time),
                          2.0 * np.pi)) > 1e-9:
        raise ValueError(
            "the drive window is not time-symmetric about a carrier peak: the "
            "carrier phase at its centre must be 0 (gates.gate_schedule sets it)"
        )
    n = 2 * int(np.floor(round((t_c - t0 - pulse.ramp_time) * pulse.drive_freq, 9)))
    half = 0.5 * n / pulse.drive_freq
    return n, t_c - half, t_c + half


def _computational_block(frame: LabeledSpectrum) -> np.ndarray:
    idx = [frame.index_of(lab) for lab in COMPUTATIONAL_LABELS]
    return frame.states[:, idx].astype(complex)


@lru_cache(maxsize=16)
def _ramped_up_block(
    params: CompositeParams, flux: float, ramp: BiasRamp | None, dt: float
) -> np.ndarray:
    """Computational block of the idle frame at the start of the drive
    window around the bias ``flux`` (cached, read-only): propagated
    through the bias ramp-up [0, ramp.ramp_time], or the idle block at
    ``flux`` itself without a ramp.

    No drive acts before the drive window, so the block does not depend
    on the drive: a driveless stand-in steps the interval exactly as any
    pulse of the schedule would, with the same coarse undriven step. The
    same block scores the ramp-down (see the module docstring).
    """
    block = _computational_block(dressed_frame(params, flux if ramp is None else ramp.flux_idle))
    if ramp is not None:
        driveless = ParametricPulse(flux, drive_amp=0.0, drive_freq=0.0, ramp_time=0.0,
                                    gate_time=0.0)
        block = _advance(params, driveless, ramp, dt, block, 0.0, ramp.ramp_time)
    block.flags.writeable = False
    return block


@backends.one_blas_thread
def propagate_state(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None = None,
    psi0=(1, 0, 1),
    dt: float = DEFAULT_DT,
    record=None,
    t_grid=None,
    t_end=None,
) -> EvolutionResult:
    """Integrate the Schroedinger equation and record dressed populations.

    ``psi0`` is the dressed-state label of the initial state. ``record``
    lists the labels whose populations are tracked. The schedule is
    stepped from 0 to ``t_end``, by default its end, where ``final_state``
    and ``norm_drift`` are taken; ``t_grid`` defaults to 201 evenly spaced
    snapshot times on [0, t_end].

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
    t_end = duration if t_end is None else float(t_end)
    if not 0.0 <= t_end <= duration + 1e-9:
        raise ValueError("t_end must lie within the pulse duration")
    if t_grid is None:
        t_grid = np.linspace(0.0, t_end, 201)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid < 0) or np.any(t_grid > t_end + 1e-9):
            raise ValueError("t_grid must lie within [0, t_end]")
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
    psi = _advance(params, pulse, ramp, dt, psi, t_prev, t_end)
    norm_drift = _norm_drift(psi)
    return EvolutionResult(pops, psi[:, 0], norm_drift)


@backends.one_blas_thread
def propagate_computational_unitary(
    params: CompositeParams,
    pulse: ParametricPulse,
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
) -> ComputationalUnitary:
    """Truncated propagator over the four dressed computational states.

    The carrier must peak at the centre of the drive window, as
    ``gates.gate_schedule`` sets it, so the window is time-symmetric
    (ValueError otherwise). Columns are propagated together
    through the first half of the window, x = G R, and the whole drive
    periods centred on the window as y = M^n x; the 4 x 4 is x^T y (see
    the module docstring). The bias ramp-up, there when the gate sets an
    interaction flux, carries no drive, so its block R is propagated
    once per (params, bias flux, ramp, dt) and shared by every drive
    frequency and amplitude; without a ramp R is the idle computational
    block. The
    rest of the schedule is stepped only when ``final_populations`` is
    first read. Row phases rotate at the idle dressed energies, so an
    idle system yields the identity.
    """
    frame = _idle_frame(params, pulse, ramp, dt)
    idx = frame.unambiguous(COMPUTATIONAL_LABELS)
    n, t_a, t_b = _centred_periods(pulse, ramp)

    duration = total_duration(pulse, ramp)
    block = _ramped_up_block(params, pulse.flux_static, ramp, dt)
    x = _advance(params, pulse, ramp, dt, block, drive_window(pulse, ramp)[0], t_a)
    y = x
    if n:
        sectors = assemble_operators(params).sectors
        pieces = _split(sectors, x)
        mono = _period(params, pulse.flux_static, pulse.drive_amp, pulse.drive_freq, dt,
                       pieces.active)
        y = _join(sectors, pieces._replace(x=backends.apply_power(mono, n, pieces.x)), x.shape)
    drift = _norm_drift(y)

    phases = np.exp(2j * np.pi * frame.energies[idx] * duration)
    u = phases[:, None] * (x.T @ y)

    @backends.one_blas_thread
    def end_populations() -> np.ndarray:
        out = _advance(params, pulse, ramp, dt, y, t_b, duration)
        _norm_drift(out)
        return np.abs(frame.states.T @ out) ** 2

    return ComputationalUnitary(u, frame.labels, drift, end_populations)


def label_key(label) -> str:
    """A dressed-state label as text, e.g. ``"101"``."""
    return "".join(map(str, label))


@backends.one_blas_thread
def chevron_column(
    params: CompositeParams,
    template: ParametricPulse,
    freq: float,
    t_grid,
    psi0=(1, 0, 1),
    ramp: BiasRamp | None = None,
    dt: float = DEFAULT_DT,
    record=None,
) -> dict[str, list[float]]:
    """One chevron column, JSON-ready: the populations on ``t_grid`` at a
    single drive frequency as lists keyed by each recorded label's digits
    (``"101"``), in ``record`` order, then ``"computational"``, their sum
    over the recorded computational labels, when any is recorded."""
    pulse = replace(template, drive_freq=float(freq))
    pops = propagate_state(params, pulse, ramp, psi0, dt, record, t_grid).populations
    column = {label_key(lab): p.tolist() for lab, p in pops.items()}
    computational = [pops[lab] for lab in COMPUTATIONAL_LABELS if lab in pops]
    if computational:
        column["computational"] = sum(computational).tolist()
    return column


@backends.one_blas_thread
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
    """Final |101> population for one (frequency, amplitude) cell.

    The cell's drive window of ``fixed_time`` takes the gate's centred
    carrier (``pulses.centred_phase``), so its schedule, a bias ramp
    included, is time-symmetric about its midpoint T/2, and by the mirror
    identity of ``system`` the propagator is U = V^T V, with V the
    propagator over [0, T/2]. The dressed idle states c are real, so

        <c_101| U |c_psi0> = (V c_101)^T (V c_psi0),

    and ``propagate_state`` steps only [0, T/2], where it checks the norm
    drift; the second half of the schedule is never stepped. The result
    matches direct stepping of the centred carrier to roundoff (5e-13 on
    four set500 cells of 100 ns at 0.5 ps). Centring itself moves p101
    from a carrier referenced to the window start: by at most 1.9e-7 on
    the 48 benchmark cells of set500 ``[amplitude]`` at 0.5 ps.

    T/2 cuts the flat top into two halves of equal step count. A flat top
    of an even step count at ``dt`` keeps the whole window's step grid,
    so the half window takes the whole window's first half of the steps;
    an odd count rounds each half up, which moves the grid by one step:
    the flat top takes one step more, each slightly shorter.
    """
    freq, fixed_time = float(freq), float(fixed_time)
    pulse = replace(template, drive_freq=freq, drive_amp=float(amp), gate_time=fixed_time,
                    phase=centred_phase(freq, fixed_time))
    t_half = 0.5 * total_duration(pulse, ramp)

    def half_window(label):
        return propagate_state(params, pulse, ramp, label, dt, (), (), t_half).final_state

    x = half_window(psi0)
    y = x if tuple(psi0) == (1, 0, 1) else half_window((1, 0, 1))
    return float(abs(y @ x) ** 2)
