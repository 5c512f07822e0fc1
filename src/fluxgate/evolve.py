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
monodromy. One function, ``_period``, builds it from carrier phase 0
for ``floquet``, gates and snapshots alike, and caches the last one.
One rule, ``_whole_periods``, finds the whole periods of the flat top
inside a span, between carrier-phase-0 boundaries, and one helper,
``_powered``, applies them to a block as M^k. ``propagate_state``
steps from one snapshot to the first boundary after it, powers the
periods up to the last boundary before the next snapshot, and steps
the rest, so a chevron column steps its two flanks and less than one
period per snapshot; a gap that holds no whole period is stepped
throughout. A gate's drive window [t0, t1] is time-symmetric:
``gates.gate_schedule`` centres the carrier on the window centre t_c
(``pulses.centred_phase``), so H(t_c + s) = H(t_c - s), and the whole
periods of the window are the n = 2 floor((t_c - t0 - ramp_time) f_p)
centred on t_c. ``propagate_computational_unitary`` steps only G, the
propagator over the up-flank and the lead-in [t0, t_c - nP/2].
``_step_count`` gives mirrored spans equal step counts at mirrored
midpoints, so the steps after the periods are G's steps in reverse
order, and by the mirror identity of ``system`` the window is
W = G^T M^n G: a gate evaluation steps one flank and less than one
period, and takes one power. A window whose carrier does not peak at
t_c raises ValueError. An amplitude cell centres its carrier as a
gate does and reads only p101 at the end of its schedule, so it steps
the first half of the schedule, V, and scores the whole as V^T V
(``amplitude_point``).

Every step conserves the total parity of ``system`` (the drive modulates
only the coupler number N), so ``_advance`` splits its block into one
piece per parity sector, skips a sector whose piece is exactly zero, and
steps each piece with the sector's own 75 x 75 operators: a labelled
initial state steps 75 states, and the four computational columns step
as two columns in each sector, batched into one product per step.

A gate's bias ramp-down is the ramp-up run backwards: it carries no
drive, and ``_step_count`` gives both ramps the same step count, so
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
# 0.5 ps a chunk spans 8.2 ns, so a chevron flank, and the stepped part
# of a snapshot gap, step as one chunk. A 100 ns amplitude cell (set500,
# one BLAS thread, tracemalloc) peaks at 1.7 MiB of heap at dt 0.5 and
# 0.125 ps alike (0.7 MiB at 1024 steps, 6.1 MiB at 65536) and takes
# 0.33-0.37 s at every size from 1024 to 262144 steps (one BLAS thread,
# 2 vCPUs).
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
    (seed 1), a ``calibrate`` cell makes 121 lookups with 2 misses and a
    ``propagate`` run 142 with 1, so 32 entries never evict.
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
    """Check that the step resolves the drive, then return the dressed
    frame at the idle flux, where initial states and recorded populations
    live."""
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
    IntegrationError beyond NORM_DRIFT_LIMIT, or when it is nan."""
    drift = float(np.max(np.abs(np.linalg.norm(block, axis=0) - 1.0)))
    if not drift <= NORM_DRIFT_LIMIT:
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
def _flat_step(
    params: CompositeParams, flux: float, h: float, sectors: tuple[int, ...]
) -> np.ndarray:
    """Exact one-step propagators of the static Hamiltonian at ``flux``,
    one for each parity sector named in ``sectors`` (indices into
    ``ModelOperators.sectors``), stacked in that order as (sectors, m, m).

    Sector s holds Q exp(-i 2 pi h E) Q^T from the dressed energies E
    and orthonormal states Q of that sector in ``dressed_frame``, on the
    sector's rows of ``ModelOperators.sectors``; a sector smaller than
    the widest, m, is padded with the identity. A sector costs one
    75 x 75 product per new step length, 0.14 ms at one BLAS thread on
    2 vCPUs (0.55 ms for one 150 x 150); a chevron column or a Floquet
    seed point steps one sector and builds only that one.
    Traced on the benchmark (seed 1), a ``calibrate`` cell misses 61 of
    75 lookups, since each monodromy and each flat top's lead-in steps a
    length that no other drive frequency repeats; its hits are
    drive-flank steps shared by one search's evaluations and the
    flat-top steps of simplex vertices at one frequency. A ``propagate``
    run misses 128 of 160: each snapshot gap steps to its first whole
    period and from its last at lengths no other gap repeats. Unbounded,
    the cache would keep 12 more hits of that run, about 2 ms; 8 entries
    hold at most 1.4 MB.
    """
    frame = dressed_frame(params, flux)
    all_rows = assemble_operators(params).sectors
    width = max(rows.size for rows in all_rows)
    steps = np.zeros((len(sectors), width, width), dtype=complex)
    for step, s in zip(steps, sectors):
        rows, cols = all_rows[s], frame.sectors[s]
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


def _stepped(kernel, operands, sample_chunks, h, x):
    """The ``backends`` sequence ``kernel`` on the stack of pieces ``x``
    (pieces, m, k), which it takes side by side, (m, pieces k), one call
    ``kernel(*operands, *samples, h, side)`` per chunk of drive samples
    in ``sample_chunks``, in order."""
    pieces, width, k = x.shape
    side = x.transpose(1, 0, 2).reshape(width, pieces * k)
    for samples in sample_chunks:
        side = kernel(*operands, *samples, h, side)
    return side.reshape(width, pieces, k).transpose(1, 0, 2)


def _sector_stack(params, active, full):
    """The sectors ``active`` of the full-space array ``full`` (a matrix,
    or the diagonal ``n_diag``), stacked and zero-padded to the widest
    sector: (sectors, m, m), or (sectors, m)."""
    sectors = assemble_operators(params).sectors
    width = max(rows.size for rows in sectors)
    out = np.zeros((len(active),) + (width,) * full.ndim, dtype=full.dtype)
    for piece, s in zip(out, active):
        rows = sectors[s]
        piece[np.ix_(*[np.arange(rows.size)] * full.ndim)] = full[np.ix_(*[rows] * full.ndim)]
    return out


def _flat_operands(params, flux, h, active):
    """The ``strang_sequence`` operands of the sectors ``active`` at the
    constant bias ``flux``: their ``_flat_step`` steps of length ``h``,
    their coupler occupations (``_sector_stack``), and the undriven c1,
    which drive samples subtract to give dc1."""
    u0 = _flat_step(params, flux, h, tuple(active))
    n_diag = _sector_stack(params, active, assemble_operators(params).n_diag)
    c1_flat, _ = oscillator_coefficients(params.coupler, flux, flux)
    return u0, n_diag, float(c1_flat)


def _step_count(t_a, t_b, dt):
    """The fewest equal steps no longer than ``dt`` that cut [t_a, t_b],
    and their length h.

    A span within roundoff of a whole number of steps takes that number:
    the ramp-down span (2 tau + t_g) - (tau + t_g) can round above tau,
    and must take the ramp-up's count for U_down = U_up^T to hold.

    Raises DomainError unless dt > 0, the one check of the step every
    stepped span passes, and when (t_b - t_a) / dt is not finite or
    exceeds 2**52: past that, the step midpoints t_a + (k + 0.5) h can no
    longer all be distinct doubles.
    """
    if not dt > 0:
        raise DomainError(f"dt = {dt} ns must be positive")
    steps = (t_b - t_a) / dt
    if not steps <= 2.0**52:
        raise DomainError(
            f"[{t_a:g}, {t_b:g}] ns at dt = {dt:g} ns takes {steps:.3g} steps, "
            "more than 2**52"
        )
    n = max(1, int(np.ceil(round(steps, 9))))
    return n, (t_b - t_a) / n


def _step_samples(params, pulse, ramp, t_a, n, h):
    """The bias flux and (c1, c2) at the midpoints of the n steps of
    length h from t_a (``_step_count``'s cut of a span), yielded as
    (fb, (c1, c2)) for consecutive chunks of at most STEP_CHUNK steps.

    The one sampling rule of every propagation, the gate schedule's
    intervals and the Floquet monodromy's period alike. Step k of the
    span has its midpoint at t_a + (k + 0.5) h whichever chunk holds it,
    so the samples are the same bit for bit at any chunk size, and a
    caller that steps chunk by chunk holds one chunk's samples at a time,
    whatever the step count (see STEP_CHUNK).
    """
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
    ``flux_static`` (the drive enters as a diagonal perturbation); across
    a bias ramp, full midpoint-exponential steps. Either kernel takes
    the sector stack, all pieces in one call per chunk, with operands
    built once per interval. Intervals without any drive
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
    n, h = _step_count(t_a, t_b, dt_eff)
    chunks = _step_samples(params, pulse, ramp, t_a, n, h)
    if ramp is None or t0 <= t_a and t_b <= t1:
        u0, n_diag, c1_flat = _flat_operands(params, pulse.flux_static, h, active)
        return _stepped(backends.strang_sequence, (u0, n_diag),
                        ((c1 - c1_flat,) for _, (c1, _) in chunks), h, x)
    ops = assemble_operators(params)
    operands = [_sector_stack(params, active, full) for full in (ops.a_fixed, ops.n_diag, ops.b_op)]
    return _stepped(backends.step_sequence, operands, (c for _, c in chunks), h, x)


@lru_cache(maxsize=1)
def _period(params, flux_s, drive_amp, drive_freq, dt, active: tuple[int, ...]):
    """One period of the steady drive from carrier phase 0 at the bias
    ``flux_s``: the Floquet monodromy of the sectors ``active``, stacked
    as (sectors, m, m) like ``_flat_step`` (cached, read-only).

    The one entry keeps the period of the last drive: a chevron column's
    snapshot gaps all power it, and it holds at most two 75 x 75 blocks,
    180 KB.

    The period is cut by ``_step_count`` into n Strang steps
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
    n, h = _step_count(0.0, period, dt)
    samples = _step_samples(params, steady, None, 0.0, n, h)
    c1 = np.concatenate([part for _, (part, _) in samples])
    u0, n_diag, c1_flat = _flat_operands(params, flux_s, h, active)
    dc1 = c1 - c1_flat
    eye = np.broadcast_to(np.eye(u0.shape[1], dtype=complex), u0.shape)
    half = n // 2
    v = _stepped(backends.strang_sequence, (u0, n_diag), [(dc1[:half],)], h, eye)
    if n % 2:
        v = v * np.exp(-1j * np.pi * h * dc1[half] * n_diag)[:, :, None]
        forward = u0 @ v
    else:
        forward = v
    mono = v.transpose(0, 2, 1) @ forward
    mono.flags.writeable = False
    return mono


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


def _powered(params, pulse, dt, block, k):
    """``block`` advanced through k whole drive periods of the flat top
    of ``pulse``, from carrier phase 0: M^k of the ``_period`` of the
    block's sectors (see ``_whole_periods``)."""
    sectors = assemble_operators(params).sectors
    pieces = _split(sectors, block)
    mono = _period(params, pulse.flux_static, pulse.drive_amp, pulse.drive_freq, dt,
                   pieces.active)
    return _join(sectors, pieces._replace(x=backends.apply_power(mono, k, pieces.x)), block.shape)


def _whole_periods(pulse: ParametricPulse, ramp: BiasRamp | None, t_a: float, t_b: float):
    """The whole drive periods of the flat top inside [t_a, t_b]: their
    count k and their span [b1, b2], or None when the span holds none.

    A period runs between consecutive boundaries, where the carrier phase
    2 pi f_p tau + ``pulse.phase`` is 0 mod 2 pi (tau from the drive-window
    start), as ``_period``'s does. Boundaries count only on the flat top
    [t0 + ramp_time, t1 - ramp_time], where the Hamiltonian repeats every
    period, and their counts are rounded to 9 decimals, so a boundary
    within roundoff of a span end counts. A window without a drive or a
    carrier takes no periods.
    """
    if pulse.drive_amp == 0 or pulse.drive_freq == 0:
        return None
    t0, t1 = drive_window(pulse, ramp)
    lo = max(t0 + pulse.ramp_time, t_a)
    hi = min(t1 - pulse.ramp_time, t_b)
    offset = pulse.phase / (2.0 * np.pi)
    first = math.ceil(round((lo - t0) * pulse.drive_freq + offset, 9))
    last = math.floor(round((hi - t0) * pulse.drive_freq + offset, 9))
    if last - first < 1:
        return None
    return (last - first, t0 + (first - offset) / pulse.drive_freq,
            t0 + (last - offset) / pulse.drive_freq)


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
    propagated from 0 to ``t_end``, by default its end, where
    ``final_state`` and ``norm_drift`` are taken; ``t_grid`` defaults to
    201 evenly spaced snapshot times on [0, t_end].

    Each snapshot is reached from the one before through the whole drive
    periods of the flat top between them (``_whole_periods``), as a power
    of the one cached ``_period`` of the state's sectors (``_powered``),
    and steps before and after them; a gap with no whole period
    is stepped throughout. Snapshots thus differ from stepping every
    interval by the period's own step grid, under 2 % of the change from
    halving dt on the benchmark's chevron columns. The stretch from the
    last snapshot to ``t_end`` is stepped throughout, so a call without
    snapshots, as ``amplitude_point`` makes, steps every interval.

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
        if not np.all(np.isfinite(t_grid)):
            raise ValueError("t_grid must be finite")
        if np.any(t_grid < 0) or np.any(t_grid > t_end + 1e-9):
            raise ValueError("t_grid must lie within [0, t_end]")
        if np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")

    psi = frame.states[:, [start]].astype(complex)
    rec_vecs = {lab: frame.states[:, frame.index_of(lab)] for lab in record}
    pops = {lab: np.empty(t_grid.size) for lab in record}

    t_prev = 0.0
    for i, t in enumerate(t_grid):
        t = float(t)
        periods = _whole_periods(pulse, ramp, t_prev, t)
        if periods is None:
            psi = _advance(params, pulse, ramp, dt, psi, t_prev, t)
        else:
            k, b1, b2 = periods
            psi = _powered(params, pulse, dt, _advance(params, pulse, ramp, dt, psi, t_prev, b1), k)
            psi = _advance(params, pulse, ramp, dt, psi, b2, t)
        t_prev = t
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
    t0, t1 = drive_window(pulse, ramp)
    t_c = 0.5 * (t0 + t1)
    if pulse.drive_amp and pulse.drive_freq and abs(math.remainder(
            pulse.phase - centred_phase(pulse.drive_freq, pulse.gate_time), 2.0 * np.pi)) > 1e-9:
        raise ValueError(
            "the drive window is not time-symmetric about a carrier peak: the "
            "carrier phase at its centre must be 0 (gates.gate_schedule sets it)"
        )
    n, t_a, t_b = _whole_periods(pulse, ramp, t0, t1) or (0, t_c, t_c)

    duration = total_duration(pulse, ramp)
    block = _ramped_up_block(params, pulse.flux_static, ramp, dt)
    x = _advance(params, pulse, ramp, dt, block, t0, t_a)
    # A driveless window has no period to power.
    y = _powered(params, pulse, dt, x, n) if n else x
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
