"""Parametric CZ gates on the |101> <-> |202> transition.

Builds full gate schedules (bias ramp plus enveloped flux drive), scores
the resulting truncated propagators with a state-average fidelity,
leakage, and conditional phase, and calibrates the two drive parameters
(frequency, amplitude) with a bounded derivative-free search seeded from
the Floquet resonance. The calibrated gate's report ranks its leakage
channels, read from the end-of-schedule populations of its propagator;
only the report reads them, so no search evaluation steps the second
half of the drive window or a bias ramp-down.

Each calibration rule is stated here once. A calibration seeds and
scores at its final step and searches at ``search_dt`` of it, never
finer than ``SEARCH_DT``. Every amplitude it may try, seed and search
box alike, lies at or below ``_amp_cap`` of the drive flux, where the
driven coupler keeps a positive junction energy; ``GateConfig`` refuses
an amplitude box above it, and a drive flux whose cap is below the
seed's probe amplitude, ``SEED_PROBE_AMP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .backends import one_blas_thread
from .errors import SearchError
from .evolve import (
    COMPUTATIONAL_LABELS,
    DEFAULT_DT,
    ComputationalUnitary,
    dressed_frame,
    propagate_computational_unitary,
)
from .floquet import extract_transition
from .pulses import DEFAULT_DRIVE_RAMP, BiasRamp, ParametricPulse, centred_phase
from .system import CompositeParams

Label = tuple[int, int, int]

DIAGONAL_FLOOR = 1e-3
LEAKAGE_CHANNELS = 8
LEAKAGE_FLOOR = 1e-10
OPTIMIZER_BUDGET = 400
OPTIMIZER_RESTARTS = 3
SEARCH_DT = 0.001
SEED_PROBE_AMP = 0.02
STAGNATION_LIMIT = 1e-2

CZ_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

# Restart k starts from the seed displaced by OFFSET_TABLE[k] times ten
# initial-simplex steps, so restarts explore beyond the first basin.
OFFSET_TABLE = (
    (0.0, 0.0),
    (1.0, -1.0),
    (-1.0, 1.0),
    (1.0, 1.0),
    (-1.0, -1.0),
    (2.0, 0.0),
    (0.0, 2.0),
)


def search_dt(final_dt: float) -> float:
    """The step a calibration searches at when it seeds and scores at
    ``final_dt``: that step, but never finer than ``SEARCH_DT``."""
    return max(final_dt, SEARCH_DT)


def _amp_cap(flux_s: float) -> float:
    """Largest drive amplitude a calibration may try at drive flux
    ``flux_s``: it keeps the driven junction energy positive over the
    swing."""
    return 0.499 - abs(flux_s)


@dataclass(frozen=True)
class GateConfig:
    """Operational configuration of a CZ gate schedule.

    With ``flux_interaction`` the coupler ramps from ``flux_idle`` to it
    over ``bias_ramp`` before driving and back afterwards (dynamic bias);
    without, it is driven at ``flux_idle`` throughout (static bias), and
    takes no ``bias_ramp``. ``gate_schedule`` checks the drive window and
    the ramp. Bounds, when given, constrain the (drive frequency, drive
    amplitude) search; the amplitude box lies at or below
    ``_amp_cap(drive_flux)``, and that cap is at least ``SEED_PROBE_AMP``.
    """

    flux_idle: float
    gate_time: float
    flux_interaction: float | None = None
    bias_ramp: float | None = None
    drive_ramp: float = DEFAULT_DRIVE_RAMP
    freq_bounds: tuple[float, float] | None = None
    amp_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.flux_interaction is None) != (self.bias_ramp is None):
            raise ValueError("flux_interaction and bias_ramp come together")
        if self.flux_idle == self.flux_interaction:
            raise ValueError("need flux_idle != flux_interaction")
        # ParametricPulse takes a zero-length window (the undriven ramp-up
        # steps one), so the gate checks its own length.
        if self.gate_time <= 0:
            raise ValueError("gate_time must be positive")
        gate_schedule(self, 0.0, 0.0)  # the pulse and ramp check their times
        for name, bounds in (("freq", self.freq_bounds), ("amp", self.amp_bounds)):
            if bounds is not None and not bounds[0] < bounds[1]:
                raise ValueError(f"need {name}_min < {name}_max")
            if bounds is not None and bounds[0] < 0:
                raise ValueError(f"{name}_min must be non-negative")
        cap = _amp_cap(self.drive_flux)
        if cap < SEED_PROBE_AMP:
            raise ValueError(f"drive flux {self.drive_flux:g} caps the drive amplitude at "
                             f"{cap:.6g}, below the {SEED_PROBE_AMP:g} the seed probes at")
        if self.amp_bounds is not None and self.amp_bounds[1] > cap:
            raise ValueError(
                f"amp_max must not exceed {cap:.6g}, the amplitude that keeps the "
                f"coupler's junction energy positive at flux {self.drive_flux:g}"
            )

    @property
    def drive_flux(self) -> float:
        """Static coupler flux while the drive is on."""
        return self.flux_idle if self.flux_interaction is None else self.flux_interaction


@dataclass(frozen=True)
class GateMetrics:
    """Scores of one truncated 4 x 4 propagator.

    ``single_qubit_phases`` are the Z rotation angles removed before the
    fidelity trace; when any truncated-propagator diagonal falls below
    1e-3 those extractions are unreliable and ``phases_reliable`` is
    cleared.
    """

    fidelity: float
    error: float
    leakage: float
    conditional_phase: float
    single_qubit_phases: tuple[float, float]
    phases_reliable: bool = True


class LeakageChannel(NamedTuple):
    label: Label
    population: float
    source: Label


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one CZ calibration run.

    ``metrics`` scores ``unitary``, the optimum's propagator at the final
    step; ``report`` reads its leakage channels, which steps the second
    half of the drive window and a bias ramp-down (see
    ``ComputationalUnitary``). ``trace`` holds every
    objective evaluation in order; ``success`` is cleared when the best
    objective stays above the stagnation limit after the full restart
    budget.
    """

    omega_p: float
    drive_amp: float
    metrics: GateMetrics
    unitary: ComputationalUnitary
    objective: float
    success: bool
    trace: tuple[dict, ...]
    seed: tuple[float, float]
    bounds: tuple[tuple[float, float], tuple[float, float]]
    restarts: int
    gate_time: float

    def report(self) -> dict:
        """JSON-ready summary of inputs, optimum, metrics, and trace size."""
        m = self.metrics
        channels = [
            {"label": list(ch.label), "population": ch.population, "source": list(ch.source)}
            for ch in leakage_channels(self.unitary)
        ]
        return {
            "schema": "fluxgate.gate_opt/1",
            "gate_time": self.gate_time,
            "seed": {"omega_p": self.seed[0], "drive_amp": self.seed[1]},
            "bounds": {"omega_p": list(self.bounds[0]), "drive_amp": list(self.bounds[1])},
            "restarts": self.restarts,
            "optimum": {"omega_p": self.omega_p, "drive_amp": self.drive_amp},
            "metrics": {
                "fidelity": m.fidelity,
                "error": m.error,
                "leakage": m.leakage,
                "conditional_phase": m.conditional_phase,
                "single_qubit_phases": list(m.single_qubit_phases),
                "phases_reliable": m.phases_reliable,
            },
            "leakage_channels": channels,
            "objective": self.objective,
            "success": self.success,
            "n_evaluations": len(self.trace),
        }


def gate_metrics(u) -> GateMetrics:
    """Score a truncated 4x4 propagator against the ideal CZ.

    Single-qubit Z freedom is removed analytically by zeroing the phases
    of the |001> and |100> diagonals relative to |000>; the fidelity is
    the state-average trace formula on the corrected matrix. Leakage is
    the average population lost per column, and the conditional phase is
    read off the raw diagonal, which those Z rotations leave unchanged.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 truncated propagator")
    diag = np.diagonal(u)
    reliable = bool(np.all(np.abs(diag) >= DIAGONAL_FLOOR))

    theta1 = -np.angle(diag[1] / diag[0]) if reliable else 0.0
    theta2 = -np.angle(diag[2] / diag[0]) if reliable else 0.0
    corr = np.exp(1j * np.array([0.0, theta1, theta2, theta1 + theta2]))
    v = corr[:, None] * u

    tr_uu = float(np.trace(u.conj().T @ u).real)
    fidelity = (tr_uu + abs(np.trace(CZ_TARGET.conj().T @ v)) ** 2) / 20.0
    # Roundoff can push either score past its endpoint by ~1e-12; the
    # clamp stays within the leakage-trace consistency tolerance.
    fidelity = min(max(fidelity, 0.0), 1.0)
    leakage = min(max(1.0 - tr_uu / 4.0, 0.0), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = float(np.angle(diag[0] * diag[3] / (diag[1] * diag[2])))
    if not np.isfinite(conditional):  # empty diagonal, already flagged
        conditional = 0.0

    return GateMetrics(
        fidelity=float(fidelity),
        error=float(1.0 - fidelity),
        leakage=float(leakage),
        conditional_phase=conditional,
        single_qubit_phases=(float(theta1), float(theta2)),
        phases_reliable=reliable,
    )


def gate_schedule(
    cfg: GateConfig, omega_p: float, drive_amp: float
) -> tuple[ParametricPulse, BiasRamp | None]:
    """Pulse and optional bias ramp realizing the configured gate.

    The carrier is centred on the drive window, cos(2 pi f_p (tau - t_g / 2)),
    so the window is time-symmetric and ``propagate_computational_unitary``
    steps only its first half.
    """
    pulse = ParametricPulse(
        flux_static=cfg.drive_flux,
        drive_amp=drive_amp,
        drive_freq=omega_p,
        ramp_time=cfg.drive_ramp,
        gate_time=cfg.gate_time,
        phase=centred_phase(omega_p, cfg.gate_time),
    )
    ramp = None if cfg.bias_ramp is None else BiasRamp(cfg.flux_idle, cfg.bias_ramp)
    return pulse, ramp


@one_blas_thread
def evaluate_gate(
    params: CompositeParams,
    cfg: GateConfig,
    omega_p: float,
    drive_amp: float,
    dt: float = DEFAULT_DT,
) -> GateMetrics:
    """Run the full schedule and score the truncated propagator; the
    second half of the drive window and the bias ramp-down are never
    stepped."""
    pulse, ramp = gate_schedule(cfg, omega_p, drive_amp)
    return gate_metrics(propagate_computational_unitary(params, pulse, ramp, dt=dt).matrix)


@one_blas_thread
def leakage_channels(unitary: ComputationalUnitary) -> list[LeakageChannel]:
    """The ``LEAKAGE_CHANNELS`` largest non-computational end-of-schedule
    populations, ranked descending, the channels a report lists.

    Each entry carries the computational state that produced it; entries
    at or below ``LEAKAGE_FLOOR`` are dropped. Reads
    ``unitary.final_populations``, which steps the rest of the drive
    window (the remainder after the whole periods and the down-flank)
    and a bias ramp-down.
    """
    computational = set(COMPUTATIONAL_LABELS)
    pops = unitary.final_populations
    rows = [
        LeakageChannel(lab, float(pops[k, j]), source)
        for j, source in enumerate(COMPUTATIONAL_LABELS)
        for k, lab in enumerate(unitary.state_labels)
        if lab not in computational and pops[k, j] > LEAKAGE_FLOOR
    ]
    rows.sort(key=lambda r: (-r.population, r.label, r.source))
    return rows[:LEAKAGE_CHANNELS]


def phase_distance(phi: float, target: float) -> float:
    """Signed angular distance from phi to target, wrapped to (-pi, pi]."""
    return float(np.angle(np.exp(1j * (phi - target))))


class _BudgetSpent(Exception):
    """Raised in place of an objective call once the budget is spent."""


def _nelder_mead(
    objective: Callable[[np.ndarray], float],
    simplex: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, float]:
    """One bounded Nelder-Mead run from ``simplex`` (n + 1 rows inside
    [lo, hi]), as ``simplex_search`` describes it. Returns the best
    vertex and the lowest simplex value.

    Every comparison, argsort and clip is scipy's, in scipy's order, and
    the objective gets a copy of x: the reference test holds the two to
    the same points, values and call counts.
    """
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return objective(x.copy())

    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as scipy does: argsort is not stable, so the second
    # sort may still reorder ties.
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    while calls < budget:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-10):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(np.min(fsim))


def simplex_search(
    objective: Callable[[np.ndarray], float],
    seed,
    bounds,
    steps,
    restarts: int = OPTIMIZER_RESTARTS,
    budget: int = OPTIMIZER_BUDGET,
) -> np.ndarray:
    """Bounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965))
    from deterministic restart points.

    ``steps`` sets the initial simplex edge per coordinate; restart k
    displaces the seed by ``OFFSET_TABLE[k]`` scaled to ten steps, then
    clips into bounds, so there are at most ``len(OFFSET_TABLE)``
    restarts: another would repeat a search. Returns the point of lowest
    objective over all restarts (the first on a tie), and raises
    SearchError when no restart ends on a finite value: a restart whose
    final simplex holds a NaN scores NaN. A ``budget`` below one call
    raises ValueError.

    Each restart's simplex is its start and the start plus one step per
    coordinate, clipped into the bounds. Reflection, expansion,
    contraction and shrink use the coefficients 1, 2, 1/2 and 1/2, and
    every trial point is clipped into the bounds. A restart stops when
    every vertex lies within 1e-6 of the best in each coordinate and
    1e-10 in objective, or once it has made ``budget`` objective calls:
    the call past the budget is never made, the step it belonged to is
    dropped, and the best vertex of the simplex is the restart's result.

    This is scipy.optimize.minimize(method="Nelder-Mead") with
    ``initial_simplex``, ``maxfev=budget``, ``xatol=1e-6`` and
    ``fatol=1e-10``, bit for bit. scipy's warning for a start outside the
    bounds and its reflection of the initial simplex into the interior
    are left out: the start and simplex are clipped already, so both
    would be no-ops.
    """
    seed = np.asarray(seed, dtype=float)
    steps = np.asarray(steps, dtype=float)
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy low < high")
    if not 1 <= restarts <= len(OFFSET_TABLE):
        raise ValueError(f"restarts must lie in 1..{len(OFFSET_TABLE)}")
    if budget < 1:
        raise ValueError("budget must allow at least one objective call")

    best_x, best_f = None, np.inf
    for k in range(restarts):
        off = np.asarray(OFFSET_TABLE[k], dtype=float)
        x0 = np.clip(seed + 10.0 * steps * off, lo, hi)
        simplex = np.clip(np.vstack([x0, x0 + np.diag(steps)]), lo, hi)
        x, fun = _nelder_mead(objective, simplex, lo, hi, budget)
        if fun < best_f:
            best_x, best_f = x, fun
    if best_x is None:
        raise SearchError("no restart of the search ended on a finite objective")
    return best_x


def _objective(metrics: GateMetrics) -> float:
    """Calibration objective: leakage + (conditional phase error)^2 / pi^2."""
    return metrics.leakage + phase_distance(metrics.conditional_phase, math.pi) ** 2 / math.pi**2


def _seed_from_floquet(
    params: CompositeParams, cfg: GateConfig, dt: float = DEFAULT_DT
) -> tuple[float, float]:
    """Drive-parameter seed (omega, amplitude).

    The amplitude targets one full population cycle of |101> <-> |202>
    over the effective drive area gate_time - drive_ramp, clipped into
    the configured amplitude box or else to [0, ``_amp_cap``]; the
    frequency is the Floquet resonance re-extracted at that amplitude.
    Every monodromy steps at ``dt``.
    """
    flux_s = cfg.drive_flux
    pair = ((1, 0, 1), (2, 0, 2))
    frame = dressed_frame(params, flux_s)
    split = frame.energy_of(pair[1]) - frame.energy_of(pair[0])

    probe = extract_transition(
        params, flux_s, SEED_PROBE_AMP, pair,
        (split - 0.08, split + 0.04), resolution=25, dt=dt,
    )
    if not probe.found:
        probe = extract_transition(
            params, flux_s, SEED_PROBE_AMP, pair,
            (split - 0.25, split + 0.15), resolution=61, dt=dt,
        )
    if not probe.found or probe.strength <= 0:
        raise SearchError(
            "could not locate the |101><->|202> resonance to seed the optimizer"
        )

    t_area = cfg.gate_time - cfg.drive_ramp
    target = 1.0 / t_area
    amp_seed = SEED_PROBE_AMP * target / probe.strength
    amp_seed = float(np.clip(amp_seed, *(cfg.amp_bounds or (0.0, _amp_cap(flux_s)))))

    refined = extract_transition(
        params, flux_s, amp_seed, pair,
        (probe.omega_res - 0.03, probe.omega_res + 0.03), resolution=13, dt=dt,
    )
    omega_seed = refined.omega_res if refined.found else probe.omega_res
    return float(omega_seed), float(amp_seed)


@one_blas_thread
def optimize_cz(
    params: CompositeParams,
    cfg: GateConfig,
    dt: float | None = None,
    final_dt: float = DEFAULT_DT,
    restarts: int = OPTIMIZER_RESTARTS,
    budget: int = OPTIMIZER_BUDGET,
) -> OptimizationResult:
    """Calibrate (drive frequency, amplitude) of a CZ at fixed length.

    Minimizes leakage + (conditional phase error)^2 / pi^2 with a
    bounded simplex from a physics-informed seed. The Floquet seed and
    the returned metrics use ``final_dt``; the search runs at ``dt``,
    by default ``search_dt(final_dt)``. Without a configured box the
    amplitude searches [amp_seed / 4, min(2 amp_seed, ``_amp_cap``)].
    Stagnation above the failure threshold clears ``success`` instead
    of raising, so sweeps can continue.
    """
    if dt is None:
        dt = search_dt(final_dt)

    omega_seed, amp_seed = _seed_from_floquet(params, cfg, dt=final_dt)

    freq_bounds = cfg.freq_bounds or (omega_seed - 0.05, omega_seed + 0.05)
    amp_bounds = cfg.amp_bounds or (0.25 * amp_seed, min(2.0 * amp_seed, _amp_cap(cfg.drive_flux)))
    # The seed's amplitude lies in amp_bounds already.
    seed = (float(np.clip(omega_seed, *freq_bounds)), amp_seed)

    trace: list[dict] = []

    def objective(x) -> float:
        omega, amp = float(x[0]), float(x[1])
        metrics = evaluate_gate(params, cfg, omega, amp, dt=dt)
        value = _objective(metrics)
        trace.append(
            {
                "omega_p": omega,
                "drive_amp": amp,
                "objective": value,
                "leakage": metrics.leakage,
                "conditional_phase": metrics.conditional_phase,
            }
        )
        return value

    steps = (0.0025, 0.04 * seed[1])
    best_x = simplex_search(
        objective, seed, (freq_bounds, amp_bounds), steps,
        restarts=restarts, budget=budget,
    )

    # Scored like a search evaluation, keeping the propagator for the
    # report's leakage channels.
    pulse, ramp = gate_schedule(cfg, best_x[0], best_x[1])
    unitary = propagate_computational_unitary(params, pulse, ramp, dt=final_dt)
    metrics = gate_metrics(unitary.matrix)
    best_f = _objective(metrics)
    return OptimizationResult(
        omega_p=float(best_x[0]),
        drive_amp=float(best_x[1]),
        metrics=metrics,
        unitary=unitary,
        objective=float(best_f),
        success=bool(best_f <= STAGNATION_LIMIT),
        trace=tuple(trace),
        seed=seed,
        bounds=(tuple(freq_bounds), tuple(amp_bounds)),
        restarts=restarts,
        gate_time=cfg.gate_time,
    )

