"""Gate scoring and calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fluxgate import (
    ComputationalUnitary,
    GateConfig,
    SearchError,
    evaluate_gate,
    gate_metrics,
    leakage_channels,
    optimize_cz,
    propagate_computational_unitary,
)
from fluxgate import backends, gates
from fluxgate.floquet import TransitionResult
from fluxgate.gates import (
    CZ_TARGET,
    gate_schedule,
    phase_distance,
    simplex_search,
)
from fluxgate.evolve import (
    COMPUTATIONAL_LABELS,
    _ramped_up_block,
    dressed_frame,
    propagate_state,
)

STATIC35 = GateConfig(flux_idle=0.35, gate_time=65.0)

# Calibrated 65 ns static-bias optimum, frozen from this code at
# dt = 1 ps: error 8.06e-6, leakage 7.81e-6.
FROZEN65 = (10.805321439639698, 0.13716154198019098)


# -- metric fixtures ---------------------------------------------------------

def test_cz_scores_perfectly():
    m = gate_metrics(CZ_TARGET)
    assert m.fidelity == 1.0
    assert m.error == 0.0
    assert m.leakage == 0.0
    assert m.conditional_phase == pytest.approx(math.pi)
    assert m.phases_reliable


def test_identity_fidelity_is_two_fifths():
    m = gate_metrics(np.eye(4))
    assert m.fidelity == pytest.approx(0.4, abs=1e-12)
    assert m.leakage < 1e-10
    assert m.conditional_phase == pytest.approx(0.0, abs=1e-12)


def test_column_loss_reads_as_leakage():
    u = CZ_TARGET * math.sqrt(1.0 - 0.01)
    m = gate_metrics(u)
    assert m.leakage == pytest.approx(0.01, abs=1e-12)


def test_z_gauge_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        gamma, t1, t2 = rng.uniform(-math.pi, math.pi, size=3)
        z = np.exp(1j * np.array([0.0, t1, t2, t1 + t2]) + 1j * gamma)
        m = gate_metrics(z[:, None] * CZ_TARGET)
        assert m.fidelity == pytest.approx(1.0, abs=1e-12)
        assert phase_distance(m.conditional_phase, math.pi) == pytest.approx(
            0.0, abs=1e-12
        )


def test_conditional_phase_from_diagonal():
    for phi in (-2.5, -0.3, 0.0, 1.2, 3.0):
        u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        m = gate_metrics(u)
        assert m.conditional_phase == pytest.approx(phi, abs=1e-12)


def test_tiny_diagonal_flags_phases():
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[3, 3] = 1.0
    u[1, 2] = u[2, 1] = 1.0  # swap leaves |001>, |100> diagonals empty
    m = gate_metrics(u)
    assert not m.phases_reliable
    assert m.single_qubit_phases == (0.0, 0.0)
    assert m.conditional_phase == 0.0
    assert 0.0 <= m.fidelity <= 1.0


def test_shape_guard():
    with pytest.raises(ValueError):
        gate_metrics(np.eye(3))


def test_phase_distance_wraps():
    assert phase_distance(math.pi + 0.1, math.pi) == pytest.approx(0.1)
    assert phase_distance(-math.pi + 0.1, math.pi) == pytest.approx(0.1)
    assert abs(phase_distance(0.0, math.pi)) == pytest.approx(math.pi)


# -- configuration and schedule ----------------------------------------------

def test_gate_config_validation():
    # flux_interaction and bias_ramp come together: a static gate cannot
    # carry a ramp that never takes effect.
    with pytest.raises(ValueError, match="come together"):
        GateConfig(flux_idle=0.0, gate_time=60.0, flux_interaction=0.35)
    with pytest.raises(ValueError, match="come together"):
        GateConfig(flux_idle=0.35, gate_time=60.0, bias_ramp=3.0)
    with pytest.raises(ValueError):
        GateConfig(flux_idle=0.3, gate_time=60.0, flux_interaction=0.3, bias_ramp=3.0)
    with pytest.raises(ValueError):
        GateConfig(flux_idle=0.35, gate_time=0.0, drive_ramp=0.0)
    # The pulse and the ramp check the schedule's times.
    with pytest.raises(ValueError):
        GateConfig(flux_idle=0.35, gate_time=20.0, drive_ramp=15.0)
    with pytest.raises(ValueError):
        GateConfig(flux_idle=0.0, gate_time=60.0, flux_interaction=0.35, bias_ramp=0.0)


def test_gate_schedule_modes():
    pulse, ramp = gate_schedule(STATIC35, 10.8, 0.04)
    assert ramp is None
    assert pulse.flux_static == 0.35
    assert pulse.gate_time == 65.0

    dyn = GateConfig(flux_idle=0.0, gate_time=65.0, flux_interaction=0.35, bias_ramp=3.0)
    pulse, ramp = gate_schedule(dyn, 10.8, 0.04)
    assert pulse.flux_static == 0.35
    assert ramp is not None
    assert ramp.flux_idle == 0.0
    assert ramp.ramp_time == dyn.bias_ramp
    assert dyn.drive_flux == 0.35


# -- leakage channel reports ---------------------------------------------------

def _unitary_with_populations(finals):
    """A CZ whose end-of-schedule populations are ``finals``, a map from
    each prepared computational label to {final label: population}."""
    named = {lab for row in finals.values() for lab in row}
    labels = COMPUTATIONAL_LABELS + tuple(sorted(named - set(COMPUTATIONAL_LABELS)))
    pops = np.zeros((len(labels), len(COMPUTATIONAL_LABELS)))
    for j, source in enumerate(COMPUTATIONAL_LABELS):
        for lab, pop in finals.get(source, {}).items():
            pops[labels.index(lab), j] = pop
    return ComputationalUnitary(CZ_TARGET, labels, 0.0, lambda: pops)


def _scored(params, cfg, omega_p, drive_amp, dt):
    """Metrics and propagator of one gate, as a calibration's final scoring."""
    pulse, ramp = gate_schedule(cfg, omega_p, drive_amp)
    cu = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    return gate_metrics(cu.matrix), cu


def test_leakage_channels_ranked_and_filtered():
    # Ranked by population; a channel at the 1e-10 floor is dropped, one
    # just above it kept.
    cu = _unitary_with_populations(
        {
            (1, 0, 1): {(1, 0, 1): 0.99, (2, 0, 2): 5e-4, (1, 2, 1): 1e-5, (0, 2, 2): 1e-10},
            (0, 0, 1): {(0, 2, 0): 2e-4, (2, 2, 2): 2e-10},
        }
    )
    rows = leakage_channels(cu)
    assert [(r.label, r.source) for r in rows] == [
        ((2, 0, 2), (1, 0, 1)),
        ((0, 2, 0), (0, 0, 1)),
        ((1, 2, 1), (1, 0, 1)),
        ((2, 2, 2), (0, 0, 1)),
    ]
    assert rows[0].population == 5e-4
    assert leakage_channels(_unitary_with_populations({})) == []


def test_leakage_channels_keep_the_eight_largest():
    # Ten channels out of |000>; the report lists the eight largest,
    # ties broken by label.
    finals = {(0, k, 0): k * 1e-5 for k in range(1, 10)}
    finals[(2, 0, 0)] = finals[(0, 9, 0)]
    rows = leakage_channels(_unitary_with_populations({(0, 0, 0): finals}))
    assert [r.label for r in rows] == [(0, 9, 0), (2, 0, 0)] + [(0, k, 0) for k in range(8, 2, -1)]
    assert {r.source for r in rows} == {(0, 0, 0)}


# -- simplex search ------------------------------------------------------------

def _sync_toy(x):
    # Two-level return objective: detuning squared plus residual transfer
    # after a 50 ns window; clean minimum at (0, 0.02).
    return x[0] ** 2 + math.sin(math.pi * x[1] * 50.0) ** 2


def test_simplex_finds_toy_optimum():
    best = simplex_search(
        _sync_toy,
        seed=(0.05, 0.016),
        bounds=((-0.1, 0.1), (0.012, 0.028)),
        steps=(0.01, 0.001),
        restarts=3,
        budget=200,
    )
    assert _sync_toy(best) < 1e-9
    assert best[0] == pytest.approx(0.0, abs=1e-4)
    assert best[1] == pytest.approx(0.02, abs=1e-4)


def test_simplex_deterministic():
    kw = dict(
        seed=(0.05, 0.016),
        bounds=((-0.1, 0.1), (0.012, 0.028)),
        steps=(0.01, 0.001),
        restarts=2,
        budget=80,
    )
    a = simplex_search(_sync_toy, **kw)
    b = simplex_search(_sync_toy, **kw)
    assert np.array_equal(a, b)


def test_simplex_respects_bounds_and_budget():
    calls = []

    def counting(x):
        calls.append(np.array(x))
        return _sync_toy(x)

    best = simplex_search(
        counting,
        seed=(0.05, 0.016),
        bounds=((-0.1, 0.1), (0.012, 0.028)),
        steps=(0.01, 0.001),
        restarts=2,
        budget=30,
    )
    pts = np.array(calls)
    assert np.all(pts[:, 0] >= -0.1) and np.all(pts[:, 0] <= 0.1)
    assert np.all(pts[:, 1] >= 0.012) and np.all(pts[:, 1] <= 0.028)
    assert len(calls) <= 2 * (30 + 2)
    assert -0.1 <= best[0] <= 0.1


def test_simplex_validation():
    with pytest.raises(ValueError):
        simplex_search(_sync_toy, (0, 0.02), ((0.1, -0.1), (0.01, 0.03)), (0.01, 0.001))
    with pytest.raises(ValueError):
        simplex_search(
            _sync_toy, (0, 0.02), ((-0.1, 0.1), (0.01, 0.03)), (0.01, 0.001), restarts=0
        )
    # Restart k starts from OFFSET_TABLE[k]: one restart more than the
    # table would repeat a search.
    with pytest.raises(ValueError, match="restarts"):
        simplex_search(
            _sync_toy, (0, 0.02), ((-0.1, 0.1), (0.01, 0.03)), (0.01, 0.001),
            restarts=len(gates.OFFSET_TABLE) + 1,
        )
    # A search that may not call its objective is an invalid argument, not
    # an objective that never ended finite.
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            simplex_search(_sync_toy, (0, 0.02), ((-0.1, 0.1), (0.01, 0.03)), (0.01, 0.001),
                           budget=budget)


def test_simplex_with_no_finite_value_is_a_search_error():
    # A NaN never compares lower than the best so far, so no restart wins.
    with pytest.raises(SearchError, match="finite"):
        simplex_search(lambda x: float("nan"), (0.1, 0.2), ((-1, 1), (-1, 1)), (0.1, 0.1),
                       restarts=2, budget=20)


def _corner_bound(x):
    # Unconstrained minimum at (0.5, -0.3), outside the bounds below:
    # the search ends on the corner (0.1, 0.012).
    return (x[0] - 0.5) ** 2 + (x[1] + 0.3) ** 2


def _terraced(x):
    # Piecewise constant: whole simplices of equal values, so every sort
    # meets ties.
    return float(math.floor(abs(x[0]) * 20.0) + math.floor(abs(x[1] - 0.02) * 500.0))


def _assert_matches_scipy(objective, seed, bounds, steps, budget):
    """simplex_search (one restart) and _nelder_mead against scipy's
    bounded Nelder-Mead on the same initial simplex: the same points in
    the same order, the same optimum, value and call count."""
    lo, hi = np.array(bounds, dtype=float).T
    x0 = np.clip(np.asarray(seed, dtype=float), lo, hi)
    simplex = np.clip(np.vstack([x0, x0 + np.diag(steps)]), lo, hi)

    def recorded(calls):
        def wrapped(x):
            calls.append(tuple(x))
            value = objective(x)
            x[:] = np.nan  # the search must hand over a copy
            return value
        return wrapped

    ref_calls, calls, direct_calls = [], [], []
    ref = minimize(
        recorded(ref_calls), x0, method="Nelder-Mead", bounds=list(bounds),
        options={"initial_simplex": simplex, "maxfev": budget, "xatol": 1e-6,
                 "fatol": 1e-10},
    )
    best = simplex_search(recorded(calls), seed, bounds, steps, restarts=1, budget=budget)
    x, fun = gates._nelder_mead(recorded(direct_calls), simplex, lo, hi, budget)

    assert calls == direct_calls == ref_calls
    assert len(ref_calls) == ref.nfev <= budget
    assert np.array_equal(best, ref.x)
    assert np.array_equal(x, ref.x)
    assert fun == ref.fun


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 13, 40, 400])
@pytest.mark.parametrize("objective", [_sync_toy, _corner_bound, _terraced])
def test_simplex_matches_scipy_nelder_mead(objective, budget):
    _assert_matches_scipy(
        objective, (0.05, 0.016), ((-0.1, 0.1), (0.012, 0.028)), (0.01, 0.001), budget
    )


@settings(max_examples=40, deadline=None)
@given(
    curvature=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    skew=st.floats(-0.9, 0.9),
    centre=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    low=st.tuples(st.floats(-1.0, 0.0), st.floats(-1.0, 0.0)),
    width=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    seed=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    steps=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
    budget=st.integers(1, 80),
)
def test_simplex_matches_scipy_on_random_quadratics(
    curvature, skew, centre, low, width, seed, steps, budget
):
    a, c = curvature
    b = skew * math.sqrt(a * c)

    def quadratic(x):
        u, v = x[0] - centre[0], x[1] - centre[1]
        return a * u * u + 2.0 * b * u * v + c * v * v

    bounds = tuple((lo, lo + w) for lo, w in zip(low, width))
    _assert_matches_scipy(quadratic, seed, bounds, steps, budget)


# -- gate evaluation -----------------------------------------------------------

def test_zero_amplitude_gate_is_trivial(params500):
    cfg = GateConfig(flux_idle=0.35, gate_time=40.0)
    m, cu = _scored(params500, cfg, 10.79, 0.0, dt=0.002)
    assert m.leakage < 1e-8
    assert abs(m.conditional_phase) < 1e-6
    assert leakage_channels(cu) == []


def test_bias_pulse_without_carrier(params500):
    # Drive frequency zero turns the enveloped drive into a plain flux
    # excursion: noncomputational states fill transiently but empty out
    # by the end of the pulse.
    cfg = GateConfig(flux_idle=0.35, gate_time=65.0)
    m = evaluate_gate(params500, cfg, 0.0, FROZEN65[1], dt=0.001)
    assert m.leakage < 1e-6

    pulse, ramp = gate_schedule(cfg, 0.0, FROZEN65[1])
    labels = dressed_frame(params500, cfg.flux_idle).labels
    res = propagate_state(params500, pulse, ramp, psi0=(1, 0, 1), record=labels, dt=0.001)
    computational = {(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)}
    noncomp = sum(v for k, v in res.populations.items() if k not in computational)
    assert np.max(noncomp) > 1e-4
    assert noncomp[-1] < 1e-6


def test_frozen_optimum_scores(params500):
    m, cu = _scored(params500, STATIC35, *FROZEN65, dt=0.001)
    assert evaluate_gate(params500, STATIC35, *FROZEN65, dt=0.001) == m
    assert m.error < 2e-5
    assert m.leakage < 2e-5
    assert abs(phase_distance(m.conditional_phase, math.pi)) < 5e-4
    assert m.phases_reliable
    channels = leakage_channels(cu)
    assert all(ch.population < 1e-4 for ch in channels)


def test_calibrated_gate_objective_is_pinned(rc500):
    # The bundled [gate] (65/5, dynamic bias) at its calibrated point,
    # scored at 0.5 ps like a calibration's final scoring. The benchmark
    # references allow 1e-6, so this bound is what catches a small drift
    # in the gate path.
    m = evaluate_gate(rc500.params, rc500.require("gate"), 10.787538, 0.081226, dt=5e-4)
    assert abs(gates._objective(m) - 2.26940e-4) <= 1e-7


def test_ramp_change_insignificant_at_threshold_scale(params500):
    # Calibrated optima for 5 ns and 10 ns ramps at equal flat-top
    # (65/5 and 75/10, both 55 ns flat), frozen from this code. Both
    # land far below the 1e-3 gate bar and within 1e-4 of each other;
    # at this depth the errors are leakage dominated.
    frozen75 = (10.773344063430386, 0.12963847093380804)
    cfg75 = GateConfig(flux_idle=0.35, gate_time=75.0, drive_ramp=10.0)
    m5 = evaluate_gate(params500, STATIC35, *FROZEN65, dt=0.001)
    m10 = evaluate_gate(params500, cfg75, *frozen75, dt=0.001)
    assert m5.error < 1e-4 and m10.error < 1e-4
    assert abs(m5.error - m10.error) < 1e-4
    assert m5.leakage >= m5.error / 2
    assert m10.leakage >= m10.error / 2


def test_unsynchronized_gate_leaks_from_101(params500):
    # The 65 ns calibration cut short to 45 ns leaves the population
    # exchange incomplete: leakage is dominated by the gate transition
    # itself, stranded in |202> out of |101>.
    cfg45 = GateConfig(flux_idle=0.35, gate_time=45.0)
    m, cu = _scored(params500, cfg45, *FROZEN65, dt=0.001)
    assert m.error > 0.1
    top = leakage_channels(cu)[0]
    assert top.source == (1, 0, 1)
    assert top.label == (2, 0, 2)
    assert top.population > 0.5
    rest = leakage_channels(cu)[1:]
    assert all(ch.population < 1e-3 for ch in rest)


# -- calibration ---------------------------------------------------------------

def test_optimize_cz_report_and_stagnation(params500):
    cfg = GateConfig(flux_idle=0.35, gate_time=30.0)
    res = optimize_cz(params500, cfg, dt=0.002, final_dt=0.001, restarts=1, budget=4)
    assert not res.success  # four evaluations cannot synchronize a 30 ns gate
    assert res.objective > 1e-2
    assert len(res.trace) >= 4
    assert set(res.trace[0]) == {
        "omega_p", "drive_amp", "objective", "leakage", "conditional_phase",
    }
    rep = res.report()
    assert rep["schema"] == "fluxgate.gate_opt/1"
    assert rep["success"] is False
    assert rep["n_evaluations"] == len(res.trace)
    flo, fhi = rep["bounds"]["omega_p"]
    assert flo <= rep["optimum"]["omega_p"] <= fhi
    lo, hi = rep["bounds"]["drive_amp"]
    assert lo <= rep["optimum"]["drive_amp"] <= hi


def test_floquet_seed_runs_at_the_given_dt(params500, monkeypatch):
    seen = []

    def recorded(params, flux_s, amp, pair, window, resolution=21, dt=None):
        seen.append(dt)
        empty = np.empty(0)
        return TransitionResult(True, 10.79, 6e-3, empty, empty)

    monkeypatch.setattr(gates, "extract_transition", recorded)
    gates._seed_from_floquet(params500, STATIC35, dt=0.00125)
    assert seen == [0.00125, 0.00125]


def test_optimize_cz_seeds_at_final_dt(params500, monkeypatch):
    # The steps a calibration takes: it seeds and scores at final_dt
    # (DEFAULT_DT unless given) and searches at search_dt(final_dt).
    class Scored(Exception):
        pass

    seen = []

    def seed(params, cfg, dt):
        seen.append(("seed", dt))
        return 10.8, 0.05

    def search(params, cfg, omega_p, drive_amp, dt):
        seen.append(("search", dt))
        return gate_metrics(CZ_TARGET)

    def score(params, pulse, ramp, dt):
        seen.append(("score", dt))
        raise Scored

    monkeypatch.setattr(gates, "_seed_from_floquet", seed)
    monkeypatch.setattr(gates, "evaluate_gate", search)
    monkeypatch.setattr(gates, "propagate_computational_unitary", score)
    for kwargs, final, searched in (({}, 0.0005, 0.001),
                                    ({"final_dt": 0.00075}, 0.00075, 0.001),
                                    ({"final_dt": 0.002}, 0.002, 0.002)):
        seen.clear()
        with pytest.raises(Scored):
            optimize_cz(params500, STATIC35, restarts=1, budget=10, **kwargs)
        assert seen == [("seed", final)] + [("search", searched)] * 10 + [("score", final)]
    assert gates.search_dt(0.0005) == gates.SEARCH_DT == 0.001


def test_calibration_steps_no_ramp_down(rc500, monkeypatch):
    # Neither a calibration's search nor its final scoring steps a bias
    # ramp-down; only its report's leakage channels do.
    params, cfg = rc500.params, replace(rc500.require("gate"), gate_time=20.0)
    assert cfg.flux_interaction is not None
    monkeypatch.setattr(gates, "_seed_from_floquet", lambda params, cfg, dt: (10.78, 0.05))
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    for dt in (2e-3, 1e-3):
        _ramped_up_block(params, pulse.flux_static, ramp, dt)  # the cached ramp-ups
    calls = []
    stepped = backends.step_sequence

    def counting(*args):
        calls.append(args)
        return stepped(*args)

    monkeypatch.setattr(backends, "step_sequence", counting)
    res = optimize_cz(params, cfg, dt=2e-3, final_dt=1e-3, restarts=1, budget=4)
    assert len(res.trace) >= 4
    assert calls == []
    res.report()
    assert calls
