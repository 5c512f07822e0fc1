"""Time-domain propagation: accuracy, unitarity, scan plumbing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxgate import (
    BiasRamp,
    DomainError,
    IntegrationError,
    ParametricPulse,
    evaluate_gate,
    leakage_channels,
    propagate_computational_unitary,
    propagate_state,
)
from fluxgate import backends, evolve
from fluxgate.evolve import (
    COMPUTATIONAL_LABELS,
    DEFAULT_DT,
    DEFAULT_RECORD,
    DRIVELESS_DT_FACTOR,
    _advance,
    _centred_periods,
    _computational_block,
    _flat_step,
    _ramped_up_block,
    _split,
    _step_samples,
    amplitude_point,
    chevron_column,
    dressed_frame,
)
from fluxgate.floquet import monodromy
from fluxgate.gates import GateConfig, OptimizationResult, gate_metrics, gate_schedule
from fluxgate.pulses import drive_flux, drive_window, total_duration
from fluxgate.system import assemble_operators

RESONANT = ParametricPulse(
    flux_static=0.35, drive_amp=0.045, drive_freq=10.79, ramp_time=5.0, gate_time=60.0
)


def _static_gate(freq, amp, gate_time, ramp_time=5.0):
    """A static-bias gate pulse at flux 0.35: carrier centred on the window."""
    cfg = GateConfig(flux_idle=0.35, gate_time=gate_time, drive_ramp=ramp_time)
    pulse, _ = gate_schedule(cfg, freq, amp)
    return pulse


def _stepped_schedule(params, pulse, ramp, dt, powered):
    """The 4 x 4 and the end-of-schedule populations from stepping the
    whole schedule from t = 0 through ``_advance``, the second half of
    the drive window and any ramp-down included. ``powered`` applies the
    whole periods centred on the window as a power of the full-space
    monodromy, as the gate does; otherwise every interval is stepped."""
    frame = dressed_frame(params, pulse.flux_static if ramp is None else ramp.flux_idle)
    idx = [frame.index_of(lab) for lab in COMPUTATIONAL_LABELS]
    end = total_duration(pulse, ramp)
    block, t_start = _computational_block(frame), 0.0
    if powered:
        n, t_a, t_start = _centred_periods(pulse, ramp)
        block = _advance(params, pulse, ramp, dt, block, 0.0, t_a)
        mono = monodromy(params, pulse.flux_static, pulse.drive_amp, pulse.drive_freq, dt=dt)
        block = backends.apply_power(mono.matrix, n, block)
    full = frame.states.T @ _advance(params, pulse, ramp, dt, block, t_start, end)
    matrix = np.exp(2j * np.pi * frame.energies[idx] * end)[:, None] * full[idx, :]
    return matrix, np.abs(full) ** 2


def test_norm_drift_long_drive(params500):
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.045, drive_freq=10.79,
        ramp_time=5.0, gate_time=200.0,
    )
    res = propagate_state(params500, pulse, psi0=(1, 0, 1))
    assert res.norm_drift < 1e-8


def test_dt_halving_is_second_order(params500):
    # Population changes under dt halving must shrink by ~4x each time;
    # the absolute 1e-6 bound at fine dt is exercised by the acceptance
    # suite where the runtime is budgeted.
    results = [
        propagate_state(params500, RESONANT, dt=dt)
        for dt in (0.001, 0.0005, 0.00025)
    ]
    deltas = []
    for a, b in zip(results, results[1:]):
        deltas.append(
            max(np.max(np.abs(a.populations[k] - b.populations[k]))
                for k in a.populations)
        )
    assert deltas[0] / deltas[1] == pytest.approx(4.0, rel=0.2)
    assert deltas[1] < 1e-4


# The lead-in, from the end of the up-flank to the first of the whole
# periods centred on the window, is frac((gate_time / 2 - ramp_time) freq)
# periods long. The last two cases are the first and fourth at a 45 ns gate.
@pytest.mark.parametrize("freq, ramp_time, gate_time", [
    pytest.param(10.79, 5.0, 44.8563, id="lead-in-0.05-period"),
    pytest.param(10.79, 0.0, 45.0, id="no-ramp"),  # lead-in 0.775
    pytest.param(10.0, 5.0, 45.0, id="ramp-of-whole-periods"),  # lead-in 0
    pytest.param(10.79, 5.005, 45.0417, id="lead-in-0.996-period"),
    pytest.param(10.79, 5.0, 45.0, id="ramp-5-gate-45"),  # lead-in 0.825
    pytest.param(10.79, 5.005, 45.0, id="ramp-5.005-gate-45"),  # lead-in 0.771
])
def test_stroboscopic_matches_direct(params500, freq, ramp_time, gate_time):
    pulse = _static_gate(freq, 0.045, gate_time, ramp_time)
    strobe = propagate_computational_unitary(params500, pulse)
    direct, _ = _stepped_schedule(params500, pulse, None, DEFAULT_DT, powered=False)
    assert np.max(np.abs(strobe.matrix - direct)) < 5e-6


@pytest.mark.parametrize("bias", ["dynamic-bias", "static-bias"])
def test_mirrored_window_matches_direct_stepping(rc500, bias):
    # A 0.1 ns flat top holds no two whole periods, so n = 0 and the gate
    # is x^T x with x the first half of the window. Both halves of the
    # flat top take 50 steps of 1 ps, as the whole flat top stepped at
    # once takes 100, so the direct steps are the mirrored ones.
    cfg = replace(rc500.require("gate"), gate_time=10.1)
    if bias == "static-bias":
        cfg = replace(cfg, flux_idle=cfg.flux_interaction, flux_interaction=None,
                      bias_ramp=None)
    pulse, ramp = gate_schedule(cfg, 10.79, 0.06)
    assert _centred_periods(pulse, ramp)[0] == 0
    cu = propagate_computational_unitary(rc500.params, pulse, ramp, dt=1e-3)
    direct, populations = _stepped_schedule(rc500.params, pulse, ramp, 1e-3, powered=False)
    assert np.max(np.abs(cu.matrix - direct)) <= 1e-12
    assert np.max(np.abs(cu.final_populations - populations)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    freq=st.floats(10.5, 11.0),
    gate_time=st.floats(1.0, 4.0),
    ramp_share=st.floats(0.0, 0.5),
    bias=st.sampled_from(["dynamic-bias", "static-bias"]),
)
def test_gate_window_is_symmetric_and_its_gate_complex_symmetric(
    rc500, freq, gate_time, ramp_share, bias
):
    cfg = replace(rc500.require("gate"), gate_time=gate_time,
                  drive_ramp=ramp_share * gate_time)
    if bias == "static-bias":
        cfg = replace(cfg, flux_idle=cfg.flux_interaction, flux_interaction=None,
                      bias_ramp=None)
    pulse, ramp = gate_schedule(cfg, freq, 0.05)
    t0, t1 = drive_window(pulse, ramp)
    # The window edges are left out: a square envelope jumps there, and
    # roundoff in t_c - s decides on which side of t0 a sample falls.
    s = np.linspace(0.0, 0.5 * gate_time, 101)[:-1]
    t_c = 0.5 * (t0 + t1)
    later, earlier = drive_flux(pulse, ramp, t_c + s), drive_flux(pulse, ramp, t_c - s)
    assert np.max(np.abs(later - earlier)) <= 1e-12

    cu = propagate_computational_unitary(rc500.params, pulse, ramp, dt=2e-3)
    frame = dressed_frame(rc500.params, cfg.flux_idle)
    energies = frame.energies[frame.unambiguous(COMPUTATIONAL_LABELS)]
    window = np.exp(-2j * np.pi * energies * total_duration(pulse, ramp))[:, None] * cu.matrix
    assert np.max(np.abs(window - window.T)) <= 1e-12


def test_uncentred_carrier_is_refused(params500):
    # A carrier referenced to the window start: 10.79 GHz * 22.5 ns puts
    # it 0.775 of a turn from a peak at the centre.
    from_start = ParametricPulse(0.35, 0.045, 10.79, ramp_time=5.0, gate_time=45.0)
    # A trough at the centre: symmetric, but the periods about it would
    # not start at carrier phase 0.
    centred = _static_gate(10.79, 0.045, 45.0)
    trough = replace(centred, phase=centred.phase + np.pi)
    for pulse in (from_start, trough):
        with pytest.raises(ValueError, match="time-symmetric"):
            propagate_computational_unitary(params500, pulse)


def test_zero_amplitude_is_identity(params500):
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.0, drive_freq=10.79,
        ramp_time=5.0, gate_time=30.0,
    )
    cu = propagate_computational_unitary(params500, pulse)
    assert np.max(np.abs(cu.matrix - np.eye(4))) < 1e-7
    assert np.max(1.0 - np.linalg.norm(cu.matrix, axis=0) ** 2) < 1e-10


def test_unitary_bookkeeping(params500):
    pulse = _static_gate(RESONANT.drive_freq, RESONANT.drive_amp, RESONANT.gate_time)
    cu = propagate_computational_unitary(params500, pulse, dt=0.001)
    assert np.all(cu.final_populations >= 0.0)
    # Squared column norm and recorded computational population describe
    # the same leakage, so they must agree to rounding.
    comp_rows = [cu.state_labels.index(lab) for lab in COMPUTATIONAL_LABELS]
    comp_pop = cu.final_populations[comp_rows, :].sum(axis=0)
    assert np.max(np.abs(np.linalg.norm(cu.matrix, axis=0) ** 2 - comp_pop)) < 1e-10
    total = cu.final_populations.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-8


def test_record_all_and_snapshot_grid(params500):
    labels = dressed_frame(params500, RESONANT.flux_static).labels
    res = propagate_state(params500, RESONANT, record=labels, dt=0.002)
    assert {v.shape for v in res.populations.values()} == {(201,)}
    totals = sum(res.populations.values())
    assert np.max(np.abs(totals - 1.0)) < 1e-8

    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, dt=0.002, t_grid=[0.0, 1e6])


def test_default_record_keys(params500):
    res = propagate_state(params500, RESONANT, dt=0.002)
    assert set(res.populations) == set(DEFAULT_RECORD)


def test_driveless_segment_is_exact(params500):
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.0, drive_freq=10.79,
        ramp_time=5.0, gate_time=40.0,
    )
    frame = dressed_frame(params500, 0.35)
    idx = frame.index_of((1, 0, 1))
    res = propagate_state(params500, pulse, psi0=(1, 0, 1), record=((1, 0, 1),))
    assert res.populations[(1, 0, 1)][-1] > 1.0 - 1e-10
    overlap = np.vdot(frame.states[:, idx].astype(complex), res.final_state)
    expected = np.exp(-2j * np.pi * frame.energies[idx] * 40.0)
    assert abs(overlap - expected) < 1e-8


def test_cached_frames_are_read_only(params500):
    frame = dressed_frame(params500, 0.35)
    cached = [frame.energies, frame.states, frame.overlaps, frame.ambiguous,
              dressed_frame(params500, 0.35).states, _flat_step(params500, 0.35, 5e-4)]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_ramp_up_block_is_shared(rc500):
    params, cfg, dt = rc500.params, rc500.require("gate"), 2e-3
    assert cfg.flux_interaction is not None
    pulse, ramp = gate_schedule(cfg, 10.78, 0.03)
    _ramped_up_block.cache_clear()
    cold = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    other = propagate_computational_unitary(params, *gate_schedule(cfg, 10.8, 0.04), dt=dt)
    info = _ramped_up_block.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    warm = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    assert np.array_equal(cold.matrix, warm.matrix)
    assert np.array_equal(cold.final_populations, warm.final_populations)
    assert not np.array_equal(cold.matrix, other.matrix)

    # The shared block is the one stepping the whole schedule from t = 0 reaches.
    block = _computational_block(dressed_frame(params, ramp.flux_idle))
    end = total_duration(pulse, ramp)
    direct = _advance(params, pulse, ramp, dt, block, 0.0, end)
    shared = _advance(params, pulse, ramp, dt,
                      _ramped_up_block(params, pulse.flux_static, ramp, dt),
                      ramp.ramp_time, end)
    assert np.array_equal(direct, shared)
    with pytest.raises(ValueError):
        _ramped_up_block(params, pulse.flux_static, ramp, dt)[0, 0] = 0.0


@pytest.mark.parametrize("bias_ramp, gate_time, dt", [
    pytest.param(None, None, 1e-3, id="gate-1ps"),
    pytest.param(None, None, 5e-4, id="gate-0.5ps"),
    pytest.param(0.6, 31.0, 1e-3, id="ramp0.6-tg31-1ps"),
])
def test_ramp_down_is_the_parity_transposed_ramp_up(rc500, bias_ramp, gate_time, dt):
    # U_down = U_up^T and W = G^T M^n G: the gate read through the cached
    # ramp-up and the first half of the window equals the one stepped
    # through the second half and the ramp-down. At ramp 0.6 ns / 31 ns
    # the ramp-down span rounds above 60 steps of 10 ps.
    cfg = rc500.require("gate")
    if bias_ramp is not None:
        cfg = replace(cfg, bias_ramp=bias_ramp, gate_time=gate_time)
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    cu = propagate_computational_unitary(rc500.params, pulse, ramp, dt=dt)
    matrix, populations = _stepped_schedule(rc500.params, pulse, ramp, dt, powered=True)
    assert np.max(np.abs(cu.matrix - matrix)) <= 1e-12
    assert np.max(np.abs(cu.final_populations - populations)) <= 1e-12
    rows = [cu.state_labels.index(lab) for lab in COMPUTATIONAL_LABELS]
    assert np.max(np.abs(cu.final_populations[rows] - np.abs(cu.matrix) ** 2)) <= 1e-12
    assert 0.0 <= cu.norm_drift <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(0.5, 10.0),
    gate_time=st.floats(20.0, 150.0),
    dt=st.floats(2.5e-4, 2e-3),
    flux=st.floats(0.05, 0.45),
)
@example(tau=0.6, gate_time=31.0, dt=1e-3, flux=0.35)  # 60 and 61 steps before
@example(tau=0.6, gate_time=31.0, dt=5e-4, flux=0.35)  # 120 and 121
def test_ramps_take_equal_steps_and_mirror_biases(params500, tau, gate_time, dt, flux):
    pulse = ParametricPulse(flux, 0.03, 10.8, ramp_time=5.0, gate_time=gate_time)
    ramp = BiasRamp(0.0, tau)
    t0, t1 = drive_window(pulse, ramp)
    end = total_duration(pulse, ramp)
    step = dt * DRIVELESS_DT_FACTOR
    _, up, _ = _step_samples(params500, pulse, ramp, 0.0, t0, step)
    _, down, _ = _step_samples(params500, pulse, ramp, t1, end, step)
    assert up.size == down.size
    # The ramp-down's sample times are absolute, near `end`, so they carry
    # roundoff of order spacing(end); the bias moves at most
    # flux * pi / (2 tau) per ns.
    bound = 2.0 * flux * np.pi / (2.0 * tau) * np.spacing(end) + 1e-15
    assert np.max(np.abs(up - down[::-1])) <= bound


def test_ramp_down_is_stepped_only_when_populations_are_read(rc500, monkeypatch):
    params, cfg, dt = rc500.params, replace(rc500.require("gate"), gate_time=20.0), 2e-3
    evaluate_gate(params, cfg, 10.78, 0.05, dt=dt)  # warms the cached ramp-up
    calls = []
    stepped = backends.step_sequence

    def counting(*args):
        calls.append(args)
        return stepped(*args)

    monkeypatch.setattr(backends, "step_sequence", counting)
    evaluate_gate(params, cfg, 10.78, 0.05, dt=dt)
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    cu = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    assert calls == []
    # One ramp-down step sequence per sector the computational block spans.
    block = _ramped_up_block(params, pulse.flux_static, ramp, dt)
    per_ramp_down = len(_split(assemble_operators(params).sectors, block).active)
    populations = cu.final_populations
    assert len(calls) == per_ramp_down >= 1
    assert cu.final_populations is populations
    assert leakage_channels(cu, top_k=8)
    assert len(calls) == per_ramp_down

    # A calibration result steps its ramp-down in report() alone.
    fresh = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    result = OptimizationResult(
        omega_p=10.78, drive_amp=0.05, metrics=gate_metrics(fresh.matrix), unitary=fresh,
        objective=1.0, success=False, trace=(), seed=(10.78, 0.05),
        bounds=((10.7, 10.9), (0.01, 0.1)), restarts=1, gate_time=cfg.gate_time,
    )
    assert len(calls) == per_ramp_down
    assert result.report()["leakage_channels"]
    assert len(calls) == 2 * per_ramp_down


def test_norm_drift_is_recorded_and_guarded(rc500, monkeypatch):
    params, cfg, dt = rc500.params, replace(rc500.require("gate"), gate_time=20.0), 2e-3
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    cu = propagate_computational_unitary(params, pulse, ramp, dt=dt)
    assert 0.0 < cu.norm_drift <= evolve.NORM_DRIFT_LIMIT
    # The end-of-schedule block is checked when the ramp-down is stepped.
    monkeypatch.setattr(evolve, "NORM_DRIFT_LIMIT", 0.0)
    with pytest.raises(IntegrationError):
        cu.final_populations
    with pytest.raises(IntegrationError):
        propagate_computational_unitary(params, pulse, ramp, dt=dt)


def test_dt_and_bias_guards(params500):
    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, dt=0.05)


def test_chevron_column_shapes(params500):
    t_grid = np.linspace(0.0, total_duration(RESONANT, None), 5)
    for freq in (10.70, 10.79):
        column = chevron_column(params500, RESONANT, freq, t_grid, dt=0.002)
        assert list(column) == ["000", "001", "100", "101", "202", "computational"]
        for values in column.values():
            assert isinstance(values, list) and len(values) == 5
            assert np.all(np.isfinite(values))


def test_amplitude_point_flat_limit(params500):
    template = ParametricPulse(
        flux_static=0.35, drive_amp=0.01, drive_freq=10.79,
        ramp_time=5.0, gate_time=30.0,
    )
    assert amplitude_point(params500, template, 10.79, 0.0, 30.0, dt=0.002) > 1.0 - 1e-9


def test_domain_error_is_value_error(params500):
    bad = ParametricPulse(
        flux_static=0.45, drive_amp=0.07, drive_freq=10.79,
        ramp_time=2.0, gate_time=10.0,
    )
    with pytest.raises(DomainError):
        propagate_state(params500, bad, dt=0.002)
    assert issubclass(DomainError, ValueError)
