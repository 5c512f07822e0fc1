"""Time-domain propagation: accuracy, unitarity, scan plumbing."""

import numpy as np
import pytest

from fluxgate import (
    BiasRamp,
    DomainError,
    ParametricPulse,
    amplitude_scan,
    chevron_scan,
    propagate_computational_unitary,
    propagate_state,
)
from fluxgate.evolve import (
    COMPUTATIONAL_LABELS,
    DEFAULT_RECORD,
    _flat_step,
    _orthonormal_states,
    dressed_frame,
    idle_flux,
)
from fluxgate.pulses import total_duration

RESONANT = ParametricPulse(
    flux_static=0.35, drive_amp=0.045, drive_freq=10.79, ramp_time=5.0, gate_time=60.0
)


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


def test_stroboscopic_matches_direct(params500):
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.045, drive_freq=10.79,
        ramp_time=5.0, gate_time=45.0,
    )
    strobe = propagate_computational_unitary(params500, pulse, stroboscopic=True)
    direct = propagate_computational_unitary(params500, pulse, stroboscopic=False)
    assert np.max(np.abs(strobe.matrix - direct.matrix)) < 5e-6


def test_zero_amplitude_is_identity(params500):
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.0, drive_freq=10.79,
        ramp_time=5.0, gate_time=30.0,
    )
    cu = propagate_computational_unitary(params500, pulse)
    assert np.max(np.abs(cu.matrix - np.eye(4))) < 1e-7
    assert np.max(cu.residuals) < 1e-10


def test_unitary_bookkeeping(params500):
    cu = propagate_computational_unitary(params500, RESONANT, dt=0.001)
    assert cu.labels == COMPUTATIONAL_LABELS
    assert cu.duration == total_duration(RESONANT, None)
    assert np.all(cu.final_populations >= 0.0)
    # Column norm and recorded computational population describe the same
    # leakage, so they must agree to rounding.
    comp_rows = [cu.state_labels.index(lab) for lab in COMPUTATIONAL_LABELS]
    comp_pop = cu.final_populations[comp_rows, :].sum(axis=0)
    assert np.max(np.abs((1.0 - cu.residuals) - comp_pop)) < 1e-10
    total = cu.final_populations.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-8


def test_initial_state_forms_agree(params500):
    frame = dressed_frame(params500, idle_flux(RESONANT, None))
    vec = frame.states[:, frame.index_of((1, 0, 1))].astype(complex)
    by_label = propagate_state(params500, RESONANT, psi0=(1, 0, 1), dt=0.002)
    by_map = propagate_state(params500, RESONANT, psi0={(1, 0, 1): 1.0}, dt=0.002)
    by_vector = propagate_state(params500, RESONANT, psi0=vec, dt=0.002)
    assert np.linalg.norm(by_label.final_state - by_map.final_state) < 1e-12
    assert np.linalg.norm(by_label.final_state - by_vector.final_state) < 1e-12


def test_record_all_and_snapshot_grid(params500):
    res = propagate_state(params500, RESONANT, record="all", dt=0.002)
    assert res.times.shape == (201,)
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
              _orthonormal_states(params500, 0.35), _flat_step(params500, 0.35, 5e-4)]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_dt_and_bias_guards(params500):
    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, dt=0.05)
    ramp = BiasRamp(0.0, 0.30, 3.0)
    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, ramp=ramp)


def test_chevron_scan_shapes(params500):
    t_grid = np.linspace(0.0, total_duration(RESONANT, None), 5)
    res = chevron_scan(params500, RESONANT, [10.70, 10.79], t_grid, dt=0.002)
    assert res.failures == ()
    assert res.populations[(2, 0, 2)].shape == (2, 5)
    assert "computational" in res.populations
    assert np.all(np.isfinite(res.populations["computational"]))
    with pytest.raises(ValueError):
        chevron_scan(params500, RESONANT, [], t_grid)


def test_chevron_scan_records_failures(params500):
    bad = ParametricPulse(
        flux_static=0.45, drive_amp=0.07, drive_freq=10.79,
        ramp_time=2.0, gate_time=10.0,
    )
    t_grid = np.linspace(0.0, total_duration(bad, None), 3)
    res = chevron_scan(params500, bad, [10.7, 10.8], t_grid, dt=0.002)
    assert len(res.failures) == 2
    assert np.all(np.isnan(res.populations["computational"]))


def test_amplitude_scan_isolates_failures(params500):
    template = ParametricPulse(
        flux_static=0.35, drive_amp=0.01, drive_freq=10.79,
        ramp_time=5.0, gate_time=30.0,
    )
    res = amplitude_scan(
        params500, template, [10.79], [0.03, 0.20], fixed_time=30.0, dt=0.002
    )
    assert np.isfinite(res.population[0, 0])
    assert np.isnan(res.population[0, 1])
    assert len(res.failures) == 1
    assert res.failures[0][1] == 0.20


def test_amplitude_scan_flat_limit(params500):
    template = ParametricPulse(
        flux_static=0.35, drive_amp=0.01, drive_freq=10.79,
        ramp_time=5.0, gate_time=30.0,
    )
    res = amplitude_scan(params500, template, [10.79], [0.0], fixed_time=30.0, dt=0.002)
    assert res.population[0, 0] > 1.0 - 1e-9


def test_domain_error_is_value_error(params500):
    bad = ParametricPulse(
        flux_static=0.45, drive_amp=0.07, drive_freq=10.79,
        ramp_time=2.0, gate_time=10.0,
    )
    with pytest.raises(DomainError):
        propagate_state(params500, bad, dt=0.002)
    assert issubclass(DomainError, ValueError)
