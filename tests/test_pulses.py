"""Waveform geometry: envelope shape and area, ramp continuity, scalar
and array evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from fluxgate import BiasRamp, DomainError, ParametricPulse
from fluxgate.pulses import bias_flux, drive_flux, drive_window, envelope, total_duration


def test_envelope_shape():
    t = np.linspace(0.0, 60.0, 6001)
    env = envelope(t, 5.0, 60.0)
    assert env[0] == 0.0 and env[-1] == 0.0
    assert env.max() == 1.0
    flat = (t >= 5.0) & (t <= 55.0)
    assert np.all(env[flat] == 1.0)
    # symmetric about the midpoint
    assert np.allclose(env, env[::-1], atol=1e-12)
    # first difference is continuous at the flank junctions
    assert np.max(np.abs(np.diff(env, 2))) < 1e-4


def test_envelope_area():
    # Half-cosine flanks integrate to ramp_time/2 each.
    ramp, gate = 5.0, 64.0
    t = np.linspace(0.0, gate, 200001)
    area = np.trapezoid(envelope(t, ramp, gate), t)
    assert abs(area - (gate - ramp)) < 1e-6


def test_envelope_zero_outside_window():
    assert envelope(-0.1, 5.0, 60.0) == 0.0
    assert envelope(60.1, 5.0, 60.0) == 0.0
    assert envelope(np.array([-1.0, 61.0]), 5.0, 60.0).tolist() == [0.0, 0.0]


def test_envelope_edges_mirror_below_one_ulp_of_ramp():
    # gate_time - ramp_time rounds to gate_time when ramp_time is below
    # ulp(gate_time); both edges must still read the flank's zero.
    tiny = 5e-324
    assert envelope(np.array([0.0, 65.0]), tiny, 65.0).tolist() == [0.0, 0.0]
    assert envelope(np.array([1e-300, 32.5, 65.0 - 1e-14]), tiny, 65.0).tolist() == [1.0] * 3


def test_square_envelope_limit():
    t = np.linspace(0.0, 10.0, 101)
    env = envelope(t, 0.0, 10.0)
    assert np.all(env == 1.0)


def test_pulse_validation():
    with pytest.raises(ValueError):
        ParametricPulse(flux_static=0.3, drive_amp=-0.01, drive_freq=10.0,
                        ramp_time=5.0, gate_time=100.0)
    with pytest.raises(ValueError):
        ParametricPulse(flux_static=0.3, drive_amp=0.01, drive_freq=10.0,
                        ramp_time=30.0, gate_time=50.0)
    # A negative frequency would pass the drive-resolution check, which
    # reads only positive ones; a zero frequency is a static flux step.
    with pytest.raises(ValueError, match="drive_freq"):
        ParametricPulse(flux_static=0.35, drive_amp=0.02, drive_freq=-200.0,
                        ramp_time=1.0, gate_time=3.0)
    ParametricPulse(flux_static=0.35, drive_amp=0.02, drive_freq=0.0,
                    ramp_time=1.0, gate_time=3.0)
    with pytest.raises(ValueError):
        BiasRamp(flux_idle=0.0, ramp_time=0.0)
    # The times have no defaults: the config section that reads them states them.
    with pytest.raises(TypeError):
        ParametricPulse(flux_static=0.3, drive_amp=0.01, drive_freq=10.0)
    with pytest.raises(TypeError):
        BiasRamp(flux_idle=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("waveform, field", [
    *[(ParametricPulse(0.35, 0.02, 10.79, 1.0, 3.0), f) for f in
      ("flux_static", "drive_amp", "drive_freq", "ramp_time", "gate_time", "phase")],
    (BiasRamp(0.0, 3.0), "flux_idle"), (BiasRamp(0.0, 3.0), "ramp_time"),
])
def test_a_non_finite_field_is_a_domain_error(waveform, field, value):
    # The range checks alone let nan through, and a nan drive gives nan
    # populations.
    with pytest.raises(DomainError, match=field):
        replace(waveform, **{field: value})


def test_static_schedule_without_ramp():
    pulse = ParametricPulse(flux_static=0.35, drive_amp=0.02, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    assert total_duration(pulse, None) == 60.0
    assert drive_window(pulse, None) == (0.0, 60.0)
    assert bias_flux(pulse, None, 17.3) == 0.35
    t = np.linspace(0, 60, 601)
    wave = bias_flux(pulse, None, t) + drive_flux(pulse, None, t)
    assert np.max(np.abs(wave - 0.35)) <= 0.02 + 1e-12


def test_bias_ramp_geometry():
    pulse = ParametricPulse(flux_static=0.35, drive_amp=0.0, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    ramp = BiasRamp(flux_idle=0.0, ramp_time=3.0)
    assert total_duration(pulse, ramp) == pytest.approx(3.0 + 60.0 + 3.0)
    assert drive_window(pulse, ramp) == (3.0, 63.0)
    t = np.linspace(0.0, total_duration(pulse, ramp), 20001)
    bias = bias_flux(pulse, ramp, t)
    assert bias[0] == 0.0 and abs(bias[-1]) < 1e-12
    hold = (t >= 3.0) & (t < 3.0 + 60.0)
    assert np.all(bias[hold] == 0.35)
    assert np.max(np.abs(np.diff(bias))) < 0.35 * np.pi / 2.0 * (t[1] - t[0]) / 3.0 * 1.01


@pytest.mark.parametrize("flux_idle", [0.0, 0.45], ids=["up", "down"])
def test_bias_ramp_holds_the_pulse_flux_on_the_envelope(flux_idle):
    # The ramp carries the coupler from flux_idle to the pulse's own
    # flux_static on the flanks of a flat-top envelope over the schedule.
    pulse = ParametricPulse(flux_static=0.2, drive_amp=0.0, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    ramp = BiasRamp(flux_idle=flux_idle, ramp_time=3.0)
    end = total_duration(pulse, ramp)
    t = np.linspace(0.0, end, 20001)
    bias = bias_flux(pulse, ramp, t)
    t0, t1 = drive_window(pulse, ramp)
    assert np.all(bias[(t >= t0) & (t < t1)] == 0.2)
    shape = flux_idle + (0.2 - flux_idle) * envelope(t, ramp.ramp_time, end)
    assert np.max(np.abs(bias - shape)) <= 1e-15


def test_drive_phase_referenced_to_window_start():
    pulse = ParametricPulse(flux_static=0.35, drive_amp=0.03, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    bare = drive_flux(pulse, None, np.linspace(0.0, 60.0, 1201))
    ramp = BiasRamp(flux_idle=0.0, ramp_time=3.0)
    assert drive_window(pulse, ramp) == (ramp.ramp_time, ramp.ramp_time + 60.0)
    shifted = drive_flux(pulse, ramp, ramp.ramp_time + np.linspace(0.0, 60.0, 1201))
    assert np.allclose(bare, shifted, atol=1e-12)


def test_default_phase_is_the_window_start_cosine():
    pulse = ParametricPulse(flux_static=0.35, drive_amp=0.03, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    tau = np.linspace(-1.0, 61.0, 2481)
    expected = 0.03 * envelope(tau, 5.0, 60.0) * np.cos(2.0 * np.pi * 10.8 * tau)
    assert np.array_equal(drive_flux(pulse, None, tau), expected)


def test_drive_silent_outside_window():
    pulse = ParametricPulse(flux_static=0.35, drive_amp=0.03, drive_freq=10.8,
                            ramp_time=5.0, gate_time=60.0)
    ramp = BiasRamp(flux_idle=0.0, ramp_time=3.0)
    dur = total_duration(pulse, ramp)
    assert drive_flux(pulse, ramp, 1.5) == 0.0
    assert drive_flux(pulse, ramp, dur - 1.0) == 0.0
