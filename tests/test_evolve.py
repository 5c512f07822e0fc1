"""Time-domain propagation: accuracy, unitarity, scan plumbing."""

import tracemalloc
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
from fluxgate import backends, circuits, evolve, gates
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
    _step_count,
    _step_samples,
    amplitude_point,
    chevron_column,
    dressed_frame,
)
from fluxgate.floquet import extract_transition, monodromy, quasienergies
from fluxgate.gates import (
    GateConfig,
    OptimizationResult,
    gate_metrics,
    gate_schedule,
    optimize_cz,
)
from fluxgate.pulses import centred_phase, drive_flux, drive_window, total_duration
from fluxgate.system import assemble_operators, build_hamiltonian, label_eigenstates

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
    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, dt=0.002, t_end=1e6)
    with pytest.raises(ValueError):
        propagate_state(params500, RESONANT, dt=0.002, t_grid=[0.0, 30.0], t_end=20.0)


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
    up = np.concatenate([fb for fb, _ in _step_samples(params500, pulse, ramp, 0.0, t0, step)])
    down = np.concatenate([fb for fb, _ in _step_samples(params500, pulse, ramp, t1, end, step)])
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


def test_entry_points_compute_at_one_blas_thread(rc500, monkeypatch):
    # Every kernel and eigensolve a library call reaches runs at one
    # thread, whatever count the caller keeps, and the caller gets its
    # count back. optimize_cz takes a stub seed: its Floquet seed is
    # extract_transition, called on its own below.
    params, cfg, dt = rc500.params, replace(rc500.require("gate"), gate_time=20.0), 2e-3
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    short = replace(RESONANT, ramp_time=2.0, gate_time=6.0)
    mono = monodromy(params, 0.35, 0.03, 10.79, dt=dt)
    # Two gates whose populations are first read below.
    unitary, leaky = [propagate_computational_unitary(params, pulse, ramp, dt=dt)
                      for _ in range(2)]
    monkeypatch.setattr(gates, "_seed_from_floquet", lambda params, cfg, dt: (10.78, 0.05))
    calls = {
        "diagonalize_fluxonium": lambda: circuits.diagonalize_fluxonium(params.q0),
        "diagonalize_transmon_charge":
            lambda: circuits.diagonalize_transmon_charge(params.coupler, 0.35),
        "label_eigenstates": lambda: label_eigenstates(build_hamiltonian(params, 0.3)),
        "propagate_state": lambda: propagate_state(params, short, dt=dt),
        "propagate_computational_unitary":
            lambda: propagate_computational_unitary(params, pulse, ramp, dt=dt),
        "chevron_column": lambda: chevron_column(params, short, 10.79, [0.0, 5.0], dt=dt),
        "amplitude_point": lambda: amplitude_point(params, short, 10.79, 0.045, 6.0, dt=dt),
        "monodromy": lambda: monodromy(params, 0.35, 0.03, 10.79, dt=dt),
        "quasienergies": lambda: quasienergies(mono),
        "extract_transition": lambda: extract_transition(
            params, 0.35, 0.03, ((1, 0, 1), (2, 0, 2)), (10.736, 10.836), 5, dt=dt),
        "evaluate_gate": lambda: evaluate_gate(params, cfg, 10.78, 0.05, dt=dt),
        "optimize_cz": lambda: optimize_cz(params, cfg, dt=dt, final_dt=dt, restarts=1,
                                           budget=4),
        "final_populations": lambda: unitary.final_populations,
        "leakage_channels": lambda: leakage_channels(leaky),
        # The cache wraps the pin: a miss computes at one thread.
        "dressed_frame": lambda: (dressed_frame.cache_clear(), dressed_frame(params, 0.2)),
    }
    seen = []
    for module, name in ((backends, "strang_sequence"), (backends, "step_sequence"),
                         (backends, "apply_power"), (np.linalg, "eigh"), (np.linalg, "svd")):
        def spy(*args, fn=getattr(module, name), name=name, **kwargs):
            seen.append((name, backends.blas_threads()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    callers = backends.blas_threads() + 1
    previous = backends.set_blas_threads(callers)
    try:
        for entry, call in calls.items():
            seen.clear()
            call()
            assert seen, f"{entry} reached no spied call"
            assert {threads for _, threads in seen} == {1}, f"{entry}: {seen}"
            assert backends.blas_threads() == callers, entry
    finally:
        backends.set_blas_threads(previous)


def _interval_case(params, kind, steps, dt=DEFAULT_DT):
    """(pulse, ramp, t_a, t_b, pieces) of an interval of ``steps`` steps:
    ``stack``, the computational block (two sector pieces of two
    columns) in the flat top of a driven hold; ``vector``, one state
    there; ``ramp``, the computational block across an undriven bias
    ramp-up."""
    if kind == "ramp":
        ramp = BiasRamp(0.0, steps * dt * DRIVELESS_DT_FACTOR)
        t_a, t_b = 0.0, ramp.ramp_time
    else:
        ramp, t_a, t_b = None, 10.0, 10.0 + steps * dt
    frame = dressed_frame(params, RESONANT.flux_static if ramp is None else ramp.flux_idle)
    block = _computational_block(frame)
    if kind == "vector":
        block = block[:, [COMPUTATIONAL_LABELS.index((1, 0, 1))]]
    return RESONANT, ramp, t_a, t_b, _split(assemble_operators(params).sectors, block)


@pytest.mark.parametrize("steps", [70, 71])  # a multiple of the chunk, and one more
@pytest.mark.parametrize("kind", ["stack", "vector", "ramp"])
def test_chunked_stepping_matches_one_chunk(params500, monkeypatch, kind, steps):
    pulse, ramp, t_a, t_b, pieces = _interval_case(params500, kind, steps)
    kernel = "step_sequence" if kind == "ramp" else "strang_sequence"
    stepped = getattr(backends, kernel)
    calls = []

    def counting(*args):
        calls.append(args)
        return stepped(*args)

    monkeypatch.setattr(backends, kernel, counting)
    per_chunk = len(pieces.active) if kind == "ramp" else 1
    out = {}
    for chunk in (7, steps + 1):
        monkeypatch.setattr(evolve, "STEP_CHUNK", chunk)
        calls.clear()
        out[chunk] = evolve._step_interval(params500, pulse, ramp, t_a, t_b, DEFAULT_DT,
                                           pieces.active, pieces.x)
        assert len(calls) == -(-steps // chunk) * per_chunk
    assert np.max(np.abs(out[7] - out[steps + 1])) <= 1e-12


def test_stepping_memory_does_not_grow_with_the_step_count(params500, monkeypatch):
    # Samples are drawn one chunk at a time, so stepping 8n steps peaks at
    # the heap of stepping n; sampling all steps at once grows the peak by
    # a few float arrays of the extra 7n steps.
    chunk, n = 512, 1024
    monkeypatch.setattr(evolve, "STEP_CHUNK", chunk, raising=False)

    def peak(steps):
        pulse, ramp, t_a, t_b, pieces = _interval_case(params500, "vector", steps)
        args = (params500, pulse, ramp, t_a, t_b, DEFAULT_DT, pieces.active, pieces.x)
        evolve._step_interval(*args)  # warms the frame and step caches
        tracemalloc.start()
        try:
            evolve._step_interval(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * n) - peak(n) < chunk * np.dtype(float).itemsize


def test_one_step_ramp_takes_a_midpoint_step(params500, monkeypatch):
    # A bias ramp shorter than one driveless step is one step, whose lone
    # bias sample lies mid-ramp. The schedule still makes it a ramp: it
    # takes a midpoint exponential, and no frame is built at that flux.
    ramp = BiasRamp(0.0, 0.004)
    pulse = replace(RESONANT, ramp_time=0.2, gate_time=1.0)
    assert ramp.ramp_time < DEFAULT_DT * DRIVELESS_DT_FACTOR
    fluxes, calls = [], []
    framed, stepped = evolve.dressed_frame, backends.step_sequence

    def recording(params, flux):
        fluxes.append(flux)
        return framed(params, flux)

    def counting(*args):
        calls.append(args)
        return stepped(*args)

    monkeypatch.setattr(evolve, "dressed_frame", recording)
    monkeypatch.setattr(backends, "step_sequence", counting)
    res = propagate_state(params500, pulse, ramp, t_grid=[0.0, total_duration(pulse, ramp)])
    assert set(fluxes) <= {ramp.flux_idle, pulse.flux_static}
    assert [c1.size for _, _, _, c1, _, _, _ in calls] == [1, 1]  # the ramp-up and ramp-down
    assert res.norm_drift <= 1e-8


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


# A 6 ns flat top takes 3000 steps of 2 ps, which the window's centre
# halves; 6.002 ns takes 3001, and each half rounds up to 1501.
AMPLITUDE_WINDOWS = pytest.mark.parametrize("gate_time", [10.0, 10.002], ids=["even", "odd"])
AMPLITUDE_BIASES = pytest.mark.parametrize("bias", [None, BiasRamp(0.0, 3.0)],
                                           ids=["static-bias", "dynamic-bias"])


def _amplitude_cell(gate_time, bias):
    """The set500 amplitude template at 10.79 GHz and delta_Phi 0.06, the
    pulse the cell steps (carrier centred) and its flat-top step count at
    2 ps."""
    template = ParametricPulse(0.35, 0.0, 0.0, ramp_time=2.0, gate_time=gate_time)
    pulse = replace(template, drive_amp=0.06, drive_freq=10.79,
                    phase=centred_phase(10.79, gate_time))
    t0, t1 = drive_window(pulse, bias)
    return template, pulse, _step_count(t0 + 2.0, t1 - 2.0, 2e-3)[0]


@AMPLITUDE_WINDOWS
@AMPLITUDE_BIASES
def test_amplitude_cell_is_its_mirrored_half_window(params500, gate_time, bias):
    template, pulse, flat_steps = _amplitude_cell(gate_time, bias)
    got = amplitude_point(params500, template, 10.79, 0.06, gate_time, ramp=bias, dt=2e-3)
    # Direct stepping of the centred carrier through the whole schedule:
    # an even flat top keeps the window's step grid, so the whole window
    # is stepped at once, as the cell was before; an odd one moves the
    # cell's grid, which the direct run takes by a cut at the centre.
    end = total_duration(pulse, bias)
    t_grid = [end] if flat_steps % 2 == 0 else [0.5 * end, end]
    direct = propagate_state(params500, pulse, bias, dt=2e-3, record=((1, 0, 1),),
                             t_grid=t_grid)
    assert abs(got - direct.populations[(1, 0, 1)][-1]) <= 1e-12


@AMPLITUDE_WINDOWS
@AMPLITUDE_BIASES
def test_amplitude_cell_takes_half_the_kernel_steps(params500, monkeypatch, gate_time, bias):
    template, pulse, flat_steps = _amplitude_cell(gate_time, bias)
    steps = []
    kernels = {"strang_sequence": 2, "step_sequence": 3}  # position of the drive samples
    for name, arg in kernels.items():
        def counting(*args, kernel=getattr(backends, name), arg=arg):
            steps.append(args[arg].size)
            return kernel(*args)
        monkeypatch.setattr(backends, name, counting)

    end = total_duration(pulse, bias)
    propagate_state(params500, pulse, bias, dt=2e-3, record=((1, 0, 1),), t_grid=[0.0, end])
    window = sum(steps)
    steps.clear()
    amplitude_point(params500, template, 10.79, 0.06, gate_time, ramp=bias, dt=2e-3)
    # An odd flat top takes one step more, split between the halves.
    assert 2 * sum(steps) == window + flat_steps % 2


def test_domain_error_is_value_error(params500):
    bad = ParametricPulse(
        flux_static=0.45, drive_amp=0.07, drive_freq=10.79,
        ramp_time=2.0, gate_time=10.0,
    )
    with pytest.raises(DomainError):
        propagate_state(params500, bad, dt=0.002)
    assert issubclass(DomainError, ValueError)
