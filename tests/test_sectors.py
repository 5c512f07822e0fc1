"""Conserved-parity sectors: the block structure of the composite
Hamiltonian, its guard, and per-sector propagation checked against
independent full-space references."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxgate import backends, propagate_computational_unitary, propagate_state
from fluxgate.circuits import FluxoniumParams, TransmonParams, oscillator_coefficients
from fluxgate.errors import ConstructionError
from fluxgate.evolve import (
    COMPUTATIONAL_LABELS,
    DRIVELESS_DT_FACTOR,
    _boundaries,
    _step_count,
    _step_samples,
    _whole_periods,
    amplitude_point,
    chevron_column,
    dressed_frame,
)
from fluxgate.floquet import monodromy
from fluxgate.gates import gate_schedule
from fluxgate.pulses import ParametricPulse, centred_phase, drive_window, total_duration
from fluxgate.system import (
    CompositeOperator,
    CompositeParams,
    assemble_operators,
    build_hamiltonian,
    label_eigenstates,
)

FLAT = ParametricPulse(
    flux_static=0.35, drive_amp=0.045, drive_freq=10.786, ramp_time=2.0, gate_time=12.0
)


def _cross_sector(matrix, sectors):
    """Every entry of ``matrix`` between two different sectors, gathered
    independently of the guard in ``system.label_eigenstates``."""
    sector_of = np.empty(matrix.shape[0], dtype=int)
    for s, rows in enumerate(sectors):
        sector_of[rows] = s
    return matrix[sector_of[:, None] != sector_of[None, :]]


fluxonium = st.builds(
    FluxoniumParams,
    e_c=st.floats(0.8, 1.6),
    e_l=st.floats(0.4, 1.2),
    e_j=st.floats(3.0, 8.0),
)


@settings(max_examples=15, deadline=None)
@given(
    q0=fluxonium,
    q1=fluxonium,
    coupler=st.builds(TransmonParams, e_c=st.floats(0.2, 0.4), e_j_max=st.floats(30.0, 60.0)),
    j_c0=st.floats(0.0, 0.6),
    j_c1=st.floats(0.0, 0.6),
    j_01=st.floats(0.0, 0.2),
    flux=st.floats(0.0, 0.4),
)
def test_symmetric_point_hamiltonian_is_exactly_block_diagonal(
    q0, q1, coupler, j_c0, j_c1, j_01, flux
):
    params = CompositeParams(q0, q1, coupler, j_c0, j_c1, j_01)
    sectors = assemble_operators(params).sectors
    assert len(sectors) == 2
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(params.dim))
    h = build_hamiltonian(params, flux).matrix
    assert np.all(_cross_sector(h, sectors) == 0.0)


def test_unequal_sectors_run_the_same_path(params500):
    params = replace(params500, n_coupler_levels=5)  # 125 states
    sectors = assemble_operators(params).sectors
    assert [rows.size for rows in sectors] == [63, 62]

    spec = label_eigenstates(build_hamiltonian(params, 0.35))
    assert sorted(spec.labels) == sorted(assemble_operators(params).labels)
    for rows, members in zip(sectors, spec.sectors):
        outside = np.setdiff1d(np.arange(params.dim), rows)
        assert np.all(spec.states[np.ix_(outside, members)] == 0.0)
    v = spec.states
    assert np.max(np.abs(v.conj().T @ v - np.eye(params.dim))) <= 1e-12

    pulse = replace(FLAT, gate_time=4.0, ramp_time=1.0)
    for psi0, sector in (((1, 0, 1), 0), ((1, 0, 0), 1)):
        res = propagate_state(params, pulse, psi0=psi0, dt=2e-3)
        assert res.norm_drift < 1e-8
        outside = np.setdiff1d(np.arange(params.dim), sectors[sector])
        assert np.all(res.final_state[outside] == 0.0)


def test_guard_rejects_a_real_cross_sector_element(params_small):
    op = build_hamiltonian(params_small, 0.2)
    ops = assemble_operators(params_small)
    # A real element between (0, 0, 0) and (1, 0, 0) keeps H real
    # symmetric, but their total parities differ.
    i, j = ops.labels.index((0, 0, 0)), ops.labels.index((1, 0, 0))
    h = op.matrix.copy()
    h[i, j] += 1e-3
    h[j, i] += 1e-3
    with pytest.raises(ConstructionError, match="parity sectors"):
        label_eigenstates(CompositeOperator(h, params_small))


@pytest.mark.parametrize("block", ["even-odd", "odd-even"])
def test_guard_rejects_a_one_sided_cross_sector_element(params_small, block):
    # An element at h[i, j] alone lies in one off-diagonal block only:
    # the guard must read each block, not one and its transpose.
    op = build_hamiltonian(params_small, 0.2)
    ops = assemble_operators(params_small)
    even, odd = ops.labels.index((0, 0, 0)), ops.labels.index((1, 0, 0))
    h = op.matrix.copy()
    h[(even, odd) if block == "even-odd" else (odd, even)] += 1e-3
    with pytest.raises(ConstructionError, match="parity sectors"):
        label_eigenstates(CompositeOperator(h, params_small))


# -- full-space references ----------------------------------------------------
#
# A sector's static step and the full-space one round differently (their
# products sum over 75 and 150 terms): they differ by about 4e-16 per
# entry, and a schedule applies that same difference at every step, so
# the two propagations part coherently, by 3e-16 to 5e-16 per step on
# set500 (1.3e-12 after 3000 steps, 1.6e-11 after 48000). The bound is
# 1e-15 per step taken.
ROUNDOFF_PER_STEP = 1e-15

def _full_static_step(params, flux, h):
    frame = dressed_frame(params, flux)
    q = frame.states
    return (q * np.exp(-2j * np.pi * h * frame.energies)) @ q.T


def _full_interval(params, pulse, ramp, t_a, t_b, dt, block):
    """One schedule interval stepped on the full space."""
    if t_b <= t_a:
        return block
    t0, t1 = drive_window(pulse, ramp)
    driven = pulse.drive_amp > 0 and t_b > t0 and t_a < t1
    dt = dt if driven else dt * DRIVELESS_DT_FACTOR
    n, h = _step_count(t_a, t_b, dt)
    samples = list(_step_samples(params, pulse, ramp, t_a, n, h))
    c1, c2 = (np.concatenate([c[i] for _, c in samples]) for i in (0, 1))
    ops = assemble_operators(params)
    if ramp is None or t0 <= t_a and t_b <= t1:  # the bias is held
        c1_flat, _ = oscillator_coefficients(params.coupler, pulse.flux_static, pulse.flux_static)
        u0 = _full_static_step(params, pulse.flux_static, h)
        return backends.strang_sequence(u0, ops.n_diag, c1 - float(c1_flat), h, block)
    return backends.step_sequence(ops.a_fixed, ops.n_diag, ops.b_op, c1, c2, h, block)


def _full_advance(params, pulse, ramp, dt, block, t_a, t_b):
    """The schedule walk of ``evolve`` on the full space, sectors ignored."""
    cuts = [t_a] + [b for b in _boundaries(pulse, ramp) if t_a < b < t_b] + [t_b]
    for s, e in zip(cuts[:-1], cuts[1:]):
        block = _full_interval(params, pulse, ramp, s, e, dt, block)
    return block


def _full_populations(params, pulse, t_grid, dt, psi0=(1, 0, 1), record=(1, 0, 1),
                      periods=False):
    """Populations on ``t_grid`` stepped on the full space, every step
    taken; with ``periods``, each gap's whole flat-top periods
    (``_whole_periods``) are a power of one full-space period stepped
    from the first, as ``propagate_state`` takes them."""
    frame = dressed_frame(params, pulse.flux_static)
    psi = frame.states[:, [frame.index_of(psi0)]].astype(complex)
    vec = frame.states[:, frame.index_of(record)]
    eye = np.eye(params.dim, dtype=complex)
    pops, t_prev = [], 0.0
    for t in map(float, t_grid):
        span = _whole_periods(pulse, None, t_prev, t) if periods else None
        if span is None:
            psi = _full_advance(params, pulse, None, dt, psi, t_prev, t)
        else:
            k, b1, b2 = span
            psi = _full_advance(params, pulse, None, dt, psi, t_prev, b1)
            mono = _full_interval(params, pulse, None, b1, b1 + 1.0 / pulse.drive_freq, dt, eye)
            psi = _full_advance(params, pulse, None, dt, backends.apply_power(mono, k, psi), b2, t)
        t_prev = t
        pops.append(abs(np.vdot(vec, psi[:, 0])) ** 2)
    return np.array(pops)


def test_chevron_column_matches_full_space(params500):
    t_grid = np.linspace(0.0, FLAT.gate_time, 7)
    assert _whole_periods(FLAT, None, t_grid[2], t_grid[3]) is not None
    column = chevron_column(params500, FLAT, FLAT.drive_freq, t_grid, dt=1e-3)
    for key, label in (("101", (1, 0, 1)), ("202", (2, 0, 2))):
        ref = _full_populations(params500, FLAT, t_grid, 1e-3, record=label, periods=True)
        assert np.max(np.abs(np.asarray(column[key]) - ref)) <= ROUNDOFF_PER_STEP * 12000


def test_amplitude_cell_matches_full_space(params500):
    # The cell centres its carrier on the window and steps only the first
    # half; the reference steps the whole centred waveform in full space.
    got = amplitude_point(params500, FLAT, 10.7939, 0.08, 12.0, dt=1e-3)
    pulse = replace(FLAT, drive_freq=10.7939, drive_amp=0.08,
                    phase=centred_phase(10.7939, 12.0))
    ref = _full_populations(params500, pulse, [0.0, 12.0], 1e-3)[-1]
    assert abs(got - ref) <= ROUNDOFF_PER_STEP * 12000


# With whole periods, a 20 ns gate takes n = 106 of them; without, the
# 10.1 ns gate's 0.1 ns flat top holds none.
@pytest.mark.parametrize("periods", [True, False])
def test_dynamic_bias_unitary_matches_full_space(rc500, periods):
    params, dt = rc500.params, 2e-3
    cfg = replace(rc500.require("gate"), gate_time=20.0 if periods else 10.1)
    pulse, ramp = gate_schedule(cfg, 10.78, 0.05)
    cu = propagate_computational_unitary(params, pulse, ramp, dt=dt)

    # Stepped forward through the whole schedule, the second half of the
    # drive window and the ramp-down included; the centred whole periods
    # are one full-space period, stepped through in full, not mirrored.
    frame = dressed_frame(params, ramp.flux_idle)
    idx = [frame.index_of(lab) for lab in COMPUTATIONAL_LABELS]
    end = total_duration(pulse, ramp)
    t0, t1 = drive_window(pulse, ramp)
    n, t_a, t_b = _whole_periods(pulse, ramp, t0, t1) or (0, 0.5 * (t0 + t1), 0.5 * (t0 + t1))
    assert (n > 0) == periods
    out = _full_advance(params, pulse, ramp, dt, frame.states[:, idx].astype(complex), 0.0, t_a)
    eye = np.eye(params.dim, dtype=complex)
    mono = _full_interval(params, pulse, ramp, t_a, t_a + 1.0 / pulse.drive_freq, dt, eye)
    out = _full_advance(params, pulse, ramp, dt, backends.apply_power(mono, n, out), t_b, end)
    full = frame.states.conj().T @ out
    ref = np.exp(2j * np.pi * frame.energies[idx] * end)[:, None] * full[idx, :]
    bound = ROUNDOFF_PER_STEP * end / dt
    assert np.max(np.abs(cu.matrix - ref)) <= bound
    assert np.max(np.abs(cu.final_populations - np.abs(full) ** 2)) <= bound


@pytest.mark.parametrize("freq, dt", [(10.79, 5e-4), (10.7, 2e-3)])  # n = 186, 47
def test_monodromy_matches_full_space_mirror(params500, freq, dt):
    ops = assemble_operators(params500)
    period = 1.0 / freq
    n = int(np.ceil(period / dt))
    h = period / n
    mids = (np.arange(n) + 0.5) * h
    c1, _ = oscillator_coefficients(
        params500.coupler, np.full(n, 0.35), 0.35 + 0.045 * np.cos(2 * np.pi * freq * mids)
    )
    c1_flat, _ = oscillator_coefficients(params500.coupler, 0.35, 0.35)
    dc1 = c1 - float(c1_flat)
    u0 = _full_static_step(params500, 0.35, h)
    eye = np.eye(params500.dim, dtype=complex)
    v = backends.strang_sequence(u0, ops.n_diag, dc1[: n // 2], h, eye)
    forward = v
    if n % 2:
        v = v * np.exp(-1j * np.pi * h * dc1[n // 2] * ops.n_diag)[:, None]
        forward = u0 @ v
    ref = v.T @ forward

    mono = monodromy(params500, 0.35, 0.045, freq, dt=dt)
    for rows, block in zip(ops.sectors, mono.blocks):
        assert np.max(np.abs(block[: rows.size, : rows.size] - ref[np.ix_(rows, rows)])) <= 1e-12
    # The stack holds every sector block; the full-space reference has
    # nothing between sectors that it would lose.
    assert np.all(_cross_sector(ref, ops.sectors) == 0.0)
