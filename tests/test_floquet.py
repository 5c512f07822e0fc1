"""Quasienergy spectra, resonance extraction, and their dynamical meaning."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from fluxgate import (
    DomainError,
    IntegrationError,
    ParametricPulse,
    backends,
    floquet,
    gates,
    propagate_state,
)
from fluxgate.circuits import oscillator_coefficients
from fluxgate.evolve import _flat_step, dressed_frame
from fluxgate.floquet import (
    Monodromy,
    extract_transition,
    fold,
    monodromy,
    quasienergies,
)
from fluxgate.system import assemble_operators

from dense_model import dense_operators
from full_scan import full_scan_transition

BSWAP = ((1, 0, 1), (2, 0, 2))

# Extraction results at flux_s = 0.35 with dt = 0.002, frozen from this
# code. The amp -> strength map is linear to a few percent and the
# resonance drifts up quadratically with amplitude.
FROZEN = {
    0.03: (10.786324, 6.0955e-3, (10.736, 10.836), 15),
    0.045: (10.786559, 9.1550e-3, (10.736, 10.836), 15),
}


def test_monodromy_unitary(params500):
    m = monodromy(params500, 0.35, 0.045, 10.79, dt=0.002)
    assert m.defect < 1e-10
    eigs = np.linalg.eigvals(m.blocks)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-10


def test_monodromy_guards(params500):
    with pytest.raises(ValueError):
        monodromy(params500, 0.35, 0.045, -1.0)
    with pytest.raises(ValueError):
        monodromy(params500, 0.35, -0.01, 10.79)
    with pytest.raises(ValueError):
        monodromy(params500, 0.35, 0.045, 10.79, dt=0.01)
    # A negative step would cut each period into one step, and the scan
    # would report a resonance 18 MHz off; a zero step would divide by zero.
    for dt in (-5e-4, 0.0, float("nan")):
        with pytest.raises(DomainError, match="must be positive"):
            monodromy(params500, 0.35, 0.045, 10.79, dt=dt)
    with pytest.raises(DomainError, match="must be positive"):
        extract_transition(params500, 0.35, 0.045, BSWAP, (10.75, 10.82), resolution=7,
                           dt=-5e-4)
    # Unless the pulse refuses it, a nan amplitude gives a nan defect, and
    # a scan that finds no resonance.
    with pytest.raises(DomainError, match="drive_amp"):
        monodromy(params500, 0.35, float("nan"), 10.79)
    with pytest.raises(DomainError, match="drive_amp"):
        extract_transition(params500, 0.35, float("nan"), BSWAP, (10.75, 10.82), resolution=7)


def test_monodromy_refuses_a_nan_defect(params500, monkeypatch):
    blocks = np.full((1, params500.dim // 2, params500.dim // 2), np.nan, dtype=complex)
    monkeypatch.setattr(floquet, "_period", lambda *args: blocks)
    with pytest.raises(IntegrationError, match="defect nan"):
        monodromy(params500, 0.35, 0.03, 10.79, sectors=(0,))


def test_fold_window():
    f = 10.79
    rng = np.random.default_rng(7)
    eps = rng.uniform(-100.0, 100.0, size=200)
    folded = fold(eps, f)
    assert np.all(folded >= -f / 2)
    assert np.all(folded < f / 2)
    shifted = fold(eps + 3 * f, f)
    assert np.max(np.abs(shifted - folded)) < 1e-9


def test_zero_amplitude_reduces_to_dressed(params500):
    f_p = 10.79
    mono = monodromy(params500, 0.35, 0.0, f_p, dt=0.002)
    spec = quasienergies(mono)
    frame = dressed_frame(params500, 0.35)
    sectors = assemble_operators(params500).sectors
    assert mono.sectors == (0, 1)
    for s, eps, z in zip(mono.sectors, spec.quasienergies, spec.states):
        members = frame.sectors[s]
        q = frame.states[np.ix_(sectors[s], members)]
        # Undriven, each Floquet mode is the dressed state it overlaps most.
        dressed_for = np.argmax(np.abs(q.conj().T @ z), axis=0)
        assert np.array_equal(np.sort(dressed_for), np.arange(members.size))
        worst = np.max(np.abs(fold(eps - frame.energies[members][dressed_for], f_p)))
        assert worst < 1e-9


@pytest.mark.parametrize("amp", sorted(FROZEN))
def test_extraction_frozen_values(params500, amp):
    omega_ref, strength_ref, window, res = FROZEN[amp]
    tr = extract_transition(params500, 0.35, amp, BSWAP, window, res, dt=0.002)
    assert tr.found
    assert tr.omega_res == pytest.approx(omega_ref, abs=5e-5)
    assert tr.strength == pytest.approx(strength_ref, rel=1e-2)


def test_strength_linear_in_amplitude():
    a = FROZEN[0.03][1]
    b = FROZEN[0.045][1]
    assert b / a == pytest.approx(1.5, rel=0.03)


def test_small_amplitude_resonance_matches_dressed_splitting(params500):
    frame = dressed_frame(params500, 0.35)
    splitting = frame.energy_of((2, 0, 2)) - frame.energy_of((1, 0, 1))
    tr = extract_transition(
        params500, 0.35, 0.01, BSWAP, (10.766, 10.806), 9, dt=0.002
    )
    assert tr.found
    assert abs(tr.omega_res - splitting) < 1e-3
    # The walk starts at the scan point nearest the splitting, which is
    # the minimum: it and its two neighbours, plus the 6 refine points
    # that are not scan points.
    assert tr.scan_freqs.shape == tr.gaps.shape == (9,)
    assert np.all(np.diff(tr.scan_freqs) > 0)


def test_rabi_period_matches_strength(params500):
    omega, strength = FROZEN[0.03][:2]
    t_total = 1.25 / strength
    pulse = ParametricPulse(
        flux_static=0.35, drive_amp=0.03, drive_freq=omega,
        ramp_time=0.0, gate_time=t_total,
    )
    grid = np.linspace(0.0, t_total, 1601)
    res = propagate_state(
        params500, pulse, psi0=(1, 0, 1), record=((2, 0, 2),),
        dt=0.001, t_grid=grid,
    )
    pop = res.populations[(2, 0, 2)]
    assert pop.max() > 0.99
    k = int(np.argmax(pop))
    coef = np.polyfit(grid[k - 1 : k + 2], pop[k - 1 : k + 2], 2)
    period = 2.0 * (-coef[1] / (2.0 * coef[0]))
    assert strength * period == pytest.approx(1.0, abs=0.02)


def test_not_found_reports_scan(params500):
    tr = extract_transition(
        params500, 0.35, 0.03, BSWAP, (10.90, 10.96), 5, dt=0.002
    )
    assert not tr.found
    assert np.isnan(tr.omega_res) and np.isnan(tr.strength)
    assert tr.scan_freqs.shape == (5,)
    assert tr.gaps.shape == (5,)
    assert np.all(np.isfinite(tr.gaps))


def test_extraction_deterministic(params500):
    kw = dict(resolution=5, dt=0.002)
    a = extract_transition(params500, 0.35, 0.03, BSWAP, (10.77, 10.80), **kw)
    b = extract_transition(params500, 0.35, 0.03, BSWAP, (10.77, 10.80), **kw)
    assert a.omega_res == b.omega_res
    assert a.strength == b.strength
    assert np.array_equal(a.gaps, b.gaps)


def test_window_guards(params500):
    with pytest.raises(ValueError):
        extract_transition(params500, 0.35, 0.03, BSWAP, (10.8, 10.7))
    with pytest.raises(ValueError):
        extract_transition(params500, 0.35, 0.03, BSWAP, (10.7, 10.8), resolution=3)
    # A window reaching 0 GHz is a domain error, a failed point for the CLI.
    with pytest.raises(DomainError, match="0 GHz"):
        extract_transition(params500, 0.35, 0.03, BSWAP, (-0.1, 10.8))


@pytest.fixture
def pair_gap_calls(monkeypatch):
    """Drive frequencies of every ``floquet._pair_gap`` call, in order."""
    calls = []
    original = floquet._pair_gap

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(floquet, "_pair_gap", counted)
    return calls


@pytest.mark.parametrize("window, found", [((10.766, 10.806), True), ((10.90, 10.96), False)])
@pytest.mark.parametrize("resolution", [5, 9])
def test_each_reported_frequency_is_stepped_once(params500, pair_gap_calls, window, found,
                                                 resolution):
    tr = extract_transition(params500, 0.35, 0.03, BSWAP, window, resolution, dt=0.002)
    assert tr.found == found
    # Found, the walk stops at its start, the point nearest the splitting,
    # after stepping its two neighbours, and the refine adds 6 points;
    # not found, the walk reaches the edge and the whole grid is stepped.
    assert tr.scan_freqs.size == (3 + 6 if found else resolution)
    assert sorted(pair_gap_calls) == tr.scan_freqs.tolist()
    assert np.all(np.diff(tr.scan_freqs) > 0)


def test_an_unresolved_window_top_fails_before_any_point(params500, pair_gap_calls):
    # dt = 2 ps resolves drives up to 12.5 GHz: all but the top scan point
    # of this window would be stepped before the top one raised.
    with pytest.raises(DomainError, match="does not resolve the drive"):
        extract_transition(params500, 0.35, 0.03, BSWAP, (12.3, 12.6), 5, dt=2e-3)
    assert pair_gap_calls == []


def test_pair_of_one_state_is_rejected(params500):
    # Both tracked modes would be one state's: a zero "gap" at every
    # frequency, reported as a resonance of strength 0.
    with pytest.raises(ValueError, match="one state twice"):
        extract_transition(
            params500, 0.35, 0.03, ((1, 0, 1), (1, 0, 1)), (10.70, 10.86), 9, dt=2e-3
        )



# -- the downhill walk against a full scan of the grid -------------------------

def _crossing(g, s, f0):
    """A ``floquet._pair_gap`` stand-in: one avoided crossing of minimum
    gap ``g`` at ``f0``, the gap sqrt(g^2 + s^2 (f - f0)^2)."""
    def gap(params, flux_s, drive_amp, drive_freq, pair_vecs, dt, sector):
        return float(np.sqrt(g**2 + (s * (drive_freq - f0)) ** 2))
    return gap


def _splitting(params, flux_s=0.35):
    frame = dressed_frame(params, flux_s)
    return frame.energy_of(BSWAP[1]) - frame.energy_of(BSWAP[0])


@settings(max_examples=150, deadline=None)
@given(
    lo_from_split=st.floats(-0.3, 0.1),
    width=st.floats(0.01, 0.3),
    resolution=st.integers(5, 61),
    f0_in_window=st.floats(-0.5, 1.5),
    g=st.floats(1e-4, 0.02),
    s=st.floats(0.05, 1.0),
)
@example(lo_from_split=-0.08, width=0.12, resolution=25, f0_in_window=0.68, g=6e-3, s=1.0)
@example(lo_from_split=0.05, width=0.06, resolution=13, f0_in_window=0.5, g=1e-3, s=0.5)
@example(lo_from_split=-0.08, width=0.12, resolution=25, f0_in_window=1.2, g=6e-3, s=1.0)
@example(lo_from_split=-0.08, width=0.12, resolution=25, f0_in_window=-0.3, g=6e-3, s=1.0)
def test_walk_matches_a_full_scan_on_one_crossing(params500, lo_from_split, width, resolution,
                                                  f0_in_window, g, s):
    # On one crossing the gaps fall towards f0 and rise after it, rounding
    # included, so the walk ends on the grid's argmin from any start; a
    # walk to the edge falls back on the whole grid. The walk reports a
    # subset of the full scan's curve, the whole of it when not found.
    lo = _splitting(params500) + lo_from_split
    window = (lo, lo + width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_pair_gap", _crossing(g, s, lo + f0_in_window * width))
        got = extract_transition(params500, 0.35, 0.03, BSWAP, window, resolution, dt=2e-3)
        ref = full_scan_transition(params500, 0.35, 0.03, BSWAP, window, resolution, dt=2e-3)
    assert got.found == ref.found
    assert np.array_equal([got.omega_res, got.strength], [ref.omega_res, ref.strength],
                          equal_nan=True)
    ref_gaps = dict(zip(ref.scan_freqs.tolist(), ref.gaps.tolist()))
    assert [ref_gaps[f] for f in got.scan_freqs.tolist()] == got.gaps.tolist()
    if not ref.found:
        assert np.array_equal(got.scan_freqs, ref.scan_freqs)


def test_walk_keeps_the_minimum_downhill_of_the_splitting(params500, monkeypatch):
    # A shallow crossing 1.3 MHz above the splitting and a deeper one on a
    # scan point 60 MHz below it: the full scan takes the deeper, the walk
    # from the splitting stops in the shallow one.
    split = _splitting(params500)
    near, far = _crossing(6e-3, 1.0, split + 1.3e-3), _crossing(2e-3, 1.0, split - 0.06)
    monkeypatch.setattr(floquet, "_pair_gap", lambda *args: min(near(*args), far(*args)))
    window = (split - 0.08, split + 0.04)
    got = extract_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    ref = full_scan_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    assert got.found and ref.found
    assert got.omega_res == pytest.approx(split + 1.3e-3, abs=1e-6)
    assert got.strength == pytest.approx(6e-3, rel=1e-6)
    assert ref.omega_res == pytest.approx(split - 0.06, abs=1e-6)
    assert ref.strength == pytest.approx(2e-3, rel=1e-6)
    assert got.scan_freqs.size == 3 + 6


def test_a_walk_to_the_edge_falls_back_on_the_whole_grid(params500, monkeypatch):
    # Downhill of the splitting the gap falls to the window's top, past
    # which its crossing lies: the whole grid is stepped, and its interior
    # argmin, the deeper crossing 60 MHz below the splitting, is found.
    split = _splitting(params500)
    edge, far = _crossing(6e-3, 1.0, split + 0.05), _crossing(2e-3, 1.0, split - 0.06)
    monkeypatch.setattr(floquet, "_pair_gap", lambda *args: min(edge(*args), far(*args)))
    window = (split - 0.08, split + 0.04)
    got = extract_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    ref = full_scan_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    assert got.found and got.omega_res == pytest.approx(split - 0.06, abs=1e-6)
    assert (got.omega_res, got.strength) == (ref.omega_res, ref.strength)
    assert np.array_equal(got.scan_freqs, ref.scan_freqs)
    assert np.array_equal(got.gaps, ref.gaps)
    assert got.scan_freqs.size == 25 + 6


@pytest.mark.parametrize("bottom_from_split", [-0.03, 0.0, 0.03])
def test_walk_breaks_ties_to_the_lower_frequency(params500, monkeypatch, bottom_from_split):
    # A flat-bottomed gap, exactly 2 MHz on the 5 scan points within
    # 12 MHz of its middle: the walk, like argmin, ends on the lowest in
    # frequency of them, whether it enters the bottom from above, from
    # below or starts in it.
    split = _splitting(params500)
    middle = split + bottom_from_split
    monkeypatch.setattr(floquet, "_pair_gap",
                        lambda *args: 2e-3 + max(abs(args[3] - middle) - 0.012, 0.0))
    window = (split - 0.06, split + 0.06)
    got = extract_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    ref = full_scan_transition(params500, 0.35, 0.02, BSWAP, window, 25, dt=2e-3)
    assert got.found and ref.found
    assert (got.omega_res, got.strength) == (ref.omega_res, ref.strength)


@pytest.mark.parametrize("gate_time, drive_ramp", [(65.0, 5.0), (70.0, 5.0)])
def test_seed_matches_the_full_scan_seed(params500, rc500, monkeypatch, gate_time, drive_ramp):
    # 70/5 seeds at 10.790050 GHz, on a narrow dip that the refine's full
    # argmin finds; walking the refine too would miss it and move the seed.
    cfg = replace(rc500.require("gate"), gate_time=gate_time, drive_ramp=drive_ramp)
    seed = gates._seed_from_floquet(params500, cfg)
    monkeypatch.setattr(gates, "extract_transition", full_scan_transition)
    assert gates._seed_from_floquet(params500, cfg) == seed


# -- the seed steps only the sectors that hold its pair ----------------------

@pytest.mark.parametrize("levels", [6, 5])  # sectors of 75 + 75 and 63 + 62 states
# The last id field is the carrier phase at the start of the stepped
# period: 0, the symmetric point that the mirrored half period needs.
@pytest.mark.parametrize("freq, dt", [
    pytest.param(10.79, 5e-4, id="10.79-0.0005-0.0"),  # n = 186, even
    pytest.param(10.7, 2e-3, id="10.7-0.002-0.0"),  # n = 47, odd
])
def test_restricted_monodromy_is_the_full_block_bit_for_bit(params500, levels, freq, dt):
    params = replace(params500, n_coupler_levels=levels)
    full = monodromy(params, 0.35, 0.045, freq, dt=dt)
    full_spec = quasienergies(full)
    sectors = assemble_operators(params).sectors
    width = max(rows.size for rows in sectors)
    assert full.blocks.shape == (len(sectors), width, width)
    for s, rows in enumerate(sectors):
        part = monodromy(params, 0.35, 0.045, freq, dt=dt, sectors=(s,))
        assert part.sectors == (s,)
        assert part.blocks.shape == (1, width, width)
        assert np.array_equal(part.blocks[0], full.blocks[s])
        # Past the sector's own rows the block is exactly the identity.
        padded = np.eye(width, dtype=complex)
        padded[: rows.size, : rows.size] = part.blocks[0, : rows.size, : rows.size]
        assert np.array_equal(part.blocks[0], padded)

        # The same modes in the same order, on the sector's own rows.
        spec = quasienergies(part)
        assert spec.states[0].shape == (rows.size, rows.size)
        assert np.array_equal(spec.quasienergies[0], full_spec.quasienergies[s])
        assert np.array_equal(spec.states[0], full_spec.states[s])


def test_monodromy_rejects_unknown_sectors(params500):
    for sectors in ((), (2,), (0, 0), (-1,)):
        with pytest.raises(ValueError, match="sectors"):
            monodromy(params500, 0.35, 0.045, 10.79, dt=2e-3, sectors=sectors)


@pytest.mark.parametrize("device, amp, pair, window, stepped", [
    ("params500", 0.02, BSWAP, (10.736, 10.836), [(0,)]),
    ("params500", 0.06, BSWAP, (10.736, 10.836), [(0,)]),
    # |100> <-> |201>, the same exchange in the odd sector.
    ("params500", 0.06, ((1, 0, 0), (2, 0, 1)), (5.735, 5.835), [(1,)]),
])
def test_extraction_matches_full_spectrum_reference(
    request, monkeypatch, device, amp, pair, window, stepped
):
    params = request.getfixturevalue(device)
    full_monodromy = floquet.monodromy
    seen = []

    def recorded(*args, sectors=None, **kwargs):
        seen.append(sectors)
        return full_monodromy(*args, sectors=sectors, **kwargs)

    def full_spectrum_gap(params, flux_s, drive_amp, drive_freq, pair_vecs, dt, sector):
        # Every sector stepped and solved, its modes placed on the full
        # space, and the pair's full dressed vectors projected on all of them.
        mono = full_monodromy(params, flux_s, drive_amp, drive_freq, dt)
        spec = quasienergies(mono)
        sectors = assemble_operators(params).sectors
        modes = []
        for s, z in zip(mono.sectors, spec.states):
            modes.append(np.zeros((params.dim, z.shape[1]), dtype=complex))
            modes[-1][sectors[s]] = z
        modes = np.hstack(modes)
        frame = dressed_frame(params, flux_s)
        vecs = frame.states[:, [frame.index_of(lab) for lab in pair]]
        total = (np.abs(vecs.conj().T @ modes) ** 2).sum(axis=0)
        e1, e2 = np.concatenate(spec.quasienergies)[np.argsort(total)[-2:]]
        d = abs(e1 - e2) % drive_freq
        return min(d, drive_freq - d)

    monkeypatch.setattr(floquet, "monodromy", recorded)
    got = extract_transition(params, 0.35, amp, pair, window, 9, dt=2e-3)
    monkeypatch.setattr(floquet, "_pair_gap", full_spectrum_gap)
    ref = extract_transition(params, 0.35, amp, pair, window, 9, dt=2e-3)

    assert sorted(set(seen)) == stepped
    assert got.found == ref.found
    assert np.array_equal(got.scan_freqs, ref.scan_freqs)
    assert np.max(np.abs(got.gaps - ref.gaps)) <= 1e-12
    if ref.found:
        assert abs(got.omega_res - ref.omega_res) <= 1e-12
        assert abs(got.strength - ref.strength) <= 1e-12


def test_extraction_rejects_a_pair_of_opposite_parities(params500):
    # |102> is odd and |101> even: the drive conserves parity, so their
    # modes cross without a gap and there is no transition to report.
    with pytest.raises(DomainError, match="parity sectors"):
        extract_transition(params500, 0.35, 0.06, ((1, 0, 1), (1, 0, 2)), (5.17, 5.27), 9,
                           dt=2e-3)


# -- time-reversal construction of the monodromy ----------------------------

@pytest.mark.parametrize("name", ["params500", "params300", "params_small"])
def test_static_pieces_are_real_symmetric(request, name):
    # What the mirrored half period rests on: a step of a real symmetric
    # Hamiltonian is its own time reverse.
    ops = assemble_operators(request.getfixturevalue(name))
    for stack in (ops.a_fixed, ops.b_op):
        assert np.isrealobj(stack)
        assert np.max(np.abs(stack.transpose(0, 2, 1) - stack)) <= 1e-14


def _full_period_product(params, flux_s, amp, freq, dt):
    """Reference monodromy: every Strang step of the period in order, on
    the full space, around the full-space static step Q exp(-i 2 pi h E) Q^T."""
    period = 1.0 / freq
    n = max(1, int(np.ceil(period / dt)))
    h = period / n
    mids = (np.arange(n) + 0.5) * h
    c1, _ = oscillator_coefficients(
        params.coupler, np.full(n, flux_s), flux_s + amp * np.cos(2 * np.pi * freq * mids)
    )
    c1_flat, _ = oscillator_coefficients(params.coupler, flux_s, flux_s)
    n_diag = dense_operators(params).n_diag
    eye = np.eye(params.dim, dtype=complex)
    frame = dressed_frame(params, flux_s)
    u0 = (frame.states * np.exp(-2j * np.pi * h * frame.energies)) @ frame.states.T
    return n, backends.strang_sequence(u0, n_diag, c1 - float(c1_flat), h, eye)


@settings(max_examples=12, deadline=None)
@given(
    flux_s=st.floats(0.3, 0.4),
    amp=st.floats(0.0, 0.09),
    freq=st.floats(10.6, 11.0),
    dt=st.sampled_from([5e-4, 1e-3, 2e-3]),
)
@example(flux_s=0.35, amp=0.045, freq=10.79, dt=5e-4)  # n = 186, even
@example(flux_s=0.35, amp=0.03, freq=10.7, dt=2e-3)  # n = 47, odd
def test_mirrored_monodromy_matches_full_period(params500, flux_s, amp, freq, dt):
    n, reference = _full_period_product(params500, flux_s, amp, freq, dt)
    mono = monodromy(params500, flux_s, amp, freq, dt=dt)
    # The reference is zero between sectors, so its sector blocks hold
    # all of it.
    within = np.zeros_like(reference)
    for rows, block in zip(assemble_operators(params500).sectors, mono.blocks):
        ref_block = reference[np.ix_(rows, rows)]
        within[np.ix_(rows, rows)] = ref_block
        assert np.max(np.abs(block[: rows.size, : rows.size] - ref_block)) <= 1e-11, f"n = {n}"
    assert np.array_equal(within, reference)


@pytest.mark.parametrize("flux", [0.0, 0.35])
@pytest.mark.parametrize("h", [5e-4, 4.99e-4, 2e-3])
def test_flat_step_unitary(params500, flux, h):
    u0 = _flat_step(params500, flux, h, (0, 1))  # one step per parity sector
    assert u0.shape == (2, params500.dim // 2, params500.dim // 2)
    assert np.linalg.norm(u0.conj().transpose(0, 2, 1) @ u0 - np.eye(u0.shape[-1])) <= 1e-13
    # A sector's step is the same bit for bit whichever others are built.
    for s in (0, 1):
        assert np.array_equal(_flat_step(params500, flux, h, (s,)), u0[[s]])
    assert np.array_equal(_flat_step(params500, flux, h, (1, 0)), u0[::-1])


def test_seed_monodromy_count(params500, rc500, monkeypatch):
    # The 25-point probe and the 13-point re-extraction each start their
    # walk at the scan point nearest the splitting, which is the minimum
    # of both on set500: that point and its two neighbours. Each refines
    # on 9 points of which those 3 are scan points, whose gaps the call
    # already holds: (3 + 6) + (3 + 6) = 18, where a full scan of both
    # grids steps (25 + 6) + (13 + 6) = 50.
    calls = []
    original = floquet.monodromy

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(floquet, "monodromy", counted)
    gates._seed_from_floquet(params500, rc500.require("gate"))
    assert len(calls) == 18


# -- Cayley-transform eigensolve of the monodromy -----------------------------

def _solved_blocks(mono):
    """Each stepped block without its pad, with its Floquet eigenvalues
    and modes from ``quasienergies``."""
    spec = quasienergies(mono)
    sectors = assemble_operators(mono.params).sectors
    for s, block, eps, z in zip(mono.sectors, mono.blocks, spec.quasienergies, spec.states):
        n = sectors[s].size
        yield block[:n, :n], np.exp(-2j * np.pi * eps / mono.drive_freq), z


@settings(max_examples=15, deadline=None)
@given(
    flux_s=st.floats(0.0, 0.4),
    amp=st.floats(0.0, 0.09),
    freq=st.floats(2.0, 11.5),
)
@example(flux_s=0.35, amp=0.045, freq=10.79)
@example(flux_s=0.0, amp=0.09, freq=2.0)
def test_cayley_modes_match_schur(params500, flux_s, amp, freq):
    mono = monodromy(params500, flux_s, amp, freq, dt=2e-3)
    assert mono.sectors == (0, 1)
    for m, lam, z in _solved_blocks(mono):
        ref = np.diag(schur(m, output="complex")[0])
        apart = np.abs(np.angle(lam[:, None] / ref[None, :]))
        assert apart.min(axis=1).max() <= 1e-11
        assert apart.min(axis=0).max() <= 1e-11
        assert np.max(np.abs(m @ z - z * lam)) <= 1e-10
        assert np.max(np.abs(z.conj().T @ z - np.eye(m.shape[0]))) <= 1e-10


def test_cayley_shift_clears_the_spectrum_at_strong_drive(params500):
    # A seed monodromy of a 55 ns calibration with a 10 ns drive ramp:
    # the phases of the bare-basis diagonal put -1 within 3e-8 of an
    # eigenvalue here, those of the dressed-basis diagonal do not.
    mono = monodromy(params500, 0.35, 0.10919916450001314, 10.756214056060857, dt=5e-4)
    for m, lam, z in _solved_blocks(mono):
        assert np.max(np.abs(m @ z - z * lam)) <= 1e-10


def _built_monodromy(params, eps, freq, scale=1.0):
    """Monodromy with quasienergies ``eps`` on the dressed states at 0.35,
    for a device of equal sectors, which need no pad."""
    frame = dressed_frame(params, 0.35)
    sectors = assemble_operators(params).sectors
    phases = scale * np.exp(-2j * np.pi * eps / freq)
    blocks = []
    for rows, members in zip(sectors, frame.sectors):
        q = frame.states[np.ix_(rows, members)]
        blocks.append((q * phases[members]) @ q.conj().T)
    return Monodromy(np.stack(blocks), params, 0.35, freq, 0.0, tuple(range(len(sectors))))


def test_eigensolve_guard_rejects_a_non_unitary_matrix(params500):
    f = 10.79
    eps = np.linspace(-f / 2, f / 2, params500.dim, endpoint=False)
    spec = quasienergies(_built_monodromy(params500, eps, f))
    assert np.max(np.abs(np.sort(np.concatenate(spec.quasienergies)) - eps)) <= 1e-9
    with pytest.raises(IntegrationError, match="modulus"):
        quasienergies(_built_monodromy(params500, eps, f, scale=1.0 + 1e-8))
    with pytest.raises(IntegrationError, match="residual nan"):
        quasienergies(_built_monodromy(params500, eps, f, scale=np.nan))
