"""Composite three-circuit statics: labeling, dressed splittings,
state-dependent shifts, and symmetry/truncation properties."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from fluxgate import (
    build_hamiltonian,
    label_eigenstates,
    state_dependent_shifts,
    zz_coupling,
)
from fluxgate import system
from fluxgate.circuits import diagonalize_fluxonium, oscillator_coefficients
from fluxgate.errors import ConstructionError, LabelingError
from fluxgate.system import (
    AMBIGUITY_THRESHOLD,
    CompositeOperator,
    assemble_operators,
    greedy_match,
)

from dense_model import scatter

# Frozen at truncation (5, 6); splittings are the static |101> -> |202>
# resonance at each set's interaction flux.
DRESSED_SPLITTING = {"set500": (0.35, 10.786122), "set300": (0.30, 10.849601)}
SHIFTS_AT_030 = (6.422217206392e-04, 2.634083917217e-04, -2.434615934441e-06)


def _spectrum(params, flux):
    return label_eigenstates(build_hamiltonian(params, flux))


def _bare_hamiltonian(params):
    """Independent reference: H as a function of flux, built from the
    single-circuit solves with the coupler charge taken as (a + a^dag),
    which makes it complex Hermitian, and the coupler gauge
    d = i^n_c per product state, in which D^dag H D is real."""
    nf, nc = params.n_flux_levels, params.n_coupler_levels
    q0 = diagonalize_fluxonium(params.q0, n_levels=nf)
    q1 = diagonalize_fluxonium(params.q1, n_levels=nf)
    eye_f, eye_c = np.eye(nf), np.eye(nc)
    k = np.arange(nc)
    x = np.diag(np.sqrt(k[1:]), 1)
    x = x + x.T

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    static = (kron3(np.diag(q0.energies), eye_c, eye_f)
              + kron3(eye_f, eye_c, np.diag(q1.energies))
              - 0.5 * params.coupler.e_c * kron3(eye_f, np.diag(k * (k - 1.0)), eye_f)
              + params.j_01 * kron3(q0.n_elements, eye_c, q1.n_elements))
    coupling = (params.j_c0 * kron3(q0.n_elements, x, eye_f)
                + params.j_c1 * kron3(eye_f, x, q1.n_elements))
    n_c = kron3(np.ones(nf), k, np.ones(nf)).astype(int)

    def at(flux):
        omega_c, n_zpf = oscillator_coefficients(params.coupler, flux, flux)
        return static + omega_c * np.diag(n_c) + n_zpf * coupling

    return at, np.array([1, 1j, -1, -1j])[n_c % 4]


def test_labeling_covers_basis(params500):
    spec = _spectrum(params500, 0.35)
    assert len(spec.labels) == 150
    assert len(set(spec.labels)) == 150
    assert spec.labels[int(np.argmin(spec.energies))] == (0, 0, 0)
    # Labels stay within the advertised truncation.
    for a, c, b in spec.labels:
        assert 0 <= a < 5 and 0 <= c < 6 and 0 <= b < 5


def test_energies_sorted_and_real(params500):
    spec = _spectrum(params500, 0.2)
    assert np.all(np.diff(spec.energies) > -1e-12)
    assert np.isrealobj(spec.energies)


def test_dressed_splitting_regression(params500, params300):
    for params, key in ((params500, "set500"), (params300, "set300")):
        flux, want = DRESSED_SPLITTING[key]
        spec = _spectrum(params, flux)
        e = {lab: spec.energies[i] for i, lab in enumerate(spec.labels)}
        split = e[(2, 0, 2)] - e[(1, 0, 1)]
        assert abs(split - want) < 2e-5


def test_shift_regression(params500):
    spec = _spectrum(params500, 0.30)
    s0, s1 = state_dependent_shifts(spec)
    zz = zz_coupling(spec)
    assert abs(s0 - SHIFTS_AT_030[0]) < 1e-8
    assert abs(s1 - SHIFTS_AT_030[1]) < 1e-8
    assert abs(zz - SHIFTS_AT_030[2]) < 1e-10


def test_shifts_grow_toward_interaction_flux(params500):
    values = []
    for flux in (0.0, 0.2, 0.35):
        s0, s1 = state_dependent_shifts(_spectrum(params500, flux))
        values.append(s0 + s1)
    assert values[0] < values[1] < values[2]


def test_zero_coupling_is_flat(params500):
    bare = replace(params500, j_c0=0.0, j_c1=0.0, j_01=0.0)
    for flux in (0.0, 0.3):
        spec = _spectrum(bare, flux)
        s0, s1 = state_dependent_shifts(spec)
        assert abs(s0) < 1e-10 and abs(s1) < 1e-10
        assert abs(zz_coupling(spec)) < 1e-10


def test_qubit_exchange_symmetry(params500):
    spec = _spectrum(params500, 0.25)
    swapped_params = replace(
        params500, q0=params500.q1, q1=params500.q0,
        j_c0=params500.j_c1, j_c1=params500.j_c0,
    )
    swapped = _spectrum(swapped_params, 0.25)
    e = {lab: spec.energies[i] for i, lab in enumerate(spec.labels)}
    es = {lab: swapped.energies[i] for i, lab in enumerate(swapped.labels)}
    for (a, c, b), val in e.items():
        assert abs(es[(b, c, a)] - val) < 1e-9


def test_truncation_stability(params500):
    small = _spectrum(params500, 0.30)
    big = _spectrum(replace(params500, n_flux_levels=6, n_coupler_levels=7), 0.30)
    s_small, s_big = state_dependent_shifts(small), state_dependent_shifts(big)
    assert abs(s_small[0] - s_big[0]) < 5e-6
    assert abs(s_small[1] - s_big[1]) < 5e-6
    assert abs(zz_coupling(small) - zz_coupling(big)) < 1e-7


def test_truncation_floor_rejected(params500):
    with pytest.raises(ValueError):
        build_hamiltonian(replace(params500, n_flux_levels=4), 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(replace(params500, n_coupler_levels=3), 0.0)


@pytest.mark.parametrize("kind", ["random", "tied", "constant"])
def test_greedy_match_is_a_permutation(kind):
    rng = np.random.default_rng(11)
    weights = {
        "random": rng.random((40, 40)),
        "tied": rng.integers(0, 3, size=(40, 40)).astype(float),
        "constant": np.ones((40, 40)),
    }[kind]
    rows = greedy_match(weights)
    assert sorted(rows.tolist()) == list(range(40))
    # The heaviest pair, the first in row-major order among equals, is
    # always matched first.
    top_row, top_col = divmod(int(np.argmax(weights)), 40)
    assert rows[top_col] == top_row


def _descending_loop(weights):
    """The greedy loop over every weight: a stable descending sort, so
    equal weights go in ascending row-major order."""
    dim = len(weights)
    row_for = np.full(dim, -1)
    row_used, col_done = np.zeros(dim, dtype=bool), np.zeros(dim, dtype=bool)
    for flat in np.argsort(-weights, axis=None, kind="stable"):
        row, col = divmod(int(flat), dim)
        if not (row_used[row] or col_done[col]):
            row_for[col] = row
            row_used[row] = col_done[col] = True
    return row_for


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_greedy_match_is_the_descending_loop_on_squared_orthogonal_matrices(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    weights = q**2
    assert np.array_equal(greedy_match(weights), _descending_loop(weights))


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_greedy_match_is_the_descending_loop_on_tied_matrices(dim):
    rng = np.random.default_rng(dim)
    for weights in (rng.integers(0, 3, size=(dim, dim)).astype(float),
                    rng.integers(0, 2, size=(dim, dim)).astype(float),
                    np.ones((dim, dim)), np.zeros((dim, dim))):
        assert np.array_equal(greedy_match(weights), _descending_loop(weights))


def test_greedy_match_is_the_descending_loop_on_shift_scan_sectors(rc500, rc300):
    # Each bundled shift-scan range on a 2.5 mflux grid (181 points), as
    # the benchmark's spectrum workload draws it: 724 sector solves.
    solves = 0
    for rc in (rc500, rc300):
        scan = rc.require("shift_scan")
        for flux in np.linspace(scan.flux_min, scan.flux_max, 181):
            for block in build_hamiltonian(rc.params, float(flux)).blocks:
                weights = np.linalg.eigh(block)[1] ** 2
                assert np.array_equal(greedy_match(weights), _descending_loop(weights))
                solves += 1
    assert solves == 724


@pytest.mark.parametrize("device", ["rc500", "rc300"])
def test_labels_match_complex_reference_on_shift_scan(device, request):
    # The real solve against a complex eigh of the bare complex matrix,
    # over the bundled shift-scan grid.
    rc = request.getfixturevalue(device)
    scan = rc.require("shift_scan")
    ops = assemble_operators(rc.params)
    bare, _ = _bare_hamiltonian(rc.params)
    eye = np.eye(rc.params.dim)
    for flux in np.linspace(scan.flux_min, scan.flux_max, scan.points):
        op = build_hamiltonian(rc.params, float(flux))
        spec = label_eigenstates(op)
        evals, evecs = eigh(bare(float(flux)))
        bare_for = greedy_match(np.abs(evecs) ** 2)
        overlap = np.abs(evecs[bare_for, np.arange(evals.size)])
        assert spec.labels == tuple(ops.labels[b] for b in bare_for)
        assert np.array_equal(spec.ambiguous, overlap**2 < AMBIGUITY_THRESHOLD)
        assert np.max(np.abs(spec.energies - evals)) <= 1e-10

        v = spec.states
        assert np.isrealobj(v)
        assert np.max(np.abs(scatter(op.blocks, ops.sectors) @ v - v * spec.energies)) <= 1e-10
        assert np.max(np.abs(v.T @ v - eye)) <= 1e-12


@pytest.mark.parametrize("flux", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("device", ["params500", "params300", "params_small"])
def test_coupler_gauge_is_exactly_real(device, flux, request):
    # The real basis is the coupler gauge of the bare complex matrix.
    params = request.getfixturevalue(device)
    bare, d = _bare_hamiltonian(params)
    h_bare = bare(flux)
    assert np.any(h_bare.imag)
    rotated = d.conj()[:, None] * h_bare * d
    assert np.all(rotated.imag == 0.0)
    blocks = build_hamiltonian(params, flux).blocks
    assert np.isrealobj(blocks)
    # assemble_operators drops the equal-parity charge elements, which are
    # single-circuit roundoff (at most 2.1e-14 on these devices), and with
    # them every element between two sectors.
    h = scatter(blocks, assemble_operators(params).sectors)
    assert np.max(np.abs(h - rotated.real)) <= 1e-13


def test_a_complex_typed_real_operator_labels_as_its_real_part(params500):
    op = build_hamiltonian(params500, 0.35)
    real = label_eigenstates(op)
    typed = label_eigenstates(CompositeOperator(op.blocks.astype(complex), params500))
    assert typed.labels == real.labels
    for name in ("energies", "overlaps", "ambiguous", "states"):
        assert getattr(typed, name).tobytes() == getattr(real, name).tobytes(), name
    assert all(np.array_equal(a, b) for a, b in zip(typed.sectors, real.sectors))


@pytest.mark.parametrize("device", ["params500", "params300"])
def test_build_hamiltonian_is_the_sum_of_its_pieces_bit_for_bit(device, request):
    params = request.getfixturevalue(device)
    ops = assemble_operators(params)
    for flux in (0.0, 0.13, 0.3, 0.35, 0.45):
        omega_c, n_zpf = oscillator_coefficients(params.coupler, flux, flux)
        blocks = build_hamiltonian(params, flux).blocks
        assert len(blocks) == len(ops.sectors)
        for block, a, n, b in zip(blocks, ops.a_fixed, ops.n_diag, ops.b_op):
            assert block.tobytes() == (a + omega_c * np.diag(n) + n_zpf * b).tobytes()


def _dense_spectrum(params, flux):
    """The labelling of the dense model: H scattered onto the full space
    from its sector stack, each sector's rows gathered as one band and its
    block cut from the band, then the same solves, matching and merge."""
    ops = assemble_operators(params)
    matrix = scatter(build_hamiltonian(params, flux).blocks, ops.sectors)
    blocks = [matrix.take(rows, axis=0).take(rows, axis=1) for rows in ops.sectors]
    solved = [np.linalg.eigh(block) for block in blocks]
    evals = np.concatenate([e for e, _ in solved])
    order = np.argsort(evals, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    states = np.zeros(matrix.shape)
    bare = np.empty(evals.size, dtype=int)
    overlap = np.empty(evals.size)
    members, start = [], 0
    for rows, (_, vecs) in zip(ops.sectors, solved):
        cols = position[start:start + rows.size]
        match = greedy_match(vecs**2)
        states[np.ix_(rows, cols)] = vecs
        bare[cols] = rows[match]
        overlap[cols] = np.abs(vecs[match, np.arange(rows.size)])
        members.append(cols)
        start += rows.size
    labels = tuple(ops.labels[i] for i in bare)
    return evals[order], labels, overlap, overlap**2 < AMBIGUITY_THRESHOLD, states, members


@pytest.mark.parametrize("flux", [0.0, 0.13, 0.35, 0.45])
@pytest.mark.parametrize("device, coupler_levels", [
    ("params500", 6), ("params300", 6),
    ("params500", 5),  # sectors of 63 and 62 states: the narrower one is padded
])
def test_sector_blocks_label_as_the_dense_model_byte_for_byte(device, coupler_levels, flux,
                                                              request):
    params = replace(request.getfixturevalue(device), n_coupler_levels=coupler_levels)
    spec = label_eigenstates(build_hamiltonian(params, flux))
    energies, labels, overlaps, ambiguous, states, members = _dense_spectrum(params, flux)
    assert spec.labels == labels
    for got, want in ((spec.energies, energies), (spec.overlaps, overlaps),
                      (spec.ambiguous, ambiguous), (spec.states, states),
                      *zip(spec.sectors, members)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_blocks_of_the_wrong_count_or_shape_are_refused(params_small):
    op = build_hamiltonian(params_small, 0.2)
    sectors = assemble_operators(params_small).sectors
    for blocks in (op.blocks[:1], op.blocks[:, :-1, :-1], np.concatenate([op.blocks] * 2),
                   scatter(op.blocks, sectors)):
        with pytest.raises(ConstructionError, match="shape"):
            label_eigenstates(CompositeOperator(blocks, params_small))


def test_a_parameter_set_that_fails_is_built_once(params500, monkeypatch):
    # An lru_cache alone caches no exception: each call would solve both
    # fluxonia again before failing the same way.
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return diagonalize_fluxonium(*args, **kwargs)

    monkeypatch.setattr(system, "diagonalize_fluxonium", counted)
    assemble_operators.cache_clear()
    params = replace(params500, j_c0=1e308)
    for _ in range(3):
        with pytest.raises(ConstructionError, match="operator B has non-finite entries"):
            assemble_operators(params)
    assert len(solves) == 2
    info = assemble_operators.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_gauge_guard_rejects_a_complex_block(params_small):
    op = build_hamiltonian(params_small, 0.2)
    h = op.blocks.astype(complex)
    h[0, 0, 1] += 1e-3j
    h[0, 1, 0] -= 1e-3j
    assert np.max(np.abs(h - h.conj().transpose(0, 2, 1))) < 1e-12
    with pytest.raises(ConstructionError, match="not real"):
        label_eigenstates(CompositeOperator(h, params_small))


def test_ambiguity_guard_lists_every_flagged_label(params500):
    spec = _spectrum(params500, 0.35)
    flagged = [lab for lab, amb in zip(spec.labels, spec.ambiguous) if amb][:2]
    assert len(flagged) == 2
    clear = (1, 0, 1)
    assert spec.unambiguous([clear]) == [spec.index_of(clear)]
    with pytest.raises(LabelingError) as err:
        spec.unambiguous([flagged[0], clear, flagged[1]])
    assert err.value.flagged == tuple(flagged)
    with pytest.raises(LabelingError):
        spec.energy_of(flagged[0])
    with pytest.raises(LabelingError, match="not present"):
        spec.unambiguous([(9, 9, 9)])
