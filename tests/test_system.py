"""Composite three-circuit statics: labeling, dressed splittings,
state-dependent shifts, and symmetry/truncation properties."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from fluxgate import (
    build_hamiltonian,
    label_eigenstates,
    state_dependent_shifts,
    zz_coupling,
)
from fluxgate.errors import ConstructionError, LabelingError
from fluxgate.system import (
    AMBIGUITY_THRESHOLD,
    GAUGE_PHASES,
    CompositeOperator,
    assemble_operators,
    greedy_match,
)

# Frozen at truncation (5, 6); splittings are the static |101> -> |202>
# resonance at each set's interaction flux.
DRESSED_SPLITTING = {"set500": (0.35, 10.786122), "set300": (0.30, 10.849601)}
SHIFTS_AT_030 = (6.422217206392e-04, 2.634083917217e-04, -2.434615934441e-06)


def _spectrum(params, flux):
    return label_eigenstates(build_hamiltonian(params, flux))


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
    # The heaviest pair is always matched first.
    top_row, top_col = divmod(int(np.argsort(weights, axis=None)[-1]), 40)
    assert rows[top_col] == top_row


@pytest.mark.parametrize("device", ["rc500", "rc300"])
def test_labels_match_complex_reference_on_shift_scan(device, request):
    # The real coupler-gauge solve against a complex eigh of the bare-basis
    # matrix, over the bundled shift-scan grid.
    rc = request.getfixturevalue(device)
    scan = rc.require("shift_scan")
    labels = assemble_operators(rc.params).labels
    eye = np.eye(rc.params.dim)
    for flux in np.linspace(scan.flux_min, scan.flux_max, scan.points):
        op = build_hamiltonian(rc.params, float(flux))
        spec = label_eigenstates(op)
        evals, evecs = eigh(op.matrix)
        bare_for = greedy_match(np.abs(evecs) ** 2)
        overlap = np.abs(evecs[bare_for, np.arange(evals.size)])
        assert spec.labels == tuple(labels[b] for b in bare_for)
        assert np.array_equal(spec.ambiguous, overlap**2 < AMBIGUITY_THRESHOLD)
        assert np.max(np.abs(spec.energies - evals)) <= 1e-10

        v = spec.states
        assert np.iscomplexobj(v)
        assert np.max(np.abs(op.matrix @ v - v * spec.energies)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - eye)) <= 1e-12


@pytest.mark.parametrize("flux", [0.0, 0.2, 0.45])
@pytest.mark.parametrize(
    "device", ["params500", "params300", "params_small", "off_sweet_spot"]
)
def test_coupler_gauge_is_exactly_real(device, flux, request):
    if device == "off_sweet_spot":
        params = request.getfixturevalue("params500")
        params = replace(params, q0=replace(params.q0, phi_ext=np.pi - 0.3))
    else:
        params = request.getfixturevalue(device)
    h = build_hamiltonian(params, flux).matrix
    assert np.any(h.imag)
    phase = GAUGE_PHASES[assemble_operators(params).n_diag.astype(int) % 4]
    rotated = phase.conj()[:, None] * h * phase
    assert np.all(rotated.imag == 0.0)


def test_gauge_guard_rejects_a_complex_block(params_small):
    op = build_hamiltonian(params_small, 0.2)
    n_c = assemble_operators(params_small).n_diag
    # Product states 0 and 1 are (0, 0, 0) and (0, 0, 1): same coupler
    # occupation, so a complex element between them survives the gauge.
    assert n_c[0] == n_c[1]
    h = op.matrix.copy()
    h[0, 1] += 1e-3j
    h[1, 0] -= 1e-3j
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    with pytest.raises(ConstructionError, match="coupler gauge"):
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
