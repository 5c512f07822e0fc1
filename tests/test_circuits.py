"""Single-circuit spectra: frozen eigenvalue/element regressions, the
half-flux parity selection rule, and basis convergence."""

import numpy as np
import pytest

from fluxgate import (
    DomainError,
    FluxoniumParams,
    TransmonParams,
    diagonalize_fluxonium,
    diagonalize_transmon_charge,
    oscillator_coefficients,
)
from fluxgate.circuits import _fluxonium_once

# Parity-allowed ladder reported for each fluxonium.
LADDER = ((0, 1), (1, 2), (0, 3), (1, 4))
FORBIDDEN = ((0, 2), (0, 4), (2, 4), (1, 3))

FROZEN = {
    "q0": {
        "params": dict(e_c=1.41, e_l=0.80, e_j=6.27),
        "transitions": (0.298059, 5.621385, 8.347240, 12.292877),
        "elements": (0.068450, 0.561926, 0.488265, 0.214100),
    },
    "q1": {
        "params": dict(e_c=1.30, e_l=0.59, e_j=5.71),
        "transitions": (0.221987, 5.269429, 7.461225, 11.018972),
        "elements": (0.057296, 0.557292, 0.497905, 0.201734),
    },
}

COUPLER_FROZEN = {
    # e_j_max -> {flux: (w01, w12)}
    55.0: {0.0: (11.536609, 11.194401), 0.35: (7.660724, 7.305118)},
    40.0: {0.0: (9.788217, 9.441480), 0.30: (7.423280, 7.066299)},
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fluxonium_ladder_regression(name):
    spec = diagonalize_fluxonium(FluxoniumParams(**FROZEN[name]["params"]))
    for (i, j), want in zip(LADDER, FROZEN[name]["transitions"]):
        assert abs(spec.transition(i, j) - want) < 2e-6
    for (i, j), want in zip(LADDER, FROZEN[name]["elements"]):
        assert abs(abs(spec.n_elements[i, j]) - want) < 2e-6


@pytest.mark.parametrize(
    "params",
    [
        FluxoniumParams(e_c=1.41, e_l=0.80, e_j=6.27),
        FluxoniumParams(e_c=1.30, e_l=0.59, e_j=5.71),
        FluxoniumParams(e_c=1.05, e_l=0.70, e_j=4.20),
    ],
)
def test_half_flux_parity_selection(params):
    spec = diagonalize_fluxonium(params)
    for i, j in FORBIDDEN:
        assert abs(spec.n_elements[i, j]) < 1e-8
    for i, j in LADDER:
        assert abs(spec.n_elements[i, j]) > 0.05


def test_charge_elements_hermitian_phase():
    spec = diagonalize_fluxonium(FluxoniumParams(e_c=1.41, e_l=0.80, e_j=6.27))
    assert np.allclose(spec.n_elements, spec.n_elements.conj().T, atol=1e-12)
    assert np.allclose(np.diag(spec.n_elements), 0.0, atol=1e-10)


def test_fluxonium_basis_convergence():
    # The returned levels stand against the basis doubled once more.
    params = FluxoniumParams(e_c=1.41, e_l=0.80, e_j=6.27)
    a = diagonalize_fluxonium(params)
    energies, n_el = _fluxonium_once(params, 2 * a.basis_size, 6)
    for i, j in LADDER:
        assert abs(a.transition(i, j) - (energies[j] - energies[i])) < 1e-9
        assert abs(abs(a.n_elements[i, j]) - abs(n_el[i, j])) < 1e-9


@pytest.mark.parametrize("e_j_max", sorted(COUPLER_FROZEN))
def test_coupler_spectrum_regression(e_j_max):
    params = TransmonParams(e_c=0.32, e_j_max=e_j_max)
    for flux, (w01, w12) in COUPLER_FROZEN[e_j_max].items():
        spec = diagonalize_transmon_charge(params, flux=flux)
        assert abs(spec.transition(0, 1) - w01) < 2e-6
        assert abs(spec.transition(1, 2) - w12) < 2e-6


def test_coupler_charge_elements_scale():
    # |<0|n|1>| grows with E_J/E_C as (E_J/8E_C)^(1/4)/sqrt(2).
    spec = diagonalize_transmon_charge(TransmonParams(e_c=0.32, e_j_max=55.0), flux=0.35)
    n01 = abs(spec.n_elements[0, 1])
    n12 = abs(spec.n_elements[1, 2])
    assert abs(n01 - 1.223) < 0.01
    assert abs(n12 - 1.689) < 0.01
    assert abs(n12 / n01 - np.sqrt(2.0)) < 0.05


def test_oscillator_approximation_consistency():
    # omega_c = sqrt(8 E_C E_J) - E_C matches the exact 0-1 transition to
    # O(E_C sqrt(E_C / E_J)), and n_zpf = (E_J / 8 E_C)^(1/4) / sqrt(2)
    # the exact |<0|n|1>| to a relative O(sqrt(E_C / E_J)).
    params = TransmonParams(e_c=0.32, e_j_max=55.0)
    fluxes = np.array([0.0, 0.2, 0.35])
    omega_c, n_zpf = oscillator_coefficients(params, fluxes, fluxes)
    for flux, w, n in zip(fluxes, omega_c, n_zpf):
        exact = diagonalize_transmon_charge(params, flux=flux)
        small = np.sqrt(params.e_c / params.effective_ej(flux))
        assert abs(w - exact.transition(0, 1)) < 0.5 * params.e_c * small
        assert abs(n - abs(exact.n_elements[0, 1])) < 0.25 * small * n
    # The junction-energy swing enters c1 with weight phi_zpf^2 = 1 / (4 n_zpf^2).
    c1, c2 = oscillator_coefficients(params, 0.35, 0.36)
    swing = params.effective_ej(0.36) - params.effective_ej(0.35)
    assert c2 == n_zpf[2]
    assert c1 - omega_c[2] == pytest.approx(swing / (4.0 * n_zpf[2] ** 2), rel=1e-12)
    with pytest.raises(DomainError, match="positive-E_J"):
        oscillator_coefficients(params, 0.35, np.array([0.4, 0.6]))


def test_domain_rejections():
    # One E_J(Phi) > 0 check, TransmonParams.effective_ej, with one message.
    with pytest.raises(DomainError, match="positive-E_J"):
        diagonalize_transmon_charge(TransmonParams(e_c=0.32, e_j_max=55.0), flux=0.6)
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=-1.0, e_l=0.8, e_j=6.0)
