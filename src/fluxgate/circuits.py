"""Single-circuit eigenproblems for fluxonium and tunable-transmon circuits.

All energies are in GHz (h = 1), phases in radians, and fluxes in units of
the flux quantum. Charge operators are dimensionless Cooper-pair numbers.

The fluxonium Hamiltonian is

    H = 4 E_C n^2 + (E_L / 2)(phi - pi)^2 - E_J cos(phi)

at half a flux quantum, the sweet spot where every device of the
package operates, and is diagonalized in the harmonic-oscillator basis
of its linearized (E_C, E_L) circuit, displaced to the inductive
minimum. The tunable transmon is handled both exactly in the charge
basis and through its anharmonic-oscillator approximation, whose
frequency

    omega_c(Phi) = sqrt(8 E_C E_J(Phi)) - E_C,    E_J(Phi) = E_J_max cos(pi Phi)

is the quantity modulated by a flux drive.

Every eigenproblem here, the tridiagonal ones included, is solved dense
with ``numpy.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import one_blas_thread
from .errors import ConvergenceError, CutoffError, DomainError

DEFAULT_FLUXONIUM_BASIS = 120
MAX_FLUXONIUM_BASIS = 1920
FLUXONIUM_ENERGY_TOL = 1e-6
CHARGE_CUTOFF = 60
EDGE_WEIGHT_TOL = 1e-8


@dataclass(frozen=True)
class FluxoniumParams:
    """Fluxonium circuit energies (GHz), biased at half a flux quantum."""

    e_c: float
    e_l: float
    e_j: float

    def __post_init__(self):
        if self.e_c <= 0 or self.e_l <= 0 or self.e_j <= 0:
            raise ValueError("fluxonium energies e_c, e_l, e_j must be positive")


@dataclass(frozen=True)
class TransmonParams:
    """Flux-tunable transmon: charging energy and maximal junction
    energy; every operation takes its flux as an argument."""

    e_c: float
    e_j_max: float

    def __post_init__(self):
        if self.e_c <= 0 or self.e_j_max <= 0:
            raise ValueError("transmon energies e_c, e_j_max must be positive")

    def effective_ej(self, flux):
        """Flux-tuned Josephson energy E_J_max * cos(pi * flux), elementwise.

        The one check of the transmon's domain: raises DomainError where
        the energy is not positive.
        """
        ej = self.e_j_max * np.cos(np.pi * flux)
        if (ej <= 0).any():
            raise DomainError("coupler flux leaves the positive-E_J domain")
        return ej


@dataclass(frozen=True)
class SpectralData:
    """Retained eigenlevels of one circuit.

    ``energies`` are transition frequencies relative to the ground state,
    strictly ascending. ``n_elements`` is the charge operator in the
    eigenbasis, Hermitian, with eigenvector phases fixed so the largest
    component of each eigenvector is real positive.
    """

    energies: np.ndarray
    n_elements: np.ndarray
    basis_size: int

    def transition(self, i: int, j: int) -> float:
        """Frequency of |i> -> |j> in GHz."""
        return float(self.energies[j] - self.energies[i])


def _tridiagonal(diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix with the given diagonal and off-diagonal."""
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def _fix_eigenvector_signs(vecs: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _fluxonium_once(params: FluxoniumParams, basis_size: int, n_levels: int):
    omega0 = np.sqrt(8.0 * params.e_c * params.e_l)
    phi_zpf = (2.0 * params.e_c / params.e_l) ** 0.25
    n_zpf = 0.5 / phi_zpf

    k = np.arange(basis_size)
    sq = np.sqrt(k[1:])

    # cos(phi) through the eigendecomposition of the tridiagonal phase operator
    # phi = pi + phi_zpf (b + b^dag)
    phi_op = _tridiagonal(np.full(basis_size, np.pi), phi_zpf * sq)
    x_vals, x_vecs = np.linalg.eigh(phi_op)
    cos_phi = (x_vecs * np.cos(x_vals)) @ x_vecs.T

    h = np.diag(omega0 * k) - params.e_j * cos_phi
    evals, evecs = np.linalg.eigh(h)
    evecs = _fix_eigenvector_signs(evecs)

    n_op = np.zeros((basis_size, basis_size), dtype=complex)
    n_op[k[1:], k[:-1]] = 1j * n_zpf * sq
    n_op[k[:-1], k[1:]] = -1j * n_zpf * sq

    keep = evecs[:, :n_levels]
    n_el = keep.conj().T @ n_op @ keep
    return evals[:n_levels] - evals[0], n_el


@one_blas_thread
def diagonalize_fluxonium(
    params: FluxoniumParams,
    basis_size: int = DEFAULT_FLUXONIUM_BASIS,
    n_levels: int = 6,
) -> SpectralData:
    """Diagonalize a fluxonium in the displaced harmonic basis.

    The basis is grown (doubling from ``basis_size``) until the retained
    energies move by less than 1e-6 GHz under a further doubling, so the
    returned levels carry that convergence guarantee.

    Raises:
        ConvergenceError: if the bound is not met at the maximum basis size.
    """
    if basis_size < 4 * n_levels:
        raise ValueError("basis_size must be at least 4 * n_levels")

    size = basis_size
    energies, n_el = _fluxonium_once(params, size, n_levels)
    while True:
        energies2, n_el2 = _fluxonium_once(params, 2 * size, n_levels)
        delta = float(np.max(np.abs(energies2 - energies)))
        if delta < FLUXONIUM_ENERGY_TOL:
            return SpectralData(energies, n_el, size)
        size *= 2
        energies, n_el = energies2, n_el2
        if 2 * size > MAX_FLUXONIUM_BASIS:
            raise ConvergenceError(
                f"fluxonium energies not converged at basis {size}"
                f" (last delta {delta:.3e} GHz)",
                last_delta=delta,
            )


@one_blas_thread
def diagonalize_transmon_charge(
    params: TransmonParams, flux: float, n_levels: int = 6
) -> SpectralData:
    """Exact transmon eigenproblem at ``flux`` in the charge basis
    n in [-N, N], N = CHARGE_CUTOFF.

    cos(phi) couples neighboring charge states with amplitude -E_J(Phi)/2.
    Raises CutoffError when the highest retained level puts more than
    1e-8 weight on the edge charge states.
    """
    ej = params.effective_ej(flux)

    n = np.arange(-CHARGE_CUTOFF, CHARGE_CUTOFF + 1)
    evals, evecs = np.linalg.eigh(_tridiagonal(4.0 * params.e_c * n.astype(float) ** 2,
                                               np.full(2 * CHARGE_CUTOFF, -ej / 2.0)))
    evecs = _fix_eigenvector_signs(evecs)

    top = evecs[:, n_levels - 1]
    edge_weight = float(top[0] ** 2 + top[-1] ** 2)
    if edge_weight > EDGE_WEIGHT_TOL:
        raise CutoffError(
            f"charge cutoff {CHARGE_CUTOFF} too small: edge weight "
            f"{edge_weight:.3e} on level {n_levels - 1}"
        )

    keep = evecs[:, :n_levels]
    n_el = (keep * n[:, None]).T @ keep
    return SpectralData(
        evals[:n_levels] - evals[0],
        n_el.astype(complex),
        2 * CHARGE_CUTOFF + 1,
    )


def oscillator_coefficients(
    params: TransmonParams, flux_bias, flux_full
) -> tuple[np.ndarray, np.ndarray]:
    """Oscillator reduction of the coupler: the pair (c1, c2) of
    H = A + c1 diag(N) + c2 B, vectorized over equally shaped bias and
    full flux arrays.

    c1 = omega_c(Phi_b) + [E_J(Phi) - E_J(Phi_b)] phi_zpf^2(Phi_b), with
    omega_c = sqrt(8 E_C E_J) - E_C, and c2 = n_zpf(Phi_b) =
    1 / (2 phi_zpf), phi_zpf = (2 E_C / E_J)^(1/4); at Phi = Phi_b, c1 is
    the oscillator frequency. Raises DomainError where E_J is not
    positive at either flux.
    """
    ej_b = params.effective_ej(flux_bias)
    ej_f = params.effective_ej(flux_full)
    ratio = 2.0 * params.e_c / ej_b
    c1 = np.sqrt(8.0 * params.e_c * ej_b) - params.e_c + (ej_f - ej_b) * np.sqrt(ratio)
    return c1, 0.5 / ratio**0.25
