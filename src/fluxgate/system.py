"""Composite Hamiltonian of two fluxonia coupled through a tunable transmon.

The three-body model lives on the tensor product Q0 (x) C (x) Q1 of
single-circuit eigenbases, with the coupler reduced to an anharmonic
oscillator whose frequency and charge zero-point fluctuation depend on
its flux bias. The fluxonium eigenvectors are real, so each fluxonium
charge operator is purely imaginary, n_k = i m_k with m_k real
antisymmetric. The coupler charge operator is taken purely
imaginary too, n_c = i (a - a^dag). A coupling of two charges is then
minus the product of two real antisymmetric factors, and

    H(Phi) = sum_k diag(fluxonium energies)
           + omega_c(Phi) a^dag a + (alpha_c / 2) a^dag a^dag a a
           + n_zpf(Phi) [J_c0 m0 (a^dag - a) + J_c1 (a^dag - a) m1]
           - J_01 m0 m1

is real symmetric. Every matrix, dressed state and propagated block of
the package lives in this one real basis. (Taking the coupler charge as
(a + a^dag) instead gives the complex Hermitian D H D^dag, with D the
coupler gauge diag(i^n_c).)

The mirror identity. A step exp(-i 2 pi h H) of a real symmetric H is
complex symmetric, S^T = S, and so is a split step D U0 D with D
diagonal. Complex-symmetric steps taken in reverse order therefore
multiply to the transpose of the forward product,
S_1 S_2 ... S_n = (S_n ... S_2 S_1)^T. Wherever a schedule samples the
same Hamiltonians in reverse order, its propagator is a transpose
(``evolve`` and ``floquet``): the bias ramp-down of a gate is the
transposed ramp-up, U_up^T; a symmetric drive period is V^T V, with V
its first half; and a gate's time-symmetric drive window is
G^T M^n G, with G its first half up to the whole periods M^n.

``label_eigenstates`` solves H with ``numpy.linalg.eigh`` (LAPACK's
divide-and-conquer ``syevd``), so the dressed states are real.

The flux-independent pieces (fluxonium diagonals, Kerr term, the bare
coupling matrices) are assembled once per parameter set and cached, so
flux sweeps and time stepping only rescale two scalar coefficients:

    H(Phi) = A + omega_c(Phi) N + n_zpf(Phi) B

Both fluxonia sit at half a flux quantum, where each fluxonium
potential is even about its minimum, level k has parity (-1)^k and the
odd charge operator couples only levels of opposite parity. Every term
of H, the modulated N included, then conserves the total parity
Pi = (-1)^(k0 + kc + k1) (``label_parity``), and H is block diagonal in
its two sectors (75 states each at the default 5 x 6 x 5 truncation).
``assemble_operators`` sets the equal-parity charge elements, roundoff
of the single-circuit solve, to exactly zero, so the blocks are exact,
and lists the sectors in ``ModelOperators.sectors``; ``label_eigenstates``
solves each sector on its own, and every propagation downstream steps
per sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backends import one_blas_thread
from .circuits import (
    FluxoniumParams,
    TransmonParams,
    diagonalize_fluxonium,
    oscillator_coefficients,
)
from .errors import ConstructionError, LabelingError

AMBIGUITY_THRESHOLD = 0.5  # on overlap squared
# Largest equal-parity fluxonium charge element accepted as roundoff;
# the bundled devices have at most 2.1e-14.
PARITY_TOL = 1e-10


@dataclass(frozen=True)
class CompositeParams:
    """Parameters of the full two-qubit device.

    Couplings j_c0, j_c1, j_01 are in GHz. Truncation keeps
    ``n_flux_levels`` per fluxonium and ``n_coupler_levels`` oscillator
    states; defaults cover every state appearing in the transition
    taxonomy.
    """

    q0: FluxoniumParams
    q1: FluxoniumParams
    coupler: TransmonParams
    j_c0: float
    j_c1: float
    j_01: float
    n_flux_levels: int = 5
    n_coupler_levels: int = 6

    def __post_init__(self):
        if self.n_flux_levels < 5:
            raise ValueError("n_flux_levels must be at least 5")
        if self.n_coupler_levels < 4:
            raise ValueError("n_coupler_levels must be at least 4")

    @property
    def dim(self) -> int:
        return self.n_flux_levels**2 * self.n_coupler_levels


@dataclass(frozen=True)
class CompositeOperator:
    """Dense real symmetric Hamiltonian in the product basis."""

    matrix: np.ndarray
    params: CompositeParams


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed spectrum with bare-state labels.

    ``energies`` ascend and are referenced to the dressed ground state
    by the caller's convention (raw eigenvalues here). ``labels[i]`` is
    the bare triple (q0, coupler, q1) assigned to dressed state i,
    ``overlaps[i]`` the magnitude of the winning component, and
    ``ambiguous[i]`` is set when that magnitude squared falls below 0.5.
    ``states`` holds the real dressed states as columns in the product
    basis. ``sectors[s]`` lists, ascending, the dressed states of the
    parity sector ``ModelOperators.sectors[s]``; each of their
    ``states`` columns is exactly zero outside the rows of that sector.
    """

    energies: np.ndarray
    labels: tuple[tuple[int, int, int], ...]
    overlaps: np.ndarray
    ambiguous: np.ndarray
    states: np.ndarray
    sectors: tuple[np.ndarray, ...]

    def energy_of(self, label: tuple[int, int, int]) -> float:
        """Dressed energy of the state carrying ``label``; raises
        LabelingError as ``unambiguous`` does."""
        return float(self.energies[self.unambiguous([label])[0]])

    def index_of(self, label: tuple[int, int, int]) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelingError(f"label {label} not present in spectrum") from None

    def unambiguous(self, labels) -> list[int]:
        """Indices of the dressed states carrying ``labels``, the one
        ambiguity guard of every caller.

        Raises LabelingError if a label is missing, or if any was flagged
        ambiguous, listing all the flagged ones.
        """
        idx = [self.index_of(lab) for lab in labels]
        flagged = tuple(lab for lab, i in zip(labels, idx) if self.ambiguous[i])
        if flagged:
            raise LabelingError(
                f"dressed states {', '.join(map(str, flagged))} are ambiguously labeled",
                flagged=flagged,
            )
        return idx


@dataclass(frozen=True)
class ModelOperators:
    """Flux-independent building blocks of the composite Hamiltonian.

    ``a_fixed`` collects fluxonium diagonals, the coupler Kerr term, and
    the direct J_01 coupling. ``n_diag`` is the coupler occupation per
    product state and ``b_op`` the coupler-mediated coupling matrix
    without its n_zpf prefactor. Arrays are real and read-only; the
    composite Hamiltonian at flux Phi is A + omega_c(Phi) diag(N) +
    n_zpf(Phi) B.
    ``sectors`` holds the ascending product-state indices of the two
    conserved-parity sectors (see the module docstring), sector p
    holding the labels of ``label_parity`` p, even first. No entry of
    A, N or B couples two sectors.
    """

    a_fixed: np.ndarray
    n_diag: np.ndarray
    b_op: np.ndarray
    labels: tuple[tuple[int, int, int], ...]
    sectors: tuple[np.ndarray, ...]


def _embed(op0: np.ndarray, opc: np.ndarray, op1: np.ndarray) -> np.ndarray:
    return np.kron(op0, np.kron(opc, op1))


def label_parity(label) -> int:
    """Total parity of a bare label (q0, coupler, q1), 0 even and 1 odd:
    the index of its sector in ``ModelOperators.sectors``."""
    return sum(label) % 2


def _parity_selected(n_elements: np.ndarray, name: str) -> np.ndarray:
    """Fluxonium charge elements with the equal-parity ones, zero by
    symmetry, set to exactly zero.

    Raises ConstructionError if one of them is above roundoff, which
    means the levels do not alternate in parity.
    """
    k = np.arange(n_elements.shape[0])
    same = (k[:, None] - k[None, :]) % 2 == 0
    worst = float(np.max(np.abs(n_elements[same])))
    if worst > PARITY_TOL:
        raise ConstructionError(
            f"{name} charge element between equal-parity levels is {worst:.3g}"
        )
    out = n_elements.copy()
    out[same] = 0.0
    return out


@lru_cache(maxsize=8)
def assemble_operators(params: CompositeParams) -> ModelOperators:
    """Build and cache the flux-independent operator pieces and the
    conserved-parity sectors.

    Raises ConstructionError if a fluxonium charge element has a nonzero
    real part: the real basis of the module docstring needs them purely
    imaginary.
    """
    nf, nc = params.n_flux_levels, params.n_coupler_levels
    q0 = diagonalize_fluxonium(params.q0, n_levels=nf)
    q1 = diagonalize_fluxonium(params.q1, n_levels=nf)
    if q0.n_elements.shape != (nf, nf) or q1.n_elements.shape != (nf, nf):
        raise ConstructionError(
            f"fluxonium operator dimensions {q0.n_elements.shape}, "
            f"{q1.n_elements.shape} do not match truncation {nf}"
        )
    worst = max(float(np.max(np.abs(q.n_elements.real))) for q in (q0, q1))
    if worst:
        raise ConstructionError(
            f"fluxonium charge element has a real part {worst:.3g}; it must be purely imaginary"
        )

    labels = tuple(
        (int(i), int(j), int(l))
        for i in range(nf)
        for j in range(nc)
        for l in range(nf)
    )
    m0 = _parity_selected(q0.n_elements.imag, "q0")
    m1 = _parity_selected(q1.n_elements.imag, "q1")
    parity = np.array([label_parity(lab) for lab in labels])
    sectors = (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))

    eye_f = np.eye(nf)
    eye_c = np.eye(nc)
    k = np.arange(nc, dtype=float)
    kerr = 0.5 * (-params.coupler.e_c) * k * (k - 1.0)
    raise_c = np.diag(np.sqrt(k[1:]), -1)
    y_c = raise_c - raise_c.T  # a^dag - a

    a = _embed(np.diag(q0.energies), eye_c, eye_f)
    a += _embed(eye_f, eye_c, np.diag(q1.energies))
    a += _embed(eye_f, np.diag(kerr), eye_f)
    a -= params.j_01 * _embed(m0, eye_c, m1)

    b = params.j_c0 * _embed(m0, y_c, eye_f)
    b += params.j_c1 * _embed(eye_f, y_c, m1)

    n_diag = _embed(eye_f, np.diag(k), eye_f).diagonal().copy()

    for arr in (a, b, n_diag, *sectors):
        arr.flags.writeable = False
    return ModelOperators(a, n_diag, b, labels, sectors)


def build_hamiltonian(params: CompositeParams, flux_c: float) -> CompositeOperator:
    """Composite Hamiltonian at a fixed coupler flux."""
    ops = assemble_operators(params)
    omega_c, n_zpf = oscillator_coefficients(params.coupler, flux_c, flux_c)
    h = ops.a_fixed + omega_c * np.diag(ops.n_diag) + n_zpf * ops.b_op
    h.flags.writeable = False
    return CompositeOperator(h, params)


def cross_sector_max(matrix: np.ndarray, sectors) -> float:
    """Largest magnitude of an entry of ``matrix`` between two different
    sectors (index arrays of its rows and columns)."""
    worst = 0.0
    for s, rows in enumerate(sectors):
        for cols in sectors[s + 1:]:
            for block in (np.ix_(rows, cols), np.ix_(cols, rows)):
                worst = max(worst, float(np.max(np.abs(matrix[block]))))
    return worst


def greedy_match(weights: np.ndarray) -> np.ndarray:
    """One-to-one matching of the rows and columns of a square weights matrix.

    Row-column pairs are taken in descending weight, in the order of a
    descending ``np.argsort`` of the flattened matrix, and each row and
    each column is used once, so the result is a permutation: entry j is
    the row matched to column j.
    """
    dim = len(weights)
    order = np.argsort(weights, axis=None)[::-1]
    row_for = np.full(dim, -1)
    row_used = np.zeros(dim, dtype=bool)
    col_done = np.zeros(dim, dtype=bool)
    assigned = 0
    for flat in order:
        row, col = divmod(int(flat), dim)
        if row_used[row] or col_done[col]:
            continue
        row_for[col] = row
        row_used[row] = True
        col_done[col] = True
        assigned += 1
        if assigned == dim:
            break
    return row_for


@one_blas_thread
def label_eigenstates(op: CompositeOperator) -> LabeledSpectrum:
    """Diagonalize and assign bare labels by greedy maximum overlap.

    Bare-dressed pairs are processed in descending overlap magnitude and
    each bare label is used exactly once (``greedy_match``), so the
    assignment is a permutation even through avoided crossings. States
    whose winning overlap squared is below 0.5 are flagged ambiguous.

    The matrix is solved as real symmetric with ``numpy.linalg.eigh``. A
    nonzero imaginary part means the operator is not of the composite
    form and raises ``ConstructionError``; so does any nonzero element
    between two parity sectors. Each sector is then solved and matched
    on its own, and the results are merged in ascending energy. The
    returned ``states`` are real, exactly zero outside their sector.
    """
    ops = assemble_operators(op.params)
    imag = np.imag(op.matrix)
    if np.any(imag):
        raise ConstructionError(
            "composite Hamiltonian is not real "
            f"(largest imaginary part {np.max(np.abs(imag)):.3g})"
        )
    real = np.real(op.matrix)
    cross = cross_sector_max(real, ops.sectors)
    if cross:
        raise ConstructionError(
            f"composite Hamiltonian couples parity sectors (largest element {cross:.3g})"
        )

    solved = [np.linalg.eigh(real[np.ix_(rows, rows)]) for rows in ops.sectors]
    evals = np.concatenate([e for e, _ in solved])
    order = np.argsort(evals, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)

    states = np.zeros(real.shape)
    bare = np.empty(evals.size, dtype=int)
    overlap = np.empty(evals.size)
    members = []
    start = 0
    for rows, (_, vecs) in zip(ops.sectors, solved):
        cols = position[start:start + rows.size]
        match = greedy_match(vecs**2)
        states[np.ix_(rows, cols)] = vecs
        bare[cols] = rows[match]
        overlap[cols] = np.abs(vecs[match, np.arange(rows.size)])
        members.append(cols)
        start += rows.size
    return LabeledSpectrum(
        energies=evals[order],
        labels=tuple(ops.labels[b] for b in bare),
        overlaps=overlap,
        ambiguous=overlap**2 < AMBIGUITY_THRESHOLD,
        states=states,
        sectors=tuple(members),
    )


def _energy_table(spec: LabeledSpectrum, needed) -> dict:
    return {lab: float(spec.energies[i]) for lab, i in zip(needed, spec.unambiguous(needed))}


def state_dependent_shifts(spec: LabeledSpectrum) -> tuple[float, float]:
    """Plasmon frequency shifts conditioned on the partner qubit state.

    Returns (dw_p0, dw_p1) in GHz, where dw_p0 compares the q0 1->2
    transition with q1 in |1> versus |0> (coupler in its ground state)
    and dw_p1 the mirror quantity.
    """
    e = _energy_table(spec, [(1, 0, 0), (1, 0, 1), (2, 0, 0), (2, 0, 1),
                             (0, 0, 1), (0, 0, 2), (1, 0, 1), (1, 0, 2)])
    dw0 = abs((e[(2, 0, 1)] - e[(1, 0, 1)]) - (e[(2, 0, 0)] - e[(1, 0, 0)]))
    dw1 = abs((e[(1, 0, 2)] - e[(1, 0, 1)]) - (e[(0, 0, 2)] - e[(0, 0, 1)]))
    return dw0, dw1


def zz_coupling(spec: LabeledSpectrum) -> float:
    """Static ZZ rate zeta = E_101 - E_100 - E_001 + E_000 in GHz."""
    e = _energy_table(spec, [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)])
    return e[(1, 0, 1)] - e[(1, 0, 0)] - e[(0, 0, 1)] + e[(0, 0, 0)]

