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
of the single-circuit solve, to exactly zero, so the blocks are exact.
It lists the sectors in ``ModelOperators.sectors`` and keeps A, N and B
only as their sector stacks: one diagonal block per sector, zero-padded
to the widest. ``build_hamiltonian`` forms H(Phi) as such a stack, so no
element between two sectors can be written down, ``label_eigenstates``
solves each block on its own, and every propagation downstream steps
per sector with the same stacks.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .backends import one_blas_thread
from .circuits import (
    DEFAULT_FLUXONIUM_BASIS,
    FluxoniumParams,
    TransmonParams,
    diagonalize_fluxonium,
    oscillator_coefficients,
)
from .errors import ConstructionError, FluxgateError, LabelingError

AMBIGUITY_THRESHOLD = 0.5  # on overlap squared
# Largest equal-parity fluxonium charge element accepted as roundoff;
# the bundled devices have at most 2.1e-14.
PARITY_TOL = 1e-10
# Largest coupler truncation, from the dense solves: every flux point
# diagonalizes each sector block densely, ``assemble_operators`` forms
# A and B on the full product space before stacking them, and each
# coupler level adds n_flux_levels**2 states. At 64 levels and 5
# fluxonium levels (1600 states), ``assemble_operators`` plus one
# ``label_eigenstates`` took 0.50 s and a 78 MiB peak of arrays (112 MiB
# process RSS), against 0.04 s and 3 MiB at the default 6 levels, which
# already converge the coupler (going to 8 levels moves the Floquet seed
# by 1e-8 GHz).
MAX_COUPLER_LEVELS = 64


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
        # assemble_operators solves each fluxonium in the default basis,
        # which holds at least four states per kept level.
        if self.n_flux_levels > DEFAULT_FLUXONIUM_BASIS // 4:
            raise ValueError(
                f"n_flux_levels must be at most {DEFAULT_FLUXONIUM_BASIS // 4}, a quarter "
                f"of the {DEFAULT_FLUXONIUM_BASIS}-state fluxonium basis"
            )
        if self.n_coupler_levels < 4:
            raise ValueError("n_coupler_levels must be at least 4")
        if self.n_coupler_levels > MAX_COUPLER_LEVELS:
            raise ValueError(f"n_coupler_levels must be at most {MAX_COUPLER_LEVELS}")

    @property
    def dim(self) -> int:
        return self.n_flux_levels**2 * self.n_coupler_levels


@dataclass(frozen=True)
class CompositeOperator:
    """Real symmetric Hamiltonian as its parity-sector blocks.

    ``blocks[s]`` is the block of the sector ``ModelOperators.sectors[s]``
    in the product basis, on those rows in that order, zero-padded to the
    widest sector: a (sectors, m, m) stack like ``ModelOperators.a_fixed``.
    """

    blocks: np.ndarray
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
    without its n_zpf prefactor. The composite Hamiltonian at flux Phi
    is A + omega_c(Phi) diag(N) + n_zpf(Phi) B.
    ``sectors`` holds the ascending product-state indices of the two
    conserved-parity sectors (see the module docstring), sector p
    holding the labels of ``label_parity`` p, even first. No entry of
    A, N or B couples two sectors, so each is held as its sector stack:
    ``a_fixed[s]`` and ``b_op[s]`` are the blocks of sector s on the rows
    ``sectors[s]``, and ``n_diag[s]`` the occupations on them, all
    zero-padded to the widest sector m, as (sectors, m, m) and
    (sectors, m). Arrays are real and read-only.
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


def _cache_outcomes(fn):
    """``lru_cache`` ``fn`` over its one argument, caching the library
    error it raises as well as the value it returns: a parameter set
    whose build fails is built once, and every later call raises a copy
    of the same error. The wrapper keeps ``cache_info`` and
    ``cache_clear``."""

    @functools.lru_cache(maxsize=8)
    def outcome(params):
        try:
            return fn(params), None
        except FluxgateError as err:
            return None, err.with_traceback(None)

    @functools.wraps(fn)
    def cached(params):
        value, err = outcome(params)
        if err is not None:
            raise copy.copy(err)
        return value

    cached.cache_info = outcome.cache_info
    cached.cache_clear = outcome.cache_clear
    return cached


@_cache_outcomes
@np.errstate(over="ignore", invalid="ignore")  # reported as ConstructionError
def assemble_operators(params: CompositeParams) -> ModelOperators:
    """Build and cache the flux-independent operator pieces and the
    conserved-parity sectors.

    Raises ConstructionError if a fluxonium charge element has a nonzero
    real part: the real basis of the module docstring needs them purely
    imaginary; or if an entry of A, N or B is not finite.
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
    width = max(rows.size for rows in sectors)

    def stacked(full):
        return np.stack([np.pad(full[np.ix_(*[rows] * full.ndim)], (0, width - rows.size))
                         for rows in sectors])

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

    n_diag = np.array([kc for _, kc, _ in labels], dtype=float)
    stacks = tuple(map(stacked, (a, n_diag, b)))
    for name, arr in zip("ANB", stacks):
        if not np.isfinite(arr).all():
            raise ConstructionError(f"operator {name} has non-finite entries")

    for arr in (*stacks, *sectors):
        arr.flags.writeable = False
    return ModelOperators(*stacks, labels, sectors)


def build_hamiltonian(params: CompositeParams, flux_c: float) -> CompositeOperator:
    """Composite Hamiltonian at a fixed coupler flux, as its sector stack.

    Each block n_zpf B_s + A_s is formed first and omega_c N_s is added
    onto its diagonal in place; B's diagonal and diag(N)'s off-diagonal
    entries are exactly zero, so each entry is the sum
    A_s + omega_c diag(N_s) + n_zpf B_s would give.
    """
    ops = assemble_operators(params)
    omega_c, n_zpf = oscillator_coefficients(params.coupler, flux_c, flux_c)
    h = n_zpf * ops.b_op
    h += ops.a_fixed
    h.reshape(len(h), -1)[:, :: h.shape[1] + 1] += omega_c * ops.n_diag
    h.flags.writeable = False
    return CompositeOperator(h, params)


def greedy_match(weights: np.ndarray) -> np.ndarray:
    """One-to-one matching of the rows and columns of a square weights matrix.

    Row-column pairs are taken in descending weight, equal weights in
    ascending row-major order (a stable descending sort of the flattened
    matrix), and each row and each column is used once, so the result is
    a permutation: entry j is the row matched to column j.

    A weight that is the first largest of its row and the first largest
    of its column (the ``argmax`` of each) comes, in that order, before
    every other weight of its row and of its column, so the loop always
    matches it; a weight strictly larger than the rest of its row and
    column is one. Those pairs are taken first, and the loop runs only
    over the rows and columns left: in the bundled shift-scans, at most
    12 of a 75-state sector, and one at the median. Their row-major order
    is the full matrix's order restricted to them, so the result is the
    full loop's, ties included.
    """
    dim = len(weights)
    lines = np.arange(dim)
    best_col = weights.argmax(axis=1)
    best_row = weights.argmax(axis=0)
    row_for = np.where(best_col[best_row] == lines, best_row, -1)
    left_cols = np.flatnonzero(row_for < 0).tolist()
    if not left_cols:
        return row_for

    left_rows = np.flatnonzero(best_row[best_col] != lines).tolist()
    left = len(left_rows)
    order = np.argsort(-weights[np.ix_(left_rows, left_cols)], axis=None, kind="stable")
    row_used, col_used = set(), set()
    for flat in order.tolist():
        row, col = divmod(flat, left)
        if row in row_used or col in col_used:
            continue
        row_for[left_cols[col]] = left_rows[row]
        row_used.add(row)
        col_used.add(col)
        if len(row_used) == left:
            break
    return row_for


@one_blas_thread
def label_eigenstates(op: CompositeOperator) -> LabeledSpectrum:
    """Diagonalize and assign bare labels by greedy maximum overlap.

    Bare-dressed pairs are processed in descending overlap magnitude and
    each bare label is used exactly once (``greedy_match``), so the
    assignment is a permutation even through avoided crossings. States
    whose winning overlap squared is below 0.5 are flagged ambiguous.

    Each sector block is solved as real symmetric with
    ``numpy.linalg.eigh`` and matched on its own, and the results are
    merged in ascending energy. The returned ``states`` are real, exactly
    zero outside their sector. A nonzero imaginary part means the
    operator is not of the composite form and raises
    ``ConstructionError``; so does a stack that does not hold one block
    of the widest sector's size for each of ``ModelOperators.sectors``.

    On the bundled 150-state composite at one BLAS thread a call takes
    about 1.19 ms, of which the two 75 x 75 ``eigh`` solves take 0.99 ms
    and the matching and the merge 0.20 ms (medians over the 362
    shift-scan fluxes of the ``spectrum`` benchmark, on a shared 2-vCPU
    host).
    """
    ops = assemble_operators(op.params)
    blocks = op.blocks
    if np.iscomplexobj(blocks):
        if np.any(blocks.imag):
            raise ConstructionError(
                "composite Hamiltonian is not real "
                f"(largest imaginary part {np.max(np.abs(blocks.imag)):.3g})"
            )
        blocks = blocks.real
    if blocks.shape != ops.a_fixed.shape:
        raise ConstructionError(f"composite Hamiltonian blocks have shape {blocks.shape}, "
                                f"not the {ops.a_fixed.shape} of its parity sectors")

    solved = [np.linalg.eigh(block[: rows.size, : rows.size])
              for rows, block in zip(ops.sectors, blocks)]
    evals = np.concatenate([e for e, _ in solved])
    order = np.argsort(evals, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)

    states = np.zeros((evals.size, evals.size))
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
        labels=tuple(map(ops.labels.__getitem__, bare.tolist())),
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

