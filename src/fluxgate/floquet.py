"""Quasienergy analysis of the periodically driven composite system.

Under a steady flux modulation Phi(t) = Phi_s + delta_Phi cos(2 pi f_p t)
the one-period propagator (monodromy matrix) M has eigenvalues
e^{-i 2 pi eps T}; the quasienergies eps, defined modulo f_p and folded
into [-f_p/2, f_p/2), govern all stroboscopic dynamics. A parametric
resonance between two dressed states appears as an avoided crossing of
their folded quasienergies as the drive frequency is swept. The
minimum splitting is the transition strength: on resonance the
population oscillates at exactly that rate, so its inverse is the
full-exchange-and-return time.

The monodromy is ``evolve._period``, the one-period propagator that a
gate's flat top also takes powers of: half the period V is stepped and
M = V^T V by the mirror identity of ``system``.

The drive modulates only the coupler number, so M conserves the total
parity of ``system`` and is block diagonal in its sectors. A
``Monodromy`` holds only those diagonal blocks, as the sector stack
that ``_period`` steps and a gate's flat top takes powers of: each
sector is stepped with its own 75 x 75 steps (all stepped sectors in
one batched kernel call) and mirrored. ``monodromy`` may step only some
sectors; a stepped block is bit for bit the same whichever sectors are
stepped with it. ``quasienergies`` solves each stepped block on its own
and returns, sector by sector, its folded quasienergies and its Floquet
modes on that sector's own rows, in ascending eigenphase of the rotated
block (see below), which is not the order of the dressed states they
continue.

The Floquet modes come from a Hermitian eigensolve rather than a
complex Schur form. For unitary U the Cayley transform
C = i (I - U)(I + U)^-1 is Hermitian with the same eigenvectors, and an
eigenvalue e^{i phi} of U maps to tan(phi / 2). U = e^{i alpha} M, with
alpha chosen to put -1 in the middle of the widest gap between the
phases of the diagonal of M in the dressed basis at the static bias, so
I + U is far from singular. Each diagonal entry is an average of the
eigenvalues weighted by the overlaps of one dressed state with the
Floquet modes, and the dressed states are close to the modes except
within a driven pair, so these phases track the eigenphases closely.
The bare-basis diagonal does not: at delta_Phi = 0.109 on set500 it put
-1 within 3e-8 of an eigenvalue. One linear solve and one ``eigh`` give
the modes Z, and the eigenvalues are the Rayleigh quotients z^dag M z.
Both go through ``numpy.linalg`` (its ``eigh`` is LAPACK's
divide-and-conquer ``heevd``). The computed C is Hermitian only to
about the unitarity defect of M times ||C||^2, so ``eigh`` is given its
Hermitian part, not one triangle. Over 60 set500 monodromies (flux
0-0.4, delta_Phi 0-0.13, f_p 2-11.5 GHz) -1 stayed at least 0.012 from
every rotated eigenvalue and the residual max |M Z - Z Lambda| at most
2e-13. That residual and the modulus defect max ||lambda| - 1| are
checked against the unitarity limit, so an alpha that lands next to an
eigenvalue raises instead of returning inaccurate modes.

Transition extraction walks f_p over a grid across a window, tracks
the driven pair by projecting Floquet modes onto the two target dressed
states, then refines the crossing with a local rescan and a parabolic
fit of the squared gap, which is quadratic in detuning near a two-level
avoided crossing. The walk starts at the grid point nearest the pair's
dressed splitting, where a weak drive's resonance sits, steps the
current point's two neighbours and moves to the lower, until it stands
on a local minimum: the seed's probe steps 3 of its 25 points, not all.
A walk that ends on the window's edge steps the whole grid and takes its
argmin, so a scan that finds no interior minimum reports what a full
scan does. Where the gap has more than one interior minimum on the grid,
the walk keeps the one downhill of the splitting, which need not be the
lowest. The rescan's argmin is taken over all its points. Each drive
frequency is stepped once per call: the rescan's ends and middle are
the walk's last three points, whose gaps it looks up. Modes of a
sector that holds neither state of the pair have no overlap with it, so
every scan point steps and solves only the sector that holds the pair,
the even one for |101> <-> |202>, and projects the pair on that
sector's rows. A pair of opposite parities is refused: the drive
conserves parity, so its two modes cross without a gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import one_blas_thread
from .errors import DomainError, IntegrationError

# Nothing here calls _flat_step: it stays imported because the binding
# check of bench/tests/test_tracer.py expects a traced floquet._flat_step.
from .evolve import DEFAULT_DT, _check_drive_resolved, _flat_step, _period, dressed_frame
from .system import CompositeParams, assemble_operators, label_parity

UNITARITY_LIMIT = 1e-10
REFINE_POINTS = 9

Label = tuple[int, int, int]


@dataclass(frozen=True)
class Monodromy:
    """One-period propagator of the driven system, as its diagonal
    blocks in the parity sectors.

    ``sectors`` lists the indices into ``ModelOperators.sectors`` of the
    stepped parity sectors. ``blocks`` has shape (len(sectors), m, m),
    m the widest sector: block k is M on the rows of sector
    ``sectors[k]`` in its leading corner, padded with the identity.
    ``blocks`` is the cached, read-only stack of ``evolve._period``, the
    one a gate's or a snapshot's flat top powers.
    """

    blocks: np.ndarray
    params: CompositeParams
    flux_s: float
    drive_freq: float
    defect: float
    sectors: tuple[int, ...]


@dataclass(frozen=True)
class FloquetSpectrum:
    """Folded quasienergies and Floquet modes, one entry per stepped
    sector in ``Monodromy.sectors`` order.

    ``quasienergies[k]`` lie in [-f_p/2, f_p/2) GHz. ``states[k]`` holds
    the modes as columns on the rows of sector ``Monodromy.sectors[k]``
    (``ModelOperators.sectors``), in ascending eigenphase of that
    sector's rotated monodromy, the order of the quasienergies.
    """

    quasienergies: tuple[np.ndarray, ...]
    states: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class TransitionResult:
    """Resonance location and strength of one parametric transition.

    ``strength`` is the minimum quasienergy splitting of the tracked
    pair; its inverse is the full population-exchange period on
    resonance. ``gaps`` is the pair's splitting at each evaluated drive
    frequency ``scan_freqs``, ascending; when no interior gap minimum
    exists in the scanned window, ``found`` is False, ``omega_res`` and
    ``strength`` are NaN, and the gap curve shows why.
    """

    found: bool
    omega_res: float
    strength: float
    scan_freqs: np.ndarray
    gaps: np.ndarray


@one_blas_thread
def monodromy(
    params: CompositeParams,
    flux_s: float,
    drive_amp: float,
    drive_freq: float,
    dt: float = DEFAULT_DT,
    sectors: tuple[int, ...] | None = None,
) -> Monodromy:
    """Propagator over one drive period of the steady (unenveloped) drive.

    The blocks are ``evolve._period``'s: half the period is stepped and
    mirrored, with the steps and midpoint drive samples of every
    gate-schedule interval (``evolve._step_samples``).
    Every parity sector named in ``sectors`` (indices into
    ``ModelOperators.sectors``; None steps all) is stepped with its own
    steps, all in one kernel call, and ``_period``'s stack of their
    blocks is the result's ``blocks``. A stepped block is the same bit
    for bit whichever other sectors are stepped with it. Raises
    IntegrationError if the unitarity defect of the stepped blocks
    exceeds 1e-10 or is nan.
    """
    if drive_freq <= 0:
        raise ValueError("drive_freq must be positive")
    _check_drive_resolved(dt, drive_freq)
    ops = assemble_operators(params)
    valid = range(len(ops.sectors))
    stepped = list(valid if sectors is None else sectors)
    if not stepped or len(set(stepped)) < len(stepped) or not set(stepped) <= set(valid):
        raise ValueError(f"sectors must name distinct sectors of 0..{len(ops.sectors) - 1}")
    blocks = _period(params, flux_s, drive_amp, drive_freq, dt, tuple(stepped))

    eye = np.eye(blocks.shape[1])
    defect = float(np.linalg.norm(blocks.conj().transpose(0, 2, 1) @ blocks - eye))
    if not defect <= UNITARITY_LIMIT:
        raise IntegrationError(
            f"monodromy unitarity defect {defect:.3e} exceeds {UNITARITY_LIMIT:g}"
        )
    return Monodromy(blocks, params, flux_s, drive_freq, defect, tuple(stepped))


def fold(eps, drive_freq: float):
    """Fold quasienergies into the first zone [-f_p/2, f_p/2)."""
    return np.mod(np.asarray(eps) + 0.5 * drive_freq, drive_freq) - 0.5 * drive_freq


def _sector_modes(m: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of one sector block ``m``
    of a monodromy, through the Hermitian Cayley transform (see
    ``quasienergies``); ``q`` holds the sector's dressed states."""
    dressed_diag = np.einsum("ij,ij->j", q.conj(), m @ q)
    phases = np.sort(np.angle(dressed_diag))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    u = np.exp(1j * (np.pi - phases[widest] - 0.5 * gaps[widest])) * m
    eye = np.eye(m.shape[0])
    c = 1j * np.linalg.solve(eye + u, eye - u)
    # Only the eigenvectors of the Hermitian part are used, so its scale
    # does not matter.
    _, z = np.linalg.eigh(c + c.conj().T)
    mz = m @ z
    lam = np.einsum("ij,ij->j", z.conj(), mz)
    residual = float(np.max(np.abs(mz - z * lam)))
    modulus = float(np.max(np.abs(np.abs(lam) - 1.0)))
    if not (residual <= UNITARITY_LIMIT and modulus <= UNITARITY_LIMIT):
        raise IntegrationError(
            f"Floquet eigensolve residual {residual:.3e}, eigenvalue modulus "
            f"defect {modulus:.3e}: exceeds {UNITARITY_LIMIT:g}"
        )
    return lam, z


@one_blas_thread
def quasienergies(mono: Monodromy) -> FloquetSpectrum:
    """Folded quasienergies and Floquet modes of a monodromy.

    The Floquet modes are the eigenvectors of the Hermitian Cayley
    transform C = i (I - U)(I + U)^-1 of U = e^{i alpha} M, taken with
    ``numpy.linalg.eigh`` after a ``numpy.linalg.solve``; alpha puts -1
    in the widest gap of the phases of the diagonal of M in the dressed
    basis, which keeps I + U well conditioned. The eigenvalues are the
    Rayleigh quotients z^dag M z. Raises IntegrationError if
    max |M Z - Z Lambda| or max ||lambda| - 1| exceeds 1e-10 or is nan;
    the first is how an alpha that lands next to an eigenvalue of M shows.

    Each stepped block (``Monodromy.blocks``, without its identity
    pad) is solved on its own, with its own alpha taken from its own
    sector's dressed states, and gives that sector's entry of the
    result: its modes on its own rows, in ascending eigenphase of the
    rotated block, with their quasienergies.
    """
    frame = dressed_frame(mono.params, mono.flux_s)
    sectors = assemble_operators(mono.params).sectors
    period = 1.0 / mono.drive_freq
    eps, modes = [], []
    for s, block in zip(mono.sectors, mono.blocks):
        rows = sectors[s]
        q = frame.states[np.ix_(rows, frame.sectors[s])]
        lam, z = _sector_modes(block[: rows.size, : rows.size], q)
        eps.append(fold(-np.angle(lam) / (2.0 * np.pi * period), mono.drive_freq))
        modes.append(z)
    return FloquetSpectrum(quasienergies=tuple(eps), states=tuple(modes))


def _pair_gap(
    params: CompositeParams,
    flux_s: float,
    drive_amp: float,
    drive_freq: float,
    pair_vecs: np.ndarray,
    dt: float,
    sector: int,
) -> float:
    """Circular quasienergy gap of the two Floquet modes of the parity
    ``sector`` that project most onto the tracked pair, whose dressed
    vectors ``pair_vecs`` are given on that sector's rows."""
    spec = quasienergies(monodromy(params, flux_s, drive_amp, drive_freq, dt, sectors=(sector,)))
    total = (np.abs(pair_vecs.conj().T @ spec.states[0]) ** 2).sum(axis=0)
    e1, e2 = spec.quasienergies[0][np.argsort(total)[-2:]]
    d = abs(e1 - e2) % drive_freq
    return float(min(d, drive_freq - d))


@one_blas_thread
def extract_transition(
    params: CompositeParams,
    flux_s: float,
    drive_amp: float,
    pair: tuple[Label, Label],
    omega_window: tuple[float, float],
    resolution: int = 21,
    dt: float = DEFAULT_DT,
) -> TransitionResult:
    """Locate a parametric resonance between two dressed states.

    Walks the drive frequency over ``resolution`` points spanning
    ``omega_window``, tracking the two Floquet modes with the largest
    projection onto the dressed ``pair`` at each point, and returns the
    gap minimum refined by a local rescan plus a parabolic fit of gap
    squared. The walk starts at the point nearest the pair's dressed
    splitting |E(pair[1]) - E(pair[0])| and steps downhill, ties to the
    lower frequency, to the first local minimum. If that lies on the
    window's edge, every point is stepped and the grid's argmin is taken,
    as a full scan would; ``found`` is False when that too sits on the
    edge. ``found``, ``omega_res`` and ``strength`` are a full scan's
    whenever the walk's minimum is the grid's lowest, as on one avoided
    crossing; where the gaps have a lower second minimum, the walk keeps
    the one downhill of the splitting.
    The result reports the evaluated gap curve either way, each evaluated
    frequency once and in ascending order: the walked points and the
    rescan when found, the whole grid when not.

    Every scan point steps and solves only the parity sector that holds
    the pair (see the module docstring), and each evaluated frequency is
    stepped once. Raises ValueError when the two labels of the pair are
    equal, and DomainError (also a ValueError) when they lie in
    different parity sectors, neither of which has a transition, when
    the window reaches 0 GHz or below, or when ``dt`` does not resolve
    its top frequency; all of these before any point is stepped.
    """
    lo, hi = omega_window
    if not hi > lo:
        raise ValueError("omega_window must satisfy lo < hi")
    if not lo > 0:
        raise DomainError(f"omega_window {lo:g}..{hi:g} GHz reaches 0 GHz or below")
    if resolution < 5:
        raise ValueError("resolution must be at least 5")
    if pair[0] == pair[1]:
        raise ValueError(f"pair names one state twice: {pair[0]}")

    sector = label_parity(pair[0])
    if label_parity(pair[1]) != sector:
        raise DomainError(
            f"pair {pair[0]}, {pair[1]} spans both parity sectors, "
            "which the drive does not couple"
        )
    # Every point, the refine's too, lies in the window: resolving its top
    # resolves them all.
    _check_drive_resolved(dt, hi)
    frame = dressed_frame(params, flux_s)
    rows = assemble_operators(params).sectors[sector]
    pair_idx = [frame.index_of(lab) for lab in pair]
    pair_vecs = frame.states[np.ix_(rows, pair_idx)]
    gap_at: dict[float, float] = {}

    def gaps(fs):
        for f in fs:
            if f not in gap_at:
                gap_at[f] = _pair_gap(params, flux_s, drive_amp, f, pair_vecs, dt, sector)
        return np.array([gap_at[f] for f in fs])

    # Walk downhill from the grid point nearest the pair's splitting, one
    # neighbour pair at a time, to the first local minimum. The walk only
    # ever moves one way and ends on the argmin of the points it stepped.
    freqs = np.linspace(lo, hi, resolution)
    split = abs(frame.energies[pair_idx[1]] - frame.energies[pair_idx[0]])
    i_min = int(np.argmin(np.abs(freqs - split)))
    while True:
        near = np.arange(max(i_min - 1, 0), min(i_min + 2, resolution))
        i_next = int(near[np.argmin(gaps(freqs[near]))])
        if i_next == i_min:
            break
        i_min = i_next
    if i_min == 0 or i_min == resolution - 1:
        # A walk to the edge falls back on the whole grid.
        g_scan = gaps(freqs)
        i_min = int(np.argmin(g_scan))
        if i_min == 0 or i_min == resolution - 1:
            return TransitionResult(False, np.nan, np.nan, freqs, g_scan)

    # The refine grid's ends are the scan points either side of i_min and,
    # REFINE_POINTS being odd, its middle is freqs[i_min] to 1 ulp: it takes
    # those three scan points, whose gaps are known.
    f_ref = np.linspace(freqs[i_min - 1], freqs[i_min + 1], REFINE_POINTS)
    f_ref[[0, REFINE_POINTS // 2, -1]] = freqs[i_min - 1 : i_min + 2]
    g_ref = gaps(f_ref)

    j = int(np.argmin(g_ref))
    j = min(max(j, 1), REFINE_POINTS - 2)
    x = f_ref[j - 1 : j + 2]
    y = g_ref[j - 1 : j + 2] ** 2
    coef = np.polyfit(x, y, 2)
    if coef[0] > 0:
        omega_res = float(-coef[1] / (2.0 * coef[0]))
        if not (x[0] <= omega_res <= x[2]):
            omega_res = float(f_ref[j])
        y_min = float(np.polyval(coef, omega_res))
        strength = float(np.sqrt(max(y_min, 0.0)))
    else:
        omega_res = float(f_ref[j])
        strength = float(g_ref[j])

    scanned = np.array(sorted(gap_at))
    return TransitionResult(True, omega_res, strength, scanned, gaps(scanned))
