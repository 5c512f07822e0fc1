"""Time-stepping kernels.

All propagation in the package reduces to three dense linear-algebra
primitives on complex matrices, each implemented once in numpy:

  * ``step_sequence``: advance a block of state columns through a run of
    uniform midpoint-exponential steps of the Hamiltonian
    H_i = A + c1[i] diag(N) + c2[i] B, applying exp(-i 2 pi H_i dt) via a
    shifted Taylor expansion of the matrix exponential action;
  * ``strang_sequence``: the symmetric split-operator steps
    D_i U0 D_i around a fixed base step U0, with a diagonal drive phase
    D_i = exp(-i pi dt dc1[i] N);
  * ``apply_power``: repeated application of a fixed matrix (stroboscopic
    evolution through whole drive periods).

``strang_sequence`` merges the trailing half-phase of step i with the
leading half-phase of step i + 1 into one diagonal
exp(-i pi dt (dc1[i] + dc1[i+1]) N), so a call applies one lone
half-phase at each end and, per step, one diagonal multiply and one
matmul into preallocated buffers. The diagonals come in bounded chunks
from a table of exponentials over the distinct entries of N (the coupler
occupations, a handful of values), gathered onto the full diagonal.

A block of columns steps U0 in increment form, x + (U0 - I) x, so the
roundoff of each matmul scales with the small U0 - I rather than with
U0. Over the 10^4 Strang steps of a 5 ns drive flank at 0.5 ps this cuts
the roundoff a gate's columns accumulate about 25-fold: on set500's
65 ns gate, the 4 x 4 read through the mirrored drive window (see
``evolve``) and the one stepped through the whole window agree to 2e-14
instead of 5e-13. The add costs about 2 % of a step of two 75-state
pieces of two columns (2 vCPUs). A vector keeps U0 x: there the add
costs 10-15 % of its matvec, and no single-state propagation is read
through a mirror.

The Taylor order of ``step_sequence`` is chosen per step as the smallest
m with theta^(m+1)/(m+1)! < 1e-16, where theta = 2 pi dt * max-row-sum
of the spectrally shifted Hamiltonian. Steps must keep theta modest (the
order is capped at 64); callers enforce dt well below the fastest period.

``step_sequence`` takes the real A and B of ``system``, so every H_i
is real, and raises ``ConstructionError`` on a nonzero imaginary part,
as ``system.label_eigenstates`` does. Each Taylor term is then one real
product: the real H_i times the complex columns viewed as interleaved
real columns, (m, 2k) float64, half the arithmetic of a complex product.

Every Hamiltonian the package steps conserves the total parity of
``system``, so callers step each parity sector on its own, with the
sector's slices of A, N and B: ``step_sequence`` is called once per
sector, while ``strang_sequence`` also takes a stack of per-sector base
steps and advances the sector pieces of a block in one batched product
per step (on 2 vCPUs, two 75-state pieces of two columns take 24 us a
step, against 30 us in two separate calls and 33 us as one 150-state
block), and ``apply_power`` applies a stack of matrices to a stack of
blocks.

The package links only numpy's LAPACK and OpenBLAS, so a process runs
one OpenBLAS thread pool, whose live count ``blas_threads`` reads and
``set_blas_threads`` sets.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import ConstructionError

TAYLOR_TOL = 1e-16
MAX_TAYLOR_ORDER = 64
# Size of one chunk of gathered phase diagonals; larger chunks raised the
# peak memory of a calibration without making steps faster.
PHASE_CHUNK_BYTES = 1 << 18
# Thread-count getters and setters of the 64-bit-integer OpenBLAS builds
# numpy wheels ship (numpy 2 and numpy 1); scipy's own OpenBLAS exports
# none of them.
BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.cache
def _openblas():
    """Thread-count getter and setter of numpy's OpenBLAS, or None if it
    is not found.

    The library is located through /proc/self/maps and opened with ctypes.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not a loadable path, e.g. a "(deleted)" mapping
            continue
        for get, put in BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                getter, setter = getattr(lib, get), getattr(lib, put)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> int | None:
    """Live thread count of numpy's OpenBLAS, or None if it is not found."""
    found = _openblas()
    return None if found is None else int(found[0]())


def set_blas_threads(count: int) -> int | None:
    """Set numpy's OpenBLAS to ``count`` threads; returns the count it
    replaced, or None, changing nothing, if the library is not found."""
    previous = blas_threads()
    if previous is not None:
        _openblas()[1](count)
    return previous


def _check_block(block, d: int) -> None:
    if block.ndim != 2 or block.shape[0] != d:
        raise ValueError("block must be a 2-d column stack matching the operator")


def step_sequence(a, n_diag, b, c1, c2, dt: float, block) -> np.ndarray:
    """Advance ``block`` (d x k columns) through len(c1) uniform steps.

    Step i applies exp(-i 2 pi dt H_i) with
    H_i = a + c1[i] diag(n_diag) + c2[i] b evaluated at the step
    midpoint by the caller; ``a`` and ``b`` must be real (see the module
    docstring), or ConstructionError is raised. Returns a fresh array.
    """
    worst = max(float(np.max(np.abs(np.imag(m)))) for m in (a, b))
    if worst:
        raise ConstructionError(
            f"step Hamiltonian is not real (largest imaginary part {worst:.3g})"
        )
    a = np.ascontiguousarray(np.real(a), dtype=np.float64)
    n_diag = np.ascontiguousarray(n_diag, dtype=np.float64)
    b = np.ascontiguousarray(np.real(b), dtype=np.float64)
    c1 = np.ascontiguousarray(c1, dtype=np.float64)
    c2 = np.ascontiguousarray(c2, dtype=np.float64)
    out = np.array(block, dtype=np.complex128, order="C")
    if c1.shape != c2.shape:
        raise ValueError("coefficient arrays c1, c2 must have equal length")
    _check_block(out, a.shape[0])
    idx = np.arange(a.shape[0])
    w = -2j * np.pi * float(dt)
    for i in range(c1.shape[0]):
        h = a + c2[i] * b
        h[idx, idx] += c1[i] * n_diag
        diag = h[idx, idx]
        mu = 0.5 * (diag.max() + diag.min())
        h[idx, idx] -= mu
        theta = abs(w) * np.abs(h).sum(axis=1).max()
        m = 0
        val = theta
        while val >= TAYLOR_TOL and m < MAX_TAYLOR_ORDER:
            m += 1
            val *= theta / (m + 1)
        term = out
        acc = out.copy()
        for j in range(1, m + 1):
            # Real H on the interleaved real and imaginary parts of the columns.
            term = (w / j) * (h @ term.view(np.float64)).view(np.complex128)
            acc += term
        out = np.exp(w * mu) * acc
    return out


def apply_power(m, n: int, block) -> np.ndarray:
    """Apply matrix ``m`` to ``block`` ``n`` times (n >= 0).

    A stack of matrices (S, d, d) applies to a stack of blocks (S, d, k),
    matrix s to block s.
    """
    if n < 0:
        raise ValueError("power must be non-negative")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    out = np.array(block, dtype=np.complex128)
    for _ in range(int(n)):
        out = m @ out
    return out


def strang_sequence(u0, n_diag, dc1, dt: float, block) -> np.ndarray:
    """Advance ``block`` through len(dc1) split-operator steps.

    Step i applies exp(-i pi dt dc1[i] N) U0 exp(-i pi dt dc1[i] N),
    the symmetric splitting of exp(-i 2 pi dt (H0 + dc1[i] N)) for a
    diagonal perturbation N on a fixed base step U0 = exp(-i 2 pi dt H0).
    Each factor is unitary, so products of any length stay unitary to
    roundoff; the splitting error is second order in dt like the
    midpoint kernel. ``dc1`` must hold midpoint values. Returns a fresh
    array.

    ``u0`` may also be a stack of S independent base steps (S, m, m),
    one per parity sector, with ``n_diag`` of shape (S, m); ``block`` is
    then (m, S k), the S sector pieces of k columns side by side, and
    piece s is stepped with U0[s]. The pieces step in one batched
    product per step; a stack of one steps as its single base step.
    """
    u0 = np.ascontiguousarray(u0, dtype=np.complex128)
    n_diag = np.ascontiguousarray(n_diag, dtype=np.float64)
    dc1 = np.ascontiguousarray(dc1, dtype=np.float64)
    block = np.ascontiguousarray(block, dtype=np.complex128)
    if u0.ndim == 3 and u0.shape[0] == 1:
        u0, n_diag = u0[0], n_diag[0]
    d = u0.shape[-1]
    _check_block(block, d)
    pieces = u0.shape[0] if u0.ndim == 3 else 1
    if n_diag.shape != u0.shape[:-1] or block.shape[1] % pieces:
        raise ValueError("n_diag and block must hold one piece per base step")
    n = dc1.shape[0]
    if n == 0:
        return block.copy()

    # Phase j in 1..n follows the j-th U0 and merges the trailing half of
    # step j-1 with the leading half of step j: exponent dc1[j-1] + dc1[j],
    # with dc1[n] = 0 for the closing half-phase. Phase 0 opens the call.
    levels, level_of = np.unique(n_diag, return_inverse=True)
    level_of = level_of.reshape(n_diag.shape)
    w = -1j * np.pi * float(dt)
    phase0 = np.exp(w * dc1[0] * levels)[level_of]
    if u0.ndim == 3:
        x = phase0[:, :, None] * block.reshape(d, pieces, -1).transpose(1, 0, 2)
    elif block.shape[1] == 1:
        # Width-1 blocks step as vectors: matvec instead of a one-column matmul.
        x = phase0 * block[:, 0]
    else:
        x = phase0[:, None] * block
    y = np.empty_like(x)
    increment = x.ndim > 1
    base = u0 - np.eye(d) if increment else u0
    chunk = max(1, PHASE_CHUNK_BYTES // (16 * n_diag.size))
    for start in range(1, n + 1, chunk):
        stop = min(start + chunk, n + 1)
        s = dc1[start - 1: stop - 1].copy()
        s[: min(stop, n) - start] += dc1[start:stop]
        phases = np.exp(w * np.multiply.outer(s, levels))[:, level_of]
        if x.ndim == phases.ndim:
            phases = phases[..., None]
        for phase in phases:
            np.matmul(base, x, out=y)
            if increment:
                y += x
            np.multiply(phase, y, out=x)
    if u0.ndim == 3:
        return x.transpose(1, 0, 2).reshape(d, -1)
    return x.reshape(d, -1)
