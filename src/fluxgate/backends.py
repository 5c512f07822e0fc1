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

The Taylor order of ``step_sequence`` is chosen per step as the smallest
m with theta^(m+1)/(m+1)! < 1e-16, where theta = 2 pi dt * max-row-sum
of the spectrally shifted Hamiltonian. Steps must keep theta modest (the
order is capped at 64); callers enforce dt well below the fastest period.
"""

from __future__ import annotations

import numpy as np

TAYLOR_TOL = 1e-16
MAX_TAYLOR_ORDER = 64
# Size of one chunk of gathered phase diagonals; larger chunks raised the
# peak memory of a calibration without making steps faster.
PHASE_CHUNK_BYTES = 1 << 18


def _check_block(block, d: int) -> None:
    if block.ndim != 2 or block.shape[0] != d:
        raise ValueError("block must be a 2-d column stack matching the operator")


def step_sequence(a, n_diag, b, c1, c2, dt: float, block) -> np.ndarray:
    """Advance ``block`` (d x k columns) through len(c1) uniform steps.

    Step i applies exp(-i 2 pi dt H_i) with
    H_i = a + c1[i] diag(n_diag) + c2[i] b evaluated at the step
    midpoint by the caller. Returns a fresh array.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    n_diag = np.ascontiguousarray(n_diag, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    c1 = np.ascontiguousarray(c1, dtype=np.float64)
    c2 = np.ascontiguousarray(c2, dtype=np.float64)
    block = np.ascontiguousarray(block, dtype=np.complex128)
    if c1.shape != c2.shape:
        raise ValueError("coefficient arrays c1, c2 must have equal length")
    _check_block(block, a.shape[0])
    idx = np.arange(a.shape[0])
    w = -2j * np.pi * float(dt)
    out = block.copy()
    for i in range(c1.shape[0]):
        h = a + c2[i] * b
        h[idx, idx] += c1[i] * n_diag
        diag = h[idx, idx].real
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
            term = (w / j) * (h @ term)
            acc += term
        out = np.exp(w * mu) * acc
    return out


def apply_power(m, n: int, block) -> np.ndarray:
    """Apply matrix ``m`` to ``block`` ``n`` times (n >= 0)."""
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
    """
    u0 = np.ascontiguousarray(u0, dtype=np.complex128)
    n_diag = np.ascontiguousarray(n_diag, dtype=np.float64)
    dc1 = np.ascontiguousarray(dc1, dtype=np.float64)
    block = np.ascontiguousarray(block, dtype=np.complex128)
    d = u0.shape[0]
    _check_block(block, d)
    n = dc1.shape[0]
    if n == 0:
        return block.copy()

    # Phase j in 1..n follows the j-th U0 and merges the trailing half of
    # step j-1 with the leading half of step j: exponent dc1[j-1] + dc1[j],
    # with dc1[n] = 0 for the closing half-phase. Phase 0 opens the call.
    levels, level_of = np.unique(n_diag, return_inverse=True)
    w = -1j * np.pi * float(dt)
    phase0 = np.exp(w * dc1[0] * levels)[level_of]
    # Width-1 blocks step as vectors: matvec instead of a one-column matmul.
    x = phase0 * block[:, 0] if block.shape[1] == 1 else phase0[:, None] * block
    y = np.empty_like(x)
    chunk = max(1, PHASE_CHUNK_BYTES // (16 * d))
    for start in range(1, n + 1, chunk):
        stop = min(start + chunk, n + 1)
        s = dc1[start - 1: stop - 1].copy()
        s[: min(stop, n) - start] += dc1[start:stop]
        phases = np.exp(w * np.multiply.outer(s, levels))[:, level_of]
        if x.ndim == 2:
            phases = phases[:, :, None]
        for phase in phases:
            np.matmul(u0, x, out=y)
            np.multiply(phase, y, out=x)
    return x.reshape(d, -1)
