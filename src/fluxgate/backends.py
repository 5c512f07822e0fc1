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
  * ``apply_power``: a fixed matrix applied n times (stroboscopic
    evolution through whole drive periods), as M^n by binary powering.

Every Hamiltonian the package steps conserves the total parity of
``system``, so callers step each parity sector on its own, with the
sector's slices of A, N and B. ``step_sequence`` and
``strang_sequence`` take a stack of S sector operators, zero-padded to
the widest sector m (``strang_sequence``'s base steps padded with the
identity), and a block (m, S k) that holds the S sector pieces of k
columns side by side; ``apply_power`` takes a stack of matrices and a
stack of blocks (S, m, k). Each advances all pieces in one batched
product per step, Taylor term or squaring: at one BLAS thread, two
75-state pieces of two columns take about 11 us a Strang step, against
14 us in two separate calls and 23 us as one 150-state block.

``strang_sequence`` merges the trailing half-phase of step i with the
leading half-phase of step i + 1 into one diagonal
exp(-i pi dt (dc1[i] + dc1[i+1]) N), so a call applies one lone
half-phase at each end and, per step, one diagonal multiply and one
matmul into preallocated buffers. The diagonals come in bounded chunks
from a table of exponentials over the distinct entries of N (the coupler
occupations, a handful of values), gathered onto the full diagonal.

Every piece steps its k columns as rows, (S, k, m), one batched
``matmul`` a step, x + x (U0 - I)^T against (U0 - I)^T made contiguous
once per call. Up to log2(m) columns a piece (a gate's computational
block, two columns in each sector) the complex rows are viewed as
interleaved floats, (S, k, 2m), against the real 2m x 2m form of
(U0 - I)^T: the arithmetic is the same, but OpenBLAS's real ``dgemm``
runs faster than its ``zgemm`` on a few long rows. Measured at one BLAS
thread on 2 shared vCPUs, a Strang step of two 75-state pieces of two
columns takes 10.5-12.7 us in real rows and 17.4-18.7 us in complex
rows. Wider pieces, and single columns of a stack of several (the
identity a Floquet period steps is 75 wide), step in complex rows: one
75-wide piece takes 84 us a step, two 164 us. The bound log2(m) was set
against complex columns, which beat real rows from 8 columns a piece at
108 states; complex rows did not (real rows took 0.72-0.87 of their
step at 8 and 16 columns). No workload steps a width between log2(m)
and a full sector, so one that does re-measures the bound. A single
state, one piece of one column, steps as the row-vector product x U0^T,
``np.dot`` against a copy of U0^T made contiguous once per call, which
skips numpy's matmul dispatch: 3.3 us a step at 75 states.

Rows step U0 in increment form, x + x (U0 - I)^T, so the roundoff of
each matmul scales with the small U0 - I rather than with U0. Over the
10^4 Strang steps of a 5 ns drive flank at 0.5 ps this cuts the
roundoff a gate's columns accumulate about 25-fold: on set500's
65 ns gate, the 4 x 4 read through the mirrored drive window (see
``evolve``) and the one stepped through the whole window agree to 2e-14
instead of 5e-13. The add costs about 2 % of a step of two 75-state
pieces of two columns (2 vCPUs). A vector keeps the plain product,
where the add would cost about 18 % of its step. Single-state
propagations are read through a mirror too (``evolve.amplitude_point``
returns |x^T x|^2 from a half window), and there the plain product
agrees with direct stepping of the whole window to 1e-13 on the four
10 ns set500 cells of ``test_amplitude_cell_is_its_mirrored_half_window``
(bound 1e-12).

The Taylor order of ``step_sequence`` is chosen per step as the smallest
m with theta^(m+1)/(m+1)! < 1e-16, where theta = 2 pi dt * max-row-sum
of the spectrally shifted Hamiltonian; each sector takes its own shift,
and a stack takes the largest theta of its sectors, so no sector steps
at a lower order than it would alone. Steps must keep theta modest (the
order is capped at 64); callers enforce dt well below the fastest period.

``step_sequence`` takes the real A and B of ``system``, so every H_i
is real, and raises ``ConstructionError`` on a nonzero imaginary part,
as ``system.label_eigenstates`` does. Each Taylor term is then one real
product: the real H_i times the complex columns viewed as interleaved
real columns, (S, m, 2k) float64, half the arithmetic of a complex
product. The powers (2 pi dt H_i)^j x are kept, and a step sums them
with their coefficients (-i)^j / j! in one product after the last, so a
term costs its product alone. A cold bias ramp-up of set500's ``[gate]``
(both sectors, two columns each, 300 steps of 10 ps) took 53-59 ms at
one BLAS thread, against 75-78 ms summing term by term and 96-100 ms in
one call per sector.

The package links only numpy's LAPACK and OpenBLAS, so a process runs
one OpenBLAS thread pool, whose live count ``blas_threads`` reads and
``set_blas_threads`` sets. The public entry points that diagonalize,
step or solve (in ``circuits``, ``system``, ``evolve``, ``floquet`` and
``gates``), and the cache misses of ``evolve.dressed_frame``, compute at
one thread under ``one_blas_thread`` and hand the caller's count back on
return; the command line adds no rule of its own. No product in the
package is wider than 150 states, so a second thread only spins on a
core of its own: at OpenBLAS's default count of 2 on 2 vCPUs, a pass of
each benchmark workload took 1.9-2.0 s of CPU per second of wall time,
and 1.0 s under this rule. Importing the package sets no count.
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


def one_blas_thread(fn):
    """Decorate ``fn`` to run at one thread of numpy's OpenBLAS.

    The caller's count is restored when ``fn`` returns or raises. A call
    made at one thread, such as one nested in another decorated call,
    leaves the count alone, and so does a process where the library is
    not found.
    """
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        previous = blas_threads()
        if previous is None or previous == 1:
            return fn(*args, **kwargs)
        set_blas_threads(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_blas_threads(previous)

    # bench/tracer.py marks its own wrappers by ``__wrapped__``.
    del pinned.__wrapped__
    return pinned


def _stack(ops, n_diag, block):
    """``ops`` and ``n_diag`` as a stack of S pieces, (S, m, m) and (S, m),
    and ``block`` (m, S k) as the pieces of k columns, (S, m, k).

    A single operator (m, m) is a stack of one. Raises ValueError unless
    the shapes hold one piece per operator."""
    if ops[0].ndim == 2:
        ops, n_diag = tuple(op[None] for op in ops), n_diag[None]
    pieces, d = ops[0].shape[0], ops[0].shape[-1]
    if block.ndim != 2 or block.shape[0] != d:
        raise ValueError("block must be a 2-d column stack matching the operator")
    if (any(op.shape != ops[0].shape for op in ops) or n_diag.shape != ops[0].shape[:-1]
            or block.shape[1] % pieces):
        raise ValueError("n_diag and block must hold one piece per operator")
    x = block.reshape(d, pieces, -1).transpose(1, 0, 2)
    return ops, n_diag, x


def _unstack(x) -> np.ndarray:
    """The pieces (S, m, k) side by side, (m, S k); a view of ``x`` when
    there is one piece."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _taylor_order(theta: float) -> int:
    """The smallest m with theta^(m+1)/(m+1)! < TAYLOR_TOL, at most
    MAX_TAYLOR_ORDER."""
    m = 0
    val = theta
    while val >= TAYLOR_TOL and m < MAX_TAYLOR_ORDER:
        m += 1
        val *= theta / (m + 1)
    return m


def step_sequence(a, n_diag, b, c1, c2, dt: float, block) -> np.ndarray:
    """Advance ``block`` (d x k columns) through len(c1) uniform steps.

    Step i applies exp(-i 2 pi dt H_i) with
    H_i = a + c1[i] diag(n_diag) + c2[i] b evaluated at the step
    midpoint by the caller; ``a`` and ``b`` must be real (see the module
    docstring), or ConstructionError is raised. Returns a fresh array.

    ``a`` and ``b`` may also be stacks of S sector operators (S, m, m),
    with ``n_diag`` of shape (S, m) and ``block`` (m, S k), as for
    ``strang_sequence``: piece s is stepped with the sector's own H_i
    and spectral shift, all pieces at the largest Taylor order any of
    them needs, in one real product per term.
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
    if c1.shape != c2.shape:
        raise ValueError("coefficient arrays c1, c2 must have equal length")
    (a, b), n_diag, x = _stack((a, b), n_diag, np.asarray(block, dtype=np.complex128))
    # The step is exp(-i H') with H' = 2 pi dt H: scale the operands once.
    scale = 2.0 * np.pi * float(dt)
    a, b, n_diag = scale * a, scale * b, scale * n_diag
    pieces, d = n_diag.shape
    diag_a, diag_b = (np.diagonal(op, axis1=1, axis2=2) for op in (a, b))
    # Term j of exp(-i H') x is c[j] H'^j x, c[j] = (-i)^j / j!; coef holds
    # the real and imaginary parts of c as rows.
    c = np.empty(MAX_TAYLOR_ORDER + 1, dtype=np.complex128)
    c[0] = 1.0
    for j in range(1, c.size):
        c[j] = -1j * c[j - 1] / j
    coef = np.stack([c.real, c.imag])
    # powers[j] holds H'^j x, grown to the highest order yet taken;
    # powers[0] carries the block from step to step.
    powers = x.copy()[None]
    h = np.empty_like(a)
    h_diag = h.reshape(pieces, -1)[:, :: d + 1]
    for i in range(c1.shape[0]):
        np.multiply(b, c2[i], out=h)
        h += a
        diag = diag_a + c2[i] * diag_b + c1[i] * n_diag
        mu = 0.5 * (diag.max(axis=1) + diag.min(axis=1))
        h_diag[...] = diag - mu[:, None]
        order = _taylor_order(np.abs(h).sum(axis=2).max())
        if order >= len(powers):
            powers = np.concatenate([powers, np.empty((order + 1 - len(powers),) + x.shape,
                                                      dtype=np.complex128)])
        flat = powers.view(np.float64)
        for j in range(1, order + 1):
            # Real H' on the interleaved real and imaginary parts of the columns.
            np.matmul(h, flat[j - 1], out=flat[j])
        # The terms' real and imaginary parts in one real matrix product: a
        # threaded OpenBLAS splits no sum of it, as it would a complex
        # matrix-vector product's, so steps do not depend on the thread count.
        re, im = (coef[:, : order + 1] @ flat[: order + 1].reshape(order + 1, -1)).view(
            np.complex128)
        np.multiply(np.exp(-1j * mu)[:, None, None], (re + 1j * im).reshape(x.shape),
                    out=powers[0])
    return _unstack(powers[0]).copy()


def apply_power(m, n: int, block) -> np.ndarray:
    """Apply matrix ``m`` to ``block`` ``n`` times (n >= 0).

    A stack of matrices (S, d, d) applies to a stack of blocks (S, d, k),
    matrix s to block s. M^n is taken by binary powering: the block
    takes M^(2^j) for each set bit j of n, the powers by repeated
    squaring, so n = 592 costs 9 squarings and 3 products on the block
    instead of 592 products. M^(2^j) carries j squarings of roundoff
    where the repeated product carries 2^j products of it; on two
    75-state unitaries the two agreed to 1e-13 at n = 1024.
    """
    if n < 0:
        raise ValueError("power must be non-negative")
    power = np.ascontiguousarray(m, dtype=np.complex128)
    out = np.array(block, dtype=np.complex128)
    n = int(n)
    while n:
        if n & 1:
            out = power @ out
        n >>= 1
        if n:
            power = power @ power
    return out


def _as_rows(k: int, d: int) -> bool:
    """Whether pieces of ``k`` columns of ``d`` states step as realified
    rows (see the module docstring)."""
    return 1 < k <= np.log2(d)


def _realified(w: np.ndarray) -> np.ndarray:
    """The real (S, 2m, 2m) matrices that multiply rows of interleaved
    real and imaginary parts as the complex (S, m, m) ``w`` multiplies
    complex rows from the right: (v w) viewed as floats is
    (v viewed as floats) times the result."""
    pieces, m, _ = w.shape
    r = np.empty((pieces, m, 2, m, 2))
    r[:, :, 0, :, 0] = r[:, :, 1, :, 1] = w.real
    r[:, :, 0, :, 1] = w.imag
    r[:, :, 1, :, 0] = -w.imag
    return r.reshape(pieces, 2 * m, 2 * m)


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
    piece s is stepped with U0[s]. The pieces step as rows in one batched
    product per step; a stack of one steps as its single base step. The
    block's shape picks real or complex rows, or the vector product of a
    single state (see the module docstring).
    """
    u0 = np.ascontiguousarray(u0, dtype=np.complex128)
    n_diag = np.ascontiguousarray(n_diag, dtype=np.float64)
    dc1 = np.ascontiguousarray(dc1, dtype=np.float64)
    block = np.asarray(block, dtype=np.complex128)
    (u0,), n_diag, x = _stack((u0,), n_diag, block)
    pieces, d, k = x.shape
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
    vector = pieces == k == 1
    real = not vector and _as_rows(k, d)
    if vector:
        # One column: x U0^T, a plain row-vector product.
        x = phase0[0] * x[0, :, 0]
        base = np.ascontiguousarray(u0[0].T)
        expand = np.s_[:, 0]
    else:
        # Rows: x + x (U0 - I)^T, on interleaved floats against the real
        # form of (U0 - I)^T for narrow pieces.
        x = np.ascontiguousarray(phase0[:, None, :] * x.transpose(0, 2, 1))
        base = np.ascontiguousarray(u0.transpose(0, 2, 1) - np.eye(d))
        if real:
            base = _realified(base)
        expand = np.s_[:, :, None]
    y = np.empty_like(x)
    xs, ys = (x.view(np.float64), y.view(np.float64)) if real else (x, y)
    chunk = max(1, PHASE_CHUNK_BYTES // (16 * n_diag.size))
    for start in range(1, n + 1, chunk):
        stop = min(start + chunk, n + 1)
        s = dc1[start - 1: stop - 1].copy()
        s[: min(stop, n) - start] += dc1[start:stop]
        phases = np.exp(w * np.multiply.outer(s, levels))[:, level_of][expand]
        for phase in phases:
            if vector:
                np.dot(x, base, out=y)
            else:
                np.matmul(xs, base, out=ys)
                y += x
            np.multiply(phase, y, out=x)
    return _unstack(x.reshape(pieces, k, d).transpose(0, 2, 1))
