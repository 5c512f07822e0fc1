"""Propagation kernels against independent step products built with expm,
and the one-OpenBLAS-pool rule with its thread-count helper."""

import functools
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fluxgate import backends
from fluxgate.errors import ConstructionError
from fluxgate.circuits import oscillator_coefficients
from fluxgate.system import assemble_operators

DT = 5e-4
FLUX = 0.35
FREQ = 10.79
WIDTHS = (1, 4, 150)
# Phases per chunk of strang_sequence on the 150-dim set500 model. The
# lone first half-phase precedes the chunks, so n = CHUNK + 1 steps end a
# call with a one-phase chunk and n = CHUNK + 2 starts the second chunk
# with a merged phase.
CHUNK = backends.PHASE_CHUNK_BYTES // (16 * 150)


@pytest.fixture(scope="module")
def model(params500):
    """Operators of set500, the static Hamiltonian H0 at FLUX and its
    exact step exp(-i 2 pi DT H0)."""
    ops = assemble_operators(params500)
    c1, c2 = oscillator_coefficients(params500.coupler, FLUX, FLUX)
    h0 = ops.a_fixed + float(c1) * np.diag(ops.n_diag) + float(c2) * ops.b_op
    return ops, h0, expm(-2j * np.pi * DT * h0)


def _drive(n, seed=0):
    t = (np.arange(n) + 0.5) * DT
    noise = np.random.default_rng(seed).standard_normal(n)
    return 0.5 * np.cos(2 * np.pi * FREQ * t) + 0.1 * noise


def _block(width, seed=1):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((150, width)) + 1j * rng.standard_normal((150, width))
    return block / np.linalg.norm(block, axis=0)


def _check_fresh(got, block):
    assert got.shape == block.shape
    assert not np.shares_memory(got, block)


@pytest.mark.parametrize("n", [0, 1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2])
def test_strang_sequence_matches_split_step_product(model, n):
    ops, _, u0 = model
    dc1 = _drive(n)
    ref = np.eye(150, dtype=complex)
    for c in dc1:
        half = np.exp(-1j * np.pi * DT * c * ops.n_diag)[:, None]
        ref = half * (u0 @ (half * ref))
    for width in WIDTHS:
        block = _block(width)
        got = backends.strang_sequence(u0, ops.n_diag, dc1, DT, block)
        _check_fresh(got, block)
        assert np.max(np.abs(got - ref @ block)) < 1e-10, f"width {width}"


@pytest.mark.parametrize("n", [0, 1, 7, 2 * CHUNK + 3])
@pytest.mark.parametrize("k", [1, 2])
def test_strang_sequence_steps_each_piece_of_a_stack_with_its_own_step(model, n, k):
    # The two parity sectors of set500 as a stack; pieces side by side.
    ops, _, u0 = model
    sectors = ops.sectors
    stack = np.stack([u0[np.ix_(rows, rows)] for rows in sectors])
    n_stack = np.stack([ops.n_diag[rows] for rows in sectors])
    pieces = [_block(k, seed=s)[: rows.size] for s, rows in enumerate(sectors)]
    dc1 = _drive(n)
    got = backends.strang_sequence(stack, n_stack, dc1, DT, np.hstack(pieces))
    assert got.shape == (75, 2 * k)
    for s, piece in enumerate(pieces):
        alone = backends.strang_sequence(stack[s], n_stack[s], dc1, DT, piece)
        assert np.max(np.abs(got[:, s * k: (s + 1) * k] - alone)) <= 1e-13
    one = backends.strang_sequence(stack[:1], n_stack[:1], dc1, DT, pieces[0])
    assert np.array_equal(one, backends.strang_sequence(stack[0], n_stack[0], dc1, DT, pieces[0]))


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_step_sequence_matches_expm_product(model, params500, n):
    ops, _, _ = model
    fb = np.linspace(0.30, FLUX, n)
    c1, c2 = oscillator_coefficients(params500.coupler, fb, fb)
    ref = np.eye(150, dtype=complex)
    for a, b in zip(c1, c2):
        h = ops.a_fixed + a * np.diag(ops.n_diag) + b * ops.b_op
        ref = expm(-2j * np.pi * DT * h) @ ref
    for width in WIDTHS:
        block = _block(width)
        got = backends.step_sequence(ops.a_fixed, ops.n_diag, ops.b_op, c1, c2, DT, block)
        _check_fresh(got, block)
        assert np.max(np.abs(got - ref @ block)) < 1e-10, f"width {width}"


def test_step_sequence_rejects_a_hamiltonian_complex_in_the_gauge(model, params500):
    ops, _, _ = model
    # A Hermitian but complex A: the steps are taken in real arithmetic.
    i, j = ops.labels.index((0, 0, 0)), ops.labels.index((1, 0, 0))
    a = ops.a_fixed.astype(complex)
    a[i, j] += 1e-3j
    a[j, i] -= 1e-3j
    c1, c2 = oscillator_coefficients(params500.coupler, np.full(2, FLUX), np.full(2, FLUX))
    with pytest.raises(ConstructionError, match="not real"):
        backends.step_sequence(a, ops.n_diag, ops.b_op, c1, c2, DT, _block(1))


@settings(max_examples=12, deadline=None)
@given(
    device=st.sampled_from(["set500", "small"]),
    flux_a=st.floats(0.0, 0.4),
    flux_b=st.floats(0.0, 0.4),
    n=st.integers(1, 6),
    dt=st.sampled_from([5e-4, 5e-3]),
)
@example(device="set500", flux_a=0.0, flux_b=0.35, n=6, dt=5e-3)  # a ramp-down step
def test_reversed_ramp_is_the_transpose_in_the_gauge(
    params500, params_small, device, flux_a, flux_b, n, dt
):
    # H_i is real symmetric, so every step exp(-i 2 pi dt H_i) is complex
    # symmetric, and stepping the samples in reverse order gives the
    # transpose: S(reversed) = S^T.
    params = params500 if device == "set500" else params_small
    ops = assemble_operators(params)
    fb = np.linspace(flux_a, flux_b, n)
    c1, c2 = oscillator_coefficients(params.coupler, fb, fb)
    eye = np.eye(params.dim, dtype=complex)
    forward = backends.step_sequence(ops.a_fixed, ops.n_diag, ops.b_op, c1, c2, dt, eye)
    backward = backends.step_sequence(
        ops.a_fixed, ops.n_diag, ops.b_op, c1[::-1], c2[::-1], dt, eye
    )
    assert np.max(np.abs(backward - forward.T)) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_apply_power_matches_expm(model, n):
    _, h0, _ = model
    period = 1.0 / FREQ
    mono = expm(-2j * np.pi * period * h0)
    ref = expm(-2j * np.pi * n * period * h0)
    for width in WIDTHS:
        block = _block(width)
        got = backends.apply_power(mono, n, block)
        _check_fresh(got, block)
        assert np.max(np.abs(got - ref @ block)) < 1e-10, f"width {width}"


@pytest.mark.parametrize("n", [CHUNK + 2, 2 * CHUNK + 3])
def test_a_vector_steps_as_the_first_column_of_a_pair(model, n):
    # A width-1 block takes the row-vector product, a wider one the
    # increment form; both cross a phase chunk boundary here. The step of
    # a real Hamiltonian is symmetric, so a column phase makes this one
    # asymmetric, and a product with U0 in place of U0^T shows.
    ops, _, u0 = model
    u0 = u0 * np.exp(1j * np.linspace(0.0, 1.0, 150))
    dc1 = _drive(n)
    pair = _block(2)
    vector = backends.strang_sequence(u0, ops.n_diag, dc1, DT, pair[:, :1])
    both = backends.strang_sequence(u0, ops.n_diag, dc1, DT, pair)
    assert np.max(np.abs(vector[:, 0] - both[:, 0])) <= 1e-12


def _sector_steps(model, asymmetric=False):
    """The two 75-state parity sectors of set500 as a stack of base steps
    and of coupler occupations; ``asymmetric`` gives every step a column
    phase, so a product with U0 in place of U0^T shows."""
    ops, _, u0 = model
    if asymmetric:
        u0 = u0 * np.exp(1j * np.linspace(0.0, 1.0, 150))
    stack = np.stack([u0[np.ix_(rows, rows)] for rows in ops.sectors])
    return stack, np.stack([ops.n_diag[rows] for rows in ops.sectors])


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(2, 32),
    pieces=st.sampled_from((1, 2)),
    n_first=st.integers(0, 2 * CHUNK),
    n_second=st.integers(0, 2 * CHUNK),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=2, pieces=2, n_first=CHUNK, n_second=CHUNK + 1, seed=0)
@example(width=32, pieces=1, n_first=1, n_second=2 * CHUNK, seed=1)
def test_realified_rows_step_as_the_complex_product(model, width, pieces, n_first, n_second,
                                                     seed):
    # Every narrow width steps as rows of interleaved floats here, chained
    # across a call boundary and the phase chunks, against one call in
    # complex rows, the form of the wide blocks.
    stack, n_stack = (arr[:pieces] for arr in _sector_steps(model, asymmetric=True))
    dc1 = _drive(n_first + n_second, seed)
    block = _block(pieces * width, seed)[:75]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_as_rows", lambda k, d: True)
        first = backends.strang_sequence(stack, n_stack, dc1[:n_first], DT, block)
        rows = backends.strang_sequence(stack, n_stack, dc1[n_first:], DT, first)
        patch.setattr(backends, "_as_rows", lambda k, d: False)
        columns = backends.strang_sequence(stack, n_stack, dc1, DT, block)
    assert np.max(np.abs(rows - columns)) <= 1e-12


def test_block_shape_picks_the_step_layout(model):
    # Real rows for 2 to log2(d) columns a piece; a lone column as a
    # vector; wider pieces, and single columns of a stack, as complex rows.
    assert [backends._as_rows(k, 75) for k in (1, 2, 6, 7, 37, 75)] == [
        False, True, True, False, False, False]
    assert [backends._as_rows(k, 108) for k in (2, 6, 7)] == [True, True, False]
    stack, n_stack = _sector_steps(model)
    dc1 = _drive(3)
    seen = []
    real = backends._as_rows

    def recording(k, d):
        seen.append((k, d))
        return real(k, d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_as_rows", recording)
        backends.strang_sequence(stack[0], n_stack[0], dc1, DT, _block(1)[:75])
        for width in (1, 2, 75):
            backends.strang_sequence(stack, n_stack, dc1, DT, _block(2 * width)[:75])
    assert seen == [(1, 75), (2, 75), (75, 75)]


@pytest.mark.parametrize("k", [7, 8, 16, 108])
def test_wide_pieces_step_as_complex_rows(k):
    # Above log2(108) = 6.8 columns a piece, two 108-state pieces step as
    # complex rows, across a phase chunk boundary. A column phase makes
    # each base step asymmetric, so a product with U0 in place of U0^T
    # shows.
    m = 108
    rng = np.random.default_rng(k)
    sym = rng.standard_normal((2, m, m))
    u0 = np.stack([expm(-1j * (a + a.T)) for a in sym]) * np.exp(1j * np.linspace(0.0, 1.0, m))
    n_diag = np.stack([np.arange(m) % 6, np.arange(m)[::-1] % 5]).astype(float)
    dc1 = _drive(backends.PHASE_CHUNK_BYTES // (16 * n_diag.size) + 2, seed=k)
    pieces = [rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)) for _ in range(2)]
    got = backends.strang_sequence(u0, n_diag, dc1, DT, np.hstack(pieces))
    for s, ref in enumerate(pieces):
        for c in dc1:
            half = np.exp(-1j * np.pi * DT * c * n_diag[s])[:, None]
            ref = half * (u0[s] @ (half * ref))
        assert np.max(np.abs(got[:, s * k: (s + 1) * k] - ref)) <= 1e-12


@pytest.mark.parametrize("widths", [(75, 75), (63, 62)])
def test_stacked_step_sequence_is_one_call_per_sector(params500, monkeypatch, widths):
    # set500's two sectors, or sectors of 63 and 62 states (5 coupler
    # levels), the narrower one zero-padded to the wider in the stack.
    params = params500 if widths == (75, 75) else replace(params500, n_coupler_levels=5)
    ops = assemble_operators(params)
    assert tuple(rows.size for rows in ops.sectors) == widths
    m = widths[0]
    stacks = [np.zeros((2, m, m)), np.zeros((2, m)), np.zeros((2, m, m))]
    for s, rows in enumerate(ops.sectors):
        r = rows.size
        stacks[0][s, :r, :r] = ops.a_fixed[np.ix_(rows, rows)]
        stacks[1][s, :r] = ops.n_diag[rows]
        stacks[2][s, :r, :r] = ops.b_op[np.ix_(rows, rows)]
    fb = np.linspace(0.0, FLUX, 7)
    c1, c2 = oscillator_coefficients(params.coupler, fb, fb)
    pieces = [_block(2, seed=s)[: rows.size] for s, rows in enumerate(ops.sectors)]
    padded = np.zeros((m, 4), dtype=complex)
    padded[: widths[0], :2], padded[: widths[1], 2:] = pieces

    orders = []
    taylor = backends._taylor_order

    def recording(theta):
        orders.append(taylor(theta))
        return orders[-1]

    monkeypatch.setattr(backends, "_taylor_order", recording)
    got = backends.step_sequence(*stacks, c1, c2, 5e-3, padded)
    stacked = orders.copy()
    orders.clear()
    alone = [backends.step_sequence(ops.a_fixed[np.ix_(rows, rows)], ops.n_diag[rows],
                                    ops.b_op[np.ix_(rows, rows)], c1, c2, 5e-3, piece)
             for rows, piece in zip(ops.sectors, pieces)]
    # One order a step for the stack, never below either sector's own.
    assert np.all(np.array(stacked) >= np.reshape(orders, (2, -1)).max(axis=0))
    assert np.max(np.abs(got[: widths[0], :2] - alone[0])) <= 1e-13
    assert np.max(np.abs(got[: widths[1], 2:] - alone[1])) <= 1e-13
    assert not np.any(got[widths[1]:, 2:])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 592, 593, 1023, 1024])
def test_apply_power_is_repeated_application(model, n):
    # The monodromy of an undriven period of each sector, stacked.
    stack = np.stack([np.linalg.matrix_power(u0, 93) for u0 in _sector_steps(model)[0]])
    block = np.stack([_block(2, seed=s)[:75] for s in range(2)])
    ref = block.copy()
    for _ in range(n):
        ref = stack @ ref
    got = backends.apply_power(stack, n, block)
    _check_fresh(got, block)
    assert np.max(np.abs(got - ref)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n_first=st.integers(0, 2 * CHUNK),
    n_second=st.integers(0, 2 * CHUNK),
    width=st.sampled_from((1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_first=CHUNK, n_second=CHUNK + 1, width=1, seed=0)
@example(n_first=1, n_second=CHUNK, width=4, seed=0)
@example(n_first=CHUNK + 1, n_second=0, width=1, seed=0)
def test_strang_sequence_chains_across_a_split(model, n_first, n_second, width, seed):
    # The merged half-phases must close at every call and chunk boundary.
    ops, _, u0 = model
    dc1 = _drive(n_first + n_second, seed)
    block = _block(width, seed)
    whole = backends.strang_sequence(u0, ops.n_diag, dc1, DT, block)
    first = backends.strang_sequence(u0, ops.n_diag, dc1[:n_first], DT, block)
    chained = backends.strang_sequence(u0, ops.n_diag, dc1[n_first:], DT, first)
    assert np.max(np.abs(whole - chained)) <= 1e-12


def test_blas_threads_reads_the_live_count():
    # OPENBLAS_NUM_THREADS sets the count at load; the getter reads it back.
    src = str(Path(backends.__file__).parents[1])
    probe = "from fluxgate import backends; print(backends.blas_threads())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "1"
    assert backends.blas_threads() >= 1


def test_blas_threads_skips_an_unloadable_mapping(monkeypatch):
    # A maps entry that is no loadable path (say a "(deleted)" file) is
    # skipped, not raised.
    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(backends.ctypes, "CDLL", refuse)
    # A fresh cache, so the lookup runs again and the session's is kept.
    monkeypatch.setattr(backends, "_openblas", functools.cache(backends._openblas.__wrapped__))
    assert backends.blas_threads() is None
    assert backends.set_blas_threads(1) is None


def test_one_blas_thread_pins_a_call_and_restores_the_callers_count(monkeypatch):
    seen, sets = [], []
    setter = backends.set_blas_threads

    def counting(count):
        sets.append(count)
        return setter(count)

    @backends.one_blas_thread
    def inner():
        seen.append(backends.blas_threads())

    @backends.one_blas_thread
    def outer(fail):
        """Outer call."""
        seen.append(backends.blas_threads())
        inner()
        seen.append(backends.blas_threads())
        if fail:
            raise RuntimeError("outer failed")
        return "done"

    assert (outer.__name__, outer.__doc__) == ("outer", "Outer call.")
    # The count one above the session's, so that no call restores it by chance.
    callers = backends.blas_threads() + 1
    previous = backends.set_blas_threads(callers)
    monkeypatch.setattr(backends, "set_blas_threads", counting)
    try:
        assert outer(False) == "done"
        assert backends.blas_threads() == callers
        with pytest.raises(RuntimeError, match="outer failed"):
            outer(True)
        assert backends.blas_threads() == callers
    finally:
        setter(previous)
    # One thread inside, the nested call included, which sets nothing.
    assert seen == [1, 1, 1] * 2
    assert sets == [1, callers] * 2


def test_one_blas_thread_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(backends, "_openblas", lambda: None)
    sets = []
    monkeypatch.setattr(backends, "set_blas_threads", sets.append)
    assert backends.one_blas_thread(lambda x: 2 * x)(3) == 6
    assert sets == []
