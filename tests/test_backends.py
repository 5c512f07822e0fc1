"""Propagation kernels against independent step products built with expm,
and the one-OpenBLAS-pool rule with its thread-count helper."""

import functools
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fluxgate import backends, evolve, floquet, system
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


@pytest.mark.parametrize("module", [floquet, system, evolve, backends],
                         ids=lambda m: m.__name__)
def test_per_point_modules_bind_no_scipy_linalg(module):
    # scipy.linalg runs on scipy's own OpenBLAS, whose thread pool contends
    # with numpy's; per-point paths use numpy.linalg only.
    bound = [
        name for name, obj in vars(module).items()
        if (inspect.ismodule(obj) and obj.__name__.startswith("scipy.linalg"))
        or (callable(obj) and (getattr(obj, "__module__", None) or "").startswith("scipy.linalg"))
    ]
    assert bound == []


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
