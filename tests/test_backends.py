"""Propagation kernels against independent step products built with expm."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fluxgate import backends
from fluxgate.evolve import oscillator_coefficients
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
