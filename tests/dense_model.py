"""Full-space references of the sector-stacked model.

``system`` holds A, N, B and each Hamiltonian only as parity-sector
stacks (see ``ModelOperators``). The full-space references of the tests
scatter those stacks back into the product basis, with zeros between
sectors.
"""

from typing import NamedTuple

import numpy as np

from fluxgate.system import assemble_operators


class DenseOperators(NamedTuple):
    """A, N and B of a parameter set on the full product space."""

    a_fixed: np.ndarray
    n_diag: np.ndarray
    b_op: np.ndarray
    labels: tuple
    sectors: tuple


def scatter(stack: np.ndarray, sectors) -> np.ndarray:
    """The full-space array of a sector stack, (sectors, m, m) or
    (sectors, m): block s on the rows ``sectors[s]``, zero elsewhere."""
    dim = sum(rows.size for rows in sectors)
    out = np.zeros((dim,) * (stack.ndim - 1), dtype=stack.dtype)
    for piece, rows in zip(stack, sectors):
        out[np.ix_(*[rows] * (stack.ndim - 1))] = piece[(slice(rows.size),) * (stack.ndim - 1)]
    return out


def dense_operators(params) -> DenseOperators:
    ops = assemble_operators(params)
    a, n, b = (scatter(stack, ops.sectors) for stack in (ops.a_fixed, ops.n_diag, ops.b_op))
    return DenseOperators(a, n, b, ops.labels, ops.sectors)
