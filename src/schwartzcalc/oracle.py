"""Independent brute-force constructions for tests and verification runs.

Everything here is O(N^2) in memory and deliberately capped at desk scale;
the point is to cross-check the fast spectral paths against literal matrix
arithmetic and classical finite differences, not to be efficient.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityMismatch, UnsupportedOrder
from .grid import Grid, SymbolFunction
from .families import MAX_DENSE_POINTS, SchwartzFamily, _check_dense, _transform_pair
from .solver import DifferentialOperatorSpec
from .spectral import DenseOperator

__all__ = ["dense_from_diagonal", "finite_difference"]


def dense_from_diagonal(v: SchwartzFamily, a: SymbolFunction) -> DenseOperator:
    """Materialize the operator diagonal in ``v`` as a dense matrix.

    Column k is the spectral expansion applied to the k-th unit sample
    vector, all columns in one batch, so the matrix action agrees with
    :func:`schwartzcalc.spectral.spectral_apply` up to accumulation rounding.
    """
    grid = v.space_grid
    _check_dense(grid.size, grid.size)
    units = np.eye(grid.size, dtype=np.complex128)
    return DenseOperator(grid, _transform_pair(v, a, True).apply(units).T)


# periodic central-difference stencils: {accuracy order: {offset: coefficient}}
_FIRST_DERIVATIVE = {
    2: {-1: -0.5, 1: 0.5},
    4: {-2: 1.0 / 12.0, -1: -2.0 / 3.0, 1: 2.0 / 3.0, 2: -1.0 / 12.0},
}
_SECOND_DERIVATIVE = {
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    4: {-2: -1.0 / 12.0, -1: 4.0 / 3.0, 0: -5.0 / 2.0, 1: 4.0 / 3.0, 2: -1.0 / 12.0},
}


def _stencil_matrix(n: int, dx: float, stencil: dict[int, float], power: int) -> np.ndarray:
    mat = np.zeros((n, n))
    for offset, coeff in stencil.items():
        mat += coeff * np.roll(np.eye(n), offset, axis=1)
    return mat / dx**power


def _axis_derivative(n: int, dx: float, k: int, order: int) -> np.ndarray:
    """Periodic matrix for the k-th derivative along one axis.

    Built from the standard first/second central stencils; higher orders
    compose them (even powers of the second-derivative stencil, odd adds one
    first-derivative factor), keeping the stated accuracy order.
    """
    if k == 0:
        return np.eye(n)
    d2 = _stencil_matrix(n, dx, _SECOND_DERIVATIVE[order], 2)
    out = np.linalg.matrix_power(d2, k // 2)
    if k % 2:
        out = _stencil_matrix(n, dx, _FIRST_DERIVATIVE[order], 1) @ out
    return out


def finite_difference(
    spec: DifferentialOperatorSpec, grid: Grid, order: int = 2
) -> DenseOperator:
    """Periodic central-difference matrix for a differential operator.

    ``order`` is the accuracy order (2 or 4).  Multi-axis derivatives are
    Kronecker products of per-axis stencil matrices, assembled in the grid's
    row-major axis order.
    """
    if order not in (2, 4):
        raise UnsupportedOrder(f"finite difference order must be 2 or 4, got {order}")
    _check_dense(grid.size, grid.size)
    if spec.arity is not None and spec.arity != grid.dim:
        raise ArityMismatch(
            f"operator spec has arity {spec.arity}, grid has dimension {grid.dim}"
        )
    total = np.zeros((grid.size, grid.size), dtype=np.complex128)
    spacings = grid.spacings
    for idx, coeff in spec.coeffs.items():
        term = np.eye(1)
        for axis in range(grid.dim):
            term = np.kron(
                term, _axis_derivative(grid.counts[axis], spacings[axis], idx[axis], order)
            )
        total += coeff * term
    return DenseOperator(grid, total)
