"""Screened-Poisson density filter on element centers with zero-flux boundaries.

Solving (-R^2 lap + 1) rho_tilde = rho with a 5-point Neumann Laplacian makes the
system matrix an M-matrix whose inverse is symmetric and row-stochastic, so the
filter preserves constants, conserves total volume, and obeys the discrete
maximum principle exactly (up to solver roundoff). R -> 0 reduces to the
identity map.

The zero-flux path Laplacian is diagonalized by the orthonormal DCT-II basis, so
the system is solved in that basis: the field is transformed along both grid
directions by dense matrix products, divided by the operator's eigenvalues, and
transformed back. A stack of fields of shape (..., n_elements) is filtered
field by field in one broadcast product.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError
from .grid import StructuredGrid

# Classical density-filter radius r to PDE length scale: R = r / (2 sqrt(3)).
RADIUS_TO_LENGTH = 1.0 / (2.0 * np.sqrt(3.0))

CLAMP_TOL = 1e-10


@functools.lru_cache(maxsize=16)
def _path_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of the graph Laplacian of a path of n cells (zero-flux ends).

    Cached per n; the returned array is read-only.
    """
    eigenvalues = 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
    eigenvalues.setflags(write=False)
    return eigenvalues


@functools.lru_cache(maxsize=16)
def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix; row k is the eigenvector of eigenvalue k above.

    Cached per n; the returned array is read-only.
    """
    # angle pi k (2i + 1) / (2n), reduced mod 2 pi in integers to keep cos accurate
    phase = (np.arange(n)[:, None] * (2 * np.arange(n) + 1)) % (4 * n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * phase / (2 * n))
    basis[0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


class DensityFilter:
    """Reusable filter operator: diagonalized once, applied every iteration.

    Parameters
    ----------
    grid : StructuredGrid
    radius : float
        Classical filter radius; converted to the PDE length scale internally.
    """

    def __init__(self, grid: StructuredGrid, radius: float):
        if not radius > 0:
            raise ValueError(f"filter radius must be positive, got {radius}")
        self.grid = grid
        self.radius = float(radius)
        self.length_scale = self.radius * RADIUS_TO_LENGTH
        c = (self.length_scale / grid.h) ** 2
        eigenvalues = _path_eigenvalues(grid.ny)[:, None] + _path_eigenvalues(grid.nx)[None, :]
        self._inverse_eigenvalues = 1.0 / (1.0 + c * eigenvalues)
        self._basis_x = _cosine_basis(grid.nx)
        self._basis_y = _cosine_basis(grid.ny)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Filter a density field or a stack of them; output stays within [min(rho), max(rho)]."""
        rho = self._check(rho)
        out = self._solve(rho)
        if out.min() < -CLAMP_TOL or out.max() > 1.0 + CLAMP_TOL:
            raise NumericalError("filtered densities left [0, 1] beyond solver tolerance")
        return np.clip(out, 0.0, 1.0)

    def apply_transpose(self, grad: np.ndarray) -> np.ndarray:
        """Transpose action for the sensitivity chain rule.

        The element-to-element operator is symmetric (uniform volumes), so this
        is the same solve without the density clamp.
        """
        return self._solve(self._check(grad))

    def _solve(self, values: np.ndarray) -> np.ndarray:
        bx, by = self._basis_x, self._basis_y
        spectrum = by @ values.reshape(*values.shape[:-1], self.grid.ny, self.grid.nx) @ bx.T
        return (by.T @ (spectrum * self._inverse_eigenvalues) @ bx).reshape(values.shape)

    def _check(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 0 or values.shape[-1] != self.grid.n_elements:
            raise ValueError(f"field shape {values.shape} does not match grid "
                             f"with {self.grid.n_elements} elements")
        return values
