"""Plane-stress FEM on the structured grid with selective thin-density penalization.

The state problem is linear elasticity with bilinear quad elements; the element
Young's modulus is interpolated from the physical density, penalizing only
densities below the thin-region threshold (or globally in the penalized
reference mode).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf
from scipy.sparse import csc_matrix, csr_matrix

from .errors import NumericalError, StaleStateError, StructuralError
from .grid import ElementField, StructuredGrid, edge_nodes, load_node

DIRECT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class MaterialModel:
    """Linear-elastic material with a small stiffness floor standing in for void."""

    E0: float = 1.0
    nu: float = 0.3
    rho_min: float = 1e-9


@dataclass(frozen=True)
class BoundaryConditions:
    """Fixed dofs as (node, axis) pairs and point loads as (node, axis, value).

    A hashable value: the band pattern and load vectors derived from it are
    cached per grid size and bc value (band_pattern). The hash is taken once,
    at construction; equality still compares the pairs.
    """

    fixed: tuple[tuple[int, int], ...]
    loads: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "fixed", tuple(map(tuple, self.fixed)))
        object.__setattr__(self, "loads", tuple(map(tuple, self.loads)))
        object.__setattr__(self, "_hash", hash((self.fixed, self.loads)))
        fixed = self.fixed_dofs()
        if fixed.size < 3:
            raise StructuralError("at least 3 independent fixed dofs are required")
        # loads summed per dof as load_vector sums them; on fixed dofs they do no work
        loaded: dict[int, float] = {}
        for n, a, v in self.loads:
            loaded[2 * n + a] = loaded.get(2 * n + a, 0.0) + v
        if not any(v != 0.0 for dof, v in loaded.items() if dof not in fixed):
            raise StructuralError("load vector is zero on the free dofs")

    def __hash__(self) -> int:
        return self._hash

    def fixed_dofs(self) -> np.ndarray:
        """Sorted global indices of the fixed dofs, read-only."""
        dofs = np.unique(np.array([2 * n + a for n, a in self.fixed], dtype=np.int64))
        dofs.setflags(write=False)
        return dofs

    def load_vector(self, n_dofs: int) -> np.ndarray:
        f = np.zeros(n_dofs)
        for n, a, v in self.loads:
            f[2 * n + a] += v
        return f


@dataclass
class StateSolution:
    """Displacements and compliance of one state solve of the physical ``field``.

    The solve keeps the field object itself; fields are read-only, so identity
    tells whether a later caller still holds the field that was solved for.
    ``moduli`` are the element Young's moduli the solve assembled K from.
    """

    u: np.ndarray
    compliance: float
    field: ElementField
    moduli: np.ndarray


def penalize_thin(rho, p: float, rho_low: float):
    """Power-law penalization applied only below rho_low; identity above it."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho >= rho_low, rho, (rho / rho_low) ** p * rho_low)


def penalize_thin_derivative(rho, p: float, rho_low: float):
    """Branch derivative of penalize_thin, chosen by inequality at the kink."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho >= rho_low, 1.0, p * (rho / rho_low) ** (p - 1.0))


def interpolate_modulus(rho_physical, p: float, rho_low: float, mat: MaterialModel,
                        interpolation: str = "selective"):
    """Element Young's modulus from the physical density; strictly positive."""
    rho = np.asarray(rho_physical, dtype=float)
    if interpolation == "selective":
        stiff = penalize_thin(rho, p, rho_low)
    elif interpolation == "global":
        stiff = rho ** p
    else:
        raise ValueError(f"unknown interpolation {interpolation!r}")
    return (stiff * (1.0 - mat.rho_min) + mat.rho_min) * mat.E0


def modulus_derivative(rho_physical, p: float, rho_low: float, mat: MaterialModel,
                       interpolation: str = "selective"):
    rho = np.asarray(rho_physical, dtype=float)
    if interpolation == "selective":
        dstiff = penalize_thin_derivative(rho, p, rho_low)
    elif interpolation == "global":
        dstiff = p * rho ** (p - 1.0)
    else:
        raise ValueError(f"unknown interpolation {interpolation!r}")
    return dstiff * (1.0 - mat.rho_min) * mat.E0


@functools.lru_cache(maxsize=8)
def element_stiffness(nu: float) -> np.ndarray:
    """Unit-modulus plane-stress stiffness of a square bilinear element.

    Size-independent for square elements, so one matrix serves the whole grid.
    Node order: lower-left, lower-right, upper-right, upper-left; dofs (ux, uy)
    per node. Computed on the reference square with 2x2 Gauss quadrature.
    Cached per nu; the returned array is read-only.
    """
    C = np.array([[1.0, nu, 0.0],
                  [nu, 1.0, 0.0],
                  [0.0, 0.0, (1.0 - nu) / 2.0]]) / (1.0 - nu ** 2)
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    g = 1.0 / np.sqrt(3.0)
    k = np.zeros((8, 8))
    for xi in (-g, g):
        for eta in (-g, g):
            dn_dxi = 0.25 * corners[:, 0] * (1.0 + eta * corners[:, 1])
            dn_deta = 0.25 * corners[:, 1] * (1.0 + xi * corners[:, 0])
            B = np.zeros((3, 8))
            B[0, 0::2] = dn_dxi
            B[1, 1::2] = dn_deta
            B[2, 0::2] = dn_deta
            B[2, 1::2] = dn_dxi
            k += B.T @ C @ B
    k.setflags(write=False)
    return k


def element_dof_map(grid: StructuredGrid) -> np.ndarray:
    """(n_elements, 8) global dof indices per element, matching element_stiffness order.

    Cached per grid size; the returned array is read-only.
    """
    return _element_dofs(grid.nx, grid.ny)


@functools.lru_cache(maxsize=8)
def _element_dofs(nx: int, ny: int) -> np.ndarray:
    e = np.arange(nx * ny)
    i = e % nx
    j = e // nx
    ll = j * (nx + 1) + i
    nodes = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
    dofs = np.empty((nx * ny, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    dofs.setflags(write=False)
    return dofs


def band_order(nx: int, ny: int) -> np.ndarray:
    """Nodes of the (nx+1) x (ny+1) node grid, ordered along the shorter side first.

    An element couples nodes at most one line plus one node apart in this
    order, so with 2 dofs per node K_ff is a band of half-width at most
    2(min(nx, ny) + 1) + 3 (George & Liu, Computer Solution of Large Sparse
    Positive Definite Systems, 1981).
    """
    nodes = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    return (nodes.T if ny <= nx else nodes).ravel()


@dataclass(frozen=True)
class BandPattern:
    """Where the free-dof stiffness K_ff goes in LAPACK lower band storage.

    ``free[k]`` is the global dof of row and column k. K_ff[i, j] with i >= j
    sits at ``ab[i - j, j]`` of a Fortran-ordered (bandwidth + 1, n) array.
    ``slots`` are the band slots K_ff can fill, in ``ab``'s memory order, and
    ``operator`` the sparse matrix that maps element moduli to their values:
    row s holds the unit element stiffness entry each element adds to
    ``slots[s]``, ordered by element. ``load`` is the bc's load vector,
    ``load_free`` its part on ``free`` and ``load_norm`` that part's norm.
    """

    free: np.ndarray
    bandwidth: int
    slots: np.ndarray
    operator: csr_matrix
    load: np.ndarray
    load_free: np.ndarray
    load_norm: float

    def band(self, E: np.ndarray) -> np.ndarray:
        """K_ff in lower band storage for element moduli E."""
        n, width = self.free.size, self.bandwidth + 1
        data = np.zeros(n * width)
        data[self.slots] = self.operator @ E
        return data.reshape(n, width).T


def band_pattern(grid: StructuredGrid, bc: BoundaryConditions, nu: float) -> BandPattern:
    """The K_ff band pattern and loads of a grid size, bc and nu, built on first use and cached."""
    return _band_pattern(grid.nx, grid.ny, bc, nu)


@functools.lru_cache(maxsize=8)
def _band_pattern(nx: int, ny: int, bc: BoundaryConditions, nu: float) -> BandPattern:
    nodes = band_order(nx, ny)
    dofs = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
    free = dofs[~np.isin(dofs, bc.fixed_dofs())]
    n = free.size
    rank = np.argsort(dofs)
    position = np.full(dofs.size, -1, dtype=np.int32)
    position[free] = np.arange(n)
    edof = _element_dofs(nx, ny)
    # every element orders its dofs alike and dropping fixed dofs keeps that order,
    # so element 0 tells which of its entries lie on or below the diagonal
    rows, cols = np.nonzero(rank[edof[0]][:, None] >= rank[edof[0]][None, :])
    i, j = position[edof[:, rows]], position[edof[:, cols]]
    kept = (i >= 0) & (j >= 0)
    bandwidth = int((i - j)[kept].max(initial=0))
    slot = (j * np.int64(bandwidth + 1) + i - j)[kept]
    # each index array is megabytes at 160x80; freeing one before the next is
    # built keeps the heap, and so the peak of the first solve, lower
    del i, j
    used = np.zeros(n * (bandwidth + 1), dtype=bool)
    used[slot] = True
    slots = np.flatnonzero(used)
    del used
    row = np.searchsorted(slots, slot).astype(np.int32)
    del slot
    # column e holds element e's entries, at most one per slot; converting to
    # CSR orders every slot's entries by element
    operator = csc_matrix((np.broadcast_to(element_stiffness(nu)[rows, cols], kept.shape)[kept],
                           row, np.concatenate([[0], np.cumsum(kept.sum(axis=1))])),
                          shape=(slots.size, nx * ny)).tocsr()
    load = bc.load_vector(dofs.size)
    pattern = BandPattern(free=free, bandwidth=bandwidth, slots=slots, operator=operator,
                          load=load, load_free=load[free], load_norm=np.linalg.norm(load[free]))
    for array in (pattern.free, pattern.slots, operator.data, operator.indices, operator.indptr,
                  pattern.load, pattern.load_free):
        array.setflags(write=False)
    return pattern


@dataclass(frozen=True)
class BandCholesky:
    """Cholesky factor L of a band matrix in LAPACK lower band storage, with nnz stored entries."""

    factor: np.ndarray
    nnz: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with L L^T x = rhs, by the two triangular solves LAPACK dpbtrs makes.

        L y = rhs is zero above rhs's first nonzero entry, so the forward solve
        starts there, on the trailing block of L.
        """
        first = int((rhs != 0.0).argmax())
        k = self.factor.shape[0] - 1
        y = dtbsv(k, self.factor[:, first:], rhs, offx=first, lower=1)
        return dtbsv(k, self.factor, y, lower=1, trans=1, overwrite_x=1)


def splu(ab: np.ndarray) -> BandCholesky:
    """Factor the band matrix ab in place; StructuralError if it is not positive definite."""
    # the name is the factorization probe that perfbench's tracer and the tests patch
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise StructuralError(f"stiffness factorization failed: leading minor {info} "
                              "is not positive definite")
    return BandCholesky(factor, factor.size)


def cantilever_bc(grid: StructuredGrid, clamp_edge: str = "left",
                  load_x: float | None = None, load_y: float | None = None,
                  load_fx: float = 0.0, load_fy: float = -1.0) -> BoundaryConditions:
    """Clamp one edge fully and apply a point load at the node nearest (load_x, load_y).

    Defaults reproduce the benchmark: left edge clamped, unit downward load at
    the right-edge mid-height node.
    """
    fixed = [(grid.node_index(i, j), a)
             for i, j in edge_nodes(grid.nx, grid.ny, clamp_edge) for a in (0, 1)]
    node = grid.node_index(*load_node(grid.nx, grid.ny, grid.h, load_x, load_y))
    loads = []
    if load_fx != 0.0:
        loads.append((node, 0, load_fx))
    if load_fy != 0.0:
        loads.append((node, 1, load_fy))
    return BoundaryConditions(fixed=fixed, loads=loads)


def assemble_and_solve(grid: StructuredGrid, bc: BoundaryConditions,
                       rho_physical: ElementField, p: float, rho_low: float,
                       mat: MaterialModel, interpolation: str = "selective",
                       solver: str = "direct") -> StateSolution:
    """Assemble K(rho) and solve K u = f; returns displacements and compliance.

    The free-dof system is assembled straight into the cached band pattern and
    factored by a banded Cholesky: K_ff is symmetric positive definite, since
    the rho_min floor keeps every element modulus positive and the fixed dofs
    remove the rigid-body modes. The residual is taken element by element,
    without a second copy of K.
    """
    if rho_physical.values.shape != (grid.n_elements,):
        raise ValueError(f"field shape {rho_physical.values.shape} does not match one field "
                         f"on a grid with {grid.n_elements} elements")
    if solver != "direct":
        raise ValueError(f"unknown solver {solver!r}")
    E = interpolate_modulus(rho_physical.values, p, rho_low, mat, interpolation)
    k0 = element_stiffness(mat.nu)
    pattern = band_pattern(grid, bc, mat.nu)
    f, ff, fnorm = pattern.load, pattern.load_free, pattern.load_norm

    sol = splu(pattern.band(E)).solve(ff)
    if not np.isfinite(sol).all():
        raise StructuralError("singular stiffness system (insufficient constraints)")
    u = np.zeros_like(f)
    u[pattern.free] = sol
    edof = element_dof_map(grid)
    Ku = np.bincount(edof.ravel(), weights=(E[:, None] * (u[edof] @ k0)).ravel(),
                     minlength=f.size)
    residual = np.linalg.norm(Ku[pattern.free] - ff) / fnorm
    if not residual <= DIRECT_RESIDUAL_TOL:
        if residual > 1e-6:   # far beyond roundoff: rank deficiency, not precision loss
            raise StructuralError("singular stiffness system (insufficient constraints), "
                                  f"solve residual {residual:.3e}")
        raise NumericalError(f"direct solve residual {residual:.3e} exceeds "
                             f"{DIRECT_RESIDUAL_TOL:.0e}")
    return StateSolution(u=u, compliance=float(f @ u), field=rho_physical, moduli=E)


def compliance_sensitivity(grid: StructuredGrid, solution: StateSolution,
                           rho_physical: ElementField, p: float, rho_low: float,
                           mat: MaterialModel, interpolation: str = "selective") -> np.ndarray:
    """d(compliance)/d(physical density) per element; nonpositive everywhere."""
    if solution.field is not rho_physical:
        raise StaleStateError("displacements were solved for a different density field")
    k0 = element_stiffness(mat.nu)
    edof = element_dof_map(grid)
    ue = solution.u[edof]
    energies = ((ue @ k0) * ue).sum(axis=1)
    dE = modulus_derivative(rho_physical.values, p, rho_low, mat, interpolation)
    return -(energies * dE)
