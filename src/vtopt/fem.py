"""Plane-stress FEM on the structured grid with selective thin-density penalization.

The state problem is linear elasticity with bilinear quad elements; the element
Young's modulus is interpolated from the physical density, penalizing only
densities below the thin-region threshold (or globally in the penalized
reference mode).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf

from .errors import NumericalError, StaleStateError, StructuralError
from .grid import ElementField, StructuredGrid

DIRECT_RESIDUAL_TOL = 1e-10

INTERPOLATIONS = ("selective", "global")


@dataclass(frozen=True)
class MaterialModel:
    """Linear-elastic material with a small stiffness floor standing in for void."""

    E0: float = 1.0
    nu: float = 0.3
    rho_min: float = 1e-9


@dataclass(frozen=True)
class BoundaryConditions:
    """Fixed dofs as (node, axis) pairs and point loads as (node, axis, value).

    Immutable: the sorted fixed dofs and the band-pattern key derived from them
    are computed once, at construction; the load vectors of a grid size on its
    first solve.
    """

    fixed: tuple[tuple[int, int], ...]
    loads: tuple[tuple[int, int, float], ...]
    _fixed_dofs: np.ndarray = field(init=False, repr=False, compare=False)
    pattern_key: bytes = field(init=False, repr=False, compare=False)
    _free_loads: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fixed", tuple(map(tuple, self.fixed)))
        object.__setattr__(self, "loads", tuple(map(tuple, self.loads)))
        dofs = np.unique(np.array([2 * n + a for n, a in self.fixed], dtype=np.int64))
        dofs.setflags(write=False)
        object.__setattr__(self, "_fixed_dofs", dofs)
        object.__setattr__(self, "pattern_key", dofs.tobytes())
        if dofs.size < 3:
            raise StructuralError("at least 3 independent fixed dofs are required")
        if not any(v != 0.0 for _, _, v in self.loads):
            raise StructuralError("load vector is zero")

    def fixed_dofs(self) -> np.ndarray:
        """Sorted global indices of the fixed dofs; read-only, the same array on every call."""
        return self._fixed_dofs

    def load_vector(self, n_dofs: int) -> np.ndarray:
        f = np.zeros(n_dofs)
        for n, a, v in self.loads:
            f[2 * n + a] += v
        return f

    def free_load(self, grid: StructuredGrid) -> tuple[np.ndarray, np.ndarray, float]:
        """Load vector of a grid size, its free-dof part in band order and that part's norm.

        Built on the first call per grid size; the arrays are read-only, the
        same on every call.
        """
        key = (grid.nx, grid.ny)
        if key not in self._free_loads:
            f = self.load_vector(2 * grid.n_nodes)
            ff = f[band_pattern(grid, self).free]
            f.setflags(write=False)
            ff.setflags(write=False)
            self._free_loads[key] = (f, ff, np.linalg.norm(ff))
        return self._free_loads[key]


@dataclass
class StateSolution:
    """Displacements and compliance of one state solve, pinned to a field revision.

    ``moduli`` are the element Young's moduli the solve assembled K from.
    """

    u: np.ndarray
    compliance: float
    field_revision: int
    residual: float
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
    ``rows``/``cols`` pick the element-matrix entries on or below the diagonal
    in this order (the same for every element); ``scatter`` gives, for each
    of them and each element, its slot in ``ab``'s memory. Entries that touch
    a fixed dof go to the extra slot ``ab.size``, which is dropped.
    """

    free: np.ndarray
    bandwidth: int
    rows: np.ndarray
    cols: np.ndarray
    scatter: np.ndarray

    def band(self, E: np.ndarray, k0: np.ndarray) -> np.ndarray:
        """K_ff in lower band storage for element moduli E and unit element stiffness k0."""
        n, width = self.free.size, self.bandwidth + 1
        weights = E[:, None] * k0[self.rows, self.cols]
        data = np.bincount(self.scatter.ravel(), weights=weights.ravel(), minlength=n * width + 1)
        return data[:n * width].reshape(n, width).T


def band_pattern(grid: StructuredGrid, bc: BoundaryConditions) -> BandPattern:
    """The K_ff band pattern of a grid size and fixed-dof set, built on first use and cached."""
    return _band_pattern(grid.nx, grid.ny, bc.pattern_key)


@functools.lru_cache(maxsize=8)
def _band_pattern(nx: int, ny: int, fixed_bytes: bytes) -> BandPattern:
    nodes = band_order(nx, ny)
    dofs = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
    free = dofs[~np.isin(dofs, np.frombuffer(fixed_bytes, dtype=np.int64))]
    n = free.size
    rank = np.argsort(dofs)
    position = np.full(dofs.size, -1, dtype=np.int64)
    position[free] = np.arange(n)
    edof = _element_dofs(nx, ny)
    # every element orders its dofs alike and dropping fixed dofs keeps that order,
    # so element 0 tells which of its entries lie on or below the diagonal
    rows, cols = np.nonzero(rank[edof[0]][:, None] >= rank[edof[0]][None, :])
    i, j = position[edof[:, rows]], position[edof[:, cols]]
    kept = (i >= 0) & (j >= 0)
    bandwidth = int((i - j)[kept].max(initial=0))
    scatter = np.where(kept, j * (bandwidth + 1) + i - j, (bandwidth + 1) * n)
    pattern = BandPattern(free=free, bandwidth=bandwidth, rows=rows, cols=cols, scatter=scatter)
    for array in (pattern.free, pattern.rows, pattern.cols, pattern.scatter):
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
    nx, ny, h = grid.nx, grid.ny, grid.h
    if clamp_edge == "left":
        clamp_nodes = [grid.node_index(0, j) for j in range(ny + 1)]
    elif clamp_edge == "right":
        clamp_nodes = [grid.node_index(nx, j) for j in range(ny + 1)]
    elif clamp_edge == "bottom":
        clamp_nodes = [grid.node_index(i, 0) for i in range(nx + 1)]
    elif clamp_edge == "top":
        clamp_nodes = [grid.node_index(i, ny) for i in range(nx + 1)]
    else:
        raise ValueError(f"unknown clamp edge {clamp_edge!r}")
    fixed = [(n, a) for n in clamp_nodes for a in (0, 1)]

    if load_x is None:
        load_x = nx * h
    if load_y is None:
        load_y = ny * h / 2.0
    li = int(np.clip(round(load_x / h), 0, nx))
    lj = int(np.clip(round(load_y / h), 0, ny))
    node = grid.node_index(li, lj)
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
    pattern = band_pattern(grid, bc)
    f, ff, fnorm = bc.free_load(grid)

    u = np.zeros_like(f)
    if fnorm == 0.0:
        residual = 0.0
    else:
        sol = splu(pattern.band(E, k0)).solve(ff)
        if not np.isfinite(sol).all():
            raise StructuralError("singular stiffness system (insufficient constraints)")
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

    compliance = float(f @ u)
    return StateSolution(u=u, compliance=compliance,
                         field_revision=rho_physical.revision, residual=residual, moduli=E)


def compliance_sensitivity(grid: StructuredGrid, solution: StateSolution,
                           rho_physical: ElementField, p: float, rho_low: float,
                           mat: MaterialModel, interpolation: str = "selective") -> np.ndarray:
    """d(compliance)/d(physical density) per element; nonpositive everywhere."""
    if solution.field_revision != rho_physical.revision:
        raise StaleStateError("displacements were solved for a different density field "
                              f"(revision {solution.field_revision} != {rho_physical.revision})")
    k0 = element_stiffness(mat.nu)
    edof = element_dof_map(grid)
    ue = solution.u[edof]
    energies = ((ue @ k0) * ue).sum(axis=1)
    dE = modulus_derivative(rho_physical.values, p, rho_low, mat, interpolation)
    return -(energies * dE)
