"""Checks of vtopt outputs computed apart from the program.

Nothing here calls vtopt: the element matrix, the modulus interpolation, the
cantilever boundary conditions, the radius neighborhoods and the solver are
written from the method's definition, so a fault shared by the program and its
unit tests still shows here.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

# the optimizer must hit the volume target within this tolerance
VOLUME_TOL = 1e-6
# neighborhoods are floored at 1.5 element sizes so they never collapse to the element
MIN_NEIGHBORHOOD_FACTOR = 1.5
# relative agreement required between two direct solves of the same system
COMPLIANCE_RTOL = 1e-9
# slack for roundoff in bounds that hold exactly in exact arithmetic
BOUND_TOL = 1e-12


def q4_element_stiffness(nu: float) -> np.ndarray:
    """Closed-form unit-modulus plane-stress stiffness of a square bilinear element.

    Andreassen et al., "Efficient topology optimization in MATLAB using 88 lines
    of code" (SMO 2011); nodes counterclockwise from the lower left, dofs (ux, uy).
    """
    k = np.array([1 / 2 - nu / 6, 1 / 8 + nu / 8, -1 / 4 - nu / 12, -1 / 8 + 3 * nu / 8,
                  -1 / 4 + nu / 12, -1 / 8 - nu / 8, nu / 6, 1 / 8 - 3 * nu / 8])
    pattern = np.array([[0, 1, 2, 3, 4, 5, 6, 7],
                        [1, 0, 7, 6, 5, 4, 3, 2],
                        [2, 7, 0, 5, 6, 3, 4, 1],
                        [3, 6, 5, 0, 7, 2, 1, 4],
                        [4, 5, 6, 7, 0, 1, 2, 3],
                        [5, 4, 3, 2, 1, 0, 7, 6],
                        [6, 3, 4, 1, 2, 7, 0, 5],
                        [7, 2, 1, 4, 3, 6, 5, 0]])
    return k[pattern] / (1.0 - nu ** 2)


def young_modulus(rho: np.ndarray, p: float, cfg) -> np.ndarray:
    """Selective penalization below rho_low (global SIMP in the penalized reference)."""
    if cfg.penalized_reference:
        stiff = rho ** p
    else:
        stiff = np.where(rho >= cfg.rho_low, rho, cfg.rho_low * (rho / cfg.rho_low) ** p)
    return cfg.E0 * (cfg.rho_min + (1.0 - cfg.rho_min) * stiff)


def cantilever_compliance(cfg, rho_physical: np.ndarray, p: float) -> float:
    """Compliance of the benchmark cantilever: left edge clamped, point load at the
    right-edge mid-height node, element e = j*nx + i, node n = j*(nx+1) + i."""
    if cfg.clamp_edge != "left" or cfg.load_x is not None or cfg.load_y is not None:
        raise ValueError("the reference covers the default cantilever only")
    nx, ny = cfg.nx, cfg.ny
    nodes = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    ll = nodes[:-1, :-1].ravel()
    corners = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
    edof = np.empty((nx * ny, 8), dtype=np.int64)
    edof[:, 0::2] = 2 * corners
    edof[:, 1::2] = 2 * corners + 1

    n_dofs = 2 * nodes.size
    values = young_modulus(np.asarray(rho_physical, dtype=float), p, cfg)[:, None, None] \
        * q4_element_stiffness(cfg.nu)
    K = coo_matrix((values.ravel(), (np.repeat(edof, 8, axis=1).ravel(), np.tile(edof, 8).ravel())),
                   shape=(n_dofs, n_dofs)).tocsc()
    f = np.zeros(n_dofs)
    load_node = nodes[int(round(ny / 2)), nx]
    f[2 * load_node] += cfg.load_fx
    f[2 * load_node + 1] += cfg.load_fy
    free = np.ones(n_dofs, dtype=bool)
    free[2 * nodes[:, 0]] = False
    free[2 * nodes[:, 0] + 1] = False
    # a fill-reducing ordering other than the program's, so the two solves differ
    u = spsolve(K[free][:, free], f[free], permc_spec="MMD_AT_PLUS_A")
    return float(f[free] @ u)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def neighborhood_extrema(values: np.ndarray, nx: int, ny: int, h: float, radius: float):
    """Per-element min and max over elements whose centers lie within max(radius, 1.5h)."""
    ratio2 = (max(radius, MIN_NEIGHBORHOOD_FACTOR * h) / h) ** 2 * (1.0 + 1e-9)
    m = int(np.floor(np.sqrt(ratio2)))
    field = np.asarray(values, dtype=float).reshape(ny, nx)
    low = np.full((ny + 2 * m, nx + 2 * m), np.inf)
    high = np.full((ny + 2 * m, nx + 2 * m), -np.inf)
    low[m:m + ny, m:m + nx] = field
    high[m:m + ny, m:m + nx] = field
    lo, hi = field.copy(), field.copy()
    for dj in range(-m, m + 1):
        for di in range(-m, m + 1):
            if di * di + dj * dj <= ratio2:
                window = (slice(m + dj, m + dj + ny), slice(m + di, m + di + nx))
                lo = np.minimum(lo, low[window])
                hi = np.maximum(hi, high[window])
    return lo.ravel(), hi.ravel()


def field_problems(cfg, raw: np.ndarray, filtered: np.ndarray, deblurred: np.ndarray) -> list[str]:
    """Filter and DGI properties that every final design must have."""
    problems = []
    if abs(filtered.mean() - raw.mean()) > BOUND_TOL:
        problems.append(f"filter changed the mean density {raw.mean():.15g} -> {filtered.mean():.15g}")
    if filtered.min() < raw.min() - BOUND_TOL or filtered.max() > raw.max() + BOUND_TOL:
        problems.append("filtered field leaves the min/max range of the raw field")
    if cfg.dgi:
        radius = cfg.filter_radius if cfg.dgi_radius is None else cfg.dgi_radius
        lo, hi = neighborhood_extrema(filtered, cfg.nx, cfg.ny, cfg.h, radius)
        outside = (deblurred < lo - BOUND_TOL) | (deblurred > hi + BOUND_TOL)
        if outside.any():
            problems.append(f"{int(outside.sum())} DGI values leave their neighborhood's filtered range")
    return problems
