"""Density-to-density maps applied after filtering, with their derivatives.

Two projections act on the filtered field: the density-gradient-informed (DGI)
projection deblurs structural edges by pushing each value toward its local
neighborhood extremes with a sharpness proportional to the local density
variation, and the low-thickness projection drives densities below rho_low
toward zero while leaving thicker material nearly untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ElementField, StructuredGrid
from .pde_filter import DensityFilter

DGI_THRESHOLD = 0.5
# Below this local density variation the deblurring map degenerates to the
# identity, matching the analytic beta -> 0 limit, so the guard is continuous.
DEGENERATE_RANGE = 1e-9
# Below this sharpness the smoothed step is evaluated by its leading-order
# series, which is the identity map.
SMALL_BETA = 1e-6


@dataclass(frozen=True)
class ProjectionParams:
    """Parameters of the post-filter projection chain."""

    rho_low: float = 0.1
    beta_bar: float = 1.0
    beta_hat: float = 0.1
    radius: float = 0.375


@dataclass
class NeighborhoodStats:
    """Per-element min/max/variation of the field over each neighborhood."""

    rho_min: np.ndarray
    rho_max: np.ndarray
    diff: np.ndarray


def lt_project(rho_tilde, beta_bar: float, rho_low: float):
    """Blend of the beta-power-penalized density and the identity, with its slope.

    A tanh switching weight rising around the beta-shifted threshold keeps
    densities above rho_low nearly unchanged while suppressing lower values;
    beta_bar = 1 is handled as an exact identity. Returns (value, slope).
    """
    rho = np.asarray(rho_tilde, dtype=float)
    if beta_bar == 1.0:
        return rho.copy(), np.ones_like(rho)
    tanh_t = np.tanh(beta_bar * (rho / rho_low - rho_low ** (1.0 / beta_bar)))
    s = 0.5 * (1.0 + tanh_t)
    s_prime = (beta_bar / (2.0 * rho_low)) * (1.0 - tanh_t ** 2)
    power = rho ** beta_bar
    value = (1.0 - s) * power + s * rho
    slope = s_prime * (rho - power) + (1.0 - s) * beta_bar * rho ** (beta_bar - 1.0) + s
    return value, slope


def smoothed_heaviside(rho, beta, eta: float):
    """Standard tanh-smoothed step fixing H(0) = 0 and H(1) = 1, with its slope.

    beta may be a scalar or a per-element array; values below SMALL_BETA fall
    back to the identity (the leading term of the small-beta series).
    Returns (value, slope).
    """
    rho = np.asarray(rho, dtype=float)
    beta = np.asarray(beta, dtype=float)
    small = beta < SMALL_BETA
    b = np.where(small, 1.0, beta)
    tanh_eta = np.tanh(b * eta)
    tanh_rho = np.tanh(b * (rho - eta))
    den = tanh_eta + np.tanh(b * (1.0 - eta))
    value = np.where(small, rho, (tanh_eta + tanh_rho) / den)
    slope = np.where(small, 1.0, b * (1.0 - tanh_rho ** 2) / den)
    return value, slope


def neighborhood_stats(grid: StructuredGrid, rho_tilde, r: float) -> NeighborhoodStats:
    """Min/max/variation over each element's cached radius neighborhood."""
    values = rho_tilde.values if isinstance(rho_tilde, ElementField) else np.asarray(rho_tilde, dtype=float)
    if values.shape != (grid.n_elements,):
        raise ValueError(f"field shape {values.shape} does not match grid")
    spans = grid.neighbor_spans(r)
    field = values.reshape(grid.ny, grid.nx)
    rho_min = _stencil_reduce(field, spans, np.minimum, np.inf)
    rho_max = _stencil_reduce(field, spans, np.maximum, -np.inf)
    return NeighborhoodStats(rho_min=rho_min, rho_max=rho_max, diff=rho_max - rho_min)


def _stencil_reduce(field: np.ndarray, spans: tuple[int, ...], op, pad: float) -> np.ndarray:
    """Reduce a (ny, nx) field with min or max over each element's stencil.

    Row windows of every half-width are built incrementally on a padded copy,
    then the stencil rows are combined; the result equals the reduction over
    the neighbor table entry for entry, since min and max are exact.
    """
    ny, nx = field.shape
    m = len(spans) // 2
    padded = np.full((ny + 2 * m, nx + 2 * m), pad)
    padded[m:m + ny, m:m + nx] = field
    windows = [padded[:, m:m + nx]]
    for w in range(1, m + 1):
        windows.append(op(op(windows[-1], padded[:, m - w:m - w + nx]), padded[:, m + w:m + w + nx]))
    out = windows[spans[0]][:ny].copy()
    for k in range(1, 2 * m + 1):
        op(out, windows[spans[k]][k:k + ny], out=out)
    return out.ravel()


def dgi_project(rho_tilde, stats: NeighborhoodStats, beta_hat: float):
    """Deblurring projection: a smoothed step rescaled to the local density range.

    Each value is mapped within [rho_min, rho_max] of its neighborhood with
    sharpness beta_hat * diff, so flat regions (small diff) are barely touched
    while edges (large diff) are resharpened. Degenerate neighborhoods, and
    those whose sharpness falls in the step's identity regime, pass through
    unchanged (exactly, not via the rescaling round trip).

    Returns (value, slope), the slope taken with stats held fixed: the outer
    diff scale and the inner 1/diff cancel, leaving the smoothed-step slope at
    the local coordinate; degenerate neighborhoods give 1.
    """
    rho = np.asarray(rho_tilde, dtype=float)
    degenerate = stats.diff < DEGENERATE_RANGE
    d = np.where(degenerate, 1.0, stats.diff)
    local = (rho - stats.rho_min) / d
    beta = beta_hat * stats.diff
    step, step_slope = smoothed_heaviside(local, beta, DGI_THRESHOLD)
    value = np.where(degenerate | (beta < SMALL_BETA), rho, stats.diff * step + stats.rho_min)
    return value, np.where(degenerate, 1.0, step_slope)


# final projection applied after the deblurring step:
#   low_thickness - suppresses densities below rho_low only (variable thickness runs)
#   black_white   - standard threshold projection at 0.5 (penalized reference runs)
#   none          - pass-through
PROJECTION_STYLES = ("low_thickness", "black_white", "none")


@dataclass
class RegularizedChain:
    """Forward pass of filter -> deblurring -> final projection.

    Derivative factors of both projections are cached for the backward pass;
    neighborhood statistics are treated as constants within one iteration.
    """

    rho_tilde: ElementField
    rho_hat: ElementField
    rho_physical: ElementField
    stats: NeighborhoodStats | None
    d_hat_d_tilde: np.ndarray
    d_phys_d_hat: np.ndarray
    filter: DensityFilter


def regularize_chain(grid: StructuredGrid, rho_raw: ElementField, params: ProjectionParams,
                     filt: DensityFilter, projection: str = "low_thickness",
                     dgi_enabled: bool = True,
                     frozen_stats: NeighborhoodStats | None = None) -> RegularizedChain:
    """Run the full regularization chain and cache its per-element derivatives.

    rho_raw may hold a stack of fields of shape (..., n_elements); each is
    mapped as if alone. Neighborhood statistics take one field, so a stack
    needs frozen_stats when DGI is on.
    """
    if rho_raw.stage != "raw":
        raise ValueError(f"chain input must be a raw field, got stage {rho_raw.stage!r}")
    if projection not in PROJECTION_STYLES:
        raise ValueError(f"unknown projection {projection!r}, expected one of {PROJECTION_STYLES}")
    tilde = filt.apply(rho_raw.values)

    if dgi_enabled:
        stats = frozen_stats if frozen_stats is not None else neighborhood_stats(grid, tilde, params.radius)
        hat, d_hat = dgi_project(tilde, stats, params.beta_hat)
        hat = np.clip(hat, 0.0, 1.0)
    else:
        stats = None
        hat = tilde
        d_hat = np.ones_like(tilde)

    if projection == "low_thickness":
        phys, d_phys = lt_project(hat, params.beta_bar, params.rho_low)
        phys = np.clip(phys, 0.0, 1.0)
    elif projection == "black_white":
        phys, d_phys = smoothed_heaviside(hat, params.beta_bar, 0.5)
        phys = np.clip(phys, 0.0, 1.0)
    else:
        phys = hat
        d_phys = np.ones_like(hat)

    return RegularizedChain(
        rho_tilde=ElementField(tilde, "filtered"),
        rho_hat=ElementField(hat, "dgi"),
        rho_physical=ElementField(phys, "physical"),
        stats=stats,
        d_hat_d_tilde=d_hat,
        d_phys_d_hat=d_phys,
        filter=filt,
    )


def chain_gradient(chain: RegularizedChain, grad_physical: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the physical density back to the raw design field."""
    grad_physical = np.asarray(grad_physical, dtype=float)
    if grad_physical.shape != chain.d_phys_d_hat.shape:
        raise ValueError(f"gradient shape {grad_physical.shape} does not match chain")
    return chain.filter.apply_transpose(grad_physical * chain.d_phys_d_hat * chain.d_hat_d_tilde)
