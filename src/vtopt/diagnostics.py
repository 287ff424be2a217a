"""Quantitative assessments: thin-density share, line profiles, edge widths, gradient check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConfigError, GeometryError
from .grid import ElementField, StructuredGrid

VOID_THRESHOLD = 0.001   # densities at or below this count as acceptable void
MAX_FD_STEP = 0.01       # keeps the probes in [0, 1] and most of the probe range off the kink


def low_thickness_fraction(rho_physical, volumes, rho_low: float) -> float:
    """Volume share of material sitting in the undesired band (VOID_THRESHOLD, rho_low).

    The denominator is all material above the void threshold; an all-void field
    returns 0.
    """
    rho = rho_physical.values if isinstance(rho_physical, ElementField) else np.asarray(rho_physical, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    material = rho > VOID_THRESHOLD
    undesired = material & (rho < rho_low)
    material_volume = float(np.sum(volumes[material]))
    if material_volume == 0.0:
        return 0.0
    return float(np.sum(volumes[undesired]) / material_volume)


@dataclass
class LineProfile:
    """Field values sampled along a segment by nearest-element lookup."""

    start: tuple[float, float]
    end: tuple[float, float]
    arc: np.ndarray
    values: np.ndarray


def line_profile(grid: StructuredGrid, field, p0, p1, n: int) -> LineProfile:
    """n equally spaced samples from p0 to p1, each the value of the containing element."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    values = field.values if isinstance(field, ElementField) else np.asarray(field, dtype=float)
    if values.shape != (grid.n_elements,):
        raise ValueError("field length does not match grid")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    for point in (p0, p1):
        if not grid.contains_point(point[0], point[1]):
            raise GeometryError(f"segment endpoint {tuple(point)} outside the domain")
    t = np.linspace(0.0, 1.0, n)
    points = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    sampled = np.array([values[grid.element_at(x, y)] for x, y in points])
    arc = t * float(np.linalg.norm(p1 - p0))
    return LineProfile(start=tuple(p0), end=tuple(p1), arc=arc, values=sampled)


def transition_width(profile: LineProfile, lo: float = 0.05, hi: float = 0.95) -> float | None:
    """Arc length of the rising edge between lo and hi times the profile peak.

    Measured from the last upward crossing of lo*peak to the first subsequent
    crossing of hi*peak, with linear interpolation between samples. Returns
    None when the profile never makes that transition.
    """
    if not 0 <= lo < hi <= 1:
        raise ValueError("need 0 <= lo < hi <= 1")
    v = profile.values
    s = profile.arc
    peak = float(v.max(initial=0.0))
    if peak <= 0.0:
        return None
    lo_t, hi_t = lo * peak, hi * peak

    hi_idx = None
    for k in range(len(v) - 1):
        if v[k] < hi_t <= v[k + 1]:
            hi_idx = k
            break
    if hi_idx is None:
        return None
    s_hi = _cross(s[hi_idx], s[hi_idx + 1], v[hi_idx], v[hi_idx + 1], hi_t)

    s_lo = None
    for k in range(hi_idx, -1, -1):
        if v[k] <= lo_t < v[k + 1]:
            s_lo = _cross(s[k], s[k + 1], v[k], v[k + 1], lo_t)
            break
    if s_lo is None:
        return None
    return float(max(s_hi - s_lo, 0.0))


def _cross(s0, s1, v0, v1, level):
    if v1 == v0:
        return s0
    return s0 + (s1 - s0) * (level - v0) / (v1 - v0)


def gradient_check(cfg, n_probe: int = 8, fd_step: float = 1e-6) -> float:
    """Max relative error of the chain-rule compliance gradient vs central differences.

    Intended for small grids. The finite-difference objective freezes the
    deblurring neighborhood statistics at the base point, matching the analytic
    convention. Probe densities are drawn in [0.2, 0.9], resampled away from
    the penalization kink at rho_low.

    The difference c(x+h) - c(x-h) is not taken between the two compliances,
    which agree in all but their last digits and would leave mostly solver
    roundoff. For symmetric K with K(x-h) u- = f = K(x+h) u+ it equals exactly
    u-^T (K(x-h) - K(x+h)) u+ = -sum_e (E+_e - E-_e) u-_e^T k0 u+_e, a sum
    over element moduli that carries the solver's relative error only once.

    The base point goes through the optimizer's own evaluation step at the
    continuation state the run ends at (p = 1 without SIMP), so the check
    verifies the gradient the run loop uses. The 2 * n_probe probe designs
    differ only in one raw entry each, so they go through the optimizer's
    `forward` as one stack of rows; each row then gets its own state solve,
    1 + 2 * n_probe in all. n_probe must be at least 1 and fd_step in
    (0, MAX_FD_STEP]; the messages name the matching `vtopt gradcheck` flags.
    """
    from .optimizer import evaluate, forward
    from .problem import build_problem

    if n_probe < 1:
        raise ConfigError(f"--probes must be at least 1, got {n_probe}")
    if not 0 < fd_step <= MAX_FD_STEP:
        raise ConfigError(f"--fd-step must be in (0, {MAX_FD_STEP:g}], got {fd_step}")
    setup = build_problem(cfg)
    grid = setup.grid
    rng = np.random.default_rng(cfg.seed)
    rho = rng.uniform(0.2, 0.9, grid.n_elements)
    near_kink = np.abs(rho - cfg.rho_low) < 5 * fd_step
    while near_kink.any():
        rho[near_kink] = rng.uniform(0.2, 0.9, int(near_kink.sum()))
        near_kink = np.abs(rho - cfg.rho_low) < 5 * fd_step

    state = setup.continuation_end
    base_chain, _, analytic = evaluate(setup, rho, state)
    k0 = fem.element_stiffness(setup.material.nu)
    edof = fem.element_dof_map(grid)

    probes = rng.choice(grid.n_elements, size=min(n_probe, grid.n_elements), replace=False)
    # row 2k is rho + fd_step at probe k, row 2k + 1 is rho - fd_step there
    designs = np.repeat(rho[None, :], 2 * probes.size, axis=0)
    rows = np.arange(probes.size)
    designs[2 * rows, probes] += fd_step
    designs[2 * rows + 1, probes] -= fd_step
    stack = forward(setup, designs, state, frozen_stats=base_chain.stats).rho_physical.values

    def probe(row):
        """Element moduli and element displacements of one probe design."""
        solution = fem.assemble_and_solve(grid, setup.bc, ElementField(stack[row], "physical"),
                                          state.p, cfg.rho_low, setup.material,
                                          interpolation=setup.interpolation, solver=cfg.solver)
        return solution.moduli, solution.u[edof]

    worst = 0.0
    for k, e in enumerate(probes):
        E_plus, u_plus = probe(2 * k)
        E_minus, u_minus = probe(2 * k + 1)
        energies = ((u_minus @ k0) * u_plus).sum(axis=1)
        fd = -float(np.sum((E_plus - E_minus) * energies)) / (2.0 * fd_step)
        denom = max(abs(fd), abs(analytic[e]), 1e-300)
        worst = max(worst, abs(fd - analytic[e]) / denom)
    return worst
