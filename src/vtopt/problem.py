"""Assembles grid, boundary conditions, filter, and continuation ramps from a RunConfig."""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .fem import BoundaryConditions, MaterialModel, cantilever_bc
from .grid import StructuredGrid
from .optimizer import ContinuationState
from .pde_filter import DensityFilter


@dataclass
class ProblemSetup:
    config: RunConfig
    grid: StructuredGrid
    bc: BoundaryConditions
    material: MaterialModel
    filter: DensityFilter
    dgi_radius: float
    interpolation: str    # "selective" or "global" modulus interpolation
    projection: str       # final map in the chain: low_thickness / black_white / none
    dgi_enabled: bool
    continuation_start: ContinuationState
    continuation_end: ContinuationState   # an inactive ramp ends where it starts


def build_problem(cfg: RunConfig) -> ProblemSetup:
    grid = StructuredGrid(nx=cfg.nx, ny=cfg.ny, h=cfg.h)
    bc = cantilever_bc(grid, clamp_edge=cfg.clamp_edge, load_x=cfg.load_x, load_y=cfg.load_y,
                       load_fx=cfg.load_fx, load_fy=cfg.load_fy)
    material = MaterialModel(E0=cfg.E0, nu=cfg.nu, rho_min=cfg.rho_min)
    filt = DensityFilter(grid, cfg.filter_radius)
    if cfg.penalized_reference:
        # reference mode: standard penalized optimization with the plain
        # black-white projection instead of the thin-density treatment
        projection = "black_white"
    elif cfg.lt_projection:
        projection = "low_thickness"
    else:
        projection = "none"
    simp = cfg.lt_simp or cfg.penalized_reference
    start = ContinuationState(p=cfg.p_init if simp else 1.0, beta_hat=cfg.beta_hat_init,
                              beta_bar=cfg.beta_bar_init)
    end = ContinuationState(p=cfg.p_max if simp else 1.0,
                            beta_hat=cfg.beta_hat_max if cfg.dgi else cfg.beta_hat_init,
                            beta_bar=cfg.beta_bar_max if projection != "none" else cfg.beta_bar_init)
    return ProblemSetup(
        config=cfg,
        grid=grid,
        bc=bc,
        material=material,
        filter=filt,
        dgi_radius=cfg.filter_radius if cfg.dgi_radius is None else cfg.dgi_radius,
        interpolation="global" if cfg.penalized_reference else "selective",
        projection=projection,
        dgi_enabled=cfg.dgi,
        continuation_start=start,
        continuation_end=end,
    )
