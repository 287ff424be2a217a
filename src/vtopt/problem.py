"""Assembles grid, boundary conditions, filter, and schedules from a RunConfig."""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .fem import BoundaryConditions, MaterialModel, cantilever_bc
from .grid import StructuredGrid
from .optimizer import ContinuationSchedule
from .pde_filter import DensityFilter


@dataclass
class ProblemSetup:
    config: RunConfig
    grid: StructuredGrid
    bc: BoundaryConditions
    material: MaterialModel
    filter: DensityFilter
    schedule: ContinuationSchedule
    dgi_radius: float
    interpolation: str    # "selective" or "global" modulus interpolation
    simp_ramp: bool       # whether the penalty exponent is continued
    projection: str       # final map in the chain: low_thickness / black_white / none
    dgi_enabled: bool


def build_problem(cfg: RunConfig) -> ProblemSetup:
    grid = StructuredGrid(nx=cfg.nx, ny=cfg.ny, h=cfg.h)
    bc = cantilever_bc(grid, clamp_edge=cfg.clamp_edge, load_x=cfg.load_x, load_y=cfg.load_y,
                       load_fx=cfg.load_fx, load_fy=cfg.load_fy)
    material = MaterialModel(E0=cfg.E0, nu=cfg.nu, rho_min=cfg.rho_min)
    filt = DensityFilter(grid, cfg.filter_radius)
    schedule = ContinuationSchedule(
        p_init=cfg.p_init, p_max=cfg.p_max, c_p=cfg.c_p,
        beta_hat_init=cfg.beta_hat_init, beta_hat_max=cfg.beta_hat_max, c_beta_hat=cfg.c_beta_hat,
        beta_bar_init=cfg.beta_bar_init, beta_bar_max=cfg.beta_bar_max, c_beta_bar=cfg.c_beta_bar,
        mode=cfg.continuation_mode,
    )
    if cfg.penalized_reference:
        # reference mode: standard penalized optimization with the plain
        # black-white projection instead of the thin-density treatment
        projection = "black_white"
    elif cfg.lt_projection:
        projection = "low_thickness"
    else:
        projection = "none"
    return ProblemSetup(
        config=cfg,
        grid=grid,
        bc=bc,
        material=material,
        filter=filt,
        schedule=schedule,
        dgi_radius=cfg.filter_radius if cfg.dgi_radius is None else cfg.dgi_radius,
        interpolation="global" if cfg.penalized_reference else "selective",
        simp_ramp=cfg.lt_simp or cfg.penalized_reference,
        projection=projection,
        dgi_enabled=cfg.dgi,
    )
