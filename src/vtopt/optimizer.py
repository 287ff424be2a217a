"""Design update with volume constraint, continuation scheduling, and the run loop.

The update is an optimality-criteria style multiplicative step: each density is
scaled by the square root of its sensitivity ratio, capped by a geometrically
decaying move limit, with a Lagrange multiplier bisected until the resulting
physical volume fraction hits the target. The penalty exponent and the two
projection sharpness parameters ramp geometrically, by default sequentially
(sharpness ramps start once the penalty exponent is maxed out).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .diagnostics import low_thickness_fraction
from .errors import NumericalError
from .fem import StateSolution, assemble_and_solve, compliance_sensitivity
from .grid import ElementField
from .projections import (NeighborhoodStats, ProjectionParams, RegularizedChain, chain_gradient,
                          regularize_chain)

if TYPE_CHECKING:
    from .problem import ProblemSetup

RATIO_FLOOR = 1e-10      # floor on the sensitivity ratio inside the update
RATIO_CAP = 1e200        # keeps rho * ratio**damping finite; the clamp saturates far earlier
DAMPING = 0.5            # exponent on the sensitivity ratio in the multiplicative update
VOLUME_TOL = 1e-6        # bisection tolerance on the volume fraction
LAM_MIN = 1e-60          # multiplier search range; outside it the update is saturated anyway
LAM_MAX = 1e60
MAX_BRACKET = 100
MAX_BISECT = 300


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric ramp rates and limits for the penalty and projection sharpness."""

    p_init: float = 1.0
    p_max: float = 3.0
    c_p: float = 1.03
    beta_hat_init: float = 0.1
    beta_hat_max: float = 10.0
    c_beta_hat: float = 1.05
    beta_bar_init: float = 1.0
    beta_bar_max: float = 25.0
    c_beta_bar: float = 1.05
    mode: str = "sequential"

    def __post_init__(self):
        for key in ("c_p", "c_beta_hat", "c_beta_bar"):
            if not getattr(self, key) > 1:
                raise ValueError(f"{key} must be > 1")
        if self.p_max < self.p_init or self.beta_hat_max < self.beta_hat_init \
                or self.beta_bar_max < self.beta_bar_init:
            raise ValueError("continuation maxima must be >= their initial values")
        if self.mode not in ("sequential", "simultaneous"):
            raise ValueError(f"unknown continuation mode {self.mode!r}")


@dataclass(frozen=True)
class ContinuationState:
    """Current continuation values plus which ramps are active for this run."""

    p: float
    beta_hat: float
    beta_bar: float
    p_active: bool = True
    beta_hat_active: bool = True
    beta_bar_active: bool = True

    @classmethod
    def initial(cls, sched: ContinuationSchedule, p_active=True, beta_hat_active=True,
                beta_bar_active=True) -> "ContinuationState":
        return cls(p=sched.p_init if p_active else 1.0,
                   beta_hat=sched.beta_hat_init,
                   beta_bar=sched.beta_bar_init,
                   p_active=p_active, beta_hat_active=beta_hat_active,
                   beta_bar_active=beta_bar_active)

    def complete(self, sched: ContinuationSchedule) -> bool:
        return ((not self.p_active or self.p == sched.p_max)
                and (not self.beta_hat_active or self.beta_hat == sched.beta_hat_max)
                and (not self.beta_bar_active or self.beta_bar == sched.beta_bar_max))


def update_continuation(sched: ContinuationSchedule, state: ContinuationState) -> ContinuationState:
    """One continuation step; in sequential mode sharpness ramps wait for the penalty."""
    ramp_p = state.p_active and state.p < sched.p_max
    if sched.mode == "sequential" and ramp_p:
        return replace(state, p=min(sched.c_p * state.p, sched.p_max))
    changes = {}
    if ramp_p:
        changes["p"] = min(sched.c_p * state.p, sched.p_max)
    if state.beta_hat_active and state.beta_hat < sched.beta_hat_max:
        changes["beta_hat"] = min(sched.c_beta_hat * state.beta_hat, sched.beta_hat_max)
    if state.beta_bar_active and state.beta_bar < sched.beta_bar_max:
        changes["beta_bar"] = min(sched.c_beta_bar * state.beta_bar, sched.beta_bar_max)
    return replace(state, **changes) if changes else state


@dataclass
class IterationRecord:
    iteration: int
    compliance: float
    vol_frac: float
    drho_mean: float
    p: float
    beta_hat: float
    beta_bar: float
    step: float
    lt_fraction: float


def delta_rho_mean(rho_old: np.ndarray, rho_new: np.ndarray, volumes: np.ndarray) -> float:
    """Volume-weighted mean absolute density change between iterations."""
    rho_old = np.asarray(rho_old, dtype=float)
    rho_new = np.asarray(rho_new, dtype=float)
    if rho_old.shape != rho_new.shape or rho_old.shape != np.shape(volumes):
        raise ValueError("field and volume lengths must match")
    return float(np.sum(volumes * np.abs(rho_new - rho_old)) / np.sum(volumes))


def gocm_update(rho: np.ndarray, dF: np.ndarray, dG: np.ndarray, step: float,
                vol_target: float, volumes: np.ndarray,
                physical_map: Callable[[np.ndarray], np.ndarray] | None = None,
                lam_seed: float = 1.0) -> tuple[np.ndarray, float]:
    """Multiplicative exponential design update with a bisected volume multiplier.

    rho_new = clip(rho * B^0.5, rho - step, rho + step) clipped to [0, 1], with
    B = max(eps, -dF / (lam * dG)); the decaying step acts as a move limit. lam
    is bisected (geometrically) until the volume fraction of the physical field
    equals vol_target within VOLUME_TOL, or the constraint is inactive at the
    lower bracket. Returns the new raw field and the multiplier found, which
    makes a good seed for the next iteration.
    """
    rho = np.asarray(rho, dtype=float)
    dF = np.asarray(dF, dtype=float)
    dG = np.asarray(dG, dtype=float)
    if (dF > 0).any():
        raise ValueError("objective sensitivities must be <= 0")
    if (dG <= 0).any():
        raise ValueError("constraint sensitivities must be > 0")
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    if not lam_seed > 0:
        raise ValueError("lam_seed must be positive")
    lam_seed = float(np.clip(lam_seed, LAM_MIN, LAM_MAX))

    base_ratio = np.minimum(-dF / dG, RATIO_CAP)
    total_volume = np.sum(volumes)

    def candidate(lam: float) -> np.ndarray:
        ratio = np.maximum(RATIO_FLOOR, np.minimum(base_ratio / lam, RATIO_CAP))
        proposed = rho * ratio ** DAMPING
        return np.clip(np.clip(proposed, rho - step, rho + step), 0.0, 1.0)

    def excess(lam: float) -> tuple[float, np.ndarray]:
        new = candidate(lam)
        phys = physical_map(new) if physical_map is not None else new
        return float(np.sum(volumes * phys) / total_volume) - vol_target, new

    err, new = excess(lam_seed)
    if abs(err) <= VOLUME_TOL:
        return new, lam_seed

    if err > 0.0:   # too much material: raise the multiplier
        lo = lam_seed
        hi = lam_seed
        for _ in range(MAX_BRACKET):
            hi = min(hi * 2.0, LAM_MAX)
            err, new = excess(hi)
            if abs(err) <= VOLUME_TOL:
                return new, hi
            if err < 0.0:
                break
            if hi >= LAM_MAX:
                # the move limit saturates before the target is reachable; take the
                # maximal feasible step toward it (the constraint is an inequality)
                return new, hi
        else:
            return new, hi   # saturated within the bracketing budget
    else:           # too little: lower the multiplier, or the constraint is inactive
        hi = lam_seed
        lo = lam_seed
        for _ in range(MAX_BRACKET):
            lo = max(lo / 2.0, LAM_MIN)
            err, new = excess(lo)
            if abs(err) <= VOLUME_TOL:
                return new, lo
            if err > 0.0:
                break
            if lo <= LAM_MIN:
                return new, lo   # inactive constraint: keep the lower-bracket update
        else:
            return new, lo   # inactive constraint within the bracketing budget

    for _ in range(MAX_BISECT):
        mid = np.sqrt(lo * hi)
        err, new = excess(mid)
        if abs(err) <= VOLUME_TOL:
            return new, mid
        if err > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError(f"volume bisection did not reach tolerance {VOLUME_TOL}")


@dataclass
class RunResult:
    raw: ElementField
    chain: RegularizedChain
    history: list[IterationRecord]
    converged: bool
    iterations: int
    compliance: float
    vol_frac: float
    lt_fraction: float
    transition_width: float | None = None   # along cfg.width_profile, measured by run_single

    @property
    def fields(self) -> dict[str, ElementField]:
        return {
            "raw": self.raw,
            "filtered": self.chain.rho_tilde,
            "dgi": self.chain.rho_hat,
            "physical": self.chain.rho_physical,
        }


def forward(setup: "ProblemSetup", raw: np.ndarray, state: ContinuationState,
            frozen_stats: NeighborhoodStats | None = None) -> RegularizedChain:
    """Regularization chain of raw densities at the state's projection sharpness."""
    params = ProjectionParams(rho_low=setup.config.rho_low, beta_bar=state.beta_bar,
                              beta_hat=state.beta_hat, radius=setup.dgi_radius)
    return regularize_chain(setup.grid, ElementField(raw, "raw"), params, setup.filter,
                            projection=setup.projection, dgi_enabled=setup.dgi_enabled,
                            frozen_stats=frozen_stats)


def evaluate(setup: "ProblemSetup", raw: np.ndarray, state: ContinuationState
             ) -> tuple[RegularizedChain, StateSolution, np.ndarray]:
    """Forward chain, state solve and compliance gradient w.r.t. the raw densities.

    The one analysis step: the run loop, the final analysis and the gradient
    check's base point all call it.
    """
    chain = forward(setup, raw, state)
    solution = assemble_and_solve(setup.grid, setup.bc, chain.rho_physical, state.p,
                                  setup.config.rho_low, setup.material,
                                  interpolation=setup.interpolation, solver=setup.config.solver)
    grad_phys = compliance_sensitivity(setup.grid, solution, chain.rho_physical, state.p,
                                       setup.config.rho_low, setup.material,
                                       interpolation=setup.interpolation)
    return chain, solution, chain_gradient(chain, grad_phys)


def run_optimization(setup: "ProblemSetup",
                     callback: Callable[[IterationRecord, RegularizedChain, np.ndarray], None] | None = None
                     ) -> RunResult:
    """Iterate solve -> sensitivities -> update -> continuation until converged.

    Convergence requires both the mean density change below tolerance and all
    active continuation parameters at their maxima.
    """
    grid, cfg = setup.grid, setup.config
    volumes = grid.element_volumes()
    sched = setup.schedule
    state = ContinuationState.initial(
        sched,
        p_active=setup.simp_ramp,
        beta_hat_active=setup.dgi_enabled,
        beta_bar_active=setup.projection != "none",
    )

    rho = np.full(grid.n_elements, cfg.rho_init)
    step = cfg.step_init
    lam = 1.0
    history: list[IterationRecord] = []
    converged = False

    for iteration in range(1, cfg.max_iters + 1):
        chain, solution, dF = evaluate(setup, rho, state)
        dF = np.minimum(dF, 0.0)   # roundoff guard; the true gradient is nonpositive

        vol_grad_phys = volumes / np.sum(volumes)
        if cfg.volume_on == "physical":
            dG = chain_gradient(chain, vol_grad_phys)
            physical_map = lambda raw: forward(setup, raw, state).rho_physical.values
        else:
            dG = vol_grad_phys.copy()
            physical_map = None
        dG = np.maximum(dG, 1e-300)

        rho_new, lam = gocm_update(rho, dF, dG, step, cfg.vol_frac, volumes,
                                   physical_map=physical_map, lam_seed=lam)
        drho = delta_rho_mean(rho, rho_new, volumes)

        record = IterationRecord(
            iteration=iteration,
            compliance=solution.compliance,
            vol_frac=float(np.sum(volumes * chain.rho_physical.values) / np.sum(volumes)),
            drho_mean=drho,
            p=state.p,
            beta_hat=state.beta_hat,
            beta_bar=state.beta_bar,
            step=step,
            lt_fraction=low_thickness_fraction(chain.rho_physical.values, volumes, cfg.rho_low),
        )
        history.append(record)
        if callback is not None:
            callback(record, chain, rho)

        rho = rho_new
        if drho < cfg.tol_drho and state.complete(sched):
            converged = True
            break
        state = update_continuation(sched, state)
        step = max(step * cfg.step_decay, cfg.step_min)

    # final analysis of the accepted design with the last active parameters
    chain, solution, _ = evaluate(setup, rho, state)
    return RunResult(
        raw=ElementField(rho, "raw"),
        chain=chain,
        history=history,
        converged=converged,
        iterations=len(history),
        compliance=solution.compliance,
        vol_frac=float(np.sum(volumes * chain.rho_physical.values) / np.sum(volumes)),
        lt_fraction=low_thickness_fraction(chain.rho_physical.values, volumes, cfg.rho_low),
    )
