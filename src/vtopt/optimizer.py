"""Design update with volume constraint, continuation scheduling, and the run loop.

The update is an optimality-criteria style multiplicative step: each density is
scaled by the square root of its sensitivity ratio, capped by its own move
limit, with a Lagrange multiplier found by a safeguarded Newton search in
log(lambda) until the resulting physical volume fraction hits the target. An
element's limit shrinks when its last two moves had opposite signs and grows
when they had the same sign, as the asymptotes of Svanberg's method of moving
asymptotes do (IJNME 1987), within a global limit that decays geometrically.
The penalty exponent and the two projection sharpness parameters ramp
geometrically from the problem's continuation_start to its continuation_end,
by default sequentially (sharpness ramps start once the penalty exponent is
maxed out). build_problem decides which ramps a mode uses; an inactive ramp
ends where it starts, so it never moves.

The run loop carries one chain and its volume gradient. The search returns
its last trial's field, so that trial's chain and volume gradient become the
next iteration's and the final analysis's; a forward pass outside the search
runs only before the first iteration and when the projection sharpness steps
(p never enters the chain).
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
    from .config import RunConfig
    from .problem import ProblemSetup

RATIO_FLOOR = 1e-10      # floor on the sensitivity ratio inside the update
RATIO_CAP = 1e200        # keeps rho * ratio**damping finite; the clamp saturates far earlier
DAMPING = 0.5            # exponent on the sensitivity ratio in the multiplicative update
MOVE_SHRINK = 0.7        # factor on an element's move limit after its move changes sign
MOVE_GROW = 1.2          # factor on an element's move limit after a move in the same direction
VOLUME_TOL = 1e-6        # multiplier search tolerance on the volume fraction
LOG_LAM_BOUND = float(np.log(1e60))   # |log lam| range around the sensitivity scale; beyond it
                                      # the update is saturated anyway
MAX_ROOT_STEPS = 100     # budget of volume evaluations per multiplier search


@dataclass(frozen=True)
class ContinuationState:
    """Penalty exponent and projection sharpness of one iteration."""

    p: float
    beta_hat: float
    beta_bar: float


def update_continuation(cfg: "RunConfig", state: ContinuationState,
                        end: ContinuationState) -> ContinuationState:
    """One geometric continuation step toward end at the config's rates.

    In sequential mode the sharpness ramps wait until the penalty reaches its
    end. Every rate exceeds 1, so a ramp that ends where it starts stays put.
    """
    p = min(cfg.c_p * state.p, end.p)
    if cfg.continuation_mode == "sequential" and state.p < end.p:
        return replace(state, p=p)
    return ContinuationState(p=p, beta_hat=min(cfg.c_beta_hat * state.beta_hat, end.beta_hat),
                             beta_bar=min(cfg.c_beta_bar * state.beta_bar, end.beta_bar))


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


def gocm_update(rho: np.ndarray, dF: np.ndarray, dG: np.ndarray, step: float | np.ndarray,
                vol_target: float, physical_map: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                lam_seed: float | None = None) -> tuple[np.ndarray, float]:
    """Multiplicative exponential design update with a searched volume multiplier.

    rho_new = clip(rho * B^0.5, rho - step, rho + step) clipped to [0, 1], with
    B = max(eps, -dF / (lam * dG)); step is the move limit, one for every
    element or one per element. physical_map(rho_new) returns the physical
    field and the gradient of its volume fraction w.r.t. rho_new.

    The volume excess falls as lam grows, so lam is found by Newton's method in
    t = log(lam), measured from the mean of -dF / dG so that the search does
    not depend on the problem's scale. Elements whose ratio reaches RATIO_CAP
    are left out of that mean, which they would swamp. Without lam_seed the
    search starts at the mean (t = 0). The slope of a trial is the volume
    gradient times d rho_new / dt = -DAMPING * rho_new on the elements no
    clip holds; once two trials lie on one side of the root, their secant takes
    its place, which corrects a slope biased by the parts of the chain that the
    gradient holds fixed. Bisection safeguards Newton (rtsafe, Numerical
    Recipes 9.4): after an unusable slope, a step out of the bracket of the
    latest trials on each side of the root or an excess not halved, the next
    trial bisects that bracket, or tries the bound beyond t if it has one end.
    The search stops when the volume fraction equals vol_target within
    VOLUME_TOL, or when no lam can move the field further toward it (every
    element held by a clip in that direction, or |t| at LOG_LAM_BOUND): a
    saturated move limit or an inactive constraint, whose update is returned.
    Returns the new raw field, which is always the last trial's, and the
    multiplier found, which makes a good seed for the next iteration.
    """
    rho = np.asarray(rho, dtype=float)
    dF = np.asarray(dF, dtype=float)
    dG = np.asarray(dG, dtype=float)
    if not (dF <= 0).all():
        raise ValueError("objective sensitivities must be <= 0")
    if not (dG > 0).all():
        raise ValueError("constraint sensitivities must be > 0")
    step = np.asarray(step, dtype=float)
    if not ((step > 0) & (step <= 1)).all():
        raise ValueError(f"step must be in (0, 1], got values in [{step.min()}, {step.max()}]")
    if lam_seed is not None and not lam_seed > 0:
        raise ValueError("lam_seed must be positive")

    base_ratio = np.minimum(-dF, RATIO_CAP * dG) / dG   # divides without overflow
    # an element at the cap has next to no volume gradient, so it sets no scale
    uncapped = base_ratio[-dF < RATIO_CAP * dG]
    scale = float(np.mean(uncapped)) if uncapped.any() else 1.0
    relative_ratio = np.minimum(base_ratio, RATIO_CAP * scale) / scale
    lower, upper = np.maximum(rho - step, 0.0), np.minimum(rho + step, 1.0)

    def trial(t: float) -> tuple[float, float, np.ndarray, bool]:
        scaled = relative_ratio * np.exp(-t)
        grown = rho * np.clip(scaled, RATIO_FLOOR, RATIO_CAP) ** DAMPING
        new = np.clip(grown, lower, upper)
        # clips that a larger lam cannot release, and those a smaller lam cannot
        held_low = (scaled <= RATIO_FLOOR) | (grown <= lower)
        held_high = (scaled >= RATIO_CAP) | (grown >= upper)
        free = ~(held_low | held_high)
        phys, grad = physical_map(new)
        excess = float(np.mean(phys)) - vol_target
        stuck = bool((held_low if excess > 0.0 else held_high).all())
        return excess, -DAMPING * float(grad[free] @ new[free]), new, stuck

    t = 0.0 if lam_seed is None else \
        float(np.clip(np.log(lam_seed) - np.log(scale), -LOG_LAM_BOUND, LOG_LAM_BOUND))
    lo, hi = -np.inf, np.inf   # t of the latest trial below and above the root
    previous, best = None, np.inf   # (t, excess) of the last trial, least |excess| so far
    for _ in range(MAX_ROOT_STEPS):
        f, slope, new, stuck = trial(t)
        side = f > 0.0   # too much material raises the multiplier, too little lowers it
        direction = 1.0 if side else -1.0
        if abs(f) <= VOLUME_TOL or stuck or direction * t >= LOG_LAM_BOUND:
            return new, scale * float(np.exp(t))
        if previous is not None and (previous[1] > 0.0) == side:
            # two trials on one side of the root: their secant corrects a biased slope
            secant = (f - previous[1]) / (t - previous[0])
            slope = secant if secant < 0.0 else slope
        slow = abs(f) > 0.5 * best
        best, previous = min(best, abs(f)), (t, f)
        lo, hi = (t, hi) if side else (lo, t)
        guess = t - f / slope if slope < 0.0 else np.nan
        if slow or not lo < guess < hi:
            guess = 0.5 * (lo + hi)   # with no trial past the root, the clip makes it the bound
        t = float(np.clip(guess, -LOG_LAM_BOUND, LOG_LAM_BOUND))
    raise NumericalError(f"volume multiplier search did not reach tolerance {VOLUME_TOL}")


def damp_move_limits(limits: np.ndarray, last_move: np.ndarray, move: np.ndarray, step: float,
                     step_min: float) -> np.ndarray:
    """Each element's next move limit, clipped to [step_min, step].

    It shrinks by MOVE_SHRINK when the element's last two moves had opposite
    signs, grows by MOVE_GROW when they had the same sign, and stays when
    either was zero.
    """
    turn = np.sign(last_move) * np.sign(move)
    factor = np.where(turn < 0.0, MOVE_SHRINK, np.where(turn > 0.0, MOVE_GROW, 1.0))
    return np.clip(limits * factor, step_min, step)


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

    The gradient check's base point calls it. The run loop runs the same
    analysis on the chain it carries from the volume search.
    """
    chain = forward(setup, raw, state)
    return (chain, *_analyse(setup, chain, state.p))


def _analyse(setup: "ProblemSetup", chain: RegularizedChain, p: float
             ) -> tuple[StateSolution, np.ndarray]:
    """State solve and compliance gradient w.r.t. the raw densities of a built chain."""
    solution = assemble_and_solve(setup.grid, setup.bc, chain.rho_physical, p,
                                  setup.config.rho_low, setup.material,
                                  interpolation=setup.interpolation, solver=setup.config.solver)
    grad_phys = compliance_sensitivity(setup.grid, solution, chain.rho_physical, p,
                                       setup.config.rho_low, setup.material,
                                       interpolation=setup.interpolation)
    return solution, chain_gradient(chain, grad_phys)


def run_optimization(setup: "ProblemSetup",
                     callback: Callable[[IterationRecord, RegularizedChain, np.ndarray], None] | None = None
                     ) -> RunResult:
    """Iterate solve -> sensitivities -> update -> continuation until converged.

    Convergence requires both the mean density change below tolerance and the
    continuation at its end.
    """
    grid, cfg = setup.grid, setup.config
    vol_grad_phys = np.full(grid.n_elements, 1.0 / grid.n_elements)
    state, end = setup.continuation_start, setup.continuation_end

    rho = np.full(grid.n_elements, cfg.rho_init)
    step = cfg.step_init
    limits = np.full(grid.n_elements, step)   # each element's move limit
    move = np.zeros(grid.n_elements)          # each element's last move
    lam = None   # the first search starts at the sensitivity scale
    history: list[IterationRecord] = []
    converged = False

    def forward_with_volume_gradient(raw):
        built = forward(setup, raw, state)
        return built, chain_gradient(built, vol_grad_phys)

    chain, dG = forward_with_volume_gradient(rho)
    trial = None   # chain and volume gradient of the volume search's latest trial

    def physical_map(raw):
        nonlocal trial
        trial = forward_with_volume_gradient(raw)
        return trial[0].rho_physical.values, trial[1]

    for iteration in range(1, cfg.max_iters + 1):
        solution, dF = _analyse(setup, chain, state.p)
        dF = np.minimum(dF, 0.0)   # roundoff guard; the true gradient is nonpositive
        dG = np.maximum(dG, 1e-300)
        rho_new, lam = gocm_update(rho, dF, dG, limits, cfg.vol_frac, physical_map, lam_seed=lam)
        last_move, move = move, rho_new - rho
        drho = float(np.mean(np.abs(move)))

        record = IterationRecord(
            iteration=iteration,
            compliance=solution.compliance,
            vol_frac=float(np.mean(chain.rho_physical.values)),
            drho_mean=drho,
            p=state.p,
            beta_hat=state.beta_hat,
            beta_bar=state.beta_bar,
            step=step,
            lt_fraction=low_thickness_fraction(chain.rho_physical.values, cfg.rho_low),
        )
        history.append(record)
        if callback is not None:
            callback(record, chain, rho)

        rho, (chain, dG) = rho_new, trial   # the search returns its latest trial's field
        if drho < cfg.tol_drho and state == end:
            converged = True
            break
        state, previous = update_continuation(cfg, state, end), state
        # p never enters the chain, so only a sharpness step rebuilds it
        if (state.beta_hat, state.beta_bar) != (previous.beta_hat, previous.beta_bar):
            chain, dG = forward_with_volume_gradient(rho)
        step = max(step * cfg.step_decay, cfg.step_min)
        limits = damp_move_limits(limits, last_move, move, step, cfg.step_min)

    # final analysis of the accepted design at the last continuation state
    solution, _ = _analyse(setup, chain, state.p)
    return RunResult(
        raw=ElementField(rho, "raw"),
        chain=chain,
        history=history,
        converged=converged,
        iterations=len(history),
        compliance=solution.compliance,
        vol_frac=float(np.mean(chain.rho_physical.values)),
        lt_fraction=low_thickness_fraction(chain.rho_physical.values, cfg.rho_low),
    )
