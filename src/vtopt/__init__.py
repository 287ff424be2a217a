"""Variable thickness sheet topology optimization.

2D compliance minimization where densities represent out-of-plane thickness,
with combined suppression of sub-threshold thin regions (selective SIMP
penalization plus a low-thickness projection) and a density-gradient-informed
projection that deblurs structural edges after filtering.
"""

from .config import RunConfig, parse_config
from .diagnostics import gradient_check
from .optimizer import ContinuationState, RunResult, evaluate, forward, run_optimization
from .problem import ProblemSetup, build_problem
from .runner import run_ablation_suite, run_single

__version__ = "0.1.0"

__all__ = [
    "ContinuationState", "ProblemSetup", "RunConfig", "RunResult", "build_problem", "evaluate",
    "forward", "gradient_check", "parse_config", "run_ablation_suite", "run_optimization",
    "run_single",
]
