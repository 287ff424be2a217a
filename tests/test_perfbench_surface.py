"""The program surface that the benchmark in perfbench/ reaches into, on an 8x4 grid.

perfbench installs its probes by attribute and calls vtopt's internals directly,
so a deletion or rename that breaks the benchmark fails here, in the fast suite.
These tests read perfbench/ and change nothing in it.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vtopt import config, fem, optimizer, problem
from vtopt.grid import StructuredGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NO_CALIBRATION = SimpleNamespace(maybe=lambda: None)


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules, imported the way perfbench/run.py imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import reference
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return SimpleNamespace(reference=reference, tracing=tracing, workloads=workloads)


def small_setup(extra=""):
    cfg = config.parse_config_text("nx = 8\nny = 4\n" + extra)
    return cfg, problem.build_problem(cfg)


def test_tracer_installs_and_uninstalls(bench):
    probes = {name: (owner, attr) for name, (owner, attr) in bench.tracing.TRACED.items()}
    probes["fem.factorize"] = (fem, "splu")
    probes["grid.neighbor_table"] = (StructuredGrid, "neighbor_table")
    originals = {name: getattr(owner, attr) for name, (owner, attr) in probes.items()}
    tracer = bench.tracing.Tracer()
    tracer.install()
    try:
        replaced = [name for name, (owner, attr) in probes.items()
                    if getattr(owner, attr) is not originals[name]]
        optimizer.run_optimization(small_setup("max_iters = 3\n")[1])
    finally:
        tracer.uninstall()
    assert replaced == list(probes)
    assert all(getattr(owner, attr) is originals[name] for name, (owner, attr) in probes.items())
    spans = {span[0] for span in tracer.spans}
    assert {"optimizer.run_optimization", "optimizer.gocm_update", "fem.assemble_and_solve",
            "fem.factorize", "projections.regularize_chain"} <= spans
    assert len(tracer.factor_nnz) == 4   # three iterations and the final analysis


@pytest.mark.parametrize("text", ["", "penalized_reference = on\n"])
def test_taylor_remainder_decays_at_rate_two(bench, text):
    cfg = bench.workloads.check_config("nx = 8\nny = 4\n" + text, 0)
    rates, compliance, physical = bench.workloads.taylor_rates(cfg, 0)
    low, high = bench.workloads.TAYLOR_RATE_RANGE
    assert low <= np.mean(rates) <= high, rates
    own = bench.reference.cantilever_compliance(cfg, physical, cfg.p_max)
    assert bench.reference.relative_gap(own, compliance) <= bench.reference.COMPLIANCE_RTOL


def test_run_loop_probes_see_the_final_analysis_last(bench):
    cfg, setup = small_setup()
    clock, solve = bench.tracing.IterationClock(NO_CALIBRATION), bench.tracing.LastCall()
    with bench.tracing.patched(optimizer, "assemble_and_solve", solve.wrap):
        result = clock.wrap(optimizer.run_optimization)(setup)
    assert optimizer.assemble_and_solve is fem.assemble_and_solve
    assert clock.result is result and len(clock.ms) == result.iterations
    assert solve.calls == result.iterations + 1
    assert solve.result.compliance == result.compliance
    assert bench.workloads.resolve_problems(cfg, solve) == []
    assert bench.workloads.final_field_problems(cfg, result) == []


def test_gradient_check_probe_counts_its_solves(bench):
    tally = bench.workloads.Tally(NO_CALIBRATION, NO_CALIBRATION)
    bench.workloads.gradient_check(tally, "default", bench.workloads.check_config("", 0))
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])
    # the probes look fem.assemble_and_solve up per call; the base point solves through
    # the optimizer's own reference, which this probe does not see
    assert tally.solves_per_check == [2 * bench.workloads.CHECK_PROBES]
