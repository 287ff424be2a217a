"""What the benchmark measures: its workloads and metrics, as BENCHMARK.json states them."""

RUN_SECONDS = 30

WORKLOADS = [
    {"name": "default_run",
     "why": "the first run every user makes: vtopt run on an empty config, 80x40 with every "
            "mode on, parse to export, plus vtopt gradcheck on the same config"},
    {"name": "slice_160x80",
     "why": "acceptance-gate scale, where the sparse factorization is most of each iteration "
            "and sets peak memory; a fixed slice isolates per-iteration cost"},
    {"name": "gradcheck_suites",
     "why": "many tiny state solves with no optimizer or volume search, where assembly and "
            "per-call set-up outweigh the factorization"},
]

# bound: share of the parent's median by which a metric may worsen. Times are
# CPU times scaled to the reference speed (calibration.py); they get the largest
# bound allowed, since the scaling removes most of the machine's drift but not all
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iter_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "check_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "iterations", "unit": "count", "better": "lower", "bound": 0.05},
    {"name": "compliance", "unit": "model_units", "better": "lower", "bound": 0.01},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# per-layer metric -> unit; counts are per round of the workload, times per call
PER_LAYER = {
    "config.parse_config.ms": "ms",
    "problem.build_problem.ms": "ms",
    "problem.build_problem.calls": "count",
    "grid.neighbor_table.build_ms": "ms",
    "pde_filter.apply.calls": "count",
    "pde_filter.apply.ms_per_call": "ms",
    "pde_filter.apply_transpose.calls": "count",
    "pde_filter.apply_transpose.ms_per_call": "ms",
    "projections.regularize_chain.calls": "count",
    "projections.regularize_chain.ms_per_call": "ms",
    "projections.regularize_chain.self_ms_per_call": "ms",
    "projections.neighborhood_stats.calls": "count",
    "projections.neighborhood_stats.ms_per_call": "ms",
    "projections.chain_gradient.calls": "count",
    "projections.chain_gradient.ms_per_call": "ms",
    "fem.factorize.ms_per_call": "ms",
    "fem.factor_nnz": "count",
    "fem.assembly.ms_per_call": "ms",
    "fem.assemble_and_solve.calls": "count",
    "fem.compliance_sensitivity.calls": "count",
    "fem.compliance_sensitivity.ms_per_call": "ms",
    "optimizer.gocm_update.calls": "count",
    "optimizer.gocm_update.ms_per_call": "ms",
    "optimizer.forward_passes_per_update": "count",
    "diagnostics.gradient_check.ms_per_call": "ms",
    "diagnostics.solves_per_check": "count",
    "export.ms": "ms",
    "export.bytes": "bytes",
    "runner.run_single.overhead_ms": "ms",
    "trace.overhead_s": "s",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in PER_LAYER.items()],
    }
