"""Per-layer spans recorded from outside vtopt, and small probes on its calls.

The tracer replaces each listed public function, in every vtopt module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent span, operation). Spans stay in memory until the run ends. The probes
are the few wrappers the untraced run needs too: one timestamps the optimizer
callback, one keeps the arguments and result of the last call of a function.

Spans and per-operation times use the calling thread's CPU clock. On a shared
virtual machine the hypervisor takes the CPU away now and then (steal), which
inflates wall-clock percentiles of short operations far more than the program's
own work varies; the thread's CPU time does not count those pauses. The
machine's speed drifts as well; calibration.py scales the per-operation times
for that, while the spans stay unscaled.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from time import thread_time as cpu_clock
from types import ModuleType

import vtopt
from vtopt import (cli, config, diagnostics, export, fem, grid, optimizer, pde_filter, problem,
                   projections, runner)

MODULES = (vtopt, cli, config, diagnostics, export, fem, grid, optimizer, pde_filter, problem,
           projections, runner)

# span name -> (owner, attribute); a module-level function is replaced wherever
# a vtopt module refers to it, a method on its class
TRACED = {
    "config.parse_config": (config, "parse_config"),
    "config.parse_config_text": (config, "parse_config_text"),
    "problem.build_problem": (problem, "build_problem"),
    "pde_filter.apply": (pde_filter.DensityFilter, "apply"),
    "pde_filter.apply_transpose": (pde_filter.DensityFilter, "apply_transpose"),
    "projections.regularize_chain": (projections, "regularize_chain"),
    "projections.neighborhood_stats": (projections, "neighborhood_stats"),
    "projections.chain_gradient": (projections, "chain_gradient"),
    "fem.assemble_and_solve": (fem, "assemble_and_solve"),
    "fem.compliance_sensitivity": (fem, "compliance_sensitivity"),
    "optimizer.gocm_update": (optimizer, "gocm_update"),
    "optimizer.run_optimization": (optimizer, "run_optimization"),
    "diagnostics.gradient_check": (diagnostics, "gradient_check"),
    "runner.run_single": (runner, "run_single"),
    "export.write_history": (export, "write_history"),
    "export.write_snapshots": (export, "write_snapshots"),
    "export.write_vtk": (export, "write_vtk"),
    "export.write_metrics": (export, "write_metrics"),
    "export.write_field_text": (export, "write_field_text"),
    "export.write_field_pgm": (export, "write_field_pgm"),
}

PARSE = ("config.parse_config", "config.parse_config_text")


@contextmanager
def patched(owner, attr, wrap):
    """Replace owner.attr by wrap(owner.attr) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class LastCall:
    """Counts calls of a function and keeps the arguments and result of the last one."""

    def __init__(self):
        self.calls = 0
        self.args = self.kwargs = self.result = None

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls += 1
            self.args, self.kwargs, self.result = args, kwargs, result
            return result
        return wrapper


class IterationClock:
    """Wraps run_optimization so that every optimizer callback is timestamped.

    An iteration's time runs from the previous callback (or the call's start)
    to its own callback; the caller's callback still runs after the stamp.
    Between the stamp and the caller's callback the calibration may take a
    sample, which no iteration's time includes.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.ms: list[tuple[float, float]] = []   # (wall time, CPU ms) per iteration
        self.result = None

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(setup, callback=None):
            last = cpu_clock()

            def tick(record, chain, rho):
                nonlocal last
                self.ms.append((perf_counter(), (cpu_clock() - last) * 1e3))
                self.calibration.maybe()
                last = cpu_clock()
                if callback is not None:
                    callback(record, chain, rho)

            self.result = fn(setup, callback=tick)
            return self.result
        return wrapper


class Tracer:
    """Span recorder for the functions in TRACED, the fem LU call and first-use neighbor tables."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, operation]
        self.operation = 0            # the round the spans belong to
        self.factor_nnz: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._tables_seen: dict = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.operation]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = cpu_clock()
                self._stack.pop()
        return traced

    def _wrap_factorize(self, fn):
        traced = self.wrap("fem.factorize", fn)

        @functools.wraps(fn)
        def factorize(*args, **kwargs):
            lu = traced(*args, **kwargs)
            self.factor_nnz.append(int(lu.nnz))
            return lu
        return factorize

    def _wrap_neighbor_table(self, fn):
        # only the first call per (grid, radius) builds a table; later calls are cache hits
        build = self.wrap("grid.neighbor_table.build", fn)

        @functools.wraps(fn)
        def neighbor_table(grid_self, r):
            seen = self._tables_seen.setdefault(id(grid_self), (grid_self, set()))[1]
            if float(r) in seen:
                return fn(grid_self, r)
            seen.add(float(r))
            return build(grid_self, r)
        return neighbor_table

    def _replace(self, owners, original, wrapped) -> None:
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, original))

    def install(self) -> None:
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            owners = MODULES if isinstance(owner, ModuleType) else (owner,)
            self._replace(owners, original, self.wrap(name, original))
        # only the sparse LU call fem makes; the filter's own factorization is set-up
        self._replace((fem,), fem.splu, self._wrap_factorize(fem.splu))
        table = grid.StructuredGrid.neighbor_table
        self._replace((grid.StructuredGrid,), table, self._wrap_neighbor_table(table))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        table = [[index[name], round(start * 1e6, 1), round((end - start) * 1e6, 1), parent, op]
                 for name, start, end, parent, op in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": names,
                       "columns": ["name", "cpu_start_us", "cpu_duration_us", "parent", "operation"],
                       "spans": table}, handle)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures; counts are per round, times per call in ms."""
        spans = self.spans
        duration: dict[str, list[float]] = {}
        for name, start, end, _, _ in spans:
            duration.setdefault(name, []).append(end - start)

        def calls(name):
            return len(duration.get(name, ()))

        def total_ms(name):
            return 1e3 * sum(duration.get(name, ()))

        def per_call_ms(name):
            return total_ms(name) / calls(name) if calls(name) else 0.0

        def under(ancestor):
            """Indices of spans that have a span named `ancestor` above them."""
            found = set()
            for i, span in enumerate(spans):
                parent = span[3]
                while parent >= 0:
                    if spans[parent][0] == ancestor:
                        found.add(i)
                        break
                    parent = spans[parent][3]
            return found

        def child_ms(parent_name, child_names):
            return 1e3 * sum(end - start for name, start, end, parent, _ in spans
                             if name in child_names and parent >= 0
                             and spans[parent][0] == parent_name)

        def ratio(a, b):
            return a / b if b else 0.0

        parse = [end - start for name, start, end, parent, _ in spans
                 if name in PARSE and (parent < 0 or spans[parent][0] not in PARSE)]
        exported = [end - start for name, start, end, parent, _ in spans
                    if name.startswith("export.")
                    and (parent < 0 or not spans[parent][0].startswith("export."))]
        forward = under("optimizer.gocm_update")
        checked = under("diagnostics.gradient_check")
        chain_calls = calls("projections.regularize_chain")
        solves = calls("fem.assemble_and_solve")
        singles = calls("runner.run_single")

        figures = {
            "config.parse_config.ms": 1e3 * ratio(sum(parse), len(parse)),
            "problem.build_problem.ms": per_call_ms("problem.build_problem"),
            "problem.build_problem.calls": calls("problem.build_problem") / rounds,
            "grid.neighbor_table.build_ms": per_call_ms("grid.neighbor_table.build"),
            "projections.regularize_chain.self_ms_per_call": ratio(
                total_ms("projections.regularize_chain") - child_ms(
                    "projections.regularize_chain",
                    ("pde_filter.apply", "projections.neighborhood_stats")), chain_calls),
            "fem.factorize.ms_per_call": per_call_ms("fem.factorize"),
            "fem.factor_nnz": ratio(sum(self.factor_nnz), len(self.factor_nnz)),
            "fem.assembly.ms_per_call": ratio(
                total_ms("fem.assemble_and_solve")
                - child_ms("fem.assemble_and_solve", ("fem.factorize",)), solves),
            "optimizer.forward_passes_per_update": ratio(
                sum(1 for i in forward if spans[i][0] == "projections.regularize_chain"),
                calls("optimizer.gocm_update")),
            "diagnostics.gradient_check.ms_per_call": per_call_ms("diagnostics.gradient_check"),
            "diagnostics.solves_per_check": ratio(
                sum(1 for i in checked if spans[i][0] == "fem.assemble_and_solve"),
                calls("diagnostics.gradient_check")),
            "export.ms": 1e3 * ratio(sum(exported), singles),
            "runner.run_single.overhead_ms": ratio(
                total_ms("runner.run_single")
                - child_ms("runner.run_single", ("optimizer.run_optimization",)), singles),
        }
        for name in ("pde_filter.apply", "pde_filter.apply_transpose",
                     "projections.regularize_chain", "projections.neighborhood_stats",
                     "projections.chain_gradient", "fem.compliance_sensitivity",
                     "optimizer.gocm_update"):
            figures[f"{name}.calls"] = calls(name) / rounds
            figures[f"{name}.ms_per_call"] = per_call_ms(name)
        figures["fem.assemble_and_solve.calls"] = solves / rounds
        return figures
