"""The three workloads, each driven in-process by one closed-loop caller.

A workload is a sequence of identical rounds. The caller runs a round, waits
for it to end and starts the next while the run's time allows, so every run
attempts whole rounds and the share of failed operations never changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from calibration import Calibration
from tracing import IterationClock, LastCall, Tracer, cpu_clock, patched
from vtopt import cli, config, diagnostics, fem, optimizer, problem, projections, runner
from vtopt.errors import VtoptError
from vtopt.grid import ElementField

# the settings `vtopt gradcheck` uses: grid reduced to 8x4, 8 probes, central
# differences with step 1e-6, tolerance 1e-4 with DGI and 1e-5 without
CHECK_GRID = (8, 4)
CHECK_PROBES = 8
CHECK_FD_STEP = 1e-6
CHECK_TOL_DGI = 1e-4
CHECK_TOL_SMOOTH = 1e-5
# config seeds of the suite checks; fixed, because the penalized checks that fail
# do so on some of them and the failed share must not depend on --seed
SUITE_CHECK_SEEDS = range(20)
# gradient checks of the optimized config, made once per untraced default_run and
# slice run after its rounds, so that their small solves stay out of the rounds' figures
OWN_CHECK_SEEDS = range(80)
KNOWN_FAULT = "penalization_compare/penalized"
SETUP_REPEATS = 15
SLICE_ITERS = 20
SLICE_CONFIG = f"nx = 160\nny = 80\nh = 0.125\nmax_iters = {SLICE_ITERS}\n"

_NO_DGI = "lt_simp = off\nlt_projection = off\ndgi = off\n"
# the default config and every member of the lt_modes, dgi_radius_sharpness and
# penalization_compare suites, as a user would write them
SUITE_CONFIGS = [
    ("default", ""),
    ("lt_modes/none", _NO_DGI),
    ("lt_modes/simp_only", "lt_simp = on\nlt_projection = off\ndgi = off\n"),
    ("lt_modes/projection_only", "lt_simp = off\nlt_projection = on\ndgi = off\n"),
    ("lt_modes/combined", "lt_simp = on\nlt_projection = on\ndgi = off\n"),
    *[(f"dgi_radius_sharpness/r{radius:g}_" + ("off" if beta is None else f"b{beta}"),
       f"filter_radius = {radius}\n" + ("dgi = off\n" if beta is None else f"beta_hat_max = {beta}\n"))
      for radius in (0.25, 0.375, 0.5) for beta in (None, 5, 10, 25)],
    ("penalization_compare/vtto", _NO_DGI),
    (KNOWN_FAULT, "penalized_reference = on\n"),
]
# Taylor remainder test: steps halve from TAYLOR_STEP. A right gradient leaves a
# remainder that decays at rate 2 (each halving divides it by 4); a wrong one
# decays at rate 1, and a remainder at roundoff level stops decaying. The mean
# rate over the halvings is judged, since one halving can wobble.
TAYLOR_STEP = 3e-4
TAYLOR_HALVINGS = 4
TAYLOR_RATE_RANGE = (1.8, 2.2)


class Tally:
    """What a run measured and what its checks found.

    Times are (wall time, CPU duration) samples, which a calibration scales by
    the machine's speed at that wall time when the run ends. Gradient checks
    make tiny solves, so they are scaled by the tiny-solve kernel of
    gradcheck_suites on every workload.
    """

    def __init__(self, calibration: Calibration, check_calibration: Calibration):
        self.calibration = calibration
        self.check_calibration = check_calibration
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[tuple[float, float]] = []
        self.round_s: list[float] = []   # already at the reference speed
        self.iter_ms: list[tuple[float, float]] = []
        self.check_ms: list[tuple[float, float]] = []
        self.solves_per_check: list[int] = []
        self.export_bytes: list[int] = []
        self.compliance: float | None = None
        self.iterations: float | None = None


def check_config(text: str, seed: int):
    """Parse a config with its seed, reduced to the gradient check's grid as the CLI does."""
    cfg = config.parse_config_text(text + f"seed = {seed}\n")
    return cfg.replace(nx=min(cfg.nx, CHECK_GRID[0]), ny=min(cfg.ny, CHECK_GRID[1]))


def gradient_check(tally: Tally, name: str, cfg) -> None:
    """One gradient check with the CLI's settings; counts a failure against `name`."""
    solves = LastCall()
    tally.attempted += 1
    error = None
    tally.check_calibration.maybe()
    with patched(fem, "assemble_and_solve", solves.wrap):
        start = cpu_clock()
        try:
            error = diagnostics.gradient_check(cfg, n_probe=CHECK_PROBES, fd_step=CHECK_FD_STEP)
        except VtoptError as err:
            failure = f"raised {err}"
        else:
            tally.check_ms.append((perf_counter(), (cpu_clock() - start) * 1e3))
            tally.solves_per_check.append(solves.calls)
    tolerance = CHECK_TOL_DGI if cfg.dgi else CHECK_TOL_SMOOTH
    if error is not None:
        if error <= tolerance:
            return
        failure = f"error {error:.3e} > {tolerance:.0e}"
    tally.failed += 1
    if name != KNOWN_FAULT:
        tally.problems.append(f"gradient check {name} seed {cfg.seed}: {failure}")


def resolve_problems(cfg, solve: LastCall) -> list[str]:
    """Re-solve the last captured state solve with the reference assembly."""
    (_grid, _bc, rho_physical, p, *_), result = solve.args, solve.result
    own = reference.cantilever_compliance(cfg, rho_physical.values, p)
    gap = reference.relative_gap(own, result.compliance)
    if gap > reference.COMPLIANCE_RTOL:
        return [f"reference re-solve gives compliance {own:.12g}, program {result.compliance:.12g}"]
    return []


def final_field_problems(cfg, result) -> list[str]:
    return reference.field_problems(cfg, result.raw.values, result.chain.rho_tilde.values,
                                    result.chain.rho_hat.values)


class DefaultRun:
    """Rounds of `vtopt run` on an empty config; `vtopt gradcheck` on the same config."""

    name = "default_run"

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        (workdir / "empty.cfg").write_text("")
        self.histories: list[bytes] = []
        self.last = None

    def setup(self) -> None:
        problem.build_problem(config.parse_config(self.dir / "empty.cfg"))

    def round(self, tally: Tally) -> None:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        clock, solve, printed = IterationClock(tally.calibration), LastCall(), io.StringIO()
        tally.attempted += 1
        with contextlib.chdir(self.dir), contextlib.redirect_stdout(printed), \
                patched(runner, "run_optimization", clock.wrap), \
                patched(optimizer, "assemble_and_solve", solve.wrap):
            code = cli.main(["run", "empty.cfg"])
        if code != 0:
            tally.failed += 1
            tally.problems.append(f"vtopt run exited {code}: {printed.getvalue().strip()}")
        tally.iter_ms += clock.ms
        tally.export_bytes.append(sum(f.stat().st_size for f in out.iterdir()))
        self.histories.append((out / "history.csv").read_bytes())
        self.last = (clock.result, solve, (out / "metrics.txt").read_text())

    def own_checks(self, tally: Tally) -> None:
        for seed in OWN_CHECK_SEEDS:
            gradient_check(tally, "default", check_config("", seed))

    def verify(self, tally: Tally, source_digest: str) -> None:
        cfg = config.parse_config(self.dir / "empty.cfg")
        result, solve, metrics_text = self.last
        problems = resolve_problems(cfg, solve) + final_field_problems(cfg, result)
        if solve.result.compliance != result.compliance:
            problems.append("reported compliance is not that of the last state solve")
        metrics = dict(line.split(" = ", 1) for line in metrics_text.splitlines())
        if reference.relative_gap(float(metrics["compliance"]), result.compliance) > 1e-8:
            problems.append(f"metrics.txt compliance {metrics['compliance']} != {result.compliance}")
        vol_frac = float(np.mean(result.chain.rho_physical.values))
        if abs(vol_frac - cfg.vol_frac) > reference.VOLUME_TOL:
            problems.append(f"final volume fraction {vol_frac:.9g} misses {cfg.vol_frac}")
        last = self.histories[-1].decode().strip().splitlines()
        header, row = last[0].split(","), last[-1].split(",")
        final = {key: float(value) for key, value in zip(header, row)}
        if (final["p"], final["beta_hat"], final["beta_bar"]) != (cfg.p_max, cfg.beta_hat_max,
                                                                  cfg.beta_bar_max):
            problems.append(f"continuation ended below its maxima: {final}")
        problems += self._history_problems(source_digest)
        tally.problems += problems
        tally.compliance = result.compliance
        tally.iterations = result.iterations

    def _history_problems(self, source_digest: str) -> list[str]:
        """history.csv must be byte-identical on every repeat, in this run and in earlier runs
        of the same sources."""
        digests = {hashlib.sha256(h).hexdigest() for h in self.histories}
        stored = self.dir / f"history-{source_digest[:16]}.sha256"
        if stored.exists():
            digests.add(stored.read_text().strip())
        else:
            stored.write_text(digests.copy().pop() + "\n")
        return [] if len(digests) == 1 else ["history.csv differs between repeats"]


class Slice:
    """Rounds of `run_optimization` on the 160x80 acceptance grid for SLICE_ITERS
    iterations; `vtopt gradcheck` on the same config."""

    name = "slice_160x80"

    def __init__(self, workdir: Path, seed: int):
        self.last = None

    def setup(self) -> None:
        problem.build_problem(config.parse_config_text(SLICE_CONFIG))

    def round(self, tally: Tally) -> None:
        cfg = config.parse_config_text(SLICE_CONFIG)
        setup = problem.build_problem(cfg)
        clock, solve = IterationClock(tally.calibration), LastCall()
        tally.attempted += 1
        with patched(optimizer, "assemble_and_solve", solve.wrap):
            clock.wrap(optimizer.run_optimization)(setup)
        tally.iter_ms += clock.ms
        self.last = (cfg, clock.result, solve)

    def own_checks(self, tally: Tally) -> None:
        for seed in OWN_CHECK_SEEDS:
            gradient_check(tally, "slice", check_config(SLICE_CONFIG, seed))

    def verify(self, tally: Tally, source_digest: str) -> None:
        cfg, result, solve = self.last
        problems = resolve_problems(cfg, solve) + final_field_problems(cfg, result)
        if result.iterations != SLICE_ITERS:
            problems.append(f"slice ran {result.iterations} iterations, not {SLICE_ITERS}")
        tally.problems += problems
        tally.compliance = result.compliance
        tally.iterations = result.iterations


class GradcheckSuites:
    """`gradient_check` with the CLI's settings on every suite config and check seed,
    in an order shuffled by --seed; a Taylor test on one config per mode."""

    name = "gradcheck_suites"

    def __init__(self, workdir: Path, seed: int):
        self.checks = [(name, text, s) for name, text in SUITE_CONFIGS for s in SUITE_CHECK_SEEDS]
        random.Random(seed).shuffle(self.checks)
        self.seed = seed

    def setup(self) -> None:
        for _, text in SUITE_CONFIGS:
            problem.build_problem(check_config(text, 0))

    def round(self, tally: Tally) -> None:
        for name, text, seed in self.checks:
            gradient_check(tally, name, check_config(text, seed))

    def own_checks(self, tally: Tally) -> None:
        """The rounds are the checks."""

    def verify(self, tally: Tally, source_digest: str) -> None:
        modes, compliances = {}, []
        for name, text in SUITE_CONFIGS:
            cfg = check_config(text, 0)
            modes.setdefault((cfg.lt_simp, cfg.lt_projection, cfg.dgi, cfg.penalized_reference),
                             (name, cfg))
        for mode_index, (name, cfg) in enumerate(modes.values()):
            rates, base, physical = taylor_rates(cfg, self.seed * 1000 + mode_index)
            compliances.append(base)
            own = reference.cantilever_compliance(cfg, physical, cfg.p_max)
            if reference.relative_gap(own, base) > reference.COMPLIANCE_RTOL:
                tally.problems.append(f"Taylor base of {name}: reference compliance {own:.12g}, "
                                      f"program {base:.12g}")
            low, high = TAYLOR_RATE_RANGE
            if not low <= np.mean(rates) <= high:
                tally.problems.append(f"Taylor remainder of {name} decays at rates "
                                      f"{np.round(rates, 3).tolist()}, not 2")
        tally.compliance = float(np.mean(compliances))
        tally.iterations = float(np.median(tally.solves_per_check))


def _taylor_objective(cfg):
    """Compliance at the gradient check's parameters, with the DGI statistics frozen at
    the base point as the analytic gradient assumes; returns the base chain too."""
    setup = problem.build_problem(cfg)
    params = projections.ProjectionParams(
        rho_low=cfg.rho_low, beta_bar=cfg.beta_bar_max if setup.projection != "none" else 1.0,
        beta_hat=cfg.beta_hat_max, radius=setup.dgi_radius)

    def forward(values, frozen=None):
        return projections.regularize_chain(setup.grid, ElementField(values, "raw"), params,
                                            setup.filter, projection=setup.projection,
                                            dgi_enabled=setup.dgi_enabled, frozen_stats=frozen)

    def solve(chain):
        return fem.assemble_and_solve(setup.grid, setup.bc, chain.rho_physical, cfg.p_max,
                                      cfg.rho_low, setup.material,
                                      interpolation=setup.interpolation, solver=cfg.solver)

    return setup, forward, solve


def taylor_rates(cfg, direction_seed: int):
    """Decay rates of |J(x + t d) - J(x) - t g.d| as t halves, J(x) and the physical field
    at x. The base point x is fixed; the direction d comes from direction_seed."""
    setup, forward, solve = _taylor_objective(cfg)
    x = np.random.default_rng(0).uniform(0.2, 0.9, setup.grid.n_elements)
    d = np.random.default_rng(direction_seed).uniform(-1.0, 1.0, x.size)
    base = forward(x)
    solution = solve(base)
    sensitivity = fem.compliance_sensitivity(setup.grid, solution, base.rho_physical, cfg.p_max,
                                             cfg.rho_low, setup.material,
                                             interpolation=setup.interpolation)
    slope = float(projections.chain_gradient(base, sensitivity) @ d)
    remainders = []
    for k in range(TAYLOR_HALVINGS + 1):
        t = TAYLOR_STEP / 2 ** k
        value = solve(forward(x + t * d, base.stats)).compliance
        remainders.append(abs(value - solution.compliance - t * slope))
    rates = [float(np.log2(a / b)) for a, b in zip(remainders, remainders[1:])]
    return rates, solution.compliance, base.rho_physical.values


WORKLOADS = {w.name: w for w in (DefaultRun, Slice, GradcheckSuites)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, tally: Tally, seconds: float, tracer: Tracer | None = None) -> float:
    """Whole rounds, at least one, for as long as another round fits in `seconds`.

    A round's time is its CPU time less that of the calibration samples taken
    inside it, scaled by the mean speed of those samples and the two around the
    round. Returns the peak resident memory after the first round: later rounds
    repeat the same work, so whatever they add comes from the allocator's reuse.
    """
    calibration = tally.calibration
    start = perf_counter()
    rss = None
    wall_s = []
    while True:
        if tracer is not None:
            tracer.operation = len(tally.round_s)
        calibration.measure()
        first_sample, spent = len(calibration.kernel_s), calibration.spent
        begin, cpu_begin = perf_counter(), cpu_clock()
        workload.round(tally)
        cpu_s = cpu_clock() - cpu_begin - (calibration.spent - spent)
        wall_s.append(perf_counter() - begin)
        calibration.measure()
        # samples come at even wall-time steps, each step a like share of the round's work
        tally.round_s.append(cpu_s * float(np.mean(calibration.speed(first_sample - 1))))
        rss = rss or peak_rss_mb()
        if perf_counter() - start + float(np.mean(wall_s)) > seconds:
            return rss


def measure_setup(workload, tally: Tally) -> None:
    for _ in range(SETUP_REPEATS):
        tally.calibration.measure()
        begin = cpu_clock()
        workload.setup()
        tally.setup_s.append((perf_counter(), cpu_clock() - begin))
    tally.calibration.measure()


def source_digest() -> str:
    package = Path(problem.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](workdir, seed)
    calibration = Calibration(name)
    check_calibration = calibration if name == GradcheckSuites.name else Calibration(GradcheckSuites.name)
    tally = Tally(calibration, check_calibration)
    measure_setup(workload, tally)
    if not trace:
        rss = run_rounds(workload, tally, seconds)
        workload.own_checks(tally)
        tally.check_calibration.measure()
        workload.verify(tally, source_digest())
        metrics = end_to_end(tally, rss)
    else:
        # an untraced pass, then a traced one of the same length; overhead is their difference
        run_rounds(workload, tally, seconds / 2)
        untraced_round_s = float(np.median(tally.round_s))
        traced = Tally(calibration, check_calibration)
        tracer = Tracer()
        tracer.install()
        try:
            run_rounds(workload, traced, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        workload.verify(traced, source_digest())
        tracer.write(workdir / "trace.json")
        metrics = tracer.layer_metrics(len(traced.round_s))
        metrics["export.bytes"] = float(np.mean(traced.export_bytes)) if traced.export_bytes else 0.0
        metrics["trace.overhead_s"] = float(np.median(traced.round_s)) - untraced_round_s
        for key in ("attempted", "failed", "problems"):
            setattr(tally, key, getattr(tally, key) + getattr(traced, key))
    return {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
            "metrics": metrics}


def end_to_end(tally: Tally, rss_mb: float) -> dict[str, float]:
    scaled = tally.calibration.scaled
    check_ms = tally.check_calibration.scaled(tally.check_ms)
    # gradcheck_suites has no optimizer loop; its iteration is one gradient check
    iteration_ms = scaled(tally.iter_ms) or check_ms
    return {
        "setup_s": float(np.median(scaled(tally.setup_s))),
        "round_s": float(np.median(tally.round_s)),
        "iter_ms_p50": float(np.median(iteration_ms)),
        "check_ms_p50": float(np.median(check_ms)),
        "iterations": float(tally.iterations),
        "compliance": float(tally.compliance),
        "peak_rss_mb": rss_mb,
    }
