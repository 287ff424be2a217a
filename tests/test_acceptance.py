"""Acceptance gate: one printed pass/fail line per criterion.

Quantitative criteria (1-6) run the 20x10 cantilever benchmark on the 160x80
grid and share converged runs through a session-scoped fixture, which starts
all fifteen runs on a pool of up to two worker processes the first time a
criterion asks for one; the full set takes several minutes. Property criteria
(7-12) are fast and exact.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import vtopt
from vtopt.diagnostics import line_profile, transition_width
from vtopt.fem import element_dof_map, element_stiffness, interpolate_modulus
from vtopt.grid import StructuredGrid
from vtopt.optimizer import ContinuationSchedule, update_continuation
from vtopt.pde_filter import DensityFilter
from vtopt.projections import (NeighborhoodStats, dgi_project, lt_project, neighborhood_stats,
                               smoothed_heaviside)

GRID = dict(nx=160, ny=80, h=0.125, max_iters=600)
H = GRID["h"]
RADII = (0.25, 0.375, 0.5)
SHARPNESS = (None, 5.0, 10.0, 25.0)

CASES = {
    "vtto": dict(lt_simp=False, lt_projection=False, dgi=False),
    "penalized": dict(penalized_reference=True),
    "pure_projection": dict(lt_simp=False, dgi=False),
    "lt_combined": dict(dgi=False),   # doubles as the (r=0.375, no-deblur) matrix cell
}
for _r in RADII:
    for _b in SHARPNESS:
        if (_r, _b) == (0.375, None):
            continue
        _name = f"m_r{_r:g}_" + ("off" if _b is None else f"b{_b:g}")
        _over: dict = dict(filter_radius=_r)
        if _b is None:
            _over["dgi"] = False
        else:
            _over["beta_hat_max"] = _b
        CASES[_name] = _over


def matrix_case(r, beta):
    if (r, beta) == (0.375, None):
        return "lt_combined"
    return f"m_r{r:g}_" + ("off" if beta is None else f"b{beta:g}")


# runs are independent and deterministic, so they are computed side by side
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))


@pytest.fixture(scope="session")
def runs():
    """Converged run of a case by name.

    Every case is submitted at once; CASES lists them in the order the
    criteria read them. Each worker runs one BLAS thread, so the workers do not
    compete for the cores. Runs not yet started when the session ends are
    cancelled.
    """
    with pytest.MonkeyPatch.context() as patch, ProcessPoolExecutor(
            WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        patch.setenv("OPENBLAS_NUM_THREADS", "1")   # read by each worker as it starts
        pending = {name: pool.submit(vtopt.run_optimization,
                                     vtopt.build_problem(vtopt.RunConfig(**GRID, **overrides)))
                   for name, overrides in CASES.items()}
        patch.undo()
        yield lambda name: pending[name].result()
        pool.shutdown(cancel_futures=True)


def criterion(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def edge_deblurring_widths(result: vtopt.RunResult, sharpness=(10.0, 25.0)):
    """Transition widths of one blurred edge without and with deblurring.

    Reproduces the line-plot study: takes the converged run's filtered field,
    re-projects it at several deblur sharpness values with the run's own
    neighborhood statistics, and measures all fields on the same vertical
    segment. The segment crosses the nearest-to-clamp full-thickness edge that
    has void beside it inside the domain (marching columns rightward, top
    chord's upper edge then bottom chord's lower edge).
    """
    grid = StructuredGrid(**{k: GRID[k] for k in ("nx", "ny", "h")})
    tilde = result.chain.rho_tilde.values
    stats = neighborhood_stats(grid, tilde, 0.375)
    fields = [tilde] + [dgi_project(tilde, stats, b) for b in sharpness]

    arr = tilde.reshape(grid.ny, grid.nx)
    peak = arr.max()

    def column_segment(i0: int, side: str):
        col = arr[:, i0]
        solid = np.nonzero(col >= 0.8 * peak)[0]
        if solid.size == 0:
            return None
        if side == "top":
            j_edge = solid.max()
            outside = col[j_edge + 1:]
            if outside.size < 4 or not (outside < 0.02 * peak).any():
                return None
            j_void = j_edge + 1 + int(np.nonzero(outside < 0.02 * peak)[0][0])
            y_void = min(grid.height - grid.h / 2, (j_void + 0.5) * grid.h + 0.75)
            run = j_edge
            while run > 0 and col[run - 1] >= 0.8 * peak:
                run -= 1
        else:
            j_edge = solid.min()
            outside = col[:j_edge]
            if outside.size < 4 or not (outside < 0.02 * peak).any():
                return None
            j_void = int(np.nonzero(outside < 0.02 * peak)[0][-1])
            y_void = max(grid.h / 2, (j_void + 0.5) * grid.h - 0.75)
            run = j_edge
            while run < grid.ny - 1 and col[run + 1] >= 0.8 * peak:
                run += 1
        x = (i0 + 0.5) * grid.h
        y_core = float(np.clip((run + j_edge) / 2 * grid.h, grid.h / 2,
                               grid.height - grid.h / 2))
        return (x, y_void), (x, y_core)

    for i0 in range(2, grid.nx - 2):
        for side in ("top", "bottom"):
            segment = column_segment(i0, side)
            if segment is None:
                continue
            widths = [transition_width(line_profile(grid, f, segment[0], segment[1], 1200))
                      for f in fields]
            if all(w is not None for w in widths):
                return widths
    return [None] * (1 + len(sharpness))


class TestQuantitative:
    def test_criterion_1_penalization_gap(self, runs):
        ratio = runs("penalized").compliance / runs("vtto").compliance
        criterion(1, 1.08 <= ratio <= 1.28,
                  f"penalized/plain compliance ratio {ratio:.4f} in [1.08, 1.28]")

    def test_criterion_2_lt_suppression_cost(self, runs):
        ratio = runs("lt_combined").compliance / runs("vtto").compliance
        criterion(2, 1.000 <= ratio <= 1.02,
                  f"combined-suppression/plain compliance ratio {ratio:.5f} in [1.000, 1.02]")

    def test_criterion_3_combined_lt_effectiveness(self, runs):
        combined = runs("lt_combined").lt_fraction
        pure = runs("pure_projection").lt_fraction
        criterion(3, combined < 0.01 and pure > combined,
                  f"combined thin fraction {combined:.4f} < 0.01 and "
                  f"pure-projection fraction {pure:.4f} strictly larger")

    def test_criterion_4_dgi_noninvasive(self, runs):
        cells = []
        ok = True
        for r in RADII:
            base = runs(matrix_case(r, None)).compliance
            for beta in SHARPNESS:
                ratio = runs(matrix_case(r, beta)).compliance / base
                cells.append(f"r={r:g},b={'off' if beta is None else f'{beta:g}'}:{ratio:.4f}")
                ok = ok and 0.99 <= ratio <= 1.02
        criterion(4, ok, "normalized compliance cells " + " ".join(cells) + " all in [0.99, 1.02]")

    def test_criterion_5_edge_deblurring(self, runs):
        w_none, w_10, w_25 = edge_deblurring_widths(runs("lt_combined"))
        bound = 2 * 0.375 - H
        ok = (w_none is not None and w_10 is not None and w_25 is not None
              and w_10 <= 0.5 * w_none and w_25 <= w_10 and w_none >= bound)
        criterion(5, ok,
                  f"widths none={w_none} b10={w_10} b25={w_25}; "
                  f"need b10 <= 0.5*none, b25 <= b10, none >= {bound:.3f}")

    def test_criterion_6_continuation_timing(self):
        sched = ContinuationSchedule(c_p=1.03)
        state = vtopt.ContinuationState.initial(sched)
        updates = 0
        while state.p < sched.p_max:
            state = update_continuation(sched, state)
            updates += 1
        criterion(6, updates == 38, f"penalty exponent reaches 3 after {updates} updates (want 38)")


class TestProjectionAlgebra:
    def test_criterion_7(self):
        rng = np.random.default_rng(0)
        ok = True
        details = []

        betas = (0.5, 2.0, 8.0, 64.0)
        etas = (0.2, 0.5, 0.8)
        end_a = max(abs(float(smoothed_heaviside(0.0, b, e))) for b in betas for e in etas)
        end_b = max(abs(float(smoothed_heaviside(1.0, b, e)) - 1.0) for b in betas for e in etas)
        mid = max(abs(float(smoothed_heaviside(0.5, b, 0.5)) - 0.5) for b in betas)
        ok &= end_a < 1e-14 and end_b < 1e-14 and mid < 1e-14
        details.append(f"H endpoints/midpoint dev {max(end_a, end_b, mid):.1e}")

        rho = np.linspace(0.0, 1.0, 1000)
        lt_dev = np.abs(lt_project(rho, 1.0, 0.1) - rho).max()
        ok &= lt_dev < 1e-14
        details.append(f"identity projection dev {lt_dev:.1e}")

        mn = rng.uniform(0.0, 0.4, 500)
        mx = mn + rng.uniform(1e-3, 0.6, 500)
        d = mx - mn
        stats = NeighborhoodStats(rho_min=mn, rho_max=mx, diff=d, rho_mid=mn + 0.5 * d)
        fix_dev = 0.0
        for point in (mn, mn + 0.5 * d, mx):
            fix_dev = max(fix_dev, np.abs(dgi_project(point, stats, 10.0) - point).max())
        ok &= fix_dev < 1e-12
        details.append(f"deblur fixed-point dev {fix_dev:.1e}")

        rho_t = mn + d * rng.uniform(0, 1, 500)
        out = dgi_project(rho_t, stats, 10.0)
        moved = np.abs(out - rho_t) > 1e-14
        sign_ok = (np.sign(out - rho_t)[moved] == np.sign(rho_t - stats.rho_mid)[moved]).all()
        bound_ok = (np.abs(out - rho_t) <= d + 1e-12).all()
        ok &= bool(sign_ok and bound_ok)
        details.append(f"sign-consistency {bool(sign_ok)}, |move|<=variation {bool(bound_ok)}")

        criterion(7, bool(ok), "; ".join(details))


class TestGradientCorrectness:
    def test_criterion_8(self):
        cfg_off = vtopt.RunConfig(nx=8, ny=4, h=0.25, dgi=False, seed=11)
        err_off = vtopt.gradient_check(cfg_off, n_probe=8, fd_step=1e-6)
        cfg_full = vtopt.RunConfig(nx=8, ny=4, h=0.25, seed=12)
        err_full = vtopt.gradient_check(cfg_full, n_probe=8, fd_step=1e-6)
        coarse = vtopt.gradient_check(cfg_full, n_probe=5, fd_step=8e-4)
        fine = vtopt.gradient_check(cfg_full, n_probe=5, fd_step=4e-4)
        ok = err_off < 1e-5 and err_full < 1e-4 and coarse / fine >= 3.0
        criterion(8, ok, f"rel errors: deblur-off {err_off:.2e} < 1e-5, "
                         f"full {err_full:.2e} < 1e-4, step-halving gain {coarse / fine:.2f}x >= 3x")


class TestFilterIdentities:
    def test_criterion_9(self):
        grid = StructuredGrid(14, 9, 0.25)
        filt = DensityFilter(grid, 0.375)
        rng = np.random.default_rng(1)
        const_dev = np.abs(filt.apply(np.full(grid.n_elements, 0.42)) - 0.42).max()
        vol_dev = 0.0
        adj_dev = 0.0
        max_principle = True
        for _ in range(20):
            x = rng.uniform(0, 1, grid.n_elements)
            y = rng.uniform(0, 1, grid.n_elements)
            fx = filt.apply(x)
            vol_dev = max(vol_dev, abs(fx.sum() - x.sum()) / x.sum())
            lhs = float(np.sum(fx * y))
            rhs = float(np.sum(x * filt.apply_transpose(y)))
            adj_dev = max(adj_dev, abs(lhs - rhs) / abs(lhs))
            max_principle &= bool(fx.min() >= x.min() - 1e-10 and fx.max() <= x.max() + 1e-10)
        ok = const_dev < 1e-8 and vol_dev < 1e-8 and adj_dev < 1e-10 and max_principle
        criterion(9, ok, f"constant dev {const_dev:.1e}, volume dev {vol_dev:.1e}, "
                         f"adjoint dev {adj_dev:.1e}, max principle {max_principle}")


class TestOptimizerFeasibility:
    def test_criterion_10(self):
        cfg = vtopt.RunConfig(nx=24, ny=12, h=0.25, max_iters=500)
        iterates = []
        result = vtopt.run_optimization(vtopt.build_problem(cfg),
                                        callback=lambda rec, chain, raw: iterates.append(raw.copy()))
        bounds_ok = all((r >= 0).all() and (r <= 1).all() for r in iterates)
        vol_ok = abs(result.vol_frac - 0.3) < 1e-3
        drho_ok = result.history[-1].drho_mean < 1e-4
        mono_ok = True
        for key in ("p", "beta_hat", "beta_bar"):
            seq = [getattr(rec, key) for rec in result.history]
            mono_ok &= all(a <= b for a, b in zip(seq, seq[1:]))
        clamp_ok = (result.history[-1].p == 3.0 and result.history[-1].beta_hat == 10.0
                    and result.history[-1].beta_bar == 25.0)
        ok = result.converged and bounds_ok and vol_ok and drho_ok and mono_ok and clamp_ok
        criterion(10, ok, f"bounds {bounds_ok}, |vol-0.3|={abs(result.vol_frac - 0.3):.1e} < 1e-3, "
                          f"final drho {result.history[-1].drho_mean:.2e} < 1e-4, "
                          f"monotone+clamped continuation {mono_ok and clamp_ok}")


class TestOracleEquivalence:
    def test_criterion_11(self):
        # neighborhood statistics against an all-pairs scan
        grid = StructuredGrid(8, 8, 0.25)
        rng = np.random.default_rng(2)
        centers = grid.element_centers()
        stats_ok = True
        for r in (0.25, 0.375, 0.6):
            field = rng.uniform(0, 1, grid.n_elements)
            stats = neighborhood_stats(grid, field, r)
            r_eff = max(r, 1.5 * grid.h)
            for e in range(grid.n_elements):
                members = np.linalg.norm(centers - centers[e], axis=1) <= r_eff * (1 + 1e-12)
                stats_ok &= stats.rho_min[e] == field[members].min()
                stats_ok &= stats.rho_max[e] == field[members].max()

        # toy optimization against exhaustive 5-level search
        cfg = vtopt.RunConfig(nx=4, ny=2, h=0.5, lt_simp=False, lt_projection=False, dgi=False,
                              filter_radius=1e-9, volume_on="raw", max_iters=300)
        setup = vtopt.build_problem(cfg)
        result = vtopt.run_optimization(setup)
        k0 = element_stiffness(setup.material.nu)
        edof = element_dof_map(setup.grid)
        n_dofs = 2 * setup.grid.n_nodes
        scatter = np.zeros((setup.grid.n_elements, n_dofs, n_dofs))
        for e in range(setup.grid.n_elements):
            scatter[e][np.ix_(edof[e], edof[e])] = k0
        free = np.setdiff1d(np.arange(n_dofs), setup.bc.fixed_dofs())
        ffree = setup.bc.load_vector(n_dofs)[free]
        parts = scatter[:, free][:, :, free]
        best, best_rho = np.inf, None
        for combo in itertools.product((0.0, 0.25, 0.5, 0.75, 1.0), repeat=8):
            rho = np.array(combo)
            if rho.mean() > cfg.vol_frac + 1e-12:
                continue
            K = np.tensordot(interpolate_modulus(rho, 1.0, 0.1, setup.material), parts, axes=1)
            u = np.linalg.solve(K, ffree)
            c = float(ffree @ u)
            if c < best:
                best, best_rho = c, rho
        level_gap = np.abs(result.raw.values - best_rho).max()
        ok = bool(stats_ok) and level_gap <= 0.25 + 1e-9
        criterion(11, ok, f"stats match brute force {bool(stats_ok)}; "
                          f"toy design within one level of search optimum (gap {level_gap:.3f})")


class TestDeterminism:
    def test_criterion_12(self, tmp_path):
        text_a = text_b = None
        for tag in ("a", "b"):
            cfg = vtopt.RunConfig(nx=24, ny=12, h=0.25, max_iters=60,
                                  output_dir=str(tmp_path / tag))
            vtopt.run_single(cfg)
            data = (tmp_path / tag / "history.csv").read_bytes()
            text_a = data if tag == "a" else text_a
            text_b = data if tag == "b" else text_b
        ok = text_a == text_b
        criterion(12, ok, "repeated runs give byte-identical history.csv")
