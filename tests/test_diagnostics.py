import numpy as np
import pytest

from vtopt import fem, optimizer, problem
from vtopt.config import RunConfig
from vtopt.diagnostics import (LineProfile, gradient_check, line_profile, low_thickness_fraction,
                               skin_shares, transition_width)
from vtopt.errors import ConfigError, GeometryError
from vtopt.grid import StructuredGrid
from vtopt.pde_filter import DensityFilter
from vtopt.projections import dgi_project, neighborhood_stats


class TestLowThicknessFraction:
    def test_all_solid(self):
        assert low_thickness_fraction(np.ones(10), 0.1) == 0.0

    def test_all_undesired(self):
        assert low_thickness_fraction(np.full(10, 0.05), 0.1) == 1.0

    def test_mixed_hand_example(self):
        rho = np.array([0.0005, 0.05, 0.5, 1.0])
        assert low_thickness_fraction(rho, 0.1) == pytest.approx(1 / 3)

    def test_all_void_returns_zero(self):
        assert low_thickness_fraction(np.zeros(5), 0.1) == 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = rng.uniform(0, 1, 30)
            frac = low_thickness_fraction(rho, 0.1)
            assert 0.0 <= frac <= 1.0


class TestSkinShares:
    def test_hand_example(self):
        # void, thin, skin below, skin at rho_low, skin above, solid, solid, solid
        rho = np.array([0.0005, 0.05, 0.0985, 0.1, 0.1015, 0.5, 0.9, 1.0])
        below, above = skin_shares(rho, 0.1)
        assert below == pytest.approx(1 / 7)
        assert above == pytest.approx(2 / 7)

    def test_band_edges(self):
        # 0.098 is the band's lower edge; 0.1021 lies past its upper edge
        below, above = skin_shares(np.array([0.0979, 0.098, 0.1021, 0.5]), 0.1)
        assert (below, above) == (0.25, 0.0)

    def test_all_void_returns_zeros(self):
        assert skin_shares(np.zeros(5), 0.1) == (0.0, 0.0)

    def test_below_share_is_part_of_the_thin_share(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.09, 0.11, 200)
        below, above = skin_shares(rho, 0.1)
        assert 0.0 < below <= low_thickness_fraction(rho, 0.1)
        assert 0.0 < above and below + above <= 1.0


class TestLineProfile:
    def test_uniform_field(self):
        grid = StructuredGrid(6, 4, 0.5)
        profile = line_profile(grid, np.full(grid.n_elements, 0.7), (0.1, 0.1), (2.9, 1.9), 20)
        assert np.allclose(profile.values, 0.7)
        assert profile.arc[0] == 0.0
        assert profile.arc[-1] == pytest.approx(np.hypot(2.8, 1.8))

    def test_step_field(self):
        grid = StructuredGrid(4, 4, 1.0)
        field = np.zeros(grid.n_elements)
        for j in range(4):
            for i in range(4):
                if j >= 2:
                    field[grid.element_index(i, j)] = 1.0
        profile = line_profile(grid, field, (2.0, 0.5), (2.0, 3.5), 31)
        assert (profile.values[profile.arc < 1.4] == 0.0).all()
        assert (profile.values[profile.arc > 1.6] == 1.0).all()

    def test_diagonal_on_checkerboard(self):
        grid = StructuredGrid(4, 4, 1.0)
        field = np.array([(i + j) % 2 for j in range(4) for i in range(4)], dtype=float)
        profile = line_profile(grid, field, (0.5, 0.5), (3.5, 1.5), 4)
        # samples (0.5,0.5),(1.5,0.833),(2.5,1.167),(3.5,1.5) land in cells
        # (0,0),(1,0),(2,1),(3,1) with parities 0,1,1,0
        assert profile.values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_rejects_outside_domain(self):
        grid = StructuredGrid(4, 4, 1.0)
        with pytest.raises(GeometryError):
            line_profile(grid, np.zeros(16), (0.5, 0.5), (4.5, 0.5), 5)

    def test_requires_two_samples(self):
        grid = StructuredGrid(4, 4, 1.0)
        with pytest.raises(ValueError):
            line_profile(grid, np.zeros(16), (0.5, 0.5), (1.5, 0.5), 1)


def make_profile(arc, values):
    arc = np.asarray(arc, dtype=float)
    values = np.asarray(values, dtype=float)
    return LineProfile(arc=arc, values=values)


class TestTransitionWidth:
    def test_ideal_step(self):
        arc = np.linspace(0, 10, 101)
        values = np.where(arc < 5, 0.0, 1.0)
        width = transition_width(make_profile(arc, values))
        assert width is not None
        assert width <= 0.1 + 1e-12   # one sample spacing

    def test_linear_ramp(self):
        arc = np.linspace(0, 10, 1001)
        values = np.clip(arc / 10.0, 0, 1)
        width = transition_width(make_profile(arc, values))
        assert width == pytest.approx(9.0, rel=1e-3)   # (0.95 - 0.05) * 10

    def test_constant_profile_has_no_edge(self):
        arc = np.linspace(0, 5, 50)
        assert transition_width(make_profile(arc, np.full(50, 0.6))) is None

    def test_all_zero_profile(self):
        arc = np.linspace(0, 5, 50)
        assert transition_width(make_profile(arc, np.zeros(50))) is None

    def test_peak_relative_thresholds(self):
        # edge rising only to 0.4: thresholds scale with the peak
        arc = np.linspace(0, 10, 1001)
        values = 0.4 * np.clip(arc / 10.0, 0, 1)
        width = transition_width(make_profile(arc, values))
        assert width == pytest.approx(9.0, rel=1e-3)

    def test_uses_last_low_crossing(self):
        # dip and recover before the main edge: measure from the final climb
        arc = np.linspace(0, 12, 1201)
        values = np.where(arc < 2, 0.0,
                          np.where(arc < 4, 0.5,
                                   np.where(arc < 6, 0.0,
                                            np.clip((arc - 6) / 4, 0, 1))))
        width = transition_width(make_profile(arc, values))
        assert width == pytest.approx(0.9 * 4.0, rel=1e-2)

    def test_rejects_bad_thresholds(self):
        arc = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            transition_width(make_profile(arc, arc), lo=0.9, hi=0.1)


class TestWidthShrinksWithDeblurring:
    def test_synthetic_blurred_step(self):
        grid = StructuredGrid(60, 20, 0.125)
        filt = DensityFilter(grid, 0.375)
        raw = np.zeros(grid.n_elements)
        for j in range(20):
            for i in range(60):
                if i >= 30:
                    raw[grid.element_index(i, j)] = 1.0
        blurred = filt.apply(raw)
        stats = neighborhood_stats(grid, blurred, 0.375)

        def width_for(beta_hat):
            if beta_hat is None:
                field = blurred
            else:
                field, _ = dgi_project(blurred, stats, beta_hat)
            profile = line_profile(grid, field, (0.2, 1.3), (7.3, 1.3), 400)
            return transition_width(profile)

        w_none = width_for(None)
        w_10 = width_for(10.0)
        w_25 = width_for(25.0)
        assert w_none is not None and w_10 is not None and w_25 is not None
        assert w_25 <= w_10 <= w_none
        assert w_10 < w_none   # deblurring visibly sharpens the edge

    def test_width_nonincreasing_in_sharpness(self):
        grid = StructuredGrid(40, 10, 0.25)
        filt = DensityFilter(grid, 0.75)
        raw = np.zeros(grid.n_elements)
        for j in range(10):
            for i in range(40):
                if i >= 20:
                    raw[grid.element_index(i, j)] = 1.0
        blurred = filt.apply(raw)
        stats = neighborhood_stats(grid, blurred, 0.75)
        widths = []
        for beta in (0.5, 2.0, 5.0, 10.0, 25.0):
            field, _ = dgi_project(blurred, stats, beta)
            profile = line_profile(grid, field, (0.5, 1.3), (9.5, 1.3), 500)
            widths.append(transition_width(profile))
        assert all(w is not None for w in widths)
        for a, b in zip(widths, widths[1:]):
            assert b <= a + 1e-12


class TestGradientCheck:
    def test_smooth_chain(self):
        cfg = RunConfig(nx=8, ny=4, h=0.25, lt_simp=False, lt_projection=False, dgi=False,
                        p_init=1.0, p_max=1.0001, seed=4)
        # no projections, p ~= 1: nearly the raw compliance chain
        assert gradient_check(cfg, n_probe=6, fd_step=1e-6) < 1e-6

    def test_dgi_off_chain(self):
        cfg = RunConfig(nx=8, ny=4, h=0.25, dgi=False, seed=5)
        assert gradient_check(cfg, n_probe=8, fd_step=1e-6) < 1e-5

    def test_full_chain_frozen_stats(self):
        cfg = RunConfig(nx=8, ny=4, h=0.25, seed=6)
        assert gradient_check(cfg, n_probe=8, fd_step=1e-6) < 1e-4

    def test_error_shrinks_with_fd_step(self):
        cfg = RunConfig(nx=6, ny=3, h=0.25, seed=7)
        coarse = gradient_check(cfg, n_probe=5, fd_step=8e-4)
        fine = gradient_check(cfg, n_probe=5, fd_step=4e-4)
        assert fine < coarse
        assert coarse / fine >= 3.0   # near-quadratic decay of the central-difference error

    def test_detects_a_gradient_off_by_one_in_a_thousand(self, monkeypatch):
        cfg = RunConfig(nx=8, ny=4, h=0.25, seed=6)
        exact = fem.modulus_derivative
        monkeypatch.setattr(fem, "modulus_derivative", lambda *a, **k: 1.001 * exact(*a, **k))
        assert gradient_check(cfg, n_probe=8, fd_step=1e-6) == pytest.approx(1e-3, rel=0.01)

    def test_base_point_is_the_optimizers_evaluation(self, monkeypatch):
        exact = optimizer.evaluate

        def scaled(*args):
            chain, solution, gradient = exact(*args)
            return chain, solution, 1.001 * gradient

        monkeypatch.setattr(optimizer, "evaluate", scaled)
        cfg = RunConfig(nx=8, ny=4, h=0.25, seed=6)
        assert gradient_check(cfg, n_probe=8, fd_step=1e-6) == pytest.approx(1e-3, rel=0.01)

    def test_checks_the_penalty_the_run_ends_at(self, monkeypatch):
        # without SIMP the run ends at p = 1, not at p_max
        penalties = []
        for module in (fem, optimizer):
            solve = module.assemble_and_solve
            monkeypatch.setattr(module, "assemble_and_solve",
                                lambda *a, solve=solve, **k: penalties.append(a[3]) or solve(*a, **k))
        cfg = RunConfig(nx=8, ny=4, h=0.25, lt_simp=False, seed=6)
        assert gradient_check(cfg, n_probe=3) < 1e-4
        assert penalties == [1.0] * 7

    @pytest.mark.parametrize("n_probe", [1, 5])
    def test_factors_the_base_point_once(self, monkeypatch, n_probe):
        factored = []
        splu = fem.splu
        monkeypatch.setattr(fem, "splu", lambda *a, **k: factored.append(1) or splu(*a, **k))
        gradient_check(RunConfig(nx=8, ny=4, h=0.25, seed=6), n_probe=n_probe)
        assert len(factored) == 1 + 2 * n_probe

    @pytest.mark.parametrize("n_probe", [1, 5])
    def test_builds_the_base_chain_and_one_stack_of_probes(self, monkeypatch, n_probe):
        shapes = []
        chain = optimizer.regularize_chain

        def counted(grid, raw, *args, **kwargs):
            shapes.append(raw.values.shape)
            return chain(grid, raw, *args, **kwargs)

        monkeypatch.setattr(optimizer, "regularize_chain", counted)
        gradient_check(RunConfig(nx=8, ny=4, h=0.25, seed=6), n_probe=n_probe)
        assert shapes == [(32,), (2 * n_probe, 32)]

    @pytest.mark.parametrize("n_probe", [1, 5])
    def test_interpolates_the_moduli_once_per_solve(self, monkeypatch, n_probe):
        calls = []
        interpolate = fem.interpolate_modulus
        monkeypatch.setattr(fem, "interpolate_modulus",
                            lambda *a, **k: calls.append(1) or interpolate(*a, **k))
        gradient_check(RunConfig(nx=8, ny=4, h=0.25, seed=6), n_probe=n_probe)
        assert len(calls) == 1 + 2 * n_probe

    @pytest.mark.parametrize("kwargs,flag", [(dict(n_probe=0), "--probes"),
                                             (dict(fd_step=0.0), "--fd-step"),
                                             (dict(fd_step=0.2), "--fd-step")])
    def test_rejects_arguments_that_check_nothing_before_building(self, monkeypatch, kwargs, flag):
        monkeypatch.setattr(problem, "build_problem", lambda cfg: pytest.fail("problem was built"))
        with pytest.raises(ConfigError, match=flag):
            gradient_check(RunConfig(nx=8, ny=4, h=0.25), **kwargs)

    def test_largest_step_keeps_probes_inside_the_density_range(self):
        # rho +- fd_step stays in [0.19, 0.91] and the kink exclusion leaves room to sample
        assert np.isfinite(gradient_check(RunConfig(nx=8, ny=4, h=0.25, seed=6), fd_step=0.01))

    def test_full_default_grid_passes_at_the_default_step(self):
        # the central difference must not be swamped by solver roundoff at 80x40
        assert gradient_check(RunConfig()) < 1e-4
