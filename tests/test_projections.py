import numpy as np
import pytest

from vtopt.fem import MaterialModel, assemble_and_solve, cantilever_bc, compliance_sensitivity
from vtopt.grid import ElementField, StructuredGrid
from vtopt.pde_filter import DensityFilter
from vtopt.projections import (NeighborhoodStats, ProjectionParams, chain_gradient, dgi_project,
                               lt_project, neighborhood_stats, regularize_chain,
                               smoothed_heaviside)

# frozen high-precision evaluations of the closed forms (30-digit arithmetic)
S_005_25_01 = 1.1305721907039414e-09
H_075_6_05 = 0.954823340269087867350639971564
HLT_002_25_01 = 6.91689314044341289180153303486e-18
DGI_EXAMPLE = 0.772894004161452720410383982939


class TestSwitchingWeight:
    """The tanh weight S inside lt_project, seen through its blend (1 - S) rho^beta + S rho."""

    def test_half_at_shifted_threshold(self):
        for beta, eta in [(5.0, 0.3), (25.0, 0.1)]:
            rho = eta * eta ** (1.0 / beta)
            value, _ = lt_project(rho, beta, eta)
            assert value == pytest.approx(0.5 * (rho ** beta + rho), rel=1e-14)

    def test_frozen_value_sharp(self):
        value, _ = lt_project(0.05, 25.0, 0.1)
        expected = (1.0 - S_005_25_01) * 0.05 ** 25 + S_005_25_01 * 0.05
        assert value == pytest.approx(expected, rel=1e-10)

    def test_increasing(self):
        rho = np.linspace(0, 1, 500)
        out, _ = lt_project(rho, 8.0, 0.2)
        assert (np.diff(out) > 0).all()


class TestLtProject:
    def test_beta_one_is_exact_identity(self):
        rho = np.linspace(0, 1, 1000)
        assert np.abs(lt_project(rho, 1.0, 0.1)[0] - rho).max() < 1e-14

    def test_above_threshold_barely_affected(self):
        out, _ = lt_project(0.5, 25.0, 0.1)
        assert abs(out - 0.5) < 1e-15

    def test_suppression_branch(self):
        out, _ = lt_project(0.02, 25.0, 0.1)
        assert out == pytest.approx(HLT_002_25_01, rel=1e-9)
        assert out < 1e-15

    def test_fixed_points(self):
        for beta in (1.0, 5.0, 25.0):
            assert lt_project(0.0, beta, 0.1)[0] == pytest.approx(0.0, abs=1e-15)
            assert lt_project(1.0, beta, 0.1)[0] == pytest.approx(1.0, abs=1e-14)

    def test_range_and_monotonicity(self):
        rho = np.linspace(0, 1, 800)
        for beta in (1.0, 3.0, 10.0, 25.0):
            out, _ = lt_project(rho, beta, 0.1)
            assert (out >= -1e-15).all() and (out <= 1 + 1e-15).all()
            assert (np.diff(out) >= -1e-12).all()


class TestLtProjectDerivative:
    def test_beta_one_is_one(self):
        rho = np.linspace(0, 1, 50)
        assert np.allclose(lt_project(rho, 1.0, 0.1)[1], 1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        rho = rng.uniform(0.01, 0.99, 60)
        step = 1e-7
        for beta in (2.0, 10.0, 25.0):
            fd = (lt_project(rho + step, beta, 0.1)[0]
                  - lt_project(rho - step, beta, 0.1)[0]) / (2 * step)
            ana = lt_project(rho, beta, 0.1)[1]
            assert np.abs(ana - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6

    def test_zero_density_sharp_limit(self):
        assert lt_project(0.0, 25.0, 0.1)[1] == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rho = np.linspace(0, 1, 400)
        for beta in (1.0, 6.0, 25.0):
            assert (lt_project(rho, beta, 0.1)[1] >= -1e-12).all()


class TestSmoothedHeaviside:
    def test_endpoints_exact(self):
        for beta in (0.0, 1e-7, 0.5, 3.0, 40.0):
            for eta in (0.2, 0.5, 0.8):
                assert smoothed_heaviside(0.0, beta, eta)[0] == pytest.approx(0.0, abs=1e-14)
                assert smoothed_heaviside(1.0, beta, eta)[0] == pytest.approx(1.0, abs=1e-14)

    def test_midpoint_fixed_for_central_threshold(self):
        for beta in (0.0, 1e-7, 2.0, 100.0):
            assert smoothed_heaviside(0.5, beta, 0.5)[0] == pytest.approx(0.5, abs=1e-14)

    def test_frozen_value(self):
        assert smoothed_heaviside(0.75, 6.0, 0.5)[0] == pytest.approx(H_075_6_05, rel=1e-13)

    def test_small_beta_series_is_identity(self):
        rho = np.linspace(0, 1, 100)
        assert np.allclose(smoothed_heaviside(rho, 1e-9, 0.5)[0], rho, atol=1e-15)

    def test_continuity_at_series_threshold(self):
        rho = np.linspace(0, 1, 100)
        below, _ = smoothed_heaviside(rho, 0.999e-6, 0.5)
        above, _ = smoothed_heaviside(rho, 1.001e-6, 0.5)
        assert np.abs(below - above).max() < 1e-10

    def test_array_beta(self):
        rho = np.array([0.3, 0.3, 0.3])
        beta = np.array([0.0, 1.0, 10.0])
        out, _ = smoothed_heaviside(rho, beta, 0.5)
        assert out[0] == pytest.approx(0.3)
        assert out[2] < out[1] < out[0]

    def test_derivative_matches_fd(self):
        rng = np.random.default_rng(9)
        rho = rng.uniform(0.01, 0.99, 50)
        step = 1e-7
        for beta in (0.5, 6.0, 30.0):
            fd = (smoothed_heaviside(rho + step, beta, 0.5)[0]
                  - smoothed_heaviside(rho - step, beta, 0.5)[0]) / (2 * step)
            ana = smoothed_heaviside(rho, beta, 0.5)[1]
            assert np.abs(ana - fd).max() / np.abs(fd).max() < 1e-6


class TestNeighborhoodStats:
    def test_uniform_field(self):
        grid = StructuredGrid(6, 4, 0.5)
        stats = neighborhood_stats(grid, np.full(grid.n_elements, 0.3), 0.75)
        assert np.allclose(stats.rho_min, 0.3)
        assert np.allclose(stats.rho_max, 0.3)
        assert np.allclose(stats.diff, 0.0)

    def test_rejects_a_stack(self):
        # the statistics of a stack would mix its rows; a stacked chain needs frozen ones
        grid = StructuredGrid(6, 4, 0.5)
        for shape in ((2, grid.n_elements), (1, grid.n_elements)):
            with pytest.raises(ValueError):
                neighborhood_stats(grid, np.full(shape, 0.3), 0.75)
        with pytest.raises(ValueError):
            neighborhood_stats(grid, ElementField(np.full((2, grid.n_elements), 0.3), "filtered"),
                               0.75)

    def test_center_spike_3x3(self):
        grid = StructuredGrid(3, 3, 1.0)
        field = np.zeros(9)
        field[grid.element_index(1, 1)] = 1.0
        stats = neighborhood_stats(grid, field, 1.5)
        assert np.allclose(stats.rho_min, 0.0)
        assert np.allclose(stats.rho_max, 1.0)
        assert np.allclose(stats.diff, 1.0)

    def test_matches_brute_force_on_random_fields(self):
        grid = StructuredGrid(8, 8, 0.25)
        rng = np.random.default_rng(10)
        e = np.arange(grid.n_elements)
        centers = np.column_stack([(e % grid.nx + 0.5) * grid.h, (e // grid.nx + 0.5) * grid.h])
        for r in (0.25, 0.375, 0.6):
            field = rng.uniform(0, 1, grid.n_elements)
            stats = neighborhood_stats(grid, field, r)
            r_eff = max(r, 1.5 * grid.h)
            for e in range(grid.n_elements):
                d = np.linalg.norm(centers - centers[e], axis=1)
                members = d <= r_eff * (1 + 1e-12)
                assert stats.rho_min[e] == field[members].min()
                assert stats.rho_max[e] == field[members].max()

    @pytest.mark.parametrize("nx, ny, h", [(160, 80, 0.125), (9, 1, 0.3), (1, 7, 0.5), (5, 3, 0.1)])
    def test_matches_neighbor_table_reduction(self, nx, ny, h):
        grid = StructuredGrid(nx, ny, h)
        rng = np.random.default_rng(12)
        for r in (0.0, 0.25, 0.375, 0.5, 1.5):
            field = rng.uniform(0, 1, grid.n_elements)
            stats = neighborhood_stats(grid, field, r)
            table = grid.neighbor_table(r)
            gathered, starts = field[table.indices], table.indptr[:-1]
            assert np.array_equal(stats.rho_min, np.minimum.reduceat(gathered, starts))
            assert np.array_equal(stats.rho_max, np.maximum.reduceat(gathered, starts))

    def test_radius_beyond_the_grid_gives_whole_grid_extremes(self):
        grid = StructuredGrid(8, 4, 0.25)
        field = np.random.default_rng(20).uniform(0, 1, grid.n_elements)
        stats = neighborhood_stats(grid, field, 1e9)
        assert (stats.rho_min == field.min()).all()
        assert (stats.rho_max == field.max()).all()

    def test_bounds_include_own_value(self):
        grid = StructuredGrid(7, 3, 0.5)
        rng = np.random.default_rng(11)
        field = rng.uniform(0, 1, grid.n_elements)
        stats = neighborhood_stats(grid, field, 0.8)
        assert (stats.rho_min <= field).all()
        assert (field <= stats.rho_max).all()
        mid = stats.rho_min + 0.5 * stats.diff
        assert (stats.rho_min <= mid).all()
        assert (mid <= stats.rho_max).all()


def make_stats(mn, mx):
    mn = np.asarray(mn, dtype=float)
    mx = np.asarray(mx, dtype=float)
    return NeighborhoodStats(rho_min=mn, rho_max=mx, diff=mx - mn)


class TestDgiProject:
    def test_fixes_local_extremes_and_midpoint(self):
        stats = make_stats([0.2, 0.2, 0.2], [0.8, 0.8, 0.8])
        rho = np.array([0.2, 0.5, 0.8])
        out, _ = dgi_project(rho, stats, 10.0)
        assert out[0] == pytest.approx(0.2, abs=1e-12)
        assert out[1] == pytest.approx(0.5, abs=1e-12)
        assert out[2] == pytest.approx(0.8, abs=1e-12)

    def test_worked_example(self):
        stats = make_stats([0.2], [0.8])
        out, _ = dgi_project(np.array([0.65]), stats, 10.0)
        assert out[0] == pytest.approx(DGI_EXAMPLE, rel=1e-12)

    def test_degenerate_neighborhood_is_identity(self):
        stats = make_stats([0.4], [0.4])
        assert dgi_project(np.array([0.4]), stats, 25.0)[0][0] == 0.4

    def test_zero_sharpness_is_identity(self):
        stats = make_stats([0.1, 0.3], [0.9, 0.7])
        rho = np.array([0.37, 0.55])
        assert np.allclose(dgi_project(rho, stats, 0.0)[0], rho, atol=1e-15)

    def test_output_stays_in_local_range(self):
        rng = np.random.default_rng(12)
        mn = rng.uniform(0, 0.4, 100)
        mx = mn + rng.uniform(0, 0.6, 100)
        rho = mn + (mx - mn) * rng.uniform(0, 1, 100)
        out, _ = dgi_project(rho, make_stats(mn, mx), 25.0)
        assert (out >= mn - 1e-12).all()
        assert (out <= mx + 1e-12).all()

    def test_projection_direction_follows_midpoint(self):
        rng = np.random.default_rng(13)
        mn = rng.uniform(0, 0.4, 200)
        mx = mn + rng.uniform(1e-3, 0.6, 200)
        rho = mn + (mx - mn) * rng.uniform(0, 1, 200)
        stats = make_stats(mn, mx)
        out, _ = dgi_project(rho, stats, 10.0)
        moved = np.abs(out - rho) > 1e-14
        mid = stats.rho_min + 0.5 * stats.diff
        assert (np.sign(out - rho)[moved] == np.sign(rho - mid)[moved]).all()

    def test_displacement_bounded_by_local_variation(self):
        rng = np.random.default_rng(14)
        mn = rng.uniform(0, 0.5, 200)
        mx = mn + rng.uniform(0, 0.5, 200)
        rho = mn + (mx - mn) * rng.uniform(0, 1, 200)
        stats = make_stats(mn, mx)
        out, _ = dgi_project(rho, stats, 25.0)
        assert (np.abs(out - rho) <= stats.diff + 1e-12).all()

    def test_monotone_in_density(self):
        stats = make_stats(np.full(300, 0.1), np.full(300, 0.9))
        rho = np.linspace(0.1, 0.9, 300)
        out, _ = dgi_project(rho, stats, 25.0)
        assert (np.diff(out) > 0).all()


class TestDgiDerivative:
    def test_degenerate_is_one(self):
        stats = make_stats([0.5], [0.5])
        assert dgi_project(np.array([0.5]), stats, 10.0)[1][0] == 1.0

    def test_zero_sharpness_is_one(self):
        stats = make_stats([0.2], [0.8])
        assert dgi_project(np.array([0.5]), stats, 0.0)[1][0] == pytest.approx(1.0)

    def test_matches_frozen_stats_fd(self):
        rng = np.random.default_rng(15)
        mn = rng.uniform(0, 0.3, 50)
        mx = mn + rng.uniform(0.05, 0.7, 50)
        stats = make_stats(mn, mx)
        rho = mn + (mx - mn) * rng.uniform(0.05, 0.95, 50)
        step = 1e-7
        fd = (dgi_project(rho + step, stats, 10.0)[0]
              - dgi_project(rho - step, stats, 10.0)[0]) / (2 * step)
        ana = dgi_project(rho, stats, 10.0)[1]
        assert np.abs(ana - fd).max() / np.abs(fd).max() < 1e-6

    def test_positive(self):
        rng = np.random.default_rng(16)
        mn = rng.uniform(0, 0.3, 100)
        mx = mn + rng.uniform(0, 0.7, 100)
        rho = mn + (mx - mn) * rng.uniform(0, 1, 100)
        assert (dgi_project(rho, make_stats(mn, mx), 25.0)[1] > 0).all()


class TestRegularizeChain:
    def setup_method(self):
        self.grid = StructuredGrid(8, 5, 0.25)
        self.filt = DensityFilter(self.grid, 0.375)
        rng = np.random.default_rng(17)
        self.raw = ElementField(rng.uniform(0.05, 0.95, self.grid.n_elements), "raw")

    def test_identity_regimes_reproduce_filtered_field(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=1.0, beta_hat=0.0, radius=0.375)
        chain = regularize_chain(self.grid, self.raw, params, self.filt)
        assert np.array_equal(chain.rho_physical.values, chain.rho_tilde.values)
        assert np.array_equal(chain.rho_hat.values, chain.rho_tilde.values)

    def test_zero_sharpness_is_an_exact_identity(self):
        # the rescaling round trip min + diff * ((rho - min) / diff) is not exact
        # in floating point, so the identity regime must bypass it
        for seed in range(50):
            raw = np.random.default_rng(seed).uniform(0.05, 0.95, self.grid.n_elements)
            tilde = self.filt.apply(raw)
            stats = neighborhood_stats(self.grid, tilde, 0.375)
            assert np.array_equal(dgi_project(tilde, stats, 0.0)[0], tilde)

    def test_disabled_maps_reproduce_filtered_field(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=25.0, beta_hat=10.0, radius=0.375)
        chain = regularize_chain(self.grid, self.raw, params, self.filt,
                                 projection="none", dgi_enabled=False)
        assert np.array_equal(chain.rho_physical.values, chain.rho_tilde.values)

    def test_uniform_field_passes_through(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=25.0, beta_hat=10.0, radius=0.375)
        raw = ElementField(np.full(self.grid.n_elements, 0.3), "raw")
        chain = regularize_chain(self.grid, raw, params, self.filt)
        expected, _ = lt_project(0.3, 25.0, 0.1)
        assert np.allclose(chain.rho_tilde.values, 0.3, atol=1e-12)
        assert np.allclose(chain.rho_hat.values, 0.3, atol=1e-12)
        assert np.allclose(chain.rho_physical.values, expected, atol=1e-12)

    def test_stage_tags(self):
        params = ProjectionParams()
        chain = regularize_chain(self.grid, self.raw, params, self.filt)
        assert chain.rho_tilde.stage == "filtered"
        assert chain.rho_hat.stage == "dgi"
        assert chain.rho_physical.stage == "physical"

    def test_requires_raw_stage(self):
        params = ProjectionParams()
        not_raw = ElementField(self.raw.values, "physical")
        with pytest.raises(ValueError):
            regularize_chain(self.grid, not_raw, params, self.filt)


def compliance_of(grid, bc, mat, chainres, p, rho_low):
    sol = assemble_and_solve(grid, bc, chainres.rho_physical, p, rho_low, mat)
    return sol.compliance


class TestChainGradient:
    def setup_method(self):
        self.grid = StructuredGrid(4, 2, 0.5)
        self.bc = cantilever_bc(self.grid)
        self.mat = MaterialModel()
        rng = np.random.default_rng(18)
        self.rho = rng.uniform(0.2, 0.9, self.grid.n_elements)

    def test_identity_chain_passes_gradient_through(self):
        filt = DensityFilter(self.grid, 1e-9)
        params = ProjectionParams(beta_bar=1.0, beta_hat=0.0, radius=0.375)
        chain = regularize_chain(self.grid, ElementField(self.rho, "raw"), params, filt,
                                 dgi_enabled=False)
        g = np.random.default_rng(19).normal(size=self.grid.n_elements)
        assert np.allclose(chain_gradient(chain, g), g, atol=1e-10)

    def _full_chain_fd(self, params, projection, dgi_enabled, p):
        filt = DensityFilter(self.grid, params.radius)
        base = regularize_chain(self.grid, ElementField(self.rho, "raw"), params, filt,
                                projection=projection, dgi_enabled=dgi_enabled)
        sol = assemble_and_solve(self.grid, self.bc, base.rho_physical, p, params.rho_low, self.mat)
        grad_phys = compliance_sensitivity(self.grid, sol, base.rho_physical, p,
                                           params.rho_low, self.mat)
        analytic = chain_gradient(base, grad_phys)
        frozen = base.stats
        step = 1e-6
        for e in range(self.grid.n_elements):
            plus, minus = self.rho.copy(), self.rho.copy()
            plus[e] += step
            minus[e] -= step
            cp = regularize_chain(self.grid, ElementField(plus, "raw"), params, filt,
                                  projection=projection, dgi_enabled=dgi_enabled,
                                  frozen_stats=frozen)
            cm = regularize_chain(self.grid, ElementField(minus, "raw"), params, filt,
                                  projection=projection, dgi_enabled=dgi_enabled,
                                  frozen_stats=frozen)
            f_plus = compliance_of(self.grid, self.bc, self.mat, cp, p, params.rho_low)
            f_minus = compliance_of(self.grid, self.bc, self.mat, cm, p, params.rho_low)
            fd = (f_plus - f_minus) / (2 * step)
            rel = abs(analytic[e] - fd) / max(abs(fd), abs(analytic[e]))
            assert rel < 1e-5, f"element {e}: analytic {analytic[e]}, fd {fd}"

    def test_full_chain_gradient_dgi_off(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=25.0, beta_hat=0.0, radius=0.375)
        self._full_chain_fd(params, projection="low_thickness", dgi_enabled=False, p=3.0)

    def test_full_chain_gradient_dgi_on_frozen_stats(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=25.0, beta_hat=10.0, radius=0.375)
        self._full_chain_fd(params, projection="low_thickness", dgi_enabled=True, p=3.0)

    def test_full_chain_gradient_black_white(self):
        params = ProjectionParams(rho_low=0.1, beta_bar=8.0, beta_hat=0.0, radius=0.375)
        self._full_chain_fd(params, projection="black_white", dgi_enabled=False, p=3.0)

    def test_shape_mismatch_rejected(self):
        filt = DensityFilter(self.grid, 0.375)
        chain = regularize_chain(self.grid, ElementField(self.rho, "raw"),
                                 ProjectionParams(), filt)
        with pytest.raises(ValueError):
            chain_gradient(chain, np.zeros(3))

    @pytest.mark.parametrize("dgi_enabled", [True, False])
    def test_stacked_chain_pulls_back_each_row_alike(self, dgi_enabled):
        filt = DensityFilter(self.grid, 0.375)
        params = ProjectionParams(rho_low=0.1, beta_bar=25.0, beta_hat=10.0, radius=0.375)
        frozen = regularize_chain(self.grid, ElementField(self.rho, "raw"), params, filt).stats
        rng = np.random.default_rng(20)
        raw = rng.uniform(0.2, 0.9, (4, self.grid.n_elements))
        grad = rng.normal(size=raw.shape)

        def chain(values):
            return regularize_chain(self.grid, ElementField(values, "raw"), params, filt,
                                    dgi_enabled=dgi_enabled, frozen_stats=frozen)

        stacked = chain_gradient(chain(raw), grad)
        for row in range(raw.shape[0]):
            assert np.array_equal(stacked[row], chain_gradient(chain(raw[row]), grad[row]))


class TestProjectionParams:
    def test_defaults_valid(self):
        ProjectionParams()
