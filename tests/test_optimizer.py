import itertools

import numpy as np
import pytest

from vtopt import optimizer
from vtopt.config import RunConfig
from vtopt.fem import MaterialModel, cantilever_bc, element_dof_map, element_stiffness, interpolate_modulus
from vtopt.grid import StructuredGrid
from vtopt.optimizer import (ContinuationState, damp_move_limits, forward, gocm_update,
                             run_optimization, update_continuation)
from vtopt.problem import build_problem


def ramps(**changes):
    """Config plus the continuation start and end that build_problem resolves for it."""
    cfg = RunConfig(**changes)
    setup = build_problem(cfg)
    return cfg, setup.continuation_start, setup.continuation_end


class TestUpdateContinuation:
    def test_clamped_at_max_forever(self):
        cfg, _, end = ramps()
        state = ContinuationState(p=3.0, beta_hat=10.0, beta_bar=25.0)
        for _ in range(10):
            state = update_continuation(cfg, state, end)
        assert state.p == 3.0
        assert state.beta_hat == 10.0
        assert state.beta_bar == 25.0

    def test_penalty_reaches_max_after_38_updates(self):
        cfg, state, end = ramps(c_p=1.03)
        updates = 0
        while state.p < end.p:
            state = update_continuation(cfg, state, end)
            updates += 1
        assert updates == 38
        assert state.p == 3.0

    def test_sharpness_ramp_counts(self):
        cfg, _, end = ramps(c_beta_hat=1.05, beta_hat_init=0.1, beta_hat_max=10.0,
                            c_beta_bar=1.05, beta_bar_max=25.0)
        state = ContinuationState(p=3.0, beta_hat=0.1, beta_bar=1.0)
        hat_updates = 0
        while state.beta_hat < end.beta_hat:
            state = update_continuation(cfg, state, end)
            hat_updates += 1
        assert hat_updates == 95
        # beta_bar hits 25 after ceil(ln 25 / ln 1.05) = 66 updates, already done here
        assert state.beta_bar == 25.0

    def test_sequential_betas_wait_for_penalty(self):
        cfg, state, end = ramps()
        for _ in range(10):
            state = update_continuation(cfg, state, end)
            assert state.beta_hat == cfg.beta_hat_init
            assert state.beta_bar == cfg.beta_bar_init
        while state.p < end.p:
            state = update_continuation(cfg, state, end)
        assert state.beta_hat == cfg.beta_hat_init
        state = update_continuation(cfg, state, end)
        assert state.beta_hat > cfg.beta_hat_init
        assert state.beta_bar > cfg.beta_bar_init

    def test_simultaneous_mode_ramps_everything(self):
        cfg, state, end = ramps(continuation_mode="simultaneous")
        state = update_continuation(cfg, state, end)
        assert state.p > cfg.p_init
        assert state.beta_hat > cfg.beta_hat_init
        assert state.beta_bar > cfg.beta_bar_init

    def test_inactive_penalty_lets_betas_start_immediately(self):
        cfg, state, end = ramps(lt_simp=False)
        state = update_continuation(cfg, state, end)
        assert state.p == 1.0
        assert state.beta_hat > cfg.beta_hat_init

    def test_monotone_nondecreasing_sequences(self):
        cfg, state, end = ramps()
        prev = state
        for _ in range(250):
            state = update_continuation(cfg, state, end)
            assert state.p >= prev.p
            assert state.beta_hat >= prev.beta_hat
            assert state.beta_bar >= prev.beta_bar
            assert state.p <= cfg.p_max
            assert state.beta_hat <= cfg.beta_hat_max
            assert state.beta_bar <= cfg.beta_bar_max
            prev = state
        assert state == end


RAMPS = ("p", "beta_hat", "beta_bar")
MODES = {   # mode config and the ramps it pins at their start
    "default": ({}, set()),
    "penalized_reference": ({"penalized_reference": True}, {"beta_hat"}),
    "dgi_off": ({"dgi": False}, {"beta_hat"}),
    "lt_projection_off": ({"lt_projection": False}, {"beta_bar"}),
    "all_off": ({"lt_simp": False, "lt_projection": False, "dgi": False}, set(RAMPS)),
}


@pytest.mark.parametrize("mode, pinned", MODES.values(), ids=MODES)
class TestContinuationRamps:
    def test_build_problem_pins_exactly_the_inactive_ramps(self, mode, pinned):
        _, start, end = ramps(**mode)
        assert {x for x in RAMPS if getattr(start, x) == getattr(end, x)} == pinned
        assert all(getattr(start, x) < getattr(end, x) for x in set(RAMPS) - pinned)

    def test_converged_run_ends_at_the_continuation_end(self, mode, pinned):
        setup = build_problem(RunConfig(nx=8, ny=4, h=0.25, max_iters=400, **mode))
        result = run_optimization(setup)
        assert result.converged
        last = result.history[-1]
        assert ContinuationState(p=last.p, beta_hat=last.beta_hat,
                                 beta_bar=last.beta_bar) == setup.continuation_end


def drho_means(monkeypatch, fields):
    """Each record's drho_mean when the run loop's updates return `fields` in turn.

    The updates start from the uniform initial field; each returned field also
    goes through the loop's physical map, as a real volume search's last trial does.
    """
    replies = iter(fields)

    def scripted(rho, dF, dG, step, vol_frac, physical_map, lam_seed=None):
        new = np.array(next(replies), dtype=float)
        physical_map(new)
        return new, 1.0

    monkeypatch.setattr(optimizer, "gocm_update", scripted)
    result = run_optimization(build_problem(RunConfig(nx=4, ny=2, h=0.5, max_iters=len(fields))))
    return [record.drho_mean for record in result.history]


class TestDeltaRhoMean:
    """The run loop's drho_mean: the mean absolute change of the raw field per update."""

    def test_identical_fields(self, monkeypatch):
        assert drho_means(monkeypatch, [np.full(8, 0.3), np.full(8, 0.3)])[1] == 0.0

    def test_uniform_change(self, monkeypatch):
        old = np.full(8, 0.5)
        assert drho_means(monkeypatch, [old, old + 0.01])[1] == pytest.approx(0.01)

    def test_hand_example(self, monkeypatch):
        old = np.tile([0.2, 0.4], 4)
        new = np.tile([0.3, 0.1], 4)
        assert drho_means(monkeypatch, [old, new])[1] == pytest.approx(0.2)

    def test_signed_changes_do_not_cancel(self, monkeypatch):
        old = np.tile([0.2, 0.4], 4)
        new = np.tile([0.3, 0.3], 4)
        assert drho_means(monkeypatch, [old, new])[1] == pytest.approx(0.1)


def identity_map(rho):
    """A physical map that leaves the field as it is, with its volume-fraction gradient."""
    return rho, np.full(rho.size, 1 / rho.size)


class TestGocmUpdate:
    def test_stationarity(self):
        # proportional sensitivities at target volume: multiplier makes B = 1
        rho = np.array([0.2, 0.3, 0.4, 0.3])
        dG = np.full(4, 1 / 4)
        dF = -2.5 * dG
        new, lam = gocm_update(rho, dF, dG, 0.05, 0.3, identity_map)
        assert np.abs(new - rho).max() < 1e-5
        assert lam == pytest.approx(2.5, rel=1e-3)

    def test_vanishing_step_freezes_design(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.1, 0.9, 6)
        dG = np.full(6, 1 / 6)
        dF = -rng.uniform(0.5, 2.0, 6) * dG
        new, _ = gocm_update(rho, dF, dG, 1e-9, float(rho.mean()), identity_map)
        assert np.abs(new - rho).max() <= 1e-9 + 1e-12

    def test_hits_volume_target(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.1, 0.9, 50)
        dG = np.full(50, 1 / 50)
        dF = -rng.uniform(0.1, 5.0, 50) * dG
        target = float(rho.mean()) - 0.02   # reachable within the move limit
        new, _ = gocm_update(rho, dF, dG, 0.05, target, identity_map)
        assert abs(new.mean() - target) <= 1e-6

    def test_unreachable_target_saturates_move_limit(self):
        rho = np.full(20, 0.5)
        dG = np.full(20, 1 / 20)
        dF = -np.full(20, 1.0) * dG
        new, _ = gocm_update(rho, dF, dG, 0.05, 0.1, identity_map)
        assert new.mean() == pytest.approx(0.45)   # moved the full step toward feasibility

    def test_inactive_constraint_saturates(self):
        rho = np.full(8, 0.9)
        dG = np.full(8, 1 / 8)
        dF = -np.full(8, 1.0)
        new, _ = gocm_update(rho, dF, dG, 0.05, 1.0, identity_map)
        assert (new >= rho).all()   # everything may grow toward solid

    def test_bounds_respected(self):
        rng = np.random.default_rng(2)
        rho = rng.uniform(0, 1, 100)
        dG = np.full(100, 1 / 100)
        dF = -rng.uniform(0, 10, 100) * dG
        new, _ = gocm_update(rho, dF, dG, 0.5, 0.3, identity_map)
        assert (new >= 0).all() and (new <= 1).all()

    def test_move_limit_respected(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.2, 0.8, 40)
        dG = np.full(40, 1 / 40)
        dF = -rng.uniform(0.01, 100.0, 40) * dG
        step = 0.03
        new, _ = gocm_update(rho, dF, dG, step, 0.5, identity_map)
        assert np.abs(new - rho).max() <= step + 1e-12

    def test_per_element_move_limits_bind_element_by_element(self):
        rho = np.full(6, 0.5)
        limits = np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        dG = np.full(6, 1 / 6)
        dF = -np.array([1e6, 1e6, 1e6, 1e-6, 1e-6, 1e-6]) * dG   # three grow, three shrink
        expected = rho + limits * np.array([1, 1, 1, -1, -1, -1])
        new, _ = gocm_update(rho, dF, dG, limits, float(expected.mean()), identity_map)
        np.testing.assert_allclose(new, expected, rtol=0, atol=1e-12)

    def test_equal_per_element_limits_match_one_limit(self):
        rho, dF, dG, target = self.cube_case()
        cube = lambda x: (x ** 3, 3.0 * x ** 2 / x.size)   # noqa: E731
        scalar = gocm_update(rho, dF, dG, 0.05, target, physical_map=cube)
        array = gocm_update(rho, dF, dG, np.full(rho.size, 0.05), target, physical_map=cube)
        assert np.array_equal(scalar[0], array[0]) and scalar[1] == array[1]

    @pytest.mark.parametrize("bad", [0.0, -0.01, 1.5, np.nan])
    def test_rejects_a_move_limit_outside_the_unit_interval(self, bad):
        limits = np.full(4, 0.05)
        limits[2] = bad
        with pytest.raises(ValueError):
            gocm_update(np.full(4, 0.5), -np.ones(4), np.ones(4), limits, 0.5, identity_map)

    @staticmethod
    def cube_case():
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.2, 0.9, 50)
        dG = 3.0 * rho ** 2 / 50   # gradient of the mean of the cube
        dF = -rng.uniform(0.1, 5.0, 50) * dG
        target = float(np.mean(rho ** 3)) - 0.01   # reachable within the move limit
        return rho, dF, dG, target

    @pytest.mark.parametrize("lam_seed", [1e-30, 1e30])
    def test_nonlinear_physical_map_from_far_seeds(self, lam_seed):
        rho, dF, dG, target = self.cube_case()
        new, lam = gocm_update(rho, dF, dG, 0.05, target,
                               physical_map=lambda x: (x ** 3, 3.0 * x ** 2 / x.size),
                               lam_seed=lam_seed)
        assert abs(np.mean(new ** 3) - target) <= 1e-6
        assert 1e-60 < lam < 1e60

    @pytest.mark.parametrize("slope_error", [0.5, 2.0, 0.0, -1.0])   # the last two give no slope
    def test_wrong_slope_still_converges(self, slope_error):
        rho, dF, dG, target = self.cube_case()
        passes = []

        def cube(x):
            passes.append(1)
            return x ** 3, slope_error * 3.0 * x ** 2 / x.size

        new, _ = gocm_update(rho, dF, dG, 0.05, target, physical_map=cube)
        assert abs(np.mean(new ** 3) - target) <= 1e-6
        assert len(passes) <= optimizer.MAX_ROOT_STEPS

    def test_seed_at_the_root_needs_one_pass(self):
        rho, dF, dG, target = self.cube_case()
        passes = []

        def cube(x):
            passes.append(1)
            return x ** 3, 3.0 * x ** 2 / x.size

        _, lam = gocm_update(rho, dF, dG, 0.05, target, physical_map=cube)
        passes.clear()
        new, _ = gocm_update(rho, dF, dG, 0.05, target, physical_map=cube, lam_seed=lam)
        assert abs(np.mean(new ** 3) - target) <= 1e-6
        assert len(passes) == 1

    @pytest.mark.parametrize("E0", [1e-80, 1e80])
    def test_multiplier_search_ignores_the_sensitivity_scale(self, E0):
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.1, 0.9, 50)
        dG = np.full(50, 1 / 50)
        dF = -rng.uniform(0.1, 5.0, 50) * dG / E0
        target = float(rho.mean()) - 0.02
        new, lam = gocm_update(rho, dF, dG, 0.05, target, identity_map)
        assert abs(new.mean() - target) <= 1e-6
        assert 1e-60 < lam * E0 < 1e60

    def test_an_element_without_volume_gradient_does_not_set_the_scale(self):
        # its ratio hits RATIO_CAP; in the mean it would move the search window past the root
        rng = np.random.default_rng(6)
        rho = rng.uniform(0.2, 0.8, 18)
        dG = np.full(18, 1 / 18)
        dG[4] = 1e-300
        dF = -rng.uniform(0.5, 2.0, 18) * 1e65 / 18
        target = float(rho.mean()) - 0.02
        new, _ = gocm_update(rho, dF, dG, 0.05, target, identity_map)
        assert abs(new.mean() - target) <= 1e-6
        assert new[4] == pytest.approx(rho[4] + 0.05)   # an unbounded ratio grows the element

    def test_a_target_past_the_reach_of_an_element_without_volume_gradient_ends_at_the_bound(self):
        # that element grows at every lam, so no clip holds the whole field: only |t| ends
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.2, 0.8, 18)
        dG = np.full(18, 1 / 18)
        dG[4] = 1e-300
        dF = -rng.uniform(0.5, 2.0, 18) / 18
        passes = []

        def counted(x):
            passes.append(1)
            return identity_map(x)

        new, _ = gocm_update(rho, dF, dG, 0.05, float(rho.mean()) - 0.2, counted)
        np.testing.assert_allclose(np.delete(new, 4), np.delete(rho, 4) - 0.05, rtol=0, atol=1e-12)
        assert new[4] == pytest.approx(rho[4] + 0.05)
        assert len(passes) <= 3

    @pytest.mark.parametrize("bad", [1.0, np.nan])
    def test_rejects_positive_objective_gradient(self, bad):
        dF = np.full(4, -1.0)
        dF[2] = bad
        with pytest.raises(ValueError):
            gocm_update(np.full(4, 0.5), dF, np.ones(4), 0.05, 0.3, identity_map)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_rejects_nonpositive_constraint_gradient(self, bad):
        dG = np.ones(4)
        dG[2] = bad
        with pytest.raises(ValueError):
            gocm_update(np.full(4, 0.5), -np.ones(4), dG, 0.05, 0.3, identity_map)


def random_search(seed):
    """gocm_update's arguments for a random search with a target inside the move box's reach.

    The physical map is the identity or the cube, its volume gradient off by a
    factor 0.3, 1 or 3; the sensitivities and the seed span 1e+-40 and 1e+-80
    of scale; every element has its own move limit.
    """
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi, size=None):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    n = int(rng.integers(2, 60))
    power, slope_error = rng.choice([1, 3]), rng.choice([0.3, 1.0, 3.0])
    rho = rng.uniform(0.01, 0.99, n)
    limits = rng.uniform(1e-3, 0.3, n)
    dG = power * rho ** (power - 1) / n
    scale = log_uniform(1e-40, 1e40)
    dF = -dG * log_uniform(1e-3, 1e3, n) * scale
    lower, upper = np.maximum(rho - limits, 0.0), np.minimum(rho + limits, 1.0)
    target = float(np.mean(rng.uniform(lower, upper) ** power))

    def physical_map(x):
        return x ** power, slope_error * power * x ** (power - 1) / x.size

    return dict(rho=rho, dF=dF, dG=dG, step=limits, vol_target=target, physical_map=physical_map,
                lam_seed=scale * log_uniform(1e-80, 1e80))


@pytest.mark.parametrize("seed", range(300))
def test_every_reachable_volume_target_is_hit(seed):
    search = random_search(seed)
    new, _ = gocm_update(**search)
    volume = np.mean(search["physical_map"](new)[0])
    assert abs(volume - search["vol_target"]) <= optimizer.VOLUME_TOL


def toy_setup():
    cfg = RunConfig(nx=4, ny=2, h=0.5, lt_simp=False, lt_projection=False, dgi=False,
                    filter_radius=1e-9, max_iters=300)
    return cfg, build_problem(cfg)


def exhaustive_search(setup, levels, vol_target):
    """Best compliance over the discretized density grid under the volume cap."""
    grid = setup.grid
    mat = setup.material
    k0 = element_stiffness(mat.nu)
    edof = element_dof_map(grid)
    n_dofs = 2 * (grid.nx + 1) * (grid.ny + 1)
    scatter = np.zeros((grid.n_elements, n_dofs, n_dofs))
    for e in range(grid.n_elements):
        scatter[e][np.ix_(edof[e], edof[e])] = k0
    f = setup.bc.load_vector(n_dofs)
    free = np.setdiff1d(np.arange(n_dofs), setup.bc.fixed_dofs())
    Kparts = scatter[:, free][:, :, free]
    ffree = f[free]

    best, best_rho = np.inf, None
    for combo in itertools.product(levels, repeat=grid.n_elements):
        rho = np.array(combo)
        if rho.mean() > vol_target + 1e-12:
            continue
        E = interpolate_modulus(rho, 1.0, 0.1, mat)
        K = np.tensordot(E, Kparts, axes=1)
        u = np.linalg.solve(K, ffree)
        c = float(ffree @ u)
        if c < best:
            best, best_rho = c, rho
    return best, best_rho


class TestRunOptimization:
    def test_trivially_feasible_goes_solid(self):
        cfg = RunConfig(nx=6, ny=3, h=0.5, lt_simp=False, lt_projection=False, dgi=False,
                        vol_frac=1.0, max_iters=50)
        result = run_optimization(build_problem(cfg))
        assert result.converged
        assert result.iterations <= 25
        assert (result.raw.values > 0.99).all()

    def test_feasibility_invariants(self):
        cfg = RunConfig(nx=12, ny=6, h=0.25, max_iters=400)
        result = run_optimization(build_problem(cfg))
        assert result.converged
        assert abs(result.vol_frac - 0.3) < 1e-3
        assert result.history[-1].drho_mean < 1e-4
        for rec in result.history:
            assert 0.0 <= rec.vol_frac <= 1.0
        assert (result.raw.values >= 0).all() and (result.raw.values <= 1).all()

    def test_stopping_requires_continuation_complete(self):
        cfg = RunConfig(nx=8, ny=4, h=0.25, max_iters=400)
        result = run_optimization(build_problem(cfg))
        assert result.converged
        last = result.history[-1]
        assert last.p == 3.0
        assert last.beta_hat == 10.0
        assert last.beta_bar == 25.0
        # drho dips below tolerance are ignored while parameters still ramp
        for rec in result.history[:-1]:
            ramping = rec.p < 3.0 or rec.beta_hat < 10.0 or rec.beta_bar < 25.0
            if rec.drho_mean < 1e-4:
                assert ramping

    def test_step_decays_and_floors(self):
        cfg = RunConfig(nx=6, ny=3, h=0.5, max_iters=350, tol_drho=1e-12)
        result = run_optimization(build_problem(cfg))
        steps = [rec.step for rec in result.history]
        assert steps[0] == 0.05
        for a, b in zip(steps, steps[1:]):
            assert b == pytest.approx(max(a * 0.98, 1e-4), rel=1e-12)
        assert steps[-1] == pytest.approx(1e-4)

    def test_move_limits_shrink_on_a_sign_flip_and_grow_on_a_repeat(self, monkeypatch):
        cfg = RunConfig(nx=12, ny=6, h=0.25, max_iters=400)
        calls = []   # (raw density, move limits, new raw density) of each update
        update = optimizer.gocm_update

        def recorded(rho, dF, dG, step, *args, **kwargs):
            new, lam = update(rho, dF, dG, step, *args, **kwargs)
            calls.append((rho.copy(), np.array(step, dtype=float), new))
            return new, lam

        monkeypatch.setattr(optimizer, "gocm_update", recorded)
        result = run_optimization(build_problem(cfg))
        assert result.converged
        steps = [rec.step for rec in result.history]
        assert (calls[0][1] == cfg.step_init).all()
        flips = repeats = 0
        moves = [np.zeros(calls[0][0].size)] + [new - rho for rho, _, new in calls]
        for k in range(1, len(calls)):
            limits, last = calls[k][1], calls[k - 1][1]
            turn = np.sign(moves[k - 1]) * np.sign(moves[k])
            expected = np.where(turn < 0, 0.7 * last, np.where(turn > 0, 1.2 * last, last))
            np.testing.assert_allclose(limits, np.clip(expected, cfg.step_min, steps[k]),
                                       rtol=1e-12, atol=0)
            assert (limits >= cfg.step_min).all() and (limits <= steps[k]).all()
            flips += np.count_nonzero(turn < 0)
            repeats += np.count_nonzero(turn > 0)
        assert flips > 0 and repeats > 0

    def test_drho_mean_is_the_mean_absolute_change_between_callbacks(self):
        records, raws = [], []

        def collect(record, chain, rho):
            records.append(record)
            raws.append(rho.copy())

        result = run_optimization(build_problem(RunConfig(nx=8, ny=4, h=0.25, max_iters=60)),
                                  callback=collect)
        raws.append(result.raw.values)   # the field the last update accepted
        assert len(records) == result.iterations >= 2
        mixed = 0
        for record, old, new in zip(records, raws, raws[1:]):
            assert record.drho_mean == float(np.mean(np.abs(new - old)))
            # a move up and a move down add up rather than cancel
            if (new > old).any() and (new < old).any():
                mixed += 1
                assert record.drho_mean > abs(float(np.mean(new - old)))
        assert mixed > 0

    def test_damped_limits_clip_to_the_global_limit_and_its_floor(self):
        limits = np.array([0.01, 0.01, 0.01, 0.03, 2e-4, 0.02])
        last = np.array([1.0, 1.0, 0.0, 1.0, 1.0, -1.0])
        move = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(damp_move_limits(limits, last, move, 0.03, 1e-4),
                                   [0.007, 0.012, 0.01, 0.03, 1.4e-4, 0.024], rtol=1e-12)
        np.testing.assert_allclose(damp_move_limits(limits, last, move, 0.03, 1.5e-4)[4], 1.5e-4)

    def test_continuation_sequences_nondecreasing_in_history(self):
        cfg = RunConfig(nx=8, ny=4, h=0.25, max_iters=400)
        result = run_optimization(build_problem(cfg))
        ps = [r.p for r in result.history]
        hats = [r.beta_hat for r in result.history]
        bars = [r.beta_bar for r in result.history]
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert all(a <= b for a, b in zip(hats, hats[1:]))
        assert all(a <= b for a, b in zip(bars, bars[1:]))

    @staticmethod
    def search_passes_per_update(monkeypatch, cfg):
        counts = {"passes": 0, "updates": 0}
        searching = [False]
        forward, update = optimizer.forward, optimizer.gocm_update

        def counted_update(*args, **kwargs):
            counts["updates"] += 1
            searching[0] = True
            try:
                return update(*args, **kwargs)
            finally:
                searching[0] = False

        def counted_forward(*args, **kwargs):
            counts["passes"] += searching[0]
            return forward(*args, **kwargs)

        monkeypatch.setattr(optimizer, "gocm_update", counted_update)
        monkeypatch.setattr(optimizer, "forward", counted_forward)
        run_optimization(build_problem(cfg))
        return counts["passes"] / counts["updates"]

    def test_volume_search_needs_few_forward_passes(self, monkeypatch):
        assert self.search_passes_per_update(monkeypatch, RunConfig(nx=20, ny=10)) <= 4

    def test_first_search_starts_near_its_root(self, monkeypatch):
        # seeded at the sensitivity scale; a seed of lam = 1 took 9 passes here
        passes = self.search_passes_per_update(monkeypatch, RunConfig(max_iters=1))
        assert passes <= 6

    def test_steepest_projection_needs_few_forward_passes(self, monkeypatch):
        # the black-white projection at beta_bar = 25 is the chain's steepest map
        cfg = RunConfig(nx=20, ny=10, penalized_reference=True)
        assert self.search_passes_per_update(monkeypatch, cfg) <= 4

    @pytest.mark.parametrize("E0", [1e-80, 1e80])
    def test_volume_target_reached_at_any_stiffness_scale(self, E0):
        cfg = RunConfig(nx=8, ny=4, max_iters=60)
        reference = run_optimization(build_problem(cfg))
        result = run_optimization(build_problem(cfg.replace(E0=E0)))
        assert abs(reference.vol_frac - 0.3) < 1e-3
        assert abs(result.vol_frac - reference.vol_frac) < 1e-6
        assert result.compliance * E0 == pytest.approx(reference.compliance, rel=1e-6)

    def test_toy_problem_matches_exhaustive_search(self):
        cfg, setup = toy_setup()
        result = run_optimization(setup)
        assert result.converged
        levels = (0.0, 0.25, 0.5, 0.75, 1.0)
        _, best_rho = exhaustive_search(setup, levels, cfg.vol_frac)
        assert np.abs(result.raw.values - best_rho).max() <= 0.25 + 1e-9


MODES = {
    "default": {},
    "penalized": dict(penalized_reference=True),
    "dgi_off": dict(dgi=False),
    "lt_projection_off": dict(lt_projection=False),
    "simultaneous": dict(continuation_mode="simultaneous"),
}


class TestSearchTrialReuse:
    """The run loop analyses the volume search's last trial, the accepted design,
    instead of rebuilding its chain while the projection sharpness stands still."""

    @pytest.mark.parametrize("mode", MODES)
    def test_reused_chain_equals_a_fresh_one(self, monkeypatch, mode):
        setup = build_problem(RunConfig(nx=16, ny=8, **MODES[mode]))
        forward, evaluate, update = optimizer.forward, optimizer.evaluate, optimizer.gocm_update
        outside = [0]
        busy = [False]   # inside the volume search or the checks below
        sharpness = []

        def counted_forward(*args, **kwargs):
            outside[0] += not busy[0]
            return forward(*args, **kwargs)

        def searched(*args, **kwargs):
            busy[0] = True
            try:
                return update(*args, **kwargs)
            finally:
                busy[0] = False

        def check(record, chain, rho):
            busy[0] = True
            state = ContinuationState(p=record.p, beta_hat=record.beta_hat, beta_bar=record.beta_bar)
            assert np.array_equal(chain.rho_physical.values,
                                  forward(setup, rho, state).rho_physical.values)
            assert record.compliance == evaluate(setup, rho, state)[1].compliance
            busy[0] = False
            sharpness.append((record.beta_hat, record.beta_bar))

        monkeypatch.setattr(optimizer, "forward", counted_forward)
        monkeypatch.setattr(optimizer, "gocm_update", searched)
        result = run_optimization(setup, callback=check)
        passes = outside[0]
        assert result.converged

        chain, solution, _ = evaluate(setup, result.raw.values, setup.continuation_end)
        assert np.array_equal(result.chain.rho_physical.values, chain.rho_physical.values)
        assert result.compliance == solution.compliance
        assert passes == 1 + sum(a != b for a, b in zip(sharpness, sharpness[1:]))


FORWARD_MODES = {
    "default": {},
    "penalized_reference": dict(penalized_reference=True),
    "dgi_off": dict(dgi=False),
    "lt_projection_off": dict(lt_projection=False),
}


@pytest.mark.parametrize("mode", FORWARD_MODES)
@pytest.mark.parametrize("nx,ny", [(8, 4), (80, 40)])
def test_forward_on_a_stack_equals_forward_per_row(mode, nx, ny):
    setup = build_problem(RunConfig(nx=nx, ny=ny, h=0.25, **FORWARD_MODES[mode]))
    state = setup.continuation_end
    rng = np.random.default_rng(nx)
    frozen = forward(setup, rng.uniform(0.2, 0.9, setup.grid.n_elements), state).stats
    stack = rng.uniform(0.0, 1.0, (6, setup.grid.n_elements))
    chain = forward(setup, stack, state, frozen_stats=frozen)
    for row in range(stack.shape[0]):
        alone = forward(setup, stack[row], state, frozen_stats=frozen)
        for name in ("rho_tilde", "rho_hat", "rho_physical"):
            assert np.array_equal(getattr(chain, name).values[row], getattr(alone, name).values)
        assert np.array_equal(chain.d_hat_d_tilde[row], alone.d_hat_d_tilde)
        assert np.array_equal(chain.d_phys_d_hat[row], alone.d_phys_d_hat)


def test_stacked_forward_without_frozen_statistics_fails_loudly():
    setup = build_problem(RunConfig(nx=8, ny=4, h=0.25))
    with pytest.raises(ValueError):
        forward(setup, np.full((2, setup.grid.n_elements), 0.5), setup.continuation_end)
