import csv

import numpy as np
import pytest

from vtopt import runner
from vtopt.cli import main
from vtopt.config import CLAMP_EDGES, CONTINUATION_MODES, RunConfig, parse_config_text
from vtopt.errors import ConfigError, NumericalError
from vtopt.export import read_field_text
from vtopt.runner import run_ablation_suite, run_single

FAST = "nx = 12\nny = 6\nh = 0.5\n"


def read_history(path):
    """The rows of a history.csv, each a dict of column name to number."""
    with open(path, newline="") as lines:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(lines)]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunSingle:
    def test_artifacts_written(self, tmp_path):
        cfg = RunConfig(nx=12, ny=6, h=0.5, max_iters=300, output_dir=str(tmp_path / "out"),
                        snapshot_every=50, width_profile=(3.0, 2.9, 3.0, 0.1, 50))
        result = run_single(cfg)
        out = tmp_path / "out"
        assert (out / "history.csv").exists()
        assert (out / "design.vtk").exists()
        assert (out / "metrics.txt").exists()
        for tag in ("final", "snap_000050"):
            for stage in ("raw", "filtered", "dgi", "physical"):
                assert (out / f"{tag}_{stage}.txt").exists()
                assert (out / f"{tag}_{stage}.pgm").exists()
        rows = read_history(out / "history.csv")
        assert len(rows) == result.iterations
        if result.converged:
            assert rows[-1]["drho_mean"] < 1e-4
        text = (out / "metrics.txt").read_text()
        assert "compliance = " in text
        assert "lt_fraction = " in text
        assert "skin_below = " in text and "skin_above = " in text
        assert "transition_width = " in text

    def test_stage_snapshots_byte_equal_when_maps_are_identity(self, tmp_path):
        cfg = RunConfig(nx=10, ny=5, h=0.5, max_iters=40, lt_projection=True, dgi=False,
                        beta_bar_init=1.0, beta_bar_max=1.0 + 1e-12, lt_simp=False,
                        output_dir=str(tmp_path / "out"))
        # beta_bar pinned at 1: the final projection is the identity, deblurring off
        run_single(cfg)
        out = tmp_path / "out"
        filtered = (out / "final_filtered.txt").read_bytes()
        assert (out / "final_dgi.txt").read_bytes() == filtered
        assert (out / "final_physical.txt").read_bytes() == filtered

    def test_history_deterministic_across_runs(self, tmp_path):
        cfg_a = RunConfig(nx=12, ny=6, h=0.5, max_iters=40, output_dir=str(tmp_path / "a"))
        cfg_b = RunConfig(nx=12, ny=6, h=0.5, max_iters=40, output_dir=str(tmp_path / "b"))
        run_single(cfg_a)
        run_single(cfg_b)
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
            (tmp_path / "b" / "history.csv").read_bytes()

    def test_final_fields_roundtrip(self, tmp_path):
        cfg = RunConfig(nx=8, ny=4, h=0.5, max_iters=30, output_dir=str(tmp_path / "out"))
        result = run_single(cfg)
        back = read_field_text(tmp_path / "out" / "final_physical.txt")
        assert np.abs(back.ravel() - result.chain.rho_physical.values).max() < 1e-9


class TestSuites:
    def test_penalization_compare(self, tmp_path):
        cfg = RunConfig(nx=10, ny=5, h=0.5, max_iters=50, output_dir=str(tmp_path / "out"))
        rows = run_ablation_suite(cfg, "penalization_compare")
        assert [r.variant for r in rows] == ["vtto", "penalized"]
        assert rows[0].normalized_compliance == pytest.approx(1.0)
        assert rows[1].normalized_compliance == pytest.approx(
            rows[1].compliance / rows[0].compliance)
        csv_text = (tmp_path / "out" / "penalization_compare" / "suite.csv").read_text()
        assert csv_text.splitlines()[0] == ("variant,filter_radius,beta_hat_max,status,compliance,"
                                            "normalized_compliance,lt_fraction,transition_width,"
                                            "iterations")
        assert (tmp_path / "out" / "penalization_compare" / "vtto" / "history.csv").exists()

    def test_rows_carry_the_width_in_metrics(self, tmp_path):
        cfg = RunConfig(nx=10, ny=5, h=0.5, max_iters=50, output_dir=str(tmp_path / "out"),
                        width_profile=(0.75, 1.25, 0.75, 2.49, 40))
        rows = run_ablation_suite(cfg, "penalization_compare")
        assert any(row.transition_width is not None for row in rows)
        for row in rows:
            metrics = (tmp_path / "out" / "penalization_compare" / row.variant / "metrics.txt")
            line = next(l for l in metrics.read_text().splitlines()
                        if l.startswith("transition_width"))
            width = line.split(" = ")[1]
            assert row.transition_width == (None if width == "none" else pytest.approx(float(width)))

    def test_lt_modes_fractions(self, tmp_path):
        cfg = RunConfig(nx=10, ny=5, h=0.5, max_iters=60, output_dir=str(tmp_path / "out"))
        rows = run_ablation_suite(cfg, "lt_modes")
        names = [r.variant for r in rows]
        assert names == ["none", "simp_only", "projection_only", "combined"]
        by_name = {r.variant: r for r in rows}
        # without any suppression the filtered transitions leave thin material around
        assert by_name["none"].lt_fraction > 0.02

    def test_dgi_matrix_layout_and_normalization(self, tmp_path):
        cfg = RunConfig(nx=10, ny=5, h=0.5, max_iters=40, output_dir=str(tmp_path / "out"))
        rows = run_ablation_suite(cfg, "dgi_radius_sharpness")
        assert len(rows) == 12
        for i in (0, 4, 8):   # one baseline per radius row
            assert rows[i].beta_hat_max is None
            assert rows[i].normalized_compliance == pytest.approx(1.0)
        radii = sorted({r.filter_radius for r in rows})
        assert radii == pytest.approx([0.5, 0.75, 1.0])

    def test_failed_member_row_names_only_the_member(self, tmp_path, monkeypatch):
        def fail(cfg):
            raise NumericalError("no solve")
        monkeypatch.setattr(runner, "run_single", fail)
        cfg = RunConfig(nx=10, ny=5, h=0.5, output_dir=str(tmp_path / "out"))
        rows = run_ablation_suite(cfg, "penalization_compare")
        assert [r.status for r in rows] == ["failed: no solve"] * 2
        lines = (tmp_path / "out" / "penalization_compare" / "suite.csv").read_text().splitlines()
        assert lines[1:] == ["vtto,0.375,,failed: no solve,,,,,",
                             "penalized,0.375,,failed: no solve,,,,,"]

    def test_unknown_suite(self, tmp_path):
        cfg = RunConfig(output_dir=str(tmp_path / "out"))
        with pytest.raises(Exception, match="unknown suite"):
            run_ablation_suite(cfg, "nope")


class TestCliVerbs:
    def test_run_exit_zero_and_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST + f"max_iters = 300\noutput_dir = {tmp_path / 'out'}\n")
        code = main(["run", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged=True" in out
        assert (tmp_path / "out" / "history.csv").exists()

    def test_run_nonconvergence_exit_three(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST + f"max_iters = 3\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 3
        # partial artifacts still written
        assert (tmp_path / "out" / "history.csv").exists()

    def test_radius_beyond_the_grid_ends_on_its_own(self, tmp_path):
        cfg = write_cfg(tmp_path, "nx = 8\nny = 4\ndgi_radius = 1e9\nmax_iters = 3\n"
                        f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) in (0, 3)

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "vol_frac = 1.5\n")
        assert main(["run", str(cfg)]) == 1
        assert "vol_frac" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [("step_init = 1.5", "step_init"),
                                          ("beta_hat_init = 0", "beta_hat_init"),
                                          ("load_fy = 0", "load_fx"),
                                          ("clamp_edge = right", "clamp_edge"),
                                          ("load_x = 40", "load_x"),
                                          ("filter_radius = inf", "filter_radius"),
                                          ("E0 = inf", "E0"),
                                          ("load_fy = nan", "load_fy"),
                                          ("rho_init = 0", "rho_init"),
                                          ("volume_on = raw", "unknown key 'volume_on'")])
    def test_config_rejected_before_the_run(self, tmp_path, capsys, line, key):
        cfg = write_cfg(tmp_path, FAST + f"{line}\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not (tmp_path / "out").exists()

    def test_value_error_in_a_run_exits_one_without_a_traceback(self, tmp_path, capsys):
        # at this stiffness scale the element energies overflow; the error names them and E0
        cfg = write_cfg(tmp_path, "nx = 8\nny = 4\nmax_iters = 60\nE0 = 1e-300\n"
                        f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "element energies" in err and "E0 = 1e-300" in err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_usage_error_exit_one(self):
        assert main(["frobnicate"]) == 1

    def test_gradcheck(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "nx = 8\nny = 4\nh = 0.25\nseed = 3\n")
        code = main(["gradcheck", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative gradient error" in out

    def test_gradcheck_shrinks_load_and_drops_profile_with_the_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST + "load_x = 6\nload_y = 1\nwidth_profile = 3 0 3 3 20\n")
        assert main(["gradcheck", str(cfg)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["load_x = 1\n",
                                      "clamp_edge = bottom\nload_x = 10\nload_y = 0.5\n"])
    def test_gradcheck_keeps_a_load_near_the_clamped_edge_off_it(self, tmp_path, capsys, text):
        # on the 8x4 check grid this load's nearest node lies on the clamped edge
        cfg = write_cfg(tmp_path, text)
        assert main(["gradcheck", str(cfg)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,name", [(["--probes", "0"], "--probes"),
                                            (["--probes", "-3"], "--probes"),
                                            (["--fd-step", "0"], "--fd-step"),
                                            (["--fd-step", "nan"], "--fd-step"),
                                            (["--fd-step", "0.12"], "--fd-step"),
                                            (["--fd-step", "0.2"], "--fd-step")])
    def test_gradcheck_rejects_arguments_that_check_nothing(self, tmp_path, capsys, flags, name):
        cfg = write_cfg(tmp_path, "nx = 8\nny = 4\nh = 0.25\n")
        assert main(["gradcheck", str(cfg), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and name in captured.err

    def test_gradcheck_notes_the_grid_reduction_only_after_a_check(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST)
        assert main(["gradcheck", str(cfg), "--probes", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "note" not in err

    def test_profile_rejects_fewer_than_two_samples(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["profile", str(cfg), "0.5", "0.5", "0.5", "2.5", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least 2 samples" in err

    def test_profile_requires_completed_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST + f"max_iters = 60\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["profile", str(cfg), "0.5", "0.5", "0.5", "2.5", "20"]) == 1

    def test_profile_after_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST + f"max_iters = 40\noutput_dir = {tmp_path / 'out'}\n")
        main(["run", str(cfg)])
        capsys.readouterr()
        code = main(["profile", str(cfg), "3.0", "2.9", "3.0", "0.1", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("arc,value")
        assert "transition_width = " in out
        assert (tmp_path / "out" / "profile.csv").exists()

    def test_suite_cli(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "nx = 8\nny = 4\nh = 0.5\nmax_iters = 50\n"
                        f"output_dir = {tmp_path / 'out'}\n")
        code = main(["suite", str(cfg), "penalization_compare"])
        assert code in (0, 3)
        assert (tmp_path / "out" / "penalization_compare" / "suite.csv").exists()


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_config_text(rng):
    """A 6x3 config with every mode and float key drawn over its valid range."""
    nx, ny, h = 6, 3, log_uniform(rng, 1e-3, 1e3)
    keys = {"nx": nx, "ny": ny, "h": h, "max_iters": int(rng.integers(1, 11)),
            "clamp_edge": rng.choice(CLAMP_EDGES),
            "continuation_mode": rng.choice(CONTINUATION_MODES)}
    rng.choice(2)   # the draw of a retired key, kept so that every later draw stays put
    for flag in ("lt_simp", "lt_projection", "dgi", "penalized_reference"):
        keys[flag] = rng.choice(["on", "off"])
    if rng.random() < 0.5:
        keys["load_x"], keys["load_y"] = rng.uniform(0, nx * h), rng.uniform(0, ny * h)
    keys["load_fx"] = rng.choice([0.0, rng.normal() * log_uniform(rng, 1e-6, 1e6)])
    keys["load_fy"] = rng.normal() * log_uniform(rng, 1e-6, 1e6)
    keys["E0"] = log_uniform(rng, 1e-80, 1e80)   # wider scales: test below
    keys["nu"] = rng.uniform(0.0, 0.5)
    keys["rho_min"] = log_uniform(rng, 1e-12, 0.5)
    keys["filter_radius"] = h * log_uniform(rng, 1e-3, 10.0)
    if rng.random() < 0.5:
        keys["dgi_radius"] = h * rng.uniform(0.0, 10.0)
    keys["rho_low"] = rng.uniform(0.01, 0.99)
    keys["beta_bar_init"] = log_uniform(rng, 1.0, 50.0)
    keys["beta_bar_max"] = keys["beta_bar_init"] * log_uniform(rng, 1.0, 10.0)
    keys["beta_hat_init"] = log_uniform(rng, 1e-3, 10.0)
    keys["beta_hat_max"] = keys["beta_hat_init"] * log_uniform(rng, 1.0, 100.0)
    keys["p_init"] = rng.uniform(1.0, 5.0)
    keys["p_max"] = keys["p_init"] * rng.uniform(1.0, 2.0)
    for key in ("c_p", "c_beta_hat", "c_beta_bar"):
        keys[key] = 1.0 + log_uniform(rng, 1e-3, 2.0)
    keys["step_init"] = rng.uniform(1e-3, 1.0)
    keys["step_decay"] = rng.uniform(0.01, 0.999)
    keys["step_min"] = keys["step_init"] * rng.uniform(1e-3, 1.0)
    keys["vol_frac"] = rng.uniform(0.01, 1.0)
    keys["rho_init"] = rng.uniform(0.01, 1.0)
    keys["tol_drho"] = log_uniform(rng, 1e-8, 1e-1)
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


# The state solve's residual check reads the conditioning of a design with void at
# a tiny rho_min as a solver failure, so these draws exit 2 (ROADMAP item 3).
SOLVE_CHECK_FAILURES = (101, 127)


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(reason="solve residual check, ROADMAP item 3"))
    if seed in SOLVE_CHECK_FAILURES else seed for seed in range(200)])
def test_every_valid_config_runs_to_an_end(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    while True:
        text = random_config_text(rng)
        try:
            parse_config_text(text)
            break
        except ConfigError:
            continue
    cfg = write_cfg(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
    code = main(["run", str(cfg)])
    assert code in (0, 3), capsys.readouterr().err


@pytest.mark.xfail(reason="element energies u^T k0 u leave the float range past E0 ~ 1e+-150")
@pytest.mark.parametrize("E0", ["1e-300", "1e300"])
def test_stiffness_scales_past_the_float_range_run_to_an_end(tmp_path, E0):
    cfg = write_cfg(tmp_path, f"nx = 8\nny = 4\nmax_iters = 60\nE0 = {E0}\n"
                    f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 3
    last = read_history(tmp_path / "out" / "history.csv")[-1]
    assert last["vol_frac"] == pytest.approx(0.3, abs=1e-3)


def run_compliance(tmp_path, h):
    """The compliance metrics.txt reports after `vtopt run` on 8x4 at element size h."""
    out = tmp_path / f"h{h:g}"
    cfg = write_cfg(tmp_path, f"nx = 8\nny = 4\nh = {h}\nfilter_radius = {1.5 * h}\n"
                    f"output_dir = {out}\n")
    assert main(["run", str(cfg)]) == 0
    metrics = dict(line.split(" = ", 1) for line in (out / "metrics.txt").read_text().splitlines())
    return float(metrics["compliance"])


@pytest.mark.parametrize("h", [1e-200, 1e200])
def test_element_sizes_past_the_float_range_run_like_a_unit_size(tmp_path, h):
    # square elements make the stiffness size-free and the volume a plain mean, so
    # h enters only through lengths, which scale with it
    assert run_compliance(tmp_path, h) == pytest.approx(run_compliance(tmp_path, 0.25), rel=1e-9)
