import numpy as np
import pytest

from vtopt.cli import main
from vtopt.config import RunConfig
from vtopt.export import read_field_text, read_history
from vtopt.runner import run_ablation_suite, run_single

FAST = "nx = 12\nny = 6\nh = 0.5\n"


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
        for stage in ("raw", "filtered", "dgi", "physical"):
            assert (out / f"final_{stage}.txt").exists()
            assert (out / f"final_{stage}.pgm").exists()
        assert (out / "snap_000050_physical.txt").exists()
        assert (out / "snap_000050_raw.pgm").exists()
        rows = read_history(out / "history.csv")
        assert len(rows) == result.iterations
        if result.converged:
            assert rows[-1]["drho_mean"] < 1e-4
        text = (out / "metrics.txt").read_text()
        assert "compliance = " in text
        assert "lt_fraction = " in text
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
        assert csv_text.splitlines()[0].startswith("variant,filter_radius,beta_hat_max,status")
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

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "vol_frac = 1.5\n")
        assert main(["run", str(cfg)]) == 1
        assert "vol_frac" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [("step_init = 1.5", "step_init"),
                                          ("beta_hat_init = 0", "beta_hat_init"),
                                          ("load_fy = 0", "load_fx"),
                                          ("clamp_edge = right", "clamp_edge"),
                                          ("load_x = 40", "load_x")])
    def test_config_rejected_before_the_run(self, tmp_path, capsys, line, key):
        cfg = write_cfg(tmp_path, FAST + f"{line}\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not (tmp_path / "out").exists()

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
