import pytest

from vtopt.config import RunConfig, parse_config, parse_config_text
from vtopt.errors import ConfigError


class TestDefaults:
    def test_empty_text_gives_benchmark_defaults(self):
        cfg = parse_config_text("")
        assert (cfg.nx, cfg.ny, cfg.h) == (80, 40, 0.25)
        assert cfg.rho_init == 0.3
        assert cfg.vol_frac == 0.3
        assert cfg.E0 == 1.0
        assert cfg.nu == 0.3
        assert cfg.filter_radius == 0.375
        assert cfg.tol_drho == 1e-4
        assert cfg.rho_low == 0.1
        assert cfg.clamp_edge == "left"
        assert cfg.lt_simp and cfg.lt_projection and cfg.dgi
        assert not cfg.penalized_reference

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# full comment\n\nnx = 10  # trailing\nny=5\n")
        assert cfg.nx == 10
        assert cfg.ny == 5

    def test_doubled_resolution_same_domain(self):
        cfg = parse_config_text("nx = 160\nny = 80\nh = 0.125\n")
        assert cfg.nx * cfg.h == pytest.approx(20.0)
        assert cfg.ny * cfg.h == pytest.approx(10.0)


class TestValidation:
    def test_rejects_out_of_range_named_key(self):
        with pytest.raises(ConfigError, match="vol_frac"):
            parse_config_text("vol_frac = 1.5\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r":2: unknown key 'frobnicate'"):
            parse_config_text("nx = 4\nfrobnicate = 1\n")

    def test_parse_error_with_line_number(self):
        with pytest.raises(ConfigError, match=r":1: invalid value for 'nx'"):
            parse_config_text("nx = four\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match=r":1:"):
            parse_config_text("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("nx = 4\nnx = 5\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="dgi"):
            parse_config_text("dgi = maybe\n")

    @pytest.mark.parametrize("line,key", [
        ("nx = 0", "nx"),
        ("h = -1", "h"),
        ("nu = 0.5", "nu"),
        ("rho_low = 1.0", "rho_low"),
        ("step_decay = 1.0", "step_decay"),
        ("beta_bar_max = 0.5", "beta_bar_max"),
        ("c_p = 1.0", "c_p"),
        ("clamp_edge = diagonal", "clamp_edge"),
        ("volume_on = both", "volume_on"),
        ("solver = magic", "solver"),
        ("step_init = 1.5", "step_init"),
        ("beta_hat_init = 0", "beta_hat_init"),
        ("load_fy = 0", "load_fx"),
        ("load_x = 40", "load_x"),
        ("load_y = -1", "load_y"),
        ("clamp_edge = right", "clamp_edge"),
        ("clamp_edge = top\nload_y = 9.9", "clamp_edge"),
        ("width_profile = 1 1 30 1 10", "width_profile"),
        ("width_profile = 1 -0.5 1 5 10", "width_profile"),
    ])
    def test_invariants_name_the_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(line + "\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")


class TestModes:
    def test_penalized_reference_forces_flags(self):
        cfg = parse_config_text("penalized_reference = on\n")
        assert not cfg.lt_simp
        assert not cfg.lt_projection
        assert not cfg.dgi

    def test_bool_spellings(self):
        for text, expected in [("on", True), ("off", False), ("true", True),
                               ("false", False), ("1", True), ("0", False)]:
            cfg = parse_config_text(f"dgi = {text}\n")
            assert cfg.dgi is expected

    def test_width_profile_parsing(self):
        cfg = parse_config_text("width_profile = 1.0 5.0 1.0 0.25 200\n")
        assert cfg.width_profile == (1.0, 5.0, 1.0, 0.25, 200)

    def test_load_off_the_clamped_edge_passes(self):
        cfg = parse_config_text("clamp_edge = bottom\nload_x = 0\nload_y = 10\n")
        assert (cfg.load_x, cfg.load_y) == (0.0, 10.0)

    def test_width_profile_wrong_arity(self):
        with pytest.raises(ConfigError, match="width_profile"):
            parse_config_text("width_profile = 1 2 3\n")

    def test_replace_revalidates(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.replace(vol_frac=2.0)

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nx = 12\nny = 6\nh = 0.5\nmax_iters = 7\n")
        cfg = parse_config(path)
        assert (cfg.nx, cfg.ny, cfg.max_iters) == (12, 6, 7)
