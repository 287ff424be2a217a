import dataclasses

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
        ("c_beta_hat = 0.9", "c_beta_hat"),
        ("p_max = 0.5", "p_max"),
        ("beta_hat_max = 0.01", "beta_hat_max"),
        ("continuation_mode = stepwise", "continuation_mode"),
        ("rho_low = 0", "rho_low"),
        ("dgi_radius = -0.1", "dgi_radius"),
        ("E0 = 0", "E0"),
        ("rho_min = 1", "rho_min"),
        ("clamp_edge = diagonal", "clamp_edge"),
        ("volume_on = raw", "unknown key 'volume_on'"),
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
        ("h = inf", "^h must be finite"),
        ("filter_radius = inf", "filter_radius must be finite"),
        ("dgi_radius = nan", "dgi_radius must be finite"),
        ("E0 = inf", "E0 must be finite"),
        ("load_fy = inf", "load_fy must be finite"),
        ("load_fy = nan", "load_fy must be finite"),
        ("width_profile = 1 1 inf 1 10", "width_profile must be finite"),
        ("rho_init = 0", "rho_init"),
        ("p_init = 0.5", "p_init"),
        ("beta_bar_init = 0.9", "beta_bar_init"),
    ])
    def test_invariants_name_the_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(line + "\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")


# a valid value for each key, as written in a config file and as parsed
FIELD_VALUES = {
    "nx": ("40", 40), "ny": ("20", 20), "h": ("0.5", 0.5), "clamp_edge": ("bottom", "bottom"),
    "load_x": ("10", 10.0), "load_y": ("2.5", 2.5), "load_fx": ("0.5", 0.5),
    "load_fy": ("-2", -2.0), "E0": ("2e3", 2000.0), "nu": ("0.25", 0.25),
    "rho_min": ("1e-6", 1e-6), "filter_radius": ("0.5", 0.5), "dgi_radius": ("0.75", 0.75),
    "rho_low": ("0.2", 0.2), "beta_bar_init": ("2", 2.0), "beta_bar_max": ("20", 20.0),
    "beta_hat_init": ("0.5", 0.5), "beta_hat_max": ("5", 5.0), "lt_simp": ("off", False),
    "lt_projection": ("off", False), "dgi": ("off", False), "penalized_reference": ("on", True),
    "p_init": ("1.5", 1.5), "p_max": ("4", 4.0), "c_p": ("1.1", 1.1),
    "c_beta_hat": ("1.2", 1.2), "c_beta_bar": ("1.3", 1.3),
    "continuation_mode": ("simultaneous", "simultaneous"), "step_init": ("0.1", 0.1),
    "step_decay": ("0.95", 0.95), "step_min": ("1e-3", 1e-3), "vol_frac": ("0.4", 0.4),
    "rho_init": ("0.5", 0.5), "tol_drho": ("1e-3", 1e-3), "max_iters": ("100", 100),
    "solver": ("direct", "direct"), "output_dir": ("runs/a b", "runs/a b"),
    "snapshot_every": ("10", 10), "seed": ("7", 7),
    "width_profile": ("1 2 3 4.5 50", (1.0, 2.0, 3.0, 4.5, 50)),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_field_parses_back_to_its_value(name):
    text, value = FIELD_VALUES[name]
    # the one valid solver is the default, so only that key cannot differ from it
    assert value != getattr(RunConfig(), name) or name == "solver"
    parsed = getattr(parse_config_text(f"{name} = {text}\n"), name)
    assert parsed == value and type(parsed) is type(value)


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
