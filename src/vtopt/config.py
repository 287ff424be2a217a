"""Flat key = value run configuration with validated defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

CLAMP_EDGES = ("left", "right", "bottom", "top")
CONTINUATION_MODES = ("sequential", "simultaneous")
VOLUME_FIELDS = ("physical", "raw")
SOLVERS = ("direct", "cg")

_TRUE = {"1", "true", "on", "yes"}
_FALSE = {"0", "false", "off", "no"}


@dataclass
class RunConfig:
    """Everything one optimization run needs; defaults mirror the benchmark setup."""

    # grid
    nx: int = 80
    ny: int = 40
    h: float = 0.25
    # benchmark
    clamp_edge: str = "left"
    load_x: float | None = None   # default: right edge
    load_y: float | None = None   # default: mid height
    load_fx: float = 0.0
    load_fy: float = -1.0
    # material
    E0: float = 1.0
    nu: float = 0.3
    rho_min: float = 1e-9
    # regularization
    filter_radius: float = 0.375
    dgi_radius: float | None = None   # default: filter_radius
    rho_low: float = 0.1
    beta_bar_init: float = 1.0
    beta_bar_max: float = 25.0
    beta_hat_init: float = 0.1
    beta_hat_max: float = 10.0
    # mode flags
    lt_simp: bool = True
    lt_projection: bool = True
    dgi: bool = True
    penalized_reference: bool = False
    # continuation
    p_init: float = 1.0
    p_max: float = 3.0
    c_p: float = 1.03
    c_beta_hat: float = 1.05
    c_beta_bar: float = 1.05
    continuation_mode: str = "sequential"
    # optimizer
    step_init: float = 0.05
    step_decay: float = 0.98
    step_min: float = 1e-4
    vol_frac: float = 0.3
    rho_init: float = 0.3
    tol_drho: float = 1e-4
    max_iters: int = 500
    volume_on: str = "physical"
    solver: str = "direct"
    # outputs
    output_dir: str = "out"
    snapshot_every: int = 0   # 0: snapshots only at convergence
    seed: int = 0
    width_profile: tuple[float, float, float, float, int] | None = None

    def __post_init__(self):
        if self.penalized_reference:
            # reference mode penalizes all densities globally; the targeted maps are off
            self.lt_simp = False
            self.lt_projection = False
            self.dgi = False
        self.validate()

    def validate(self):
        _require(self.nx >= 1, "nx", "must be >= 1")
        _require(self.ny >= 1, "ny", "must be >= 1")
        _require(self.h > 0, "h", "must be positive")
        _require(self.clamp_edge in CLAMP_EDGES, "clamp_edge", f"must be one of {CLAMP_EDGES}")
        width, height = self.nx * self.h, self.ny * self.h
        _require(self.load_fx != 0 or self.load_fy != 0, "load_fx",
                 "and load_fy are both 0, so the load vector is zero")
        _require(self.load_x is None or 0 <= self.load_x <= width, "load_x",
                 f"must lie in [0, nx*h] = [0, {width:g}]")
        _require(self.load_y is None or 0 <= self.load_y <= height, "load_y",
                 f"must lie in [0, ny*h] = [0, {height:g}]")
        # the load sits on the node nearest (load_x, load_y), as cantilever_bc places it
        load_x = width if self.load_x is None else self.load_x
        load_y = height / 2.0 if self.load_y is None else self.load_y
        li, lj = round(load_x / self.h), round(load_y / self.h)
        clamped = {"left": li == 0, "right": li == self.nx, "bottom": lj == 0, "top": lj == self.ny}
        _require(not clamped[self.clamp_edge], "clamp_edge",
                 f"{self.clamp_edge} fixes the load node nearest (load_x, load_y) = "
                 f"({load_x:g}, {load_y:g})")
        _require(self.E0 > 0, "E0", "must be positive")
        _require(0 <= self.nu < 0.5, "nu", "must be in [0, 0.5)")
        _require(0 < self.rho_min < 1, "rho_min", "must be in (0, 1)")
        _require(self.filter_radius > 0, "filter_radius", "must be positive")
        if self.dgi_radius is not None:
            _require(self.dgi_radius >= 0, "dgi_radius", "must be >= 0")
        _require(0 < self.rho_low < 1, "rho_low", "must be in (0, 1)")
        _require(self.beta_bar_init >= 1, "beta_bar_init", "must be >= 1")
        _require(self.beta_bar_max >= self.beta_bar_init, "beta_bar_max", "must be >= beta_bar_init")
        # the sharpness ramp is geometric, so it never leaves 0
        _require(self.beta_hat_init > 0, "beta_hat_init", "must be positive")
        _require(self.beta_hat_max >= self.beta_hat_init, "beta_hat_max", "must be >= beta_hat_init")
        _require(self.p_init >= 1, "p_init", "must be >= 1")
        _require(self.p_max >= self.p_init, "p_max", "must be >= p_init")
        for key in ("c_p", "c_beta_hat", "c_beta_bar"):
            _require(getattr(self, key) > 1, key, "must be > 1")
        _require(self.continuation_mode in CONTINUATION_MODES, "continuation_mode",
                 f"must be one of {CONTINUATION_MODES}")
        _require(0 < self.step_init <= 1, "step_init", "must be in (0, 1]")
        _require(0 < self.step_decay < 1, "step_decay", "must be in (0, 1)")
        _require(0 < self.step_min <= self.step_init, "step_min", "must be in (0, step_init]")
        _require(0 < self.vol_frac <= 1, "vol_frac", "must be in (0, 1]")
        _require(0 <= self.rho_init <= 1, "rho_init", "must be in [0, 1]")
        _require(self.tol_drho > 0, "tol_drho", "must be positive")
        _require(self.max_iters >= 1, "max_iters", "must be >= 1")
        _require(self.volume_on in VOLUME_FIELDS, "volume_on", f"must be one of {VOLUME_FIELDS}")
        _require(self.solver in SOLVERS, "solver", f"must be one of {SOLVERS}")
        _require(self.snapshot_every >= 0, "snapshot_every", "must be >= 0")
        if self.width_profile is not None:
            _require(len(self.width_profile) == 5 and self.width_profile[4] >= 2,
                     "width_profile", "must be 'x0 y0 x1 y1 n' with n >= 2")
            x0, y0, x1, y1, _ = self.width_profile
            _require(0 <= min(x0, x1) and max(x0, x1) <= width
                     and 0 <= min(y0, y1) and max(y0, y1) <= height, "width_profile",
                     f"endpoints must lie in [0, {width:g}] x [0, {height:g}]")

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(f"{key} {message}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"expected a boolean (on/off), got {text!r}")


def _parse_width_profile(text: str):
    parts = text.split()
    if len(parts) != 5:
        raise ValueError("expected 'x0 y0 x1 y1 n'")
    return (float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]), int(parts[4]))


_PARSERS = {
    "nx": int, "ny": int, "max_iters": int, "snapshot_every": int, "seed": int,
    "h": float, "load_x": float, "load_y": float, "load_fx": float, "load_fy": float,
    "E0": float, "nu": float, "rho_min": float,
    "filter_radius": float, "dgi_radius": float, "rho_low": float,
    "beta_bar_init": float, "beta_bar_max": float, "beta_hat_init": float, "beta_hat_max": float,
    "p_init": float, "p_max": float, "c_p": float, "c_beta_hat": float, "c_beta_bar": float,
    "step_init": float, "step_decay": float, "step_min": float,
    "vol_frac": float, "rho_init": float, "tol_drho": float,
    "lt_simp": _parse_bool, "lt_projection": _parse_bool, "dgi": _parse_bool,
    "penalized_reference": _parse_bool,
    "clamp_edge": str, "continuation_mode": str, "volume_on": str, "solver": str,
    "output_dir": str, "width_profile": _parse_width_profile,
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse flat 'key = value' lines ('#' starts a comment); unknown keys are errors."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: invalid value for {key!r}: {err}") from err
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text, source=str(path))
