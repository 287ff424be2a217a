"""Command line interface: run, suite, gradcheck, profile.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 nonconvergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .diagnostics import gradient_check, line_profile, transition_width
from .errors import ConfigError, GeometryError, NumericalError, StructuralError, VtoptError
from .export import read_field_text
from .grid import StructuredGrid, load_node
from .runner import SUITES, run_ablation_suite, run_single

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NONCONVERGED = 3

# gradient check pass thresholds: full chain with deblurring vs without
GRADCHECK_TOL_FULL = 1e-4
GRADCHECK_TOL_SMOOTH = 1e-5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vtopt",
                                     description="Variable thickness sheet topology optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization and write artifacts")
    p_run.add_argument("config")

    p_suite = sub.add_parser("suite", help="run an ablation suite")
    p_suite.add_argument("config")
    p_suite.add_argument("suite_name", choices=SUITES)

    p_grad = sub.add_parser("gradcheck", help="verify the sensitivity chain by finite differences")
    p_grad.add_argument("config")
    p_grad.add_argument("--probes", type=int, default=8)
    p_grad.add_argument("--fd-step", type=float, default=1e-6)

    p_prof = sub.add_parser("profile", help="sample a completed run's physical field along a segment")
    p_prof.add_argument("config")
    p_prof.add_argument("x0", type=float)
    p_prof.add_argument("y0", type=float)
    p_prof.add_argument("x1", type=float)
    p_prof.add_argument("y1", type=float)
    p_prof.add_argument("n", type=int)
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    result = run_single(cfg)
    last = result.history[-1]
    print(f"iterations={result.iterations} compliance={result.compliance:.9g} "
          f"vol_frac={result.vol_frac:.9g} drho_mean={last.drho_mean:.9g} "
          f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_suite(args) -> int:
    cfg = parse_config(args.config)
    rows = run_ablation_suite(cfg, args.suite_name)
    failed = [r for r in rows if r.status.startswith("failed")]
    nonconverged = [r for r in rows if r.status == "nonconverged"]
    for row in rows:
        print(f"{row.variant}: status={row.status} compliance="
              f"{'' if row.compliance is None else '%.9g' % row.compliance}")
    if failed:
        return EXIT_NUMERICAL
    if nonconverged:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = parse_config(args.config)
    reduced = cfg.nx > 8 or cfg.ny > 4
    if reduced:
        # the load keeps its place relative to the shrunken domain, one node off the
        # clamped edge if the coarser grid puts it there; no profile is measured
        nx, ny = min(cfg.nx, 8), min(cfg.ny, 4)
        i, j = load_node(nx, ny, cfg.h, None if cfg.load_x is None else cfg.load_x * nx / cfg.nx,
                         None if cfg.load_y is None else cfg.load_y * ny / cfg.ny)
        i = {"left": max(i, 1), "right": min(i, nx - 1)}.get(cfg.clamp_edge, i)
        j = {"bottom": max(j, 1), "top": min(j, ny - 1)}.get(cfg.clamp_edge, j)
        cfg = cfg.replace(nx=nx, ny=ny, width_profile=None, load_x=i * cfg.h, load_y=j * cfg.h)
    error = gradient_check(cfg, n_probe=args.probes, fd_step=args.fd_step)
    if reduced:
        print(f"note: grid reduced to {cfg.nx}x{cfg.ny} for the check", file=sys.stderr)
    tol = GRADCHECK_TOL_FULL if cfg.dgi else GRADCHECK_TOL_SMOOTH
    print(f"max relative gradient error: {error:.3e} (tolerance {tol:.0e})")
    if error > tol:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_profile(args) -> int:
    if args.n < 2:
        raise ConfigError(f"n must be at least 2 samples, got {args.n}")
    cfg = parse_config(args.config)
    field_path = Path(cfg.output_dir) / "final_physical.txt"
    if not field_path.exists():
        raise ConfigError(f"no completed run found: {field_path} is missing (run 'vtopt run' first)")
    grid = StructuredGrid(nx=cfg.nx, ny=cfg.ny, h=cfg.h)
    values = read_field_text(field_path)
    if values.shape != (cfg.ny, cfg.nx):
        raise ConfigError(f"snapshot shape {values.shape} does not match configured grid")
    profile = line_profile(grid, values.ravel(), (args.x0, args.y0), (args.x1, args.y1), args.n)
    width = transition_width(profile)
    lines = ["arc,value"]
    lines += [f"{a:.9g},{v:.9g}" for a, v in zip(profile.arc, profile.values)]
    (Path(cfg.output_dir) / "profile.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"transition_width = {'none' if width is None else '%.9g' % width}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the config-error code
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "profile":
            return _cmd_profile(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, GeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, StructuralError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VtoptError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
