"""Run orchestration: single runs with artifact export and ablation suites."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .diagnostics import line_profile, transition_width
from .errors import VtoptError
from .export import (snapshot_tag, write_field_pgm, write_field_text, write_history,
                     write_metrics, write_snapshots, write_vtk)
from .optimizer import RunResult, run_optimization
from .problem import build_problem

SUITES = ("lt_modes", "dgi_radius_sharpness", "penalization_compare")

SUITE_HEADER = ["variant", "filter_radius", "beta_hat_max", "status", "compliance",
                "normalized_compliance", "lt_fraction", "transition_width", "iterations"]


def run_single(cfg: RunConfig) -> RunResult:
    """Run one optimization and write history, snapshots, metrics, and VTK output."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    setup = build_problem(cfg)

    def callback(record, chain, rho_raw):
        if cfg.snapshot_every > 0 and record.iteration % cfg.snapshot_every == 0:
            tag = snapshot_tag(record.iteration)
            write_field_text(outdir / f"{tag}_raw.txt", setup.grid, rho_raw)
            write_field_pgm(outdir / f"{tag}_raw.pgm", setup.grid, rho_raw)
            write_snapshots(outdir, setup.grid, tag, {
                "filtered": chain.rho_tilde,
                "dgi": chain.rho_hat,
                "physical": chain.rho_physical,
            })

    result = run_optimization(setup, callback=callback)

    write_history(outdir / "history.csv", result.history)
    write_snapshots(outdir, setup.grid, "final", result.fields)
    write_vtk(outdir / "design.vtk", setup.grid, result.chain.rho_physical.values)

    metrics = {
        "compliance": result.compliance,
        "vol_frac": result.vol_frac,
        "lt_fraction": result.lt_fraction,
        "iterations": result.iterations,
        "converged": int(result.converged),
    }
    if cfg.width_profile is not None:
        x0, y0, x1, y1, n = cfg.width_profile
        profile = line_profile(setup.grid, result.chain.rho_physical, (x0, y0), (x1, y1), n)
        result.transition_width = metrics["transition_width"] = transition_width(profile)
    write_metrics(outdir / "metrics.txt", metrics)
    return result


@dataclass
class SuiteRow:
    variant: str
    filter_radius: float | None
    beta_hat_max: float | None
    status: str
    compliance: float | None
    normalized_compliance: float | None
    lt_fraction: float | None
    transition_width: float | None
    iterations: int | None


def _suite_variants(cfg: RunConfig, suite: str, radii=None):
    """(name, config, normalization group) triples for each suite member."""
    if suite == "lt_modes":
        combos = [
            ("none", dict(lt_simp=False, lt_projection=False, dgi=False)),
            ("simp_only", dict(lt_simp=True, lt_projection=False, dgi=False)),
            ("projection_only", dict(lt_simp=False, lt_projection=True, dgi=False)),
            ("combined", dict(lt_simp=True, lt_projection=True, dgi=False)),
        ]
        return [(name, cfg.replace(penalized_reference=False, **over), "all")
                for name, over in combos]
    if suite == "dgi_radius_sharpness":
        if radii is None:
            radii = [cfg.h, 1.5 * cfg.h, 2.0 * cfg.h]
        variants = []
        for r in radii:
            for beta in (None, 5.0, 10.0, 25.0):
                name = f"r{r:g}_" + ("off" if beta is None else f"b{beta:g}")
                over = dict(filter_radius=r, penalized_reference=False,
                            lt_simp=True, lt_projection=True)
                if beta is None:
                    over.update(dgi=False)
                else:
                    over.update(dgi=True, beta_hat_max=beta)
                variants.append((name, cfg.replace(**over), f"r{r:g}"))
        return variants
    if suite == "penalization_compare":
        return [
            ("vtto", cfg.replace(lt_simp=False, lt_projection=False, dgi=False,
                                 penalized_reference=False), "all"),
            ("penalized", cfg.replace(penalized_reference=True), "all"),
        ]
    raise VtoptError(f"unknown suite {suite!r}, expected one of {SUITES}")


def run_ablation_suite(cfg: RunConfig, suite: str, radii=None) -> list[SuiteRow]:
    """Run a study matrix; each member writes into its own subdirectory.

    Compliance is normalized per group against the group's first member (for the
    radius/sharpness study: the no-deblurring baseline of the same radius).
    Member failures are recorded and the suite continues.
    """
    suite_dir = Path(cfg.output_dir) / suite
    suite_dir.mkdir(parents=True, exist_ok=True)

    rows: list[SuiteRow] = []
    groups: list[str] = []
    for name, member_cfg, group in _suite_variants(cfg, suite, radii=radii):
        member_cfg = member_cfg.replace(output_dir=str(suite_dir / name))
        beta = member_cfg.beta_hat_max if member_cfg.dgi else None
        try:
            result = run_single(member_cfg)
            rows.append(SuiteRow(
                variant=name, filter_radius=member_cfg.filter_radius, beta_hat_max=beta,
                status="ok" if result.converged else "nonconverged",
                compliance=result.compliance, normalized_compliance=None,
                lt_fraction=result.lt_fraction, transition_width=result.transition_width,
                iterations=result.iterations))
        except VtoptError as err:
            rows.append(SuiteRow(variant=name, filter_radius=member_cfg.filter_radius,
                                 beta_hat_max=beta, status=f"failed: {err}",
                                 compliance=None, normalized_compliance=None,
                                 lt_fraction=None, transition_width=None, iterations=None))
        groups.append(group)

    # normalize per group against the group's first completed member
    baselines: dict[str, float] = {}
    for group, row in zip(groups, rows):
        if group not in baselines and row.compliance is not None:
            baselines[group] = row.compliance
    for group, row in zip(groups, rows):
        base = baselines.get(group)
        if base and row.compliance is not None:
            row.normalized_compliance = row.compliance / base

    _write_suite_csv(suite_dir / "suite.csv", rows)
    return rows


def _write_suite_csv(path, rows: list[SuiteRow]) -> None:
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return "%.9g" % value
        return str(value)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUITE_HEADER)
        for row in rows:
            writer.writerow([cell(getattr(row, key)) for key in (
                "variant", "filter_radius", "beta_hat_max", "status", "compliance",
                "normalized_compliance", "lt_fraction", "transition_width", "iterations")])
