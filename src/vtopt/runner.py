"""Run orchestration: single runs with artifact export and ablation suites."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .config import RunConfig
from .diagnostics import line_profile, skin_shares, transition_width
from .errors import VtoptError
from .export import snapshot_tag, write_history, write_metrics, write_snapshots, write_vtk
from .grid import ElementField
from .optimizer import RunResult, run_optimization
from .problem import build_problem

SUITES = ("lt_modes", "dgi_radius_sharpness", "penalization_compare")


def run_single(cfg: RunConfig) -> RunResult:
    """Run one optimization and write history, snapshots, metrics, and VTK output."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    setup = build_problem(cfg)

    def snapshot(tag, raw, chain):
        write_snapshots(outdir, setup.grid, tag,
                        (raw, chain.rho_tilde, chain.rho_hat, chain.rho_physical))

    def callback(record, chain, rho_raw):
        if cfg.snapshot_every > 0 and record.iteration % cfg.snapshot_every == 0:
            snapshot(snapshot_tag(record.iteration), ElementField(rho_raw, "raw"), chain)

    result = run_optimization(setup, callback=callback)

    write_history(outdir / "history.csv", result.history)
    snapshot("final", result.raw, result.chain)
    write_vtk(outdir / "design.vtk", setup.grid, result.chain.rho_physical.values)

    skin_below, skin_above = skin_shares(result.chain.rho_physical, cfg.rho_low)
    metrics = {
        "compliance": result.compliance,
        "vol_frac": result.vol_frac,
        "lt_fraction": result.lt_fraction,
        "skin_below": skin_below,
        "skin_above": skin_above,
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
    """One member of a suite; its fields in order are suite.csv's columns."""

    variant: str
    filter_radius: float
    beta_hat_max: float | None
    status: str
    compliance: float | None = None
    normalized_compliance: float | None = None
    lt_fraction: float | None = None
    transition_width: float | None = None
    iterations: int | None = None


def _suite_variants(cfg: RunConfig, suite: str):
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
        variants = []
        for r in (cfg.h, 1.5 * cfg.h, 2.0 * cfg.h):
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


def run_ablation_suite(cfg: RunConfig, suite: str) -> list[SuiteRow]:
    """Run a study matrix; each member writes into its own subdirectory.

    Compliance is normalized per group against the group's first member (for the
    radius/sharpness study: the no-deblurring baseline of the same radius).
    Member failures are recorded and the suite continues.
    """
    suite_dir = Path(cfg.output_dir) / suite
    suite_dir.mkdir(parents=True, exist_ok=True)

    rows: list[SuiteRow] = []
    groups: list[str] = []
    for name, member_cfg, group in _suite_variants(cfg, suite):
        member_cfg = member_cfg.replace(output_dir=str(suite_dir / name))
        beta = member_cfg.beta_hat_max if member_cfg.dgi else None
        try:
            result = run_single(member_cfg)
            rows.append(SuiteRow(
                variant=name, filter_radius=member_cfg.filter_radius, beta_hat_max=beta,
                status="ok" if result.converged else "nonconverged",
                compliance=result.compliance, lt_fraction=result.lt_fraction,
                transition_width=result.transition_width, iterations=result.iterations))
        except VtoptError as err:
            rows.append(SuiteRow(variant=name, filter_radius=member_cfg.filter_radius,
                                 beta_hat_max=beta, status=f"failed: {err}"))
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
        writer.writerow([f.name for f in fields(SuiteRow)])
        for row in rows:
            writer.writerow([cell(value) for value in astuple(row)])
