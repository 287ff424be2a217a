"""File writers: iteration history, field snapshots, graymaps, metrics, VTK."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import ElementField, StructuredGrid
from .optimizer import IterationRecord

HISTORY_HEADER = "iter,compliance,vol_frac,drho_mean,p,beta_hat,beta_bar,step,lt_fraction"

FLOAT_FORMAT = "%.9g"   # 9 significant digits everywhere


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def write_history(path, records: list[IterationRecord]) -> None:
    lines = [HISTORY_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.iteration), _fmt(r.compliance), _fmt(r.vol_frac), _fmt(r.drho_mean),
            _fmt(r.p), _fmt(r.beta_hat), _fmt(r.beta_bar), _fmt(r.step), _fmt(r.lt_fraction),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def field_to_text(grid: StructuredGrid, values: np.ndarray) -> str:
    """Row-major text matrix: line j holds elements j*nx .. j*nx+nx-1 (bottom row first)."""
    rows = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    return "\n".join(" ".join(_fmt(v) for v in row) for row in rows) + "\n"


def write_field_text(path, grid: StructuredGrid, values: np.ndarray) -> None:
    Path(path).write_text(field_to_text(grid, values))


def read_field_text(path) -> np.ndarray:
    """Reads a field matrix back as a (ny, nx) array."""
    rows = [[float(v) for v in line.split()] for line in Path(path).read_text().strip().splitlines()]
    return np.array(rows)


def write_field_pgm(path, grid: StructuredGrid, values: np.ndarray) -> None:
    """Plain (P2) graymap, 255 = solid, top image row = top of the domain."""
    rho = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    gray = np.clip(np.floor(rho * 255.0 + 0.5), 0, 255).astype(int)   # round half up
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    for row in gray[::-1]:
        for k in range(0, grid.nx, 16):
            lines.append(" ".join(str(v) for v in row[k:k + 16]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_vtk(path, grid: StructuredGrid, values: np.ndarray) -> None:
    """Legacy ASCII structured-points file with the thickness as its one cell scalar."""
    values = np.asarray(values, dtype=float)
    lines = [
        "# vtk DataFile Version 3.0",
        "vtopt density field",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_fmt(grid.h)} {_fmt(grid.h)} {_fmt(grid.h)}",
        f"CELL_DATA {grid.n_elements}",
        "SCALARS thickness double 1",
        "LOOKUP_TABLE default",
    ]
    lines.extend(_fmt(v) for v in values)
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics(path, metrics: dict) -> None:
    lines = []
    for key, value in metrics.items():
        if value is None:
            lines.append(f"{key} = none")
        elif isinstance(value, float):
            lines.append(f"{key} = {_fmt(value)}")
        else:
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshots(outdir, grid: StructuredGrid, tag: str, fields: tuple[ElementField, ...]) -> None:
    """Text + graymap snapshot of each field, named <tag>_<field.stage>.{txt,pgm}."""
    outdir = Path(outdir)
    for field in fields:
        write_field_text(outdir / f"{tag}_{field.stage}.txt", grid, field.values)
        write_field_pgm(outdir / f"{tag}_{field.stage}.pgm", grid, field.values)


def snapshot_tag(iteration: int) -> str:
    return f"snap_{iteration:06d}"
