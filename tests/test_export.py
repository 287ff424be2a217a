import numpy as np
import pytest

from vtopt.export import (HISTORY_HEADER, field_to_text, read_field_text, read_history,
                          write_field_pgm, write_field_text, write_history, write_metrics,
                          write_vtk)
from vtopt.grid import StructuredGrid
from vtopt.optimizer import IterationRecord


def record(i, **over):
    base = dict(iteration=i, compliance=83.0 + i, vol_frac=0.3, drho_mean=10.0 ** -i,
                p=1.0, beta_hat=0.1, beta_bar=1.0, step=0.05, lt_fraction=0.02)
    base.update(over)
    return IterationRecord(**base)


class TestHistory:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history(path, [record(1), record(2, drho_mean=5e-5)])
        text = path.read_text()
        assert text.splitlines()[0] == HISTORY_HEADER
        rows = read_history(path)
        assert rows[0]["iter"] == 1
        assert rows[1]["drho_mean"] == pytest.approx(5e-5)
        assert rows[1]["compliance"] == pytest.approx(85.0, rel=1e-9)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        records = [record(i) for i in range(1, 6)]
        write_history(a, records)
        write_history(b, records)
        assert a.read_bytes() == b.read_bytes()


class TestFieldText:
    def test_roundtrip_full_printed_precision(self, tmp_path):
        grid = StructuredGrid(6, 4, 0.5)
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, grid.n_elements)
        path = tmp_path / "field.txt"
        write_field_text(path, grid, values)
        back = read_field_text(path)
        assert back.shape == (4, 6)
        # reprinting the parsed values reproduces the file byte for byte
        assert field_to_text(grid, back.ravel()) == path.read_text()
        assert np.abs(back.ravel() - values).max() < 1e-9

    def test_row_order_is_element_order(self, tmp_path):
        grid = StructuredGrid(3, 2, 1.0)
        values = np.arange(6) / 10.0
        path = tmp_path / "field.txt"
        write_field_text(path, grid, values)
        back = read_field_text(path)
        assert back[0].tolist() == [0.0, 0.1, 0.2]   # elements 0..2 are the bottom row
        assert back[1].tolist() == [0.3, 0.4, 0.5]


class TestPgm:
    def test_all_solid_is_255(self, tmp_path):
        grid = StructuredGrid(5, 3, 1.0)
        path = tmp_path / "f.pgm"
        write_field_pgm(path, grid, np.ones(grid.n_elements))
        lines = path.read_text().split()
        assert lines[0] == "P2"
        assert lines[1:3] == ["5", "3"]
        assert lines[3] == "255"
        assert all(v == "255" for v in lines[4:])
        assert len(lines[4:]) == 15

    def test_rounding_half_up(self, tmp_path):
        grid = StructuredGrid(2, 1, 1.0)
        path = tmp_path / "f.pgm"
        # 0.5/255 boundary: 1/510 maps to gray 0.5 -> rounds up to 1
        write_field_pgm(path, grid, np.array([1.0 / 510.0, 0.0]))
        values = path.read_text().split()[4:]
        assert values == ["1", "0"]

    def test_top_row_first(self, tmp_path):
        grid = StructuredGrid(2, 2, 1.0)
        values = np.array([0.0, 0.0, 1.0, 1.0])   # bottom row void, top row solid
        path = tmp_path / "f.pgm"
        write_field_pgm(path, grid, values)
        pixels = path.read_text().split()[4:]
        assert pixels == ["255", "255", "0", "0"]


class TestVtk:
    def test_structured_points_layout(self, tmp_path):
        grid = StructuredGrid(4, 2, 0.25)
        path = tmp_path / "design.vtk"
        values = np.linspace(0, 1, grid.n_elements)
        write_vtk(path, grid, values)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines
        assert "DATASET STRUCTURED_POINTS" in lines
        assert f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1" in lines
        assert f"CELL_DATA {grid.n_elements}" in lines
        assert "SCALARS thickness double 1" in lines
        idx = lines.index("LOOKUP_TABLE default")
        data = [float(v) for v in lines[idx + 1:]]
        assert data == pytest.approx(values.tolist())

    def test_spacing_and_origin(self, tmp_path):
        grid = StructuredGrid(3, 3, 0.5)
        path = tmp_path / "d.vtk"
        write_vtk(path, grid, np.zeros(9))
        text = path.read_text()
        assert "SPACING 0.5 0.5 0.5" in text
        assert "ORIGIN 0 0 0" in text


class TestMetrics:
    def test_formats(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics(path, {"compliance": 8.36e-5, "iterations": 240,
                             "transition_width": None, "converged": 1})
        text = path.read_text()
        assert "compliance = 8.36e-05" in text
        assert "iterations = 240" in text
        assert "transition_width = none" in text
