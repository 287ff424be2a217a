import pickle

import numpy as np
import pytest

from vtopt.errors import ConfigError
from vtopt.grid import ElementField, StructuredGrid, neighborhood


def brute_force_neighborhood(grid, e, r):
    """All-pairs distance scan, independent of the offset construction."""
    centers = grid.element_centers()
    r_eff = max(r, 1.5 * grid.h)
    d = np.linalg.norm(centers - centers[e], axis=1)
    return set(np.nonzero(d <= r_eff * (1 + 1e-12))[0].tolist())


class TestBuildGrid:
    def test_single_cell(self):
        g = StructuredGrid(1, 1, 1.0)
        assert g.n_elements == 1
        assert g.n_nodes == 4
        assert np.allclose(g.element_centers()[0], (0.5, 0.5))

    def test_benchmark_grid(self):
        g = StructuredGrid(80, 40, 0.25)
        assert g.n_elements == 3200
        assert g.width == 20.0
        assert g.height == 10.0

    def test_hand_counts(self):
        g = StructuredGrid(3, 2, 0.5)
        assert g.n_elements == 6
        assert g.n_nodes == 12
        assert g.element_volume * g.n_elements == pytest.approx(1.5)

    @pytest.mark.parametrize("nx,ny,h", [(0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0), (4, 4, -1.0)])
    def test_rejects_bad_dimensions(self, nx, ny, h):
        with pytest.raises(ConfigError):
            StructuredGrid(nx, ny, h)

    def test_indexing_roundtrip(self):
        g = StructuredGrid(5, 3, 0.5)
        assert g.element_index(2, 1) == 1 * 5 + 2
        assert g.node_index(5, 3) == g.n_nodes - 1
        centers = g.element_centers()
        e = g.element_index(4, 2)
        assert centers[e] == pytest.approx([4.5 * 0.5, 2.5 * 0.5])

    def test_element_at_clamps_boundary(self):
        g = StructuredGrid(4, 4, 1.0)
        assert g.element_at(4.0, 4.0) == g.element_index(3, 3)
        assert g.element_at(0.0, 0.0) == 0


class TestNeighborhood:
    def test_interior_default_radius_is_full_block(self):
        g = StructuredGrid(5, 5, 1.0)
        e = g.element_index(2, 2)
        nbrs = neighborhood(g, e, 1.5)
        assert len(nbrs) == 9
        expected = {g.element_index(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
        assert nbrs == expected

    def test_zero_radius_uses_floor(self):
        g = StructuredGrid(5, 5, 1.0)
        e = g.element_index(2, 2)
        nbrs = neighborhood(g, e, 0.0)
        assert nbrs != {e}
        assert len(nbrs) == 9

    def test_corner_of_2x2(self):
        g = StructuredGrid(2, 2, 1.0)
        assert neighborhood(g, 0, 1.5) == {0, 1, 2, 3}

    def test_contains_self_always(self):
        g = StructuredGrid(6, 4, 0.5)
        for e in range(g.n_elements):
            assert e in neighborhood(g, e, 0.9)

    def test_invalid_element(self):
        g = StructuredGrid(3, 3, 1.0)
        with pytest.raises(IndexError):
            neighborhood(g, 9, 1.0)

    def test_negative_radius(self):
        g = StructuredGrid(3, 3, 1.0)
        with pytest.raises(ValueError):
            g.neighbor_table(-0.1)

    def test_symmetry(self):
        g = StructuredGrid(7, 5, 0.25)
        for r in (0.3, 0.55, 1.0):
            for e in range(g.n_elements):
                for other in neighborhood(g, e, r):
                    assert e in neighborhood(g, other, r)

    def test_monotonicity_in_radius(self):
        g = StructuredGrid(6, 6, 1.0)
        radii = [0.0, 1.0, 1.7, 2.5, 3.1]
        for e in range(g.n_elements):
            sets = [neighborhood(g, e, r) for r in radii]
            for smaller, larger in zip(sets, sets[1:]):
                assert smaller <= larger

    @pytest.mark.parametrize("nx,ny,r", [(4, 4, 1.2), (10, 10, 2.3), (10, 7, 3.0), (8, 3, 1.5)])
    def test_matches_brute_force(self, nx, ny, r):
        g = StructuredGrid(nx, ny, 1.0)
        for e in range(g.n_elements):
            assert neighborhood(g, e, r) == brute_force_neighborhood(g, e, r)

    @pytest.mark.parametrize("r", [0.0, 0.375, 0.6, 1.5])
    def test_spans_describe_the_table(self, r):
        g = StructuredGrid(16, 16, 0.25)
        spans = g.neighbor_spans(r)
        m = len(spans) // 2
        assert len(spans) == 2 * m + 1 and spans[m] == m and spans == spans[::-1]
        stencil = {g.element_index(8 + di, 8 + dj)
                   for dj in range(-m, m + 1) for di in range(-spans[dj + m], spans[dj + m] + 1)}
        assert stencil == brute_force_neighborhood(g, g.element_index(8, 8), r)

    def test_table_cached(self):
        g = StructuredGrid(4, 4, 1.0)
        assert g.neighbor_table(1.5) is g.neighbor_table(1.5)


class TestElementField:
    def test_valid_construction(self):
        f = ElementField([0.0, 0.5, 1.0], "raw")
        assert f.stage == "raw"
        assert len(f) == 3

    def test_values_are_read_only(self):
        f = ElementField([0.2, 0.3], "physical")
        with pytest.raises(ValueError):
            f.values[0] = 0.9

    def test_revisions_are_unique(self):
        a = ElementField([0.1], "raw")
        b = ElementField([0.1], "raw")
        assert a.revision != b.revision

    @pytest.mark.parametrize("values", [[-0.01], [1.01], [np.nan], [np.inf], [-np.inf],
                                        [0.5, np.nan]])
    def test_rejects_out_of_range(self, values):
        with pytest.raises(ValueError):
            ElementField(values, "raw")

    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01, np.inf])
    @pytest.mark.parametrize("row", [0, 2])
    def test_rejects_a_bad_entry_in_any_row_of_a_stack(self, bad, row):
        values = np.full((3, 4), 0.5)
        values[row, 1] = bad
        with pytest.raises(ValueError):
            ElementField(values, "raw")

    def test_stack_keeps_its_shape_and_element_count(self):
        f = ElementField(np.full((2, 3, 4), 0.5), "raw")
        assert f.values.shape == (2, 3, 4)
        assert len(f) == 4

    @pytest.mark.parametrize("values", [0.5, np.float64(0.5), np.array(0.5)])
    def test_rejects_a_scalar(self, values):
        with pytest.raises(ValueError):
            ElementField(values, "raw")

    def test_accepts_signed_zero_and_both_bounds(self):
        f = ElementField([-0.0, 0.0, 1.0], "raw")
        np.testing.assert_array_equal(f.values, [0.0, 0.0, 1.0])

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            ElementField([0.5], "blurred")

    def test_pickle_round_trip_is_read_only_with_a_fresh_revision(self):
        f = ElementField([0.2, 0.3], "dgi")
        back = pickle.loads(pickle.dumps(f))
        assert back.stage == "dgi"
        np.testing.assert_array_equal(back.values, f.values)
        assert not back.values.flags.writeable
        assert back.revision != f.revision
