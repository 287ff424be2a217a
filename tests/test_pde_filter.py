import numpy as np
import pytest

from vtopt.grid import StructuredGrid
from vtopt.pde_filter import RADIUS_TO_LENGTH, DensityFilter


def dense_filter_matrix(grid, radius):
    """Dense system built by explicit neighbor loops, solved with numpy."""
    n = grid.n_elements
    R = radius * RADIUS_TO_LENGTH
    c = (R / grid.h) ** 2
    A = np.zeros((n, n))
    for j in range(grid.ny):
        for i in range(grid.nx):
            e = j * grid.nx + i
            A[e, e] = 1.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < grid.nx and 0 <= jj < grid.ny:
                    A[e, e] += c
                    A[e, jj * grid.nx + ii] -= c
    return np.linalg.inv(A)


class TestBuildFilter:
    def test_radius_conversion(self):
        grid = StructuredGrid(4, 4, 0.25)
        filt = DensityFilter(grid, 0.375)
        assert filt.length_scale == pytest.approx(0.10825317547305482, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        grid = StructuredGrid(4, 4, 0.25)
        with pytest.raises(ValueError):
            DensityFilter(grid, 0.0)

    def test_tiny_radius_is_identity(self):
        grid = StructuredGrid(6, 4, 0.25)
        filt = DensityFilter(grid, 1e-8)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, grid.n_elements)
        assert np.allclose(filt.apply(x), x, atol=1e-12)

    def test_bases_are_shared_per_size_and_read_only(self):
        a = DensityFilter(StructuredGrid(8, 4, 0.25), 0.375)
        b = DensityFilter(StructuredGrid(4, 8, 1.0), 2.0)
        assert a._basis_x is b._basis_y and a._basis_y is b._basis_x
        assert not a._basis_x.flags.writeable and not a._basis_y.flags.writeable

    def test_single_cell_identity(self):
        grid = StructuredGrid(1, 1, 1.0)
        filt = DensityFilter(grid, 0.5)
        assert filt.apply(np.array([0.37])) == pytest.approx([0.37], rel=1e-14)


class TestApplyFilter:
    def test_preserves_uniform_field(self):
        grid = StructuredGrid(9, 5, 0.5)
        filt = DensityFilter(grid, 0.75)
        out = filt.apply(np.full(grid.n_elements, 0.42))
        assert np.allclose(out, 0.42, atol=1e-12)

    def test_volume_conservation(self):
        grid = StructuredGrid(12, 8, 0.25)
        filt = DensityFilter(grid, 0.375)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(0, 1, grid.n_elements)
            out = filt.apply(x)
            assert abs(out.sum() - x.sum()) / x.sum() < 1e-8

    def test_maximum_principle(self):
        grid = StructuredGrid(10, 10, 0.2)
        filt = DensityFilter(grid, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0, 1, grid.n_elements)
            out = filt.apply(x)
            assert out.min() >= x.min() - 1e-10
            assert out.max() <= x.max() + 1e-10

    def test_single_source_blob(self):
        grid = StructuredGrid(11, 11, 1.0)
        filt = DensityFilter(grid, 3.0)
        x = np.zeros(grid.n_elements)
        center = grid.element_index(5, 5)
        x[center] = 1.0
        out = filt.apply(x)
        dense = dense_filter_matrix(grid, 3.0)
        assert np.allclose(out, dense @ x, atol=1e-12)
        assert out.argmax() == center
        assert (out > 0).all()
        # radial decay along a row
        row = out.reshape(11, 11)[5]
        assert (np.diff(row[:6]) > 0).all()
        assert (np.diff(row[5:]) < 0).all()

    def test_matches_dense_oracle_random(self):
        grid = StructuredGrid(7, 5, 0.5)
        filt = DensityFilter(grid, 0.8)
        dense = dense_filter_matrix(grid, 0.8)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, grid.n_elements)
        assert np.allclose(filt.apply(x), dense @ x, atol=1e-12)

    def test_reduces_total_variation_on_a_line(self):
        grid = StructuredGrid(20, 1, 1.0)
        filt = DensityFilter(grid, 1.5)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0, 1, grid.n_elements)
            out = filt.apply(x)
            tv_in = np.abs(np.diff(x)).sum()
            tv_out = np.abs(np.diff(out)).sum()
            assert tv_out < tv_in

    def test_dimension_mismatch(self):
        grid = StructuredGrid(4, 4, 1.0)
        filt = DensityFilter(grid, 1.5)
        for values in (np.zeros(5), np.zeros((2, 5)), np.float64(0.5)):
            with pytest.raises(ValueError):
                filt.apply(values)


@pytest.mark.parametrize("method", ["apply", "apply_transpose"])
@pytest.mark.parametrize("nx,ny", [(8, 4), (80, 40)])
def test_stack_equals_per_field_calls(method, nx, ny):
    grid = StructuredGrid(nx, ny, 0.25)
    apply = getattr(DensityFilter(grid, 0.375), method)
    stack = np.random.default_rng(nx).uniform(0.0, 1.0, (2, 3, grid.n_elements))
    out = apply(stack)
    assert out.shape == stack.shape
    for index in np.ndindex(stack.shape[:-1]):
        assert np.array_equal(out[index], apply(stack[index]))


class TestApplyTranspose:
    def test_adjoint_identity_under_volume_inner_product(self):
        grid = StructuredGrid(9, 6, 0.25)
        filt = DensityFilter(grid, 0.375)
        v = grid.element_volumes()
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(0, 1, grid.n_elements)
            y = rng.uniform(0, 1, grid.n_elements)
            lhs = np.sum(filt.apply(x) * v * y)
            rhs = np.sum(x * v * filt.apply_transpose(y))
            assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_uniform_gradient_stays_uniform(self):
        grid = StructuredGrid(6, 6, 0.5)
        filt = DensityFilter(grid, 0.9)
        out = filt.apply_transpose(np.full(grid.n_elements, 2.0))
        assert np.allclose(out, 2.0, atol=1e-10)

    def test_matches_dense_transpose(self):
        grid = StructuredGrid(5, 5, 0.5)
        filt = DensityFilter(grid, 0.7)
        dense = dense_filter_matrix(grid, 0.7)
        rng = np.random.default_rng(6)
        g = rng.normal(size=grid.n_elements)
        assert np.allclose(filt.apply_transpose(g), dense.T @ g, atol=1e-12)
