import numpy as np
import pytest
from scipy.sparse import coo_matrix

from vtopt.errors import StaleStateError, StructuralError
from vtopt.fem import (BoundaryConditions, MaterialModel, assemble_and_solve, cantilever_bc,
                       compliance_sensitivity, dissection_order, element_dof_map,
                       element_stiffness, free_stiffness_pattern, interpolate_modulus,
                       penalize_thin, penalize_thin_derivative)
from vtopt.grid import ElementField, StructuredGrid


def sympy_element_stiffness(nu):
    """Independent symbolic integration of the plane-stress bilinear quad."""
    import sympy as sp

    xi, eta = sp.symbols("xi eta")
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    N = [sp.Rational(1, 4) * (1 + xi * cx) * (1 + eta * cy) for cx, cy in corners]
    C = sp.Matrix([[1, nu, 0], [nu, 1, 0], [0, 0, sp.Rational(1, 2) * (1 - nu)]]) / (1 - nu ** 2)
    B = sp.zeros(3, 8)
    for a in range(4):
        B[0, 2 * a] = sp.diff(N[a], xi)
        B[1, 2 * a + 1] = sp.diff(N[a], eta)
        B[2, 2 * a] = sp.diff(N[a], eta)
        B[2, 2 * a + 1] = sp.diff(N[a], xi)
    integrand = B.T * C * B
    k = sp.integrate(sp.integrate(integrand, (xi, -1, 1)), (eta, -1, 1))
    return np.array(k.evalf(), dtype=float)


def dense_solve(grid, bc, E_per_element, nu):
    """Dense assembly and numpy solve, independent of the sparse path."""
    k0 = element_stiffness(nu)
    edof = element_dof_map(grid)
    n = 2 * grid.n_nodes
    K = np.zeros((n, n))
    for e in range(grid.n_elements):
        idx = edof[e]
        K[np.ix_(idx, idx)] += E_per_element[e] * k0
    f = bc.load_vector(n)
    free = np.setdiff1d(np.arange(n), bc.fixed_dofs())
    u = np.zeros(n)
    u[free] = np.linalg.solve(K[np.ix_(free, free)], f[free])
    return u, float(f @ u)


def coo_free_stiffness(grid, bc, E, k0):
    """K_ff in natural dof order by COO summation, independent of the cached pattern."""
    edof = element_dof_map(grid)
    n = 2 * grid.n_nodes
    K = coo_matrix(((E[:, None, None] * k0).ravel(),
                    (np.repeat(edof, 8, axis=1).ravel(), np.tile(edof, (1, 8)).ravel())),
                   shape=(n, n)).tocsc()
    free = np.setdiff1d(np.arange(n), bc.fixed_dofs())
    return K[free][:, free]


class TestPenalizeThin:
    def test_identity_branch(self):
        assert penalize_thin(0.5, 3, 0.1) == 0.5

    def test_penalized_branch(self):
        assert penalize_thin(0.05, 3, 0.1) == pytest.approx(0.0125, rel=1e-14)

    def test_p_one_is_identity(self):
        rho = np.linspace(0, 1, 33)
        assert np.allclose(penalize_thin(rho, 1, 0.1), rho, atol=1e-15)

    def test_continuous_at_threshold(self):
        below = penalize_thin(0.1 - 1e-12, 3, 0.1)
        above = penalize_thin(0.1, 3, 0.1)
        assert abs(above - below) < 1e-10

    def test_monotone(self):
        rho = np.linspace(0, 1, 200)
        out = penalize_thin(rho, 2.7, 0.15)
        assert (np.diff(out) >= 0).all()

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            penalize_thin(0.5, 0.5, 0.1)


class TestPenalizeThinDerivative:
    def test_identity_branch(self):
        assert penalize_thin_derivative(0.5, 3, 0.1) == 1.0

    def test_penalized_branch(self):
        assert penalize_thin_derivative(0.05, 3, 0.1) == pytest.approx(0.75, rel=1e-14)

    def test_p_one(self):
        rho = np.linspace(0.01, 1, 25)
        assert np.allclose(penalize_thin_derivative(rho, 1, 0.1), 1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.01, 0.99, 50)
        rho = rho[np.abs(rho - 0.1) > 1e-4]
        step = 1e-7
        fd = (penalize_thin(rho + step, 3, 0.1) - penalize_thin(rho - step, 3, 0.1)) / (2 * step)
        assert np.allclose(penalize_thin_derivative(rho, 3, 0.1), fd, rtol=1e-6)


class TestInterpolateModulus:
    def test_solid_gives_e0(self):
        mat = MaterialModel(E0=2.5)
        assert interpolate_modulus(1.0, 3, 0.1, mat) == pytest.approx(2.5)

    def test_void_gives_floor(self):
        mat = MaterialModel()
        assert interpolate_modulus(0.0, 3, 0.1, mat) == pytest.approx(1e-9)

    def test_composed_with_penalization(self):
        mat = MaterialModel()
        assert interpolate_modulus(0.05, 3, 0.1, mat) == pytest.approx(0.0125, rel=1e-6)

    def test_global_mode(self):
        mat = MaterialModel()
        assert interpolate_modulus(0.5, 3, 0.1, mat, "global") == pytest.approx(0.125, rel=1e-6)

    def test_strictly_positive(self):
        mat = MaterialModel()
        rho = np.linspace(0, 1, 100)
        assert (interpolate_modulus(rho, 3, 0.1, mat) > 0).all()


class TestElementStiffness:
    def test_matches_symbolic_integration(self):
        k = element_stiffness(0.3)
        k_exact = sympy_element_stiffness(0.3)
        assert np.allclose(k, k_exact, atol=1e-12)

    def test_symmetry_and_rigid_body_modes(self):
        k = element_stiffness(0.25)
        assert np.allclose(k, k.T, atol=1e-14)
        eigvals = np.linalg.eigvalsh(k)
        assert np.sum(np.abs(eigvals) < 1e-12) == 3  # two translations + one rotation
        assert (eigvals[np.abs(eigvals) > 1e-12] > 0).all()


class TestBoundaryConditions:
    def test_requires_three_fixed_dofs(self):
        with pytest.raises(StructuralError):
            BoundaryConditions(fixed=[(0, 0), (0, 1)], loads=[(3, 1, -1.0)])

    def test_requires_nonzero_load(self):
        with pytest.raises(StructuralError):
            BoundaryConditions(fixed=[(0, 0), (0, 1), (1, 1)], loads=[(3, 1, 0.0)])

    def test_singular_system_is_a_structural_error(self):
        grid = StructuredGrid(3, 2, 1.0)
        # only x-direction dofs fixed: rigid vertical translation remains
        bc = BoundaryConditions(fixed=[(grid.node_index(0, j), 0) for j in range(3)],
                                loads=[(grid.node_index(3, 1), 1, -1.0)])
        field = ElementField(np.full(grid.n_elements, 1.0), "physical")
        with pytest.raises(StructuralError):
            assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel())

    def test_three_fixed_dofs_leaving_a_rotation_is_a_structural_error(self):
        grid = StructuredGrid(3, 2, 1.0)
        # lower-left node pinned, its right neighbour held in x only: rotation about the pin remains
        bc = BoundaryConditions(fixed=[(0, 0), (0, 1), (1, 0)],
                                loads=[(grid.node_index(3, 2), 1, -1.0)])
        field = ElementField(np.full(grid.n_elements, 1.0), "physical")
        with pytest.raises(StructuralError):
            assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel())


GRIDS_AND_EDGES = [((1, 1), "left"), ((3, 2), "bottom"), ((8, 4), "left"), ((7, 12), "top"),
                   ((33, 5), "right")]


class TestFreeStiffnessPattern:
    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (8, 4), (7, 12), (33, 5)])
    def test_dissection_order_is_a_permutation_of_the_nodes(self, size):
        nx, ny = size
        order = dissection_order(nx, ny)
        assert np.array_equal(np.sort(order), np.arange((nx + 1) * (ny + 1)))

    @pytest.mark.parametrize("size,edge", GRIDS_AND_EDGES)
    def test_order_is_a_permutation_of_exactly_the_free_dofs(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        bc = cantilever_bc(grid, clamp_edge=edge)
        free = free_stiffness_pattern(grid, bc).free
        expected = np.setdiff1d(np.arange(2 * grid.n_nodes), bc.fixed_dofs())
        assert free.size == expected.size
        assert np.array_equal(np.sort(free), expected)

    @pytest.mark.parametrize("size,edge", GRIDS_AND_EDGES)
    def test_matches_coo_assembly_entry_for_entry(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        bc = cantilever_bc(grid, clamp_edge=edge)
        E = np.random.default_rng(sum(size)).uniform(1e-3, 1.0, grid.n_elements)
        pattern = free_stiffness_pattern(grid, bc)
        k0 = element_stiffness(0.3)
        # undo the permutation: row/column k of K is global dof pattern.free[k]
        undo = np.argsort(pattern.free)
        K = pattern.stiffness(E, k0)[undo][:, undo].toarray()
        reference = coo_free_stiffness(grid, bc, E, k0).toarray()
        # an entry sums up to four element contributions, here in another order;
        # the difference is bounded by roundoff of the sum of their magnitudes
        magnitude = coo_free_stiffness(grid, bc, E, np.abs(k0)).toarray()
        assert np.array_equal(K != 0.0, reference != 0.0)
        assert (np.abs(K - reference) <= 1e-15 * magnitude).all()

    def test_pattern_is_cached_per_grid_size_and_fixed_dofs(self):
        grid = StructuredGrid(8, 4, 0.25)
        same_size = StructuredGrid(8, 4, 1.0)
        assert free_stiffness_pattern(grid, cantilever_bc(grid)) is \
            free_stiffness_pattern(same_size, cantilever_bc(same_size))
        assert free_stiffness_pattern(grid, cantilever_bc(grid)) is not \
            free_stiffness_pattern(grid, cantilever_bc(grid, clamp_edge="right"))


class TestAssembleAndSolve:
    def test_single_element_matches_dense_oracle(self):
        grid = StructuredGrid(1, 1, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        field = ElementField([1.0], "physical")
        sol = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat)
        _, expected = dense_solve(grid, bc, interpolate_modulus(field.values, 1.0, 0.1, mat), mat.nu)
        assert sol.compliance == pytest.approx(expected, rel=1e-12)
        assert sol.residual <= 1e-10

    def test_matches_dense_oracle_random_field(self):
        grid = StructuredGrid(4, 3, 0.5)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rng = np.random.default_rng(7)
        field = ElementField(rng.uniform(0.2, 1.0, grid.n_elements), "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        _, expected = dense_solve(grid, bc, interpolate_modulus(field.values, 3.0, 0.1, mat), mat.nu)
        assert sol.compliance == pytest.approx(expected, rel=1e-10)

    def test_doubling_modulus_halves_compliance(self):
        grid = StructuredGrid(3, 2, 1.0)
        bc = cantilever_bc(grid)
        field = ElementField(np.full(grid.n_elements, 1.0), "physical")
        c1 = assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel(E0=1.0)).compliance
        c2 = assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel(E0=2.0)).compliance
        assert c2 == pytest.approx(c1 / 2.0, rel=1e-12)

    def test_compliance_positive(self):
        grid = StructuredGrid(5, 2, 0.5)
        bc = cantilever_bc(grid)
        field = ElementField(np.full(grid.n_elements, 0.4), "physical")
        sol = assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel())
        assert sol.compliance > 0

    def test_cg_agrees_with_direct(self):
        grid = StructuredGrid(4, 2, 0.5)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        field = ElementField(np.full(grid.n_elements, 0.6), "physical")
        direct = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat, solver="direct")
        iterative = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat, solver="cg")
        assert iterative.compliance == pytest.approx(direct.compliance, rel=1e-6)


class TestComplianceSensitivity:
    def test_matches_finite_differences_2x1(self):
        grid = StructuredGrid(2, 1, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rho = np.array([0.7, 0.4])
        field = ElementField(rho, "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        grad = compliance_sensitivity(grid, sol, field, 3.0, 0.1, mat)
        step = 1e-6
        for e in range(2):
            plus, minus = rho.copy(), rho.copy()
            plus[e] += step
            minus[e] -= step
            c_plus = assemble_and_solve(grid, bc, ElementField(plus, "physical"), 3.0, 0.1, mat).compliance
            c_minus = assemble_and_solve(grid, bc, ElementField(minus, "physical"), 3.0, 0.1, mat).compliance
            fd = (c_plus - c_minus) / (2 * step)
            assert grad[e] == pytest.approx(fd, rel=1e-6)

    def test_full_gradient_matches_fd_on_4x2(self):
        grid = StructuredGrid(4, 2, 0.5)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.2, 0.9, grid.n_elements)
        field = ElementField(rho, "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        grad = compliance_sensitivity(grid, sol, field, 3.0, 0.1, mat)
        step = 1e-6
        for e in range(grid.n_elements):
            plus, minus = rho.copy(), rho.copy()
            plus[e] += step
            minus[e] -= step
            c_plus = assemble_and_solve(grid, bc, ElementField(plus, "physical"), 3.0, 0.1, mat).compliance
            c_minus = assemble_and_solve(grid, bc, ElementField(minus, "physical"), 3.0, 0.1, mat).compliance
            fd = (c_plus - c_minus) / (2 * step)
            assert abs(grad[e] - fd) / max(abs(fd), 1e-300) < 1e-5

    def test_nonpositive_everywhere(self):
        grid = StructuredGrid(6, 3, 0.5)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rng = np.random.default_rng(5)
        field = ElementField(rng.uniform(0.0, 1.0, grid.n_elements), "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        grad = compliance_sensitivity(grid, sol, field, 3.0, 0.1, mat)
        assert (grad <= 0).all()

    def test_increasing_density_never_increases_compliance(self):
        grid = StructuredGrid(3, 2, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.3, 0.8, grid.n_elements)
        base = assemble_and_solve(grid, bc, ElementField(rho, "physical"), 1.0, 0.1, mat).compliance
        for e in range(grid.n_elements):
            bumped = rho.copy()
            bumped[e] = min(1.0, bumped[e] + 0.05)
            c = assemble_and_solve(grid, bc, ElementField(bumped, "physical"), 1.0, 0.1, mat).compliance
            assert c <= base + 1e-12

    def test_stale_field_detected(self):
        grid = StructuredGrid(2, 2, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        field = ElementField(np.full(4, 0.5), "physical")
        sol = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat)
        other = ElementField(np.full(4, 0.5), "physical")
        with pytest.raises(StaleStateError):
            compliance_sensitivity(grid, sol, other, 1.0, 0.1, mat)
