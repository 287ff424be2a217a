import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrs
from scipy.sparse import coo_matrix

from vtopt import fem
from vtopt.errors import StaleStateError, StructuralError
from vtopt.fem import (BoundaryConditions, MaterialModel, assemble_and_solve, band_order,
                       band_pattern, cantilever_bc, compliance_sensitivity, element_dof_map,
                       element_stiffness, interpolate_modulus, penalize_thin,
                       penalize_thin_derivative)
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


def n_dofs(grid):
    return 2 * (grid.nx + 1) * (grid.ny + 1)


def dense_stiffness(grid, E_per_element, nu):
    """Dense assembly of the full stiffness matrix, independent of the band path."""
    k0 = element_stiffness(nu)
    edof = element_dof_map(grid)
    n = n_dofs(grid)
    K = np.zeros((n, n))
    for e in range(grid.n_elements):
        idx = edof[e]
        K[np.ix_(idx, idx)] += E_per_element[e] * k0
    return K


def dense_solve(grid, bc, E_per_element, nu):
    """Dense assembly and numpy solve, independent of the band path."""
    K = dense_stiffness(grid, E_per_element, nu)
    n = K.shape[0]
    f = bc.load_vector(n)
    free = np.setdiff1d(np.arange(n), bc.fixed_dofs())
    u = np.zeros(n)
    u[free] = np.linalg.solve(K[np.ix_(free, free)], f[free])
    return u, float(f @ u)


def free_residual(grid, bc, E_per_element, nu, u):
    """||K u - f|| / ||f|| over the free dofs, with the dense K."""
    K = dense_stiffness(grid, E_per_element, nu)
    f = bc.load_vector(K.shape[0])
    free = np.setdiff1d(np.arange(K.shape[0]), bc.fixed_dofs())
    return np.linalg.norm((K @ u - f)[free]) / np.linalg.norm(f[free])


def coo_free_stiffness(grid, bc, E, k0):
    """K_ff in natural dof order by COO summation, independent of the cached pattern."""
    edof = element_dof_map(grid)
    n = n_dofs(grid)
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

    @pytest.mark.parametrize("loads", [[(1, 1, -1.0)], [(0, 0, 0.3), (0, 1, -1.0)],
                                       [(3, 1, 1.0), (3, 1, -1.0)]])
    def test_requires_load_on_a_free_dof(self, loads):
        # loads on clamped dofs only, or cancelling on one free dof, do no work
        with pytest.raises(StructuralError, match="free dofs"):
            BoundaryConditions(fixed=[(0, 0), (0, 1), (1, 1)], loads=loads)

    def test_a_load_on_the_clamped_edge_is_rejected(self):
        grid = StructuredGrid(8, 4, 0.25)
        with pytest.raises(StructuralError, match="free dofs"):
            cantilever_bc(grid, load_x=0.0, load_y=0.5)
        cantilever_bc(grid, load_x=0.25, load_y=0.5)   # one column in: a free node

    def test_fixed_dofs_are_one_read_only_array(self):
        grid = StructuredGrid(8, 4, 0.25)
        bc = cantilever_bc(grid)
        dofs = bc.fixed_dofs()
        assert not dofs.flags.writeable
        left_edge = 2 * (grid.nx + 1) * np.arange(grid.ny + 1)
        np.testing.assert_array_equal(dofs, np.ravel(left_edge[:, None] + [0, 1]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            bc.fixed = ((0, 0),)

    def test_pairs_are_stored_as_tuples(self):
        fixed, loads = [[0, 0], [0, 1], [1, 1]], [[3, 1, -1.0]]
        bc = BoundaryConditions(fixed=fixed, loads=loads)
        fixed.append([2, 0])
        assert bc.fixed == ((0, 0), (0, 1), (1, 1))
        assert bc.loads == ((3, 1, -1.0),)
        np.testing.assert_array_equal(bc.fixed_dofs(), [0, 1, 3])

    def test_free_load_is_built_once_per_grid_size_and_read_only(self, monkeypatch):
        fem._band_pattern.cache_clear()
        grid = StructuredGrid(8, 4, 0.25)
        bc = cantilever_bc(grid, load_fx=0.3)
        build, built = BoundaryConditions.load_vector, []
        monkeypatch.setattr(BoundaryConditions, "load_vector",
                            lambda self, n: built.append(n) or build(self, n))
        field = ElementField(np.full(grid.n_elements, 0.6), "physical")
        assemble_and_solve(grid, bc, field, 1.0, 0.1, MaterialModel())
        assemble_and_solve(grid, bc, field, 3.0, 0.1, MaterialModel())
        assert built == [n_dofs(grid)]
        pattern = band_pattern(grid, bc, 0.3)
        expected = build(bc, n_dofs(grid))
        np.testing.assert_array_equal(pattern.load, expected)
        np.testing.assert_array_equal(pattern.load_free, expected[pattern.free])
        assert pattern.load_norm == np.linalg.norm(pattern.load_free)
        assert not pattern.load.flags.writeable and not pattern.load_free.flags.writeable

    def test_same_supports_with_other_loads_keep_their_own_load(self):
        grid = StructuredGrid(8, 4, 0.25)
        mat = MaterialModel()
        field = ElementField(np.random.default_rng(3).uniform(0.05, 1.0, grid.n_elements),
                             "physical")
        E = interpolate_modulus(field.values, 3.0, 0.1, mat)
        down, sideways = cantilever_bc(grid), cantilever_bc(grid, load_fx=1.0, load_fy=0.0)
        assert down.fixed == sideways.fixed
        compliances = []
        for bc in (down, sideways):
            np.testing.assert_array_equal(band_pattern(grid, bc, mat.nu).load,
                                          bc.load_vector(n_dofs(grid)))
            compliances.append(assemble_and_solve(grid, bc, field, 3.0, 0.1, mat).compliance)
            assert compliances[-1] == pytest.approx(dense_solve(grid, bc, E, mat.nu)[1], rel=1e-10)
        assert compliances[0] != compliances[1]
        assert cantilever_bc(grid) == down and cantilever_bc(grid) is not down
        assert band_pattern(grid, cantilever_bc(grid), mat.nu) is band_pattern(grid, down, mat.nu)

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


def clamped_bc(grid, edge):
    """cantilever_bc clamped on edge; a right clamp takes the load on the left edge."""
    return cantilever_bc(grid, clamp_edge=edge, load_x=0.0 if edge == "right" else None)


GRIDS_AND_EDGES = [((1, 1), "left"), ((3, 2), "bottom"), ((8, 4), "left"), ((7, 12), "top"),
                   ((33, 5), "right")]


def band_to_dense(ab):
    """The symmetric matrix whose lower band ab[i - j, j] holds."""
    n = ab.shape[1]
    K = np.zeros((n, n))
    for d in range(ab.shape[0]):
        K[np.arange(d, n), np.arange(n - d)] = ab[d, :n - d]
    return np.tril(K) + np.tril(K, -1).T


def bincount_band(grid, E, k0, pattern):
    """The band of K_ff summed by one np.bincount over every element's entries in element order."""
    n, width = pattern.free.size, pattern.bandwidth + 1
    position = np.full(n_dofs(grid), -1)
    position[pattern.free] = np.arange(n)
    at = position[element_dof_map(grid)]
    i, j = at[:, :, None], at[:, None, :]
    # on or below the diagonal, both dofs free; the rest goes to a dropped extra slot
    slot = np.where((i >= j) & (j >= 0), j * width + i - j, n * width)
    data = np.bincount(slot.ravel(), weights=(E[:, None, None] * k0).ravel(),
                       minlength=n * width + 1)
    return data[:n * width].reshape(n, width).T


class TestFreeStiffnessPattern:
    """The band pattern of the free-dof stiffness K_ff."""

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (8, 4), (7, 12), (33, 5)])
    def test_node_order_is_a_permutation_of_the_nodes(self, size):
        nx, ny = size
        order = band_order(nx, ny)
        assert np.array_equal(np.sort(order), np.arange((nx + 1) * (ny + 1)))

    @pytest.mark.parametrize("size,edge", GRIDS_AND_EDGES)
    def test_order_is_a_permutation_of_exactly_the_free_dofs(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        bc = clamped_bc(grid, edge)
        free = band_pattern(grid, bc, 0.3).free
        expected = np.setdiff1d(np.arange(n_dofs(grid)), bc.fixed_dofs())
        assert free.size == expected.size
        assert np.array_equal(np.sort(free), expected)

    @pytest.mark.parametrize("size,edge", GRIDS_AND_EDGES)
    def test_matches_coo_assembly_entry_for_entry(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        bc = clamped_bc(grid, edge)
        E = np.random.default_rng(sum(size)).uniform(1e-3, 1.0, grid.n_elements)
        pattern = band_pattern(grid, bc, 0.3)
        k0 = element_stiffness(0.3)
        # undo the permutation: row/column k of K is global dof pattern.free[k]
        undo = np.argsort(pattern.free)
        K = band_to_dense(pattern.band(E))[undo][:, undo]
        reference = coo_free_stiffness(grid, bc, E, k0).toarray()
        # an entry sums up to four element contributions, here in another order;
        # the difference is bounded by roundoff of the sum of their magnitudes
        magnitude = coo_free_stiffness(grid, bc, E, np.abs(k0)).toarray()
        assert np.array_equal(K != 0.0, reference != 0.0)
        assert (np.abs(K - reference) <= 1e-15 * magnitude).all()

    @pytest.mark.parametrize("size,edge", GRIDS_AND_EDGES + [((80, 40), "left")])
    def test_band_equals_an_element_order_bincount_bit_for_bit(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        bc = clamped_bc(grid, edge)
        E = np.random.default_rng(sum(size)).uniform(1e-9, 1.0, grid.n_elements)
        pattern = band_pattern(grid, bc, 0.3)
        assert np.array_equal(pattern.band(E), bincount_band(grid, E, element_stiffness(0.3), pattern))

    @pytest.mark.parametrize("size", [(8, 4), (4, 9), (2, 30), (30, 2)])
    def test_half_width_follows_the_shorter_side(self, size):
        grid = StructuredGrid(*size, 0.5)
        pattern = band_pattern(grid, cantilever_bc(grid), 0.3)
        assert pattern.bandwidth <= 2 * (min(size) + 1) + 3

    def test_factor_stores_the_whole_band(self):
        grid = StructuredGrid(7, 12, 0.5)
        pattern = band_pattern(grid, cantilever_bc(grid), 0.3)
        factor = fem.splu(pattern.band(np.ones(grid.n_elements)))
        assert factor.nnz == pattern.free.size * (pattern.bandwidth + 1)

    @pytest.mark.parametrize("first", [0, 1, 57, -1])
    def test_solve_from_the_first_nonzero_row_matches_dpbtrs(self, first):
        grid = StructuredGrid(7, 12, 0.5)
        pattern = band_pattern(grid, cantilever_bc(grid), 0.3)
        E = np.random.default_rng(11).uniform(1e-3, 1.0, grid.n_elements)
        factor = fem.splu(pattern.band(E))
        rhs = np.random.default_rng(12).normal(size=pattern.free.size)
        rhs[:first % rhs.size] = 0.0
        kept = rhs.copy()
        x = factor.solve(rhs)
        assert np.array_equal(x, dpbtrs(factor.factor, rhs, lower=1)[0])
        assert np.array_equal(rhs, kept)

    def test_pattern_is_cached_per_grid_size_and_fixed_dofs(self):
        grid = StructuredGrid(8, 4, 0.25)
        same_size = StructuredGrid(8, 4, 1.0)
        assert band_pattern(grid, cantilever_bc(grid), 0.3) is \
            band_pattern(same_size, cantilever_bc(same_size), 0.3)
        assert band_pattern(grid, cantilever_bc(grid), 0.3) is not \
            band_pattern(grid, clamped_bc(grid, "right"), 0.3)
        assert band_pattern(grid, cantilever_bc(grid), 0.3) is not \
            band_pattern(StructuredGrid(4, 8, 0.25), cantilever_bc(StructuredGrid(4, 8, 0.25)), 0.3)
        assert band_pattern(grid, cantilever_bc(grid), 0.3) is not \
            band_pattern(grid, cantilever_bc(grid), 0.2)


class TestAssembleAndSolve:
    def test_single_element_matches_dense_oracle(self):
        grid = StructuredGrid(1, 1, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        field = ElementField([1.0], "physical")
        sol = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat)
        E = interpolate_modulus(field.values, 1.0, 0.1, mat)
        _, expected = dense_solve(grid, bc, E, mat.nu)
        assert sol.compliance == pytest.approx(expected, rel=1e-12)
        assert free_residual(grid, bc, E, mat.nu, sol.u) <= 1e-10

    def test_each_poisson_ratio_solves_with_its_own_element_stiffness(self):
        grid = StructuredGrid(8, 4, 0.25)
        bc = cantilever_bc(grid)
        field = ElementField(np.random.default_rng(5).uniform(0.05, 1.0, grid.n_elements),
                             "physical")
        compliances = []
        for nu in (0.3, 0.2):
            mat = MaterialModel(nu=nu)
            sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
            u, compliance = dense_solve(grid, bc, interpolate_modulus(field.values, 3.0, 0.1, mat), nu)
            assert sol.compliance == pytest.approx(compliance, rel=1e-10)
            np.testing.assert_allclose(sol.u, u, rtol=1e-9, atol=1e-12 * np.abs(u).max())
            compliances.append(sol.compliance)
        assert compliances[0] != pytest.approx(compliances[1], rel=1e-3)

    def test_matches_dense_oracle_random_field(self):
        grid = StructuredGrid(4, 3, 0.5)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        rng = np.random.default_rng(7)
        field = ElementField(rng.uniform(0.2, 1.0, grid.n_elements), "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        E = interpolate_modulus(field.values, 3.0, 0.1, mat)
        _, expected = dense_solve(grid, bc, E, mat.nu)
        assert sol.compliance == pytest.approx(expected, rel=1e-10)
        assert np.array_equal(sol.moduli, E)

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

    @pytest.mark.parametrize("size,edge", [((6, 3), "left"), ((6, 3), "right"), ((5, 4), "bottom"),
                                           ((5, 4), "top"), ((3, 7), "left")])
    def test_matches_dense_solve_for_every_clamp_edge(self, size, edge):
        grid = StructuredGrid(*size, 0.5)
        # the load sits on the edge opposite the clamp, off every fixed dof
        load = {"left": (None, None), "right": (0.0, None), "bottom": (None, size[1] * 0.5),
                "top": (None, 0.0)}[edge]
        bc = cantilever_bc(grid, clamp_edge=edge, load_x=load[0], load_y=load[1], load_fx=0.3)
        mat = MaterialModel()
        field = ElementField(np.random.default_rng(3).uniform(0.05, 1.0, grid.n_elements), "physical")
        sol = assemble_and_solve(grid, bc, field, 3.0, 0.1, mat)
        E = interpolate_modulus(field.values, 3.0, 0.1, mat)
        u, expected = dense_solve(grid, bc, E, mat.nu)
        assert expected > 0
        assert sol.compliance == pytest.approx(expected, rel=1e-12)
        assert np.allclose(sol.u, u, rtol=0.0, atol=1e-12 * np.abs(u).max())
        assert free_residual(grid, bc, E, mat.nu, sol.u) <= 1e-12

    def test_unknown_solver_is_rejected(self):
        grid = StructuredGrid(2, 1, 1.0)
        field = ElementField(np.full(grid.n_elements, 0.6), "physical")
        with pytest.raises(ValueError, match="solver"):
            assemble_and_solve(grid, cantilever_bc(grid), field, 1.0, 0.1, MaterialModel(), solver="cg")


    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_stack_of_fields_is_rejected(self, rows):
        grid = StructuredGrid(4, 2, 0.5)
        field = ElementField(np.full((rows, grid.n_elements), 0.6), "physical")
        with pytest.raises(ValueError, match="shape"):
            assemble_and_solve(grid, cantilever_bc(grid), field, 1.0, 0.1, MaterialModel())


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

    def test_energies_match_the_three_operand_contraction(self):
        grid = StructuredGrid(7, 4, 0.5)
        mat = MaterialModel()
        rng = np.random.default_rng(8)
        field = ElementField(rng.uniform(0.0, 1.0, grid.n_elements), "physical")
        solution = fem.StateSolution(u=rng.normal(size=n_dofs(grid)), compliance=0.0, field=field,
                                     moduli=interpolate_modulus(field.values, 3.0, 0.1, mat))
        grad = compliance_sensitivity(grid, solution, field, 3.0, 0.1, mat)
        ue = solution.u[element_dof_map(grid)]
        energies = np.einsum("ij,jk,ik->i", ue, element_stiffness(mat.nu), ue)
        reference = -energies * fem.modulus_derivative(field.values, 3.0, 0.1, mat, "selective")
        assert (np.abs(grad - reference) <= 1e-13 * np.abs(reference)).all()

    def test_stale_field_detected(self):
        grid = StructuredGrid(2, 2, 1.0)
        bc = cantilever_bc(grid)
        mat = MaterialModel()
        field = ElementField(np.full(4, 0.5), "physical")
        sol = assemble_and_solve(grid, bc, field, 1.0, 0.1, mat)
        other = ElementField(np.full(4, 0.5), "physical")
        with pytest.raises(StaleStateError):
            compliance_sensitivity(grid, sol, other, 1.0, 0.1, mat)
