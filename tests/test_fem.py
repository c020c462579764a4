"""Finite-element assembly, gauge, transformer generator, mesh file format."""

import numpy as np
import pytest

from mona.errors import MeshError
from mona.fem import (
    MU_0,
    MaterialMap,
    TransformerParams,
    TriMesh,
    Winding,
    assemble_mass,
    assemble_stiffness,
    assemble_winding,
    build_field_model,
    generate_transformer_mesh,
    load_mesh,
    parse_mesh,
    rect_mesh,
    save_mesh,
)
from mona.fem import _gradients

UNIT_TRIANGLE = TriMesh(
    vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    triangles=np.array([[0, 1, 2]]),
    boundary_vertices=np.array([0, 1, 2]),
    depth=1.0,
)


def unit_materials(nu=1.0, sigma=1.0, n=1):
    return MaterialMap(reluctivity=np.full(n, nu), conductivity=np.full(n, sigma))


def two_triangle_square(depth=1.0):
    return rect_mesh(1, 1, 1.0, 1.0, depth=depth)


class TestStiffness:
    def test_unit_triangle_hand_values(self):
        k = assemble_stiffness(UNIT_TRIANGLE, unit_materials()).toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.max(np.abs(k - expected)) <= 1e-14

    def test_constants_in_kernel(self):
        mesh = rect_mesh(4, 3, 2.0, 1.5)
        mats = unit_materials(nu=3.0, sigma=0.0, n=mesh.n_triangles)
        k = assemble_stiffness(mesh, mats)
        assert np.max(np.abs(k @ np.ones(mesh.n_vertices))) <= 1e-12

    def test_square_against_hand_assembly(self):
        mesh = two_triangle_square()
        mats = unit_materials(n=2)
        k = assemble_stiffness(mesh, mats).toarray()
        # independent per-element assembly with explicit loops
        expected = np.zeros((4, 4))
        for tri in mesh.triangles:
            p = mesh.vertices[tri]
            e1, e2 = p[1] - p[0], p[2] - p[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            grads = np.zeros((3, 2))
            for i in range(3):
                opp = p[(i + 2) % 3] - p[(i + 1) % 3]
                grads[i] = np.array([-opp[1], opp[0]]) / (2 * area)
            for i in range(3):
                for j in range(3):
                    expected[tri[i], tri[j]] += area * grads[i] @ grads[j]
        assert np.max(np.abs(k - expected)) <= 1e-13

    def test_exact_symmetry(self):
        mesh, mats, _ = generate_transformer_mesh(TransformerParams(), 0.025)
        k = assemble_stiffness(mesh, mats)
        m = assemble_mass(mesh, mats)
        assert (k - k.T).count_nonzero() == 0
        assert (m - m.T).count_nonzero() == 0

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(MeshError, match="area"):
            TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                    triangles=np.array([[0, 1, 2]]),
                    boundary_vertices=np.array([0]), depth=1.0)


class TestMass:
    def test_unit_triangle_hand_values(self):
        m = assemble_mass(UNIT_TRIANGLE, unit_materials()).toarray()
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.max(np.abs(m - expected)) <= 1e-14

    def test_nonconducting_gives_zero(self):
        mesh = two_triangle_square()
        m = assemble_mass(mesh, unit_materials(sigma=0.0, n=2))
        assert m.count_nonzero() == 0

    def test_total_mass(self):
        mesh = rect_mesh(5, 4, 2.0, 1.0, depth=3.0)
        sigma = np.linspace(0.5, 2.0, mesh.n_triangles)
        mats = MaterialMap(reluctivity=np.ones(mesh.n_triangles), conductivity=sigma)
        m = assemble_mass(mesh, mats)
        ones = np.ones(mesh.n_vertices)
        expected = float((sigma * mesh.depth * mesh.areas).sum())
        assert ones @ (m @ ones) == pytest.approx(expected, rel=1e-12)


class TestWinding:
    def test_single_triangle_value(self):
        w = Winding(name="w", triangles=np.array([0]), orientation=np.array([1.0]),
                    turns=10.0, area=0.5)
        x = assemble_winding(UNIT_TRIANGLE, [w])
        assert np.allclose(x[:, 0], 10.0 / 3.0, rtol=1e-14)

    def test_empty_winding_rejected(self):
        with pytest.raises(MeshError, match="empty"):
            Winding(name="w", triangles=np.array([], dtype=int),
                    orientation=np.array([]), turns=10.0)

    def test_area_mismatch_rejected(self):
        w = Winding(name="w", triangles=np.array([0]), orientation=np.array([1.0]),
                    turns=10.0, area=0.4)
        with pytest.raises(MeshError, match="area"):
            assemble_winding(UNIT_TRIANGLE, [w])

    def test_go_return_column_sums_to_zero(self):
        mesh = two_triangle_square()
        w = Winding(name="w", triangles=np.array([0, 1]),
                    orientation=np.array([1.0, -1.0]), turns=7.0)
        x = assemble_winding(mesh, [w])
        assert abs(x[:, 0].sum()) <= 1e-14

    def test_conducting_region_rejected(self):
        w = Winding(name="w", triangles=np.array([0]), orientation=np.array([1.0]),
                    turns=1.0)
        with pytest.raises(MeshError, match="conducting"):
            assemble_winding(UNIT_TRIANGLE, [w], unit_materials(sigma=5.0))

    def test_adjoint_identity(self):
        mesh, mats, winds = generate_transformer_mesh(TransformerParams(), 0.025)
        model = build_field_model(mesh, mats, winds)
        rng = np.random.default_rng(2)
        for _ in range(20):
            i_m = rng.standard_normal(2)
            w = rng.standard_normal(model.n_dofs)
            lhs = i_m @ (model.winding_matrix.T @ w)
            rhs = (model.winding_matrix @ i_m) @ w
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


class TestGauge:
    def test_all_boundary_gives_empty_model(self):
        mesh = two_triangle_square()
        mats = unit_materials(n=2)
        model = build_field_model(mesh, mats, [])
        assert model.n_dofs == 0
        assert model.stiffness.shape == (0, 0)
        assert model.static_solve(np.zeros(0)).size == 0

    def test_gauged_stiffness_positive_definite(self):
        mesh = rect_mesh(6, 6, 1.0, 1.0)
        mats = unit_materials(sigma=0.0, n=mesh.n_triangles)
        model = build_field_model(mesh, mats, [])
        eigs = np.linalg.eigvalsh(model.stiffness.toarray())
        assert eigs.min() > 0.0

    def test_ungauged_kernel_removed(self):
        mesh = rect_mesh(5, 5, 1.0, 1.0)
        mats = unit_materials(sigma=0.0, n=mesh.n_triangles)
        k_raw = assemble_stiffness(mesh, mats)
        assert np.max(np.abs(k_raw @ np.ones(mesh.n_vertices))) <= 1e-12
        model = build_field_model(mesh, mats, [])
        assert np.linalg.matrix_rank(model.stiffness.toarray()) == model.n_dofs

    def test_static_solve_and_check(self):
        mesh, mats, winds = generate_transformer_mesh(TransformerParams(), 0.025)
        model = build_field_model(mesh, mats, winds)
        currents = np.array([2.0, -1.0])
        a = model.static_solve(currents)
        resid = model.stiffness @ a - model.winding_matrix @ currents
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(model.winding_matrix @ currents)

    def test_field_energy_matches_quadratic_form(self):
        mesh, mats, winds = generate_transformer_mesh(TransformerParams(), 0.025)
        model = build_field_model(mesh, mats, winds)
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal(model.n_dofs)
            dense = 0.5 * a @ (model.stiffness.toarray() @ a)
            assert model.energy(a) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("density", [0.025, 0.00625])
    def test_field_energy_matches_element_sum(self, density):
        # the per-element gradient sum, written directly over all three
        # vertices of every triangle with zeros on the boundary
        mesh, mats, winds = generate_transformer_mesh(TransformerParams(), density)
        model = build_field_model(mesh, mats, winds)
        grads = _gradients(mesh)
        coef = mats.reluctivity * mesh.depth * mesh.areas
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.standard_normal(model.n_dofs)
            av = model.expand(a)[mesh.triangles]
            gx = np.einsum("ti,ti->t", grads[:, :, 0], av)
            gy = np.einsum("ti,ti->t", grads[:, :, 1], av)
            expected = 0.5 * float(coef @ (gx * gx + gy * gy))
            assert model.energy(a) == pytest.approx(expected, rel=1e-15)
        assert model.energy(np.zeros(model.n_dofs)) == 0.0

    def test_empty_boundary_rejected(self):
        with pytest.raises(MeshError, match="boundary"):
            TriMesh(vertices=UNIT_TRIANGLE.vertices,
                    triangles=UNIT_TRIANGLE.triangles,
                    boundary_vertices=np.array([], dtype=int), depth=1.0)


class TestManufacturedMagnetostatics:
    @staticmethod
    def energy_error(n):
        mesh = rect_mesh(n, n, 1.0, 1.0)
        mats = MaterialMap(reluctivity=np.ones(mesh.n_triangles),
                           conductivity=np.zeros(mesh.n_triangles))
        k = assemble_stiffness(mesh, mats)
        tri, v = mesh.triangles, mesh.vertices
        mids = [(v[tri[:, 0]] + v[tri[:, 1]]) / 2,
                (v[tri[:, 1]] + v[tri[:, 2]]) / 2,
                (v[tri[:, 2]] + v[tri[:, 0]]) / 2]
        lam = {0: (0.5, 0.0, 0.5), 1: (0.5, 0.5, 0.0), 2: (0.0, 0.5, 0.5)}

        def forcing(p):
            return 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

        load = np.zeros(mesh.n_vertices)
        for i in range(3):
            contrib = np.zeros(mesh.n_triangles)
            for q, mid in enumerate(mids):
                contrib += forcing(mid) * lam[i][q]
            np.add.at(load, tri[:, i], mesh.areas / 3 * contrib)

        interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
        from scipy.sparse.linalg import spsolve
        a = np.zeros(mesh.n_vertices)
        a[interior] = spsolve(k[interior][:, interior].tocsc(), load[interior])

        av = a[tri]
        p0 = v[tri[:, 0]]
        e1, e2 = v[tri[:, 1]] - p0, v[tri[:, 2]] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        g1 = np.stack([e2[:, 1] / det, -e2[:, 0] / det], axis=1)
        g2 = np.stack([-e1[:, 1] / det, e1[:, 0] / det], axis=1)
        g0 = -g1 - g2
        grad_h = av[:, 0, None] * g0 + av[:, 1, None] * g1 + av[:, 2, None] * g2
        err2 = np.zeros(mesh.n_triangles)
        for mid in mids:
            grad_exact = np.pi * np.stack(
                [np.cos(np.pi * mid[:, 0]) * np.sin(np.pi * mid[:, 1]),
                 np.sin(np.pi * mid[:, 0]) * np.cos(np.pi * mid[:, 1])], axis=1)
            err2 += np.sum((grad_exact - grad_h)**2, axis=1) / 3
        return float(np.sqrt(err2 @ mesh.areas))

    def test_first_order_energy_convergence(self):
        errors = [self.energy_error(n) for n in (8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.7 <= coarse / fine <= 2.3


class TestTransformerGenerator:
    def test_default_geometry_valid(self):
        params = TransformerParams()
        mesh, mats, winds = generate_transformer_mesh(params, 0.0125)
        assert mesh.n_triangles == 2 * 32 * 32
        # requested strip areas are hit exactly on the snapped grid
        strip = params.winding_width * params.window_size
        for w in winds:
            assert w.resolved_area(mesh) == pytest.approx(2 * strip, rel=1e-12)
        assert np.all(mats.conductivity[winds[0].triangles] == 0.0)
        assert np.all(mats.conductivity[winds[1].triangles] == 0.0)

    def test_refinement_quadruples_triangles(self):
        params = TransformerParams()
        m1, _, _ = generate_transformer_mesh(params, 0.025)
        m2, _, _ = generate_transformer_mesh(params, 0.0125)
        assert m2.n_triangles == 4 * m1.n_triangles

    def test_too_coarse_rejected(self):
        with pytest.raises(MeshError, match="coarse"):
            generate_transformer_mesh(TransformerParams(), 0.05)

    def test_open_circuit_voltage_ratio(self):
        params = TransformerParams(turns_primary=100.0, turns_secondary=10.0)
        mesh, mats, winds = generate_transformer_mesh(params, 0.025)
        model = build_field_model(mesh, mats, winds)
        a = model.static_solve(np.array([1.0, 0.0]))
        linked = model.winding_matrix.T @ a
        assert linked[0] / linked[1] == pytest.approx(10.0, rel=0.05)

    def test_deterministic(self):
        params = TransformerParams()
        m1, mats1, w1 = generate_transformer_mesh(params, 0.025)
        m2, mats2, w2 = generate_transformer_mesh(params, 0.025)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(mats1.reluctivity, mats2.reluctivity)
        assert np.array_equal(w1[0].triangles, w2[0].triangles)

    def test_core_material_values(self):
        params = TransformerParams(mu_r_core=1000.0, sigma_core=1000.0)
        _, mats, _ = generate_transformer_mesh(params, 0.025)
        core = mats.conductivity > 0
        assert np.any(core)
        assert np.allclose(mats.reluctivity[core], 1.0 / (1000.0 * MU_0))
        assert np.allclose(mats.reluctivity[~core], 1.0 / MU_0)


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        params = TransformerParams()
        mesh, mats, winds = generate_transformer_mesh(params, 0.025)
        path = tmp_path / "t.mesh"
        save_mesh(path, mesh, mats, winds)
        mesh2, mats2, winds2 = load_mesh(path)
        assert np.array_equal(mesh.vertices, mesh2.vertices)
        assert np.array_equal(mesh.triangles, mesh2.triangles)
        assert mesh.depth == mesh2.depth
        assert np.array_equal(mats.reluctivity, mats2.reluctivity)
        assert np.array_equal(mats.conductivity, mats2.conductivity)
        assert len(winds2) == 2
        for w, w2 in zip(winds, winds2):
            assert w.turns == w2.turns
            assert np.array_equal(np.sort(w.triangles), np.sort(w2.triangles))
        # matrices built from both agree
        k1 = assemble_stiffness(mesh, mats)
        k2 = assemble_stiffness(mesh2, mats2)
        assert abs(k1 - k2).max() == 0.0

    def test_parse_errors(self):
        with pytest.raises(MeshError, match="depth"):
            parse_mesh("vertices 0\ntriangles 0\n")
        with pytest.raises(MeshError, match="expected number"):
            parse_mesh("depth x\n")
        with pytest.raises(MeshError, match="line 1: expected a finite number, got 'nan'"):
            parse_mesh("depth nan\n")
        with pytest.raises(MeshError, match="undeclared regions"):
            parse_mesh("depth 1\nvertices 3\n0 0\n1 0\n0 1\n"
                       "triangles 1\n0 1 2 7\nregions 0\nwindings 0\n")

    def test_comments_and_blank_lines(self):
        text = """
# a comment
depth 1.0
vertices 3
0 0  # origin
1 0
0 1
triangles 1
0 1 2 0
regions 1
0 1.0 0.0 -1 0
windings 0
"""
        mesh, mats, winds = parse_mesh(text)
        assert mesh.n_triangles == 1
        assert winds == []
