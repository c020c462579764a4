"""Finite-element assembly, gauge, transformer generator, mesh file format."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mona.cli import run_cli
from mona.errors import GaugeError, MeshError
from mona.fem import (
    MAX_VERTICES,
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
from mona.fem import _element_map, _gradients, boundary_vertices_of

from conftest import LINEAR_COUPLED_NETLIST

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
                    turns=10.0)
        x = assemble_winding(UNIT_TRIANGLE, [w], unit_materials(sigma=0.0))
        assert np.allclose(x[:, 0], 10.0 / 3.0, rtol=1e-14)

    def test_empty_winding_rejected(self):
        with pytest.raises(MeshError, match="empty"):
            Winding(name="w", triangles=np.array([], dtype=int),
                    orientation=np.array([]), turns=10.0)

    def test_go_return_column_sums_to_zero(self):
        mesh = two_triangle_square()
        w = Winding(name="w", triangles=np.array([0, 1]),
                    orientation=np.array([1.0, -1.0]), turns=7.0)
        x = assemble_winding(mesh, [w], unit_materials(sigma=0.0, n=2))
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
        assert model.energy(np.zeros(0)) == 0.0

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
        a = splu(model.stiffness.tocsc()).solve(model.winding_matrix @ currents)
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
            full = np.zeros(mesh.n_vertices)  # boundary vertices stay zero
            interior = model.dof_map >= 0
            full[interior] = a[model.dof_map[interior]]
            av = full[mesh.triangles]
            gx = np.einsum("ti,ti->t", grads[0], av)
            gy = np.einsum("ti,ti->t", grads[1], av)
            expected = 0.5 * float(coef @ (gx * gx + gy * gy))
            assert model.energy(a) == pytest.approx(expected, rel=1e-15)
        assert model.energy(np.zeros(model.n_dofs)) == 0.0

    def test_ungauged_part_raises_gauge_error(self):
        # two disjoint squares, gauged on the first only: the second keeps the
        # constants in its kernel, so the gauged stiffness is singular
        square = rect_mesh(3, 3, 1.0, 1.0)
        n = square.n_vertices
        mesh = TriMesh(vertices=np.vstack([square.vertices, square.vertices + [2.0, 0.0]]),
                       triangles=np.vstack([square.triangles, square.triangles + n]),
                       boundary_vertices=square.boundary_vertices, depth=1.0)
        mats = unit_materials(sigma=0.0, n=mesh.n_triangles)
        with pytest.raises(GaugeError, match="gauged stiffness"):
            build_field_model(mesh, mats, [])

    def test_interior_vertex_in_no_triangle_raises_gauge_error(self):
        # a vertex that no triangle holds is its own connected part: no gauge
        # vertex fixes it, and its row of the stiffness is empty
        square = rect_mesh(3, 3, 1.0, 1.0)
        mesh = TriMesh(vertices=np.vstack([square.vertices, [[2.0, 2.0]]]),
                       triangles=square.triangles,
                       boundary_vertices=square.boundary_vertices, depth=1.0)
        mats = unit_materials(sigma=0.0, n=mesh.n_triangles)
        with pytest.raises(GaugeError, match="gauged stiffness"):
            build_field_model(mesh, mats, [])

    def test_squares_glued_at_a_gauged_vertex_accepted(self):
        # the second square shares one corner with the first and is gauged
        # there only: that one vertex removes the constants from its kernel
        square = rect_mesh(3, 3, 1.0, 1.0)
        n = square.n_vertices
        corner = n - 1  # (1, 1), the second square's vertex 0
        second = np.concatenate([[corner], np.arange(n, 2 * n - 1)])
        mesh = TriMesh(vertices=np.vstack([square.vertices, square.vertices[1:] + [1.0, 1.0]]),
                       triangles=np.vstack([square.triangles, second[square.triangles]]),
                       boundary_vertices=square.boundary_vertices, depth=1.0)
        assert corner in mesh.boundary_vertices
        mats = unit_materials(sigma=0.0, n=mesh.n_triangles)
        model = build_field_model(mesh, mats, [])
        assert model.n_dofs == 2 * n - 1 - square.boundary_vertices.size
        assert np.linalg.eigvalsh(model.stiffness.toarray()).min() > 0.0

    @pytest.mark.parametrize("size, depth, nu", [(4.0, 1e-200, 1e-200),
                                                 (4e150, 1e10, 1e300)],
                             ids=["coef_underflows", "coef_overflows"])
    @pytest.mark.parametrize("command", ["check", "run"])
    def test_coefficient_out_of_range_exits_1(self, tmp_path, capsys, size, depth, nu,
                                               command):
        # nu * depth * area is 0 or inf in binary64 on every triangle, though
        # every value in the file is finite and positive and every interior
        # vertex is connected to the gauge
        mesh = rect_mesh(4, 4, size, size, depth=depth)
        mats = unit_materials(nu=nu, sigma=0.0, n=mesh.n_triangles)
        windings = [Winding(name=f"w{k}", triangles=np.array([2 * k, 2 * k + 1]),
                            orientation=np.ones(2), turns=10.0) for k in (0, 1)]
        save_mesh(tmp_path / "square.mesh", mesh, mats, windings)
        net = tmp_path / "xfmr.net"
        net.write_text(LINEAR_COUPLED_NETLIST)
        argv = [command, "--netlist", str(net), "--mesh", str(tmp_path / "square.mesh")]
        if command == "run":
            argv += ["--tau", "1e-3", "--t-end", "2e-3", "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(argv) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert "nu * depth * area is zero or not finite on 32 triangles" in (
            captured.out + captured.err)

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_conductivity_coefficient_overflow_exits_1(self, tmp_path, capsys, command):
        # nu * depth * area = 1e-300 * 1e10 * 5e299 is fine, but sigma * depth
        # * area overflows on the 16 conducting triangles: a named cause, not
        # the non-finite mass surfacing as a zero-state defect
        mesh = rect_mesh(4, 4, 4e150, 4e150, depth=1e10)
        sigma = np.where(np.arange(mesh.n_triangles) >= 16, 1e300, 0.0)
        mats = MaterialMap(reluctivity=np.full(mesh.n_triangles, 1e-300), conductivity=sigma)
        windings = [Winding(name=f"w{k}", triangles=np.array([2 * k, 2 * k + 1]),
                            orientation=np.ones(2), turns=10.0) for k in (0, 1)]
        save_mesh(tmp_path / "square.mesh", mesh, mats, windings)
        net = tmp_path / "xfmr.net"
        net.write_text(LINEAR_COUPLED_NETLIST)
        argv = [command, "--netlist", str(net), "--mesh", str(tmp_path / "square.mesh")]
        if command == "run":
            argv += ["--tau", "1e-3", "--t-end", "2e-3", "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert ("sigma * depth * area overflows on 16 triangles, e.g. [16, 17, 18"
                in captured.out + captured.err)

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


def loop_rect_triangles(nx, ny):
    """The cell-by-cell definition of rect_mesh's triangles."""
    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.asarray(tris, dtype=np.int64)


def counted_boundary(triangles):
    """Boundary vertices from the unique sorted edge rows and their counts."""
    edges = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges.sort(axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return np.unique(uniq[counts == 1])


def holed_shuffled_mesh():
    """A 6 x 6 grid with its central 2 x 2 cells cut out, vertices renumbered
    and triangles reordered at random (the hole's centre vertex is unused)."""
    grid = rect_mesh(6, 6, 1.0, 1.0)
    cell = np.arange(grid.n_triangles) // 2
    hole = np.isin(cell % 6, (2, 3)) & np.isin(cell // 6, (2, 3))
    rng = np.random.default_rng(5)
    perm = rng.permutation(grid.n_vertices)
    triangles = perm[grid.triangles[~hole]]
    return grid.n_vertices, triangles[rng.permutation(len(triangles))]


class TestMeshConstruction:
    """rect_mesh and boundary_vertices_of against their direct definitions."""

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (7, 3), (16, 16)])
    def test_rect_triangles_match_cell_loop(self, nx, ny):
        mesh = rect_mesh(nx, ny, 2.0, 1.0)
        expected = loop_rect_triangles(nx, ny)
        assert mesh.triangles.dtype == expected.dtype
        assert np.array_equal(mesh.triangles, expected)

    def test_boundary_of_rect_mesh(self):
        mesh = rect_mesh(7, 3, 2.0, 1.0)
        got = boundary_vertices_of(mesh.vertices, mesh.triangles)
        assert np.array_equal(got, counted_boundary(mesh.triangles))
        assert np.array_equal(mesh.boundary_vertices, got)

    def test_boundary_of_transformer_mesh(self):
        mesh, _, _ = generate_transformer_mesh(TransformerParams(), 0.025)
        got = boundary_vertices_of(mesh.vertices, mesh.triangles)
        assert np.array_equal(got, counted_boundary(mesh.triangles))

    @pytest.mark.parametrize("mesh", [
        *(rect_mesh(nx, ny, 2.0, 1.0) for nx, ny in [(1, 1), (1, 5), (7, 3), (16, 16)]),
        *(generate_transformer_mesh(TransformerParams(), h)[0] for h in (0.025, 0.00625)),
    ], ids=["rect_1x1", "rect_1x5", "rect_7x3", "rect_16x16", "transformer_0.025",
            "transformer_0.00625"])
    def test_boundary_by_construction_matches_edge_counts(self, mesh):
        # rect_mesh lists the grid's perimeter without looking at the edges
        expected = counted_boundary(mesh.triangles)
        assert np.array_equal(boundary_vertices_of(mesh.vertices, mesh.triangles), expected)
        assert mesh.boundary_vertices.dtype == expected.dtype
        assert mesh.boundary_vertices.tobytes() == expected.tobytes()

    def test_boundary_of_holed_shuffled_mesh(self):
        n, triangles = holed_shuffled_mesh()
        got = boundary_vertices_of(np.zeros((n, 2)), triangles)
        expected = counted_boundary(triangles)
        assert np.array_equal(got, expected)
        # the outer ring (24 vertices) and the hole's ring (8) are both found
        assert expected.size == 32


class TestTransformerGenerator:
    def test_default_geometry_valid(self):
        params = TransformerParams()
        mesh, mats, winds = generate_transformer_mesh(params, 0.0125)
        assert mesh.n_triangles == 2 * 32 * 32
        # requested strip areas are hit exactly on the snapped grid
        strip = params.winding_width * params.window_size
        for w in winds:
            assert mesh.areas[w.triangles].sum() == pytest.approx(2 * strip, rel=1e-12)
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

    def test_first_density_past_the_vertex_bound_rejected(self):
        # 46340^2 vertices fit int32 indices and 46341^2 do not; only the
        # rejected density is tried, since the other would be built
        params = TransformerParams()
        assert 46340**2 <= MAX_VERTICES < 46341**2
        with pytest.raises(MeshError, match=r"too fine: 2\.147e\+09 vertices \(4\.634e\+04 per"):
            generate_transformer_mesh(params, params.domain_size / 46340)

    def test_open_circuit_voltage_ratio(self):
        params = TransformerParams(turns_primary=100.0, turns_secondary=10.0)
        mesh, mats, winds = generate_transformer_mesh(params, 0.025)
        model = build_field_model(mesh, mats, winds)
        a = splu(model.stiffness.tocsc()).solve(model.winding_matrix @ np.array([1.0, 0.0]))
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

    @pytest.mark.parametrize("sections, message", [
        ("regions 2\n0 1.0 0.0 -1 0\n0 2.0 0.0 -1 0\nwindings 0\n",
         "line 10: region 0 declared twice"),
        ("regions 1\n0 1.0 0.0 0 1\nwindings 2\n0 10\n0 20\n",
         "line 12: winding 0 declared twice"),
    ])
    def test_repeated_id_rejected(self, sections, message):
        # a repeat would silently replace the first declaration
        with pytest.raises(MeshError, match=message):
            parse_mesh("depth 1\nvertices 3\n0 0\n1 0\n0 1\n"
                       "triangles 1\n0 1 2 0\n" + sections)

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


# ---------------------------------------------------------------------------
# assembly against the all-triangle forms it replaced, bit for bit


def scatter_all(mesh, local):
    """Oracle: every triangle's (3, 3) block scattered over the vertices."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()


def mass_oracle(mesh, mats):
    """Oracle: the conductivity mass of all triangles, exact zeros pruned."""
    coef = mats.conductivity * mesh.depth * mesh.areas
    mat = scatter_all(mesh, coef[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0))
    mat.eliminate_zeros()
    return mat


def gradient_map_oracle(g, coef):
    """Oracle: G^T C from the sparse product of the diagonal C and G."""
    return (sp.diags(np.concatenate([coef, coef])) @ g).T.tocsr()


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(expected, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


def jittered_mesh(n=6, seed=3):
    """An n x n grid on the unit square, its interior vertices moved at random
    by up to a fifth of a cell, so no two triangles share an area."""
    grid = rect_mesh(n, n, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    vertices = grid.vertices.copy()
    free = np.setdiff1d(np.arange(grid.n_vertices), grid.boundary_vertices)
    vertices[free] += rng.uniform(-0.2, 0.2, (free.size, 2)) / n
    return TriMesh(vertices=vertices, triangles=grid.triangles,
                   boundary_vertices=grid.boundary_vertices, depth=0.7)


def conducting(mesh, triangles, seed=4):
    """Random reluctivity everywhere, random conductivity on ``triangles``."""
    rng = np.random.default_rng(seed)
    sigma = np.zeros(mesh.n_triangles)
    sigma[triangles] = rng.uniform(0.5, 2.0, len(triangles))
    return MaterialMap(reluctivity=rng.uniform(0.5, 2.0, mesh.n_triangles), conductivity=sigma)


def hand_cases():
    mesh = jittered_mesh()
    cell = np.arange(mesh.n_triangles) // 2  # 6 x 6 cells, row-major
    col, row = cell % 6, cell // 6
    return {
        # the bottom row of cells: conducting vertices on the gauge boundary
        "on_boundary": (mesh, conducting(mesh, np.flatnonzero(row == 0))),
        # cells (1, 1) and (2, 2) share only the vertex (2, 2)
        "corner_touch": (mesh, conducting(mesh, np.flatnonzero(
            ((col == 1) & (row == 1)) | ((col == 2) & (row == 2))))),
        "single_triangle": (mesh, conducting(mesh, [2 * (2 * 6 + 3) + 1])),
        "none": (mesh, conducting(mesh, [])),
        # half the cells of a checkerboard, every vertex conducting
        "checkerboard": (mesh, conducting(mesh, np.flatnonzero((col + row) % 2 == 0))),
    }


def transformer_case(density):
    mesh, mats, _ = generate_transformer_mesh(TransformerParams(), density)
    return mesh, mats


ASSEMBLY_CASES = ["transformer_0.025", "transformer_0.00625", *hand_cases()]


def assembly_case(name):
    if name.startswith("transformer_"):
        return transformer_case(float(name.split("_")[1]))
    return hand_cases()[name]


class TestAssemblyBits:
    """The assembly forms each array from the triangles that contribute; the
    arrays keep the bits of the all-triangle forms kept above as oracles."""

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_mass_matches_all_triangle_scatter(self, case):
        mesh, mats = assembly_case(case)
        assert_same_bits(assemble_mass(mesh, mats), mass_oracle(mesh, mats))

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_field_model_matches_oracles(self, case):
        mesh, mats = assembly_case(case)
        model = build_field_model(mesh, mats, [])
        interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
        assert np.array_equal(np.flatnonzero(model.dof_map >= 0), interior)
        assert np.array_equal(model.dof_map[interior], np.arange(interior.size))
        g, coef = _element_map(mesh, model.dof_map), mats.reluctivity * mesh.depth * mesh.areas
        stored = g.copy()
        stored.eliminate_zeros()
        assert_same_bits(model.element_map, stored)
        weighted = gradient_map_oracle(g, coef)
        assert_same_bits(model.gradient_map, weighted)
        assert_same_bits(model.stiffness, (weighted @ g).tocsr())
        assert_same_bits(model.mass, mass_oracle(mesh, mats)[interior][:, interior].tocsr())

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_element_map_stores_no_zeros(self, case):
        # the stored G holds none of the exact zeros that the assembled one
        # has, a third of its entries on the built-in mesh, and G a keeps
        # the bits of the assembled product, signed zeros included
        mesh, mats = assembly_case(case)
        model = build_field_model(mesh, mats, [])
        g = _element_map(mesh, model.dof_map)
        assert np.all(model.element_map.data != 0.0)
        assert model.element_map.nnz == np.count_nonzero(g.data)
        if case.startswith("transformer_"):
            assert 3 * (g.nnz - model.element_map.nnz) == g.nnz
        rng = np.random.default_rng(11)
        a = rng.standard_normal(model.n_dofs)
        a[rng.random(a.size) < 0.5] = 0.0
        for x in (a, -a, np.zeros(model.n_dofs), -np.zeros(model.n_dofs)):
            assert (model.element_map @ x).tobytes() == (g @ x).tobytes()

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_interior_mass_matches_sliced_mass(self, case):
        # the mass assembled on the interior unknowns, against the vertex
        # mass with its gauged rows and columns sliced away
        mesh, mats = assembly_case(case)
        model = build_field_model(mesh, mats, [])
        interior = np.flatnonzero(model.dof_map >= 0)
        assert_same_bits(model.mass, assemble_mass(mesh, mats)[interior][:, interior].tocsr())

    def test_no_conducting_triangle_gives_empty_mass(self):
        mesh, mats = hand_cases()["none"]
        model = build_field_model(mesh, mats, [])
        assert model.mass.nnz == 0
        assert not model.mass.indptr.any()

    @pytest.mark.parametrize("case", ["transformer_0.025", "on_boundary"])
    def test_gradients_and_areas_match_direct_gathers(self, case):
        mesh, _ = assembly_case(case)
        v, tri = mesh.vertices, mesh.triangles
        p0 = v[tri[:, 0]]
        e1, e2 = v[tri[:, 1]] - p0, v[tri[:, 2]] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert mesh.areas.tobytes() == (0.5 * det).tobytes()
        grads = _gradients(mesh)
        for i, (gx, gy) in ((1, (e2[:, 1] / det, -e2[:, 0] / det)),
                            (2, (-e1[:, 1] / det, e1[:, 0] / det))):
            assert grads[0, :, i].tobytes() == gx.tobytes()
            assert grads[1, :, i].tobytes() == gy.tobytes()

    def test_scaled_gradient_overflow_raises_gauge_error_without_warning(self):
        # a 1e9 m x 0.1 m box with a centre vertex: coef = 1e300 * 2.5e7 is
        # finite, but coef times the centre's gradient (20 /m across the
        # long triangles) overflows
        mesh = TriMesh(vertices=np.array([[0.0, 0.0], [1e9, 0.0], [1e9, 0.1], [0.0, 0.1],
                                          [5e8, 0.05]]),
                       triangles=np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
                       boundary_vertices=np.array([0, 1, 2, 3]), depth=1.0)
        mats = unit_materials(nu=1e300, sigma=0.0, n=4)
        assert np.all(np.isfinite(mats.reluctivity * mesh.depth * mesh.areas))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GaugeError, match="basis gradients or their products overflow"):
                build_field_model(mesh, mats, [])

    def test_zero_coef_row_dropped_whole(self):
        # a triangle 1e-310 m high: its coef underflows to 0 while a basis
        # gradient overflows; the diagonal product drops the row whole, where
        # 0 * inf would be nan
        mesh = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-310]]),
                       triangles=np.array([[0, 1, 2]]), boundary_vertices=np.array([0]),
                       depth=1.0)
        mats = unit_materials(nu=1e-20, sigma=0.0)
        g, coef = _element_map(mesh, np.arange(3)), mats.reluctivity * mesh.depth * mesh.areas
        assert coef[0] == 0.0 and np.isinf(g.data).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = assemble_stiffness(mesh, mats)
        assert_same_bits(k, (gradient_map_oracle(g, coef) @ g).tocsr())


def save_mesh_oracle(path, mesh, materials, windings):
    """Oracle: the per-triangle writer, regions keyed in a dict."""
    windings = list(windings)
    tri_winding = np.full(mesh.n_triangles, -1, dtype=int)
    tri_orient = np.zeros(mesh.n_triangles, dtype=int)
    for k, w in enumerate(windings):
        tri_winding[w.triangles] = k
        tri_orient[w.triangles] = w.orientation.astype(int)
    region_of_key, regions = {}, []
    tri_region = np.empty(mesh.n_triangles, dtype=int)
    for t, key in enumerate(zip(materials.reluctivity, materials.conductivity,
                                tri_winding, tri_orient)):
        if key not in region_of_key:
            region_of_key[key] = len(regions)
            regions.append(key)
        tri_region[t] = region_of_key[key]
    lines = [f"depth {mesh.depth:.17g}", f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{i} {j} {k} {r}" for (i, j, k), r in zip(mesh.triangles, tri_region)]
    lines.append(f"regions {len(regions)}")
    lines += [f"{rid} {nu:.17g} {sg:.17g} {w} {o}" for rid, (nu, sg, w, o) in enumerate(regions)]
    lines.append(f"windings {len(windings)}")
    lines += [f"{k} {w.turns:.17g}" for k, w in enumerate(windings)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestSaveMeshBytes:
    @pytest.mark.parametrize("density", [0.025, 0.00625])
    def test_transformer_file_matches_per_triangle_writer(self, tmp_path, density):
        parts = generate_transformer_mesh(TransformerParams(), density)
        save_mesh(tmp_path / "got.mesh", *parts)
        save_mesh_oracle(tmp_path / "expected.mesh", *parts)
        assert (tmp_path / "got.mesh").read_bytes() == (tmp_path / "expected.mesh").read_bytes()

    def test_regions_numbered_by_first_appearance(self, tmp_path):
        # regions first appear out of sorted order, and sigma -0.0 equals 0.0
        # as a region key: the first triangle's value is the one written
        mesh = jittered_mesh(n=3)
        sigma = np.array([-0.0, 2.0, 0.0, 2.0, 1.0, -0.0, 0.0, 1.0, 2.0,
                          0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0])
        nu = np.where(np.arange(mesh.n_triangles) % 3 == 0, 3.0, 0.5)
        mats = MaterialMap(reluctivity=nu, conductivity=sigma)
        windings = [Winding(name="w", triangles=np.array([14, 11, 10]),
                            orientation=np.array([1.0, -1.0, 1.0]), turns=5.0)]
        save_mesh(tmp_path / "got.mesh", mesh, mats, windings)
        save_mesh_oracle(tmp_path / "expected.mesh", mesh, mats, windings)
        got = (tmp_path / "got.mesh").read_bytes()
        assert got == (tmp_path / "expected.mesh").read_bytes()
        assert b" -0 " in got


# ---------------------------------------------------------------------------
# mesh file reading against the token-by-token parser it replaced


def parse_mesh_oracle(text):
    """Oracle: the token-by-token parser, one Python conversion per token."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError("unexpected end of mesh file")
        lineno, toks = tokens[pos]
        pos += 1
        return lineno, toks

    def header(key):
        """(line number, value token) of the section header ``key <value>``."""
        lineno, toks = take()
        if toks[0].lower() != key:
            raise MeshError(f"line {lineno}: expected '{key}', got {toks[0]!r}")
        if len(toks) < 2:
            raise MeshError(f"line {lineno}: '{key}' needs a value")
        if len(toks) > 2:
            raise MeshError(f"line {lineno}: '{key}' takes exactly one value, "
                            f"got {len(toks) - 1}")
        return lineno, toks[1]

    def as_int(lineno, s):
        try:
            return int(s)
        except ValueError:
            raise MeshError(f"line {lineno}: expected integer, got {s!r}") from None

    def as_float(lineno, s):
        try:
            value = float(s)
        except ValueError:
            raise MeshError(f"line {lineno}: expected number, got {s!r}") from None
        if not math.isfinite(value):
            raise MeshError(f"line {lineno}: expected a finite number, got {s!r}")
        return value

    def count(key):
        """The entry count of the section header ``key <count>``."""
        lineno, token = header(key)
        n = as_int(lineno, token)
        if n < 0:
            raise MeshError(f"line {lineno}: '{key}' count must be non-negative, got {n}")
        if n > n_lines - lineno:
            raise MeshError(f"line {lineno}: '{key}' count {n} exceeds the {n_lines - lineno} "
                            f"line(s) after it")
        return n

    def int64_row(lineno, toks, row):
        if not all(-2**63 <= v < 2**63 for v in row):
            raise MeshError(f"line {lineno}: {' '.join(toks)!r} has an integer out of "
                            f"the int64 range")
        return row

    n_lines = len(text.splitlines())
    depth = as_float(*header("depth"))
    n_v = count("vertices")
    vertices = np.empty((n_v, 2))
    for row in range(n_v):
        lineno, toks = take()
        if len(toks) != 2:
            raise MeshError(f"line {lineno}: vertex needs two coordinates")
        vertices[row] = [as_float(lineno, toks[0]), as_float(lineno, toks[1])]

    n_t = count("triangles")
    triangles = np.empty((n_t, 3), dtype=np.int64)
    tri_region = np.empty(n_t, dtype=int)
    for row in range(n_t):
        lineno, toks = take()
        if len(toks) != 4:
            raise MeshError(f"line {lineno}: triangle needs three vertices and a region")
        entry = int64_row(lineno, toks, [as_int(lineno, s) for s in toks])
        triangles[row] = entry[:3]
        tri_region[row] = entry[3]

    n_r = count("regions")
    region_table = {}
    for _ in range(n_r):
        lineno, toks = take()
        if len(toks) != 5:
            raise MeshError(f"line {lineno}: region needs id, nu, sigma, winding, orientation")
        rid = as_int(lineno, toks[0])
        if rid in region_table:
            raise MeshError(f"line {lineno}: region {rid} declared twice")
        region_table[rid] = (as_float(lineno, toks[1]), as_float(lineno, toks[2]),
                             as_int(lineno, toks[3]), as_int(lineno, toks[4]))

    n_w = count("windings")
    turns = {}
    for _ in range(n_w):
        lineno, toks = take()
        if len(toks) != 2:
            raise MeshError(f"line {lineno}: winding needs id and turns")
        wid = as_int(lineno, toks[0])
        if wid in turns:
            raise MeshError(f"line {lineno}: winding {wid} declared twice")
        turns[wid] = as_float(lineno, toks[1])

    missing = set(tri_region) - set(region_table)
    if missing:
        raise MeshError(f"triangles reference undeclared regions {sorted(missing)}")

    nu = np.array([region_table[r][0] for r in tri_region])
    sigma = np.array([region_table[r][1] for r in tri_region])
    materials = MaterialMap(reluctivity=nu, conductivity=sigma)

    boundary = boundary_vertices_of(vertices, triangles)
    mesh = TriMesh(vertices=vertices, triangles=triangles,
                   boundary_vertices=boundary, depth=depth)

    windings = []
    for wid in sorted(turns):
        tris = np.flatnonzero([region_table[r][2] == wid for r in tri_region])
        if tris.size == 0:
            raise MeshError(f"winding {wid} has no triangles")
        orient = np.array([min(max(region_table[tri_region[t]][3], -2), 2) for t in tris],
                          dtype=float)
        windings.append(Winding(name=f"w{wid}", triangles=tris,
                                orientation=orient, turns=turns[wid]))
    used = {region_table[r][2] for r in tri_region} - {-1}
    if used - set(turns):
        raise MeshError(f"regions reference undeclared windings {sorted(used - set(turns))}")
    return mesh, materials, windings


def assert_same_parse(text):
    """``parse_mesh`` and the oracle return the same arrays, bit for bit."""
    mesh, mats, windings = parse_mesh(text)
    mesh2, mats2, windings2 = parse_mesh_oracle(text)
    for a, b in ((mesh.vertices, mesh2.vertices), (mesh.triangles, mesh2.triangles),
                 (mesh.boundary_vertices, mesh2.boundary_vertices),
                 (mats.reluctivity, mats2.reluctivity), (mats.conductivity, mats2.conductivity)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert mesh.depth == mesh2.depth
    assert [w.name for w in windings] == [w.name for w in windings2]
    for w, w2 in zip(windings, windings2):
        assert w.turns == w2.turns
        for a, b in ((w.triangles, w2.triangles), (w.orientation, w2.orientation)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return mesh, mats, windings


# a valid two-triangle mesh file, one line per entry
SQUARE_LINES = ("depth 1.0", "vertices 4", "0 0", "1 0", "1 1", "0 1", "triangles 2",
                "0 1 2 0", "0 2 3 1", "regions 2", "0 1.0 0.0 0 1", "1 2.0 0.5 -1 0",
                "windings 1", "0 10")


def square_text(**lines):
    """The square's file with lines replaced by number (``l3="x"``); None drops one."""
    out = list(SQUARE_LINES)
    for key, line in lines.items():
        out[int(key[1:]) - 1] = line
    return "\n".join(line for line in out if line is not None) + "\n"


class TestParseMeshOracle:
    @pytest.mark.parametrize("density", [0.025, 0.00625])
    def test_transformer_file(self, tmp_path, density):
        save_mesh(tmp_path / "t.mesh", *generate_transformer_mesh(TransformerParams(), density))
        text = (tmp_path / "t.mesh").read_text(encoding="utf-8")
        assert_same_parse(text)

    @pytest.mark.parametrize("text", [
        square_text(),
        # comments and blank lines between and inside the sections
        "# a square\n\n" + square_text(l4="1 0  # inside", l5="# a comment line\n1 1",
                                         l8="\n0 1 2 0", l9="   \n0 2 3 1  #"),
        square_text().replace("\n", "\r\n"),
        square_text().replace(" ", "\t").replace("\n", " \t\n\t"),
        square_text(l1="depth 1e0", l4="1e3 +0", l5="1_000 1e3", l6="0 +1_000",
                    l8="0 +1 2 1_000", l11="1_000 1.0 0.0 0 +1", l14="0 1_0"),
        # section names are read without case; a digit outside ASCII is an int to Python
        square_text(l2="VERTICES 4", l7="Triangles 2", l9="0 2 \u0663 1"),
        # as many blank lines as the section has rows open it
        square_text(l2="vertices 4\n\n\n  \n# four\n", l7="triangles 2\n\n"),
        # a region outside every winding keeps an orientation no float holds
        square_text(l12="1 2.0 0.5 -1 1" + "0" * 400),
    ], ids=["plain", "comments", "crlf", "tabs", "signs_exponents_underscores", "case_unicode",
            "blank_section_start", "unused_orientation_past_float"])
    def test_hand_written_file(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_parse(text)

    @pytest.mark.parametrize("text", [
        "",
        square_text(l6=None, l7=None, l8=None, l9=None, l10=None, l11=None, l12=None,
                    l13=None, l14=None),
        square_text(l9=None, l10=None, l11=None, l12=None, l13=None, l14=None),
        square_text(l1="depth"),
        square_text(l1="depth x"),
        square_text(l1="depth nan"),
        square_text(l2="vertex 4"),
        square_text(l2="vertices 4 5"),
        square_text(l2="vertices x"),
        square_text(l2="vertices -1"),
        square_text(l2="vertices 5"),
        square_text(l4="1"),
        square_text(l4="1 0 0"),
        square_text(l3="0 0 0", l4="1 0 0", l5="1 1 0", l6="0 1 0"),
        square_text(l4="1 x"),
        square_text(l4="1 inf"),
        square_text(l5="1e400 1"),
        square_text(l5="# only a comment"),
        square_text(l8="0 1 2"),
        square_text(l8="0 1 2.0 0"),
        square_text(l9="0 2 3 x"),
        square_text(l9="0 2 9 1"),
        square_text(l9="0 3 2 1"),
        square_text(l7="triangles 1"),
        square_text(l9="0 2 3 7"),
        square_text(l11="0 1.0 0.0 0"),
        square_text(l12="0 2.0 0.5 -1 0"),
        square_text(l12="0 x 0.5 -1 0"),
        square_text(l12="1 -2.0 0.5 -1 0"),
        square_text(l12="1 2.0 -0.5 -1 0"),
        square_text(l11="0 1.0 0.0 0 2"),
        square_text(l12="1 2.0 0.5 3 0"),
        square_text(l13="windings 2", l14="0 10\n1 5"),
        square_text(l13="windings 2", l14="0 10\n0 5"),
        square_text(l14="0"),
        square_text(l14="0 -5"),
        square_text(l14="0 nan"),
        # out-of-range integers and counts, named before they reach numpy
        square_text(l9="0 2 99999999999999999999 1"),
        square_text(l8="0 1 2 -99999999999999999999"),
        "depth 1\nvertices 1000000000000\n0 0\n",
        square_text(l13="windings 13"),
        square_text(l11="0 1.0 0.0 0 1" + "0" * 400),
    ])
    def test_named_error_unchanged(self, text):
        with pytest.raises(MeshError) as expected:
            parse_mesh_oracle(text)
        with pytest.raises(MeshError) as got:
            parse_mesh(text)
        assert type(got.value) is type(expected.value)
        # the oracle lists undeclared regions as numpy scalars, np.int64(7)
        assert str(got.value) == re.sub(r"np\.int64\((-?\d+)\)", r"\1", str(expected.value))

    @pytest.mark.parametrize("trailing, lineno, word", [("garbage 1 2 3", 15, "garbage"),
                                                        ("\n# end\nvertices 5", 17, "vertices")])
    def test_content_after_windings_named(self, trailing, lineno, word):
        # the token parser stopped reading after the windings section
        text = square_text() + trailing + "\n"
        parse_mesh_oracle(text)
        with pytest.raises(MeshError, match=f"^line {lineno}: expected the end of the file "
                                            f"after the windings, got '{word}'$"):
            parse_mesh(text)
