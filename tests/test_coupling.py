"""Coupled DAE evaluator: residual, Jacobians, energy, power bookkeeping.

The dense oracle below re-evaluates the block equations with plain dense
linear algebra, stamping its own incidence matrices from the branch node
pairs; only the assembled field matrices are shared with the production
path (their own assembly oracle lives in test_fem).
"""

import dataclasses
import math

import numpy as np
import pytest

from mona.circuit import (
    DIODE_EXP_CAP,
    CircuitGraph,
    build_incidence,
    diode_law,
)
from mona.coupling import BlockLayout, assemble_coupled
from mona.errors import MeshError
from mona.netlist import parse_netlist
from mona.sources import Waveform

from conftest import dense_incidence, random_state, reference_newton


def dense_residual(system, y, ydot, t):
    """Independent dense evaluation of the coupled block equations."""
    g = system.graph
    lay = system.layout
    psi, q_c, _q_v, _q_m, a = lay.split(np.asarray(y, dtype=float))
    psi_d, qc_d, qv_d, qm_d, a_d = lay.split(np.asarray(ydot, dtype=float))

    a_lin = dense_incidence(g.branch_pairs["R"], g.n_nodes)
    a_dio = dense_incidence(g.branch_pairs["D"], g.n_nodes)
    a_c = dense_incidence(g.branch_pairs["C"], g.n_nodes)
    a_l = dense_incidence(g.branch_pairs["L"], g.n_nodes)
    a_v = dense_incidence(g.branch_pairs["V"], g.n_nodes)
    a_i = dense_incidence(g.branch_pairs["I"], g.n_nodes)
    a_m = dense_incidence(g.branch_pairs["M"], g.n_nodes)

    i_lin = g.conductance * (a_lin.T @ psi_d)
    v_dio = a_dio.T @ psi_d
    i_dio = np.array([
        isat * (math.exp(v / vth) - 1.0) + v / rp
        for v, isat, vth, rp in zip(v_dio, g.diode_saturation,
                                    g.diode_thermal, g.diode_parallel)
    ])
    v_src = np.array([w(t) for w in g.voltage_waveforms])
    i_src = np.array([w(t) for w in g.current_waveforms])

    r_kcl = (a_lin @ i_lin + a_dio @ i_dio + a_c @ qc_d + a_v @ qv_d + a_m @ qm_d
             + a_l @ np.diag(g.inv_inductance) @ a_l.T @ psi + a_i @ i_src)
    r_cap = -(a_c.T @ psi_d) + (np.diag(1.0 / g.capacitance) @ q_c
                                if g.n_branches("C") else np.zeros(0))
    r_vsrc = -(a_v.T @ psi_d) + v_src
    if lay.n_a:
        x_mat = np.asarray(system.winding_matrix)
        m_mat = system.mass.toarray()
        k_mat = system.stiffness.toarray()
        r_dev = -(a_m.T @ psi_d) + x_mat.T @ a_d
        r_field = m_mat @ a_d + k_mat @ a - x_mat @ qm_d
    else:
        r_dev = -(a_m.T @ psi_d)
        r_field = np.zeros(0)
    return np.concatenate([r_kcl, r_cap, r_vsrc, r_dev, r_field])


def assert_close_blocks(r1, r2, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(r2))) if r2.size else 0.0)
    assert np.max(np.abs(r1 - r2)) <= rtol * scale


class TestLayout:
    def test_offsets_cumulative(self):
        lay = BlockLayout(n_nodes=4, n_c=0, n_v=1, n_m=2, n_a=9)
        assert lay.offsets == (0, 4, 4, 5, 7)
        assert lay.size == 16

    def test_rectifier_dimensions(self, rectifier):
        _parsed, _graph, system = rectifier
        lay = system.layout
        assert (lay.n_nodes, lay.n_c, lay.n_v, lay.n_m) == (4, 0, 1, 2)
        assert lay.n_a == system.field.n_dofs
        assert "devices=2" in system.dimension_report()

    def test_pack_split_inverse(self, rlc):
        _parsed, _graph, system = rlc
        rng = np.random.default_rng(0)
        y = random_state(system, rng)
        blocks = system.layout.split(y)
        assert np.array_equal(system.layout.pack(*blocks), y)


class TestResidual:
    def test_zero_equilibrium(self, rectifier):
        _parsed, _graph, system = rectifier
        y = system.layout.zeros()
        r = system.residual(y, y, 0.0)
        assert np.max(np.abs(r)) == 0.0

    def test_rli_reduction(self):
        # R, L, I branches only: the current-law block must reduce to the
        # conductance and inverse-inductance stamps plus the source injection
        parsed = parse_netlist("""
            I isrc 1 0 DC 2.0
            R r1 1 2 4
            L l1 2 0 0.5
        """)
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(2)
        y = system.layout.pack(psi, [], [], [], [])
        r = system.residual(y, np.zeros_like(y), 0.5)
        a_l = dense_incidence(graph.branch_pairs["L"], 2)
        a_i = dense_incidence(graph.branch_pairs["I"], 2)
        expected = a_l @ np.diag(graph.inv_inductance) @ a_l.T @ psi + a_i @ [2.0]
        assert_close_blocks(r, expected)

    def test_dense_oracle_random_states(self, rectifier):
        _parsed, _graph, system = rectifier
        rng = np.random.default_rng(42)
        for _ in range(100):
            y = random_state(system, rng)
            ydot = random_state(system, rng)
            t = float(rng.uniform(0.0, 0.05))
            assert_close_blocks(system.residual(y, ydot, t),
                                dense_residual(system, y, ydot, t))

    def test_non_finite_rejected(self, rlc):
        _parsed, _graph, system = rlc
        y = system.layout.zeros()
        bad = y.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            system.residual(bad, y, 0.0)


class TestJacobians:
    def test_linear_system_constant(self, rlc):
        _parsed, _graph, system = rlc
        rng = np.random.default_rng(2)
        j1 = system.jacobians(random_state(system, rng), random_state(system, rng), 0.1)
        j2 = system.jacobians(random_state(system, rng), random_state(system, rng), 0.7)
        assert abs(j1[0] - j2[0]).max() == 0.0
        assert abs(j1[1] - j2[1]).max() == 0.0

    @pytest.mark.parametrize("fixture", ["rlc", "rectifier"])
    def test_match_finite_differences(self, fixture, request):
        _parsed, _graph, system = request.getfixturevalue(fixture)
        rng = np.random.default_rng(3)
        y = random_state(system, rng, amplitude=0.05)
        ydot = random_state(system, rng, amplitude=0.05)
        t = 0.01
        j_state, j_rate = system.jacobians(y, ydot, t)
        j_state, j_rate = j_state.toarray(), j_rate.toarray()
        n = system.layout.size
        # the rate Jacobian uses a larger step: its difference quotients must
        # cancel the state-dependent residual terms, whose rounding noise
        # would dominate at the smaller step
        h_state, h_rate = 1e-7, 1e-5
        fd_state = np.zeros((n, n))
        fd_rate = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h_state
            fd_state[:, j] = (system.residual(y + e, ydot, t)
                              - system.residual(y - e, ydot, t)) / (2 * h_state)
            e[j] = h_rate
            fd_rate[:, j] = (system.residual(y, ydot + e, t)
                             - system.residual(y, ydot - e, t)) / (2 * h_rate)
        for exact, fd in ((j_state, fd_state), (j_rate, fd_rate)):
            denom = max(1.0, np.linalg.norm(exact))
            assert np.linalg.norm(exact - fd) <= 1e-6 * denom

    def test_diode_conductance_at_zero(self, rectifier):
        _parsed, graph, system = rectifier
        y = system.layout.zeros()
        _, j_rate = system.jacobians(y, y, 0.0)
        lay = system.layout
        block = j_rate.toarray()[: lay.n_nodes, : lay.n_nodes]
        g_eq = 1e-14 / 2.5e-2 + 1e-12
        a_dio = dense_incidence(graph.branch_pairs["D"], graph.n_nodes)
        a_lin = dense_incidence(graph.branch_pairs["R"], graph.n_nodes)
        expected = a_lin @ np.diag(graph.conductance) @ a_lin.T \
            + a_dio @ (g_eq * np.eye(4)) @ a_dio.T
        assert np.allclose(block, expected, rtol=1e-12)

    def test_slopes_only_stamp_matches_branch_law(self, rectifier):
        # the rate Jacobian's psi/psi block is A_lin G A_lin^T + A_d diag(g)
        # A_d^T with the diode slopes g of the branch law, bit for bit, in
        # reverse, near zero and beyond the exponential's cap
        _parsed, g, system = rectifier
        rng = np.random.default_rng(23)
        beyond = DIODE_EXP_CAP * g.diode_thermal.max()
        a_lin = dense_incidence(g.branch_pairs["R"], g.n_nodes)
        a_dio = dense_incidence(g.branch_pairs["D"], g.n_nodes)
        psi = system.layout.block_slice("psi")
        seen = []
        for scale in (1e-4, 0.5, 4.0 * beyond):
            for _ in range(10):
                ydot = system.layout.zeros()
                ydot[psi] = scale * rng.standard_normal(g.n_nodes)
                v = a_dio.T @ ydot[psi]
                slopes = diode_law(g, v)[1]
                _j_state, j_rate = system.jacobians(system.layout.zeros(), ydot, 0.0)
                assert np.array_equal(j_rate.toarray()[psi, psi],
                                      a_lin @ (g.conductance[:, None] * a_lin.T)
                                      + a_dio @ (slopes[:, None] * a_dio.T))
                seen.append(v)
        seen = np.concatenate(seen)
        assert np.any(seen < 0.0)
        assert np.any(np.abs(seen) < 1e-3)
        assert np.any(seen > beyond)

    def test_antisymmetric_coupling_blocks(self, rectifier):
        _parsed, _graph, system = rectifier
        rng = np.random.default_rng(4)
        _, j_rate = system.jacobians(random_state(system, rng),
                                     random_state(system, rng), 0.0)
        j = j_rate.toarray()
        lay = system.layout
        pairs = [("psi", "q_c"), ("psi", "q_v"), ("psi", "q_m"), ("q_m", "a")]
        for top, side in pairs:
            b1 = j[lay.block_slice(top), lay.block_slice(side)]
            b2 = j[lay.block_slice(side), lay.block_slice(top)]
            assert np.array_equal(b1, -b2.T)


class TestEnergy:
    def test_zero(self, rectifier):
        _parsed, _graph, system = rectifier
        assert system.energy(system.layout.zeros()) == 0.0

    def test_field_only_dense_form(self, rectifier):
        _parsed, _graph, system = rectifier
        rng = np.random.default_rng(5)
        lay = system.layout
        a = rng.standard_normal(lay.n_a)
        y = lay.pack(np.zeros(lay.n_nodes), [], np.zeros(lay.n_v),
                     np.zeros(lay.n_m), a)
        dense = 0.5 * a @ (system.stiffness.toarray() @ a)
        assert system.energy(y) == pytest.approx(dense, rel=1e-12)

    def test_quadratic_scaling(self, rectifier):
        _parsed, _graph, system = rectifier
        rng = np.random.default_rng(6)
        y = random_state(system, rng)
        assert system.energy(2.0 * y) == pytest.approx(4.0 * system.energy(y), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rectifier):
        _parsed, _graph, system = rectifier
        rng = np.random.default_rng(7)
        y = random_state(system, rng)
        grad = system.energy_gradient(y)
        h = 1e-6
        fd = np.zeros_like(grad)
        for j in range(y.size):
            e = np.zeros_like(y)
            e[j] = h
            fd[j] = (system.energy(y + e) - system.energy(y - e)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    @pytest.mark.parametrize("fixture", ["rlc", "rectifier"])
    def test_hessian_product_is_the_gradient(self, fixture, request):
        # the energy is quadratic, so J_state y is its gradient at y; the two
        # forms differ only by rounding, bounded by the terms |J_state| |y|
        _parsed, _graph, system = request.getfixturevalue(fixture)
        j_state, _j_rate = system.jacobians(system.layout.zeros(), system.layout.zeros(), 0.0)
        rng = np.random.default_rng(13)
        for _ in range(5):
            y = random_state(system, rng)
            terms = abs(j_state) @ np.abs(y)
            assert np.all(np.abs(system.energy_gradient(y) - j_state @ y) <= 1e-14 * terms)


class TestPowerBreakdown:
    def test_rl_decay_exact_point(self):
        # single node, R parallel L: on any point of the exact decay
        # trajectory the balance defect vanishes
        parsed = parse_netlist("""
            R r1 1 0 2
            L l1 1 0 0.5
        """)
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        g_cond, ell = 0.5, 0.5
        for psi0 in (1.0, -0.3, 2.5):
            psi_dot = -psi0 / (g_cond * ell)
            y = np.array([psi0])
            ydot = np.array([psi_dot])
            assert np.max(np.abs(system.residual(y, ydot, 0.0))) <= 1e-12
            pb = system.power_breakdown(y, ydot, 0.0)
            assert abs(pb.residual) <= 1e-12 * max(pb.resistive_loss, 1.0)
            assert pb.dh_dt < 0.0

    def test_zero_source_dissipativity(self, rlc):
        parsed, graph, _system = rlc
        system = assemble_coupled(
            dataclasses.replace(graph, voltage_waveforms=(Waveform.dc(0.0),)))
        rng = np.random.default_rng(8)
        # solve the DAE instantaneously: given random psi/q_c, find rates
        lay = system.layout
        for _ in range(5):
            y = random_state(system, rng)

            def resid(ydot):
                return system.residual(y, ydot, 0.0)

            def jac(ydot):
                return system.jacobians(y, ydot, 0.0)[1]

            ydot = reference_newton(resid, jac, np.zeros(lay.size))
            pb = system.power_breakdown(y, ydot, 0.0)
            assert pb.dh_dt <= 1e-10

    def test_loss_scales_with_conductance(self):
        for g_val, factor in ((1.0, 1.0), (2.0, 2.0)):
            parsed = parse_netlist(f"R r1 1 0 {1.0 / g_val}\nL l1 1 0 1.0")
            graph = build_incidence(parsed.elements, parsed.n_nodes)
            system = assemble_coupled(graph)
            pb = system.power_breakdown(np.array([0.0]), np.array([3.0]), 0.0)
            assert pb.resistive_loss == pytest.approx(factor * 9.0)


class TestBlockwiseEvaluators:
    """The evaluators fill one array block by block; each block must be
    bit-identical to its expression evaluated on its own and packed.  The
    circuit rows are the dense circuit operator, whose matrices are stamped
    here from the incidence blocks."""

    @pytest.mark.parametrize("fixture", ["rlc", "rectifier", "linear_coupled"])
    def test_blocks_match_packed_expressions(self, fixture, request):
        _parsed, g, system = request.getfixturevalue(fixture)
        lay = system.layout
        k = lay.n_circuit
        x_mat = system.winding_matrix
        compact = system.compact_form()
        a_lin = g.incidence("R")
        charges = np.hstack([g.incidence("C"), g.incidence("V"), g.incidence("M")])
        rate_matrix = np.block([[a_lin @ np.diag(g.conductance) @ a_lin.T, charges],
                                [-charges.T, np.zeros((k - lay.n_nodes,) * 2)]])
        hessian = np.zeros((k, k))
        a_l = g.incidence("L")
        hessian[:lay.n_nodes, :lay.n_nodes] = a_l @ np.diag(g.inv_inductance) @ a_l.T
        hessian[lay.block_slice("q_c"), lay.block_slice("q_c")] = np.diag(1.0 / g.capacitance)
        a_dio = np.vstack([g.incidence("D"),
                           np.zeros((k - lay.n_nodes, g.n_branches("D")))])
        assert np.array_equal(system.circuit_rate_matrix, rate_matrix)
        assert np.array_equal(system.circuit_hessian, hessian)
        assert np.array_equal(system.diode_incidence, a_dio)
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = random_state(system, rng)
            ydot = random_state(system, rng)
            t = float(rng.uniform(0.0, 0.05))
            a = y[k:]
            psi_d, _qc_d, _qv_d, qm_d, a_d = lay.split(ydot)
            i_d = diode_law(g, g.incidence("D").T @ psi_d)[0]
            circuit_rate = rate_matrix @ ydot[:k] + a_dio @ i_d
            circuit_rate[lay.block_slice("q_m")] += x_mat.T @ a_d
            rate = np.concatenate([circuit_rate, system.mass @ a_d - x_mat @ qm_d])
            grad = np.concatenate([
                hessian @ y[:k],
                system.field.gradient_map @ (system.field.element_map @ a) if a.size else a])
            source = lay.pack(-(g.incidence("I") @ np.array([w(t) for w in g.current_waveforms],
                                                            dtype=float)),
                              np.zeros(lay.n_c),
                              -np.array([w(t) for w in g.voltage_waveforms], dtype=float),
                              np.zeros(lay.n_m),
                              np.zeros(lay.n_a))
            assert np.array_equal(compact.rate_op(ydot), rate)
            assert np.array_equal(system.energy_gradient(y), grad)
            assert np.array_equal(system.source_vector(t), source)


class TestCompactForm:
    def test_rate_operator_monotone(self, rectifier):
        _parsed, _graph, system = rectifier
        compact = system.compact_form()
        rng = np.random.default_rng(10)
        for _ in range(200):
            w = random_state(system, rng, amplitude=1.0)
            pairing = float(compact.rate_op(w) @ w)
            pb = system.power_breakdown(system.layout.zeros(), w, 0.0)
            assert pairing >= 0.0
            assert pairing == pytest.approx(pb.resistive_loss + pb.eddy_loss,
                                            rel=1e-10, abs=1e-12)

    def test_source_vector_structure(self, rectifier):
        _parsed, _graph, system = rectifier
        lay = system.layout
        f = system.source_vector(0.01)
        # nonzeros confined to the current-law and voltage-source blocks
        assert np.any(f[lay.block_slice("q_v")] != 0.0)
        assert not np.any(f[lay.block_slice("q_c")])
        assert not np.any(f[lay.block_slice("q_m")])
        assert not np.any(f[lay.block_slice("a")])
        # no current sources in the rectifier: its current-law block is zero
        assert not np.any(f[lay.block_slice("psi")])
        v_blk = f[lay.block_slice("q_v")]
        assert v_blk[0] == pytest.approx(-160.0 * math.sin(2 * math.pi * 60 * 0.01))

    def test_current_source_lands_in_kcl_block(self):
        parsed = parse_netlist("I isrc 1 0 DC 2.0\nR r1 1 0 1.0")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        f = system.source_vector(0.0)
        assert f[system.layout.block_slice("psi")][0] == pytest.approx(-2.0)


class TestReductions:
    def test_field_only_matches_eddy_equation(self, coarse_field):
        # no circuit at all: the field block must reduce to the discrete
        # eddy-current equation driven by prescribed winding currents
        graph = CircuitGraph.empty(n_devices=coarse_field.n_windings)
        system = assemble_coupled(graph, coarse_field)
        lay = system.layout
        rng = np.random.default_rng(11)
        m_mat = coarse_field.mass.toarray()
        k_mat = coarse_field.stiffness.toarray()
        x_mat = coarse_field.winding_matrix
        for _ in range(100):
            a = rng.standard_normal(lay.n_a)
            a_dot = rng.standard_normal(lay.n_a)
            i_m = rng.standard_normal(lay.n_m)
            y = lay.pack([], [], [], np.zeros(lay.n_m), a)
            ydot = lay.pack([], [], [], i_m, a_dot)
            r = system.residual(y, ydot, 0.0)[lay.block_slice("a")]
            expected = m_mat @ a_dot + k_mat @ a - x_mat @ i_m
            assert_close_blocks(r, expected)

    def test_field_only_power_balance(self, coarse_field):
        # consistent (a, a_dot, i_M): energy rate = -eddy loss + terminal power
        graph = CircuitGraph.empty(n_devices=coarse_field.n_windings)
        system = assemble_coupled(graph, coarse_field)
        lay = system.layout
        rng = np.random.default_rng(12)
        from scipy.sparse.linalg import spsolve
        for _ in range(10):
            a_dot = rng.standard_normal(lay.n_a)
            i_m = rng.standard_normal(lay.n_m)
            rhs = coarse_field.winding_matrix @ i_m - coarse_field.mass @ a_dot
            a = spsolve(coarse_field.stiffness.tocsc(), rhs)
            y = lay.pack([], [], [], np.zeros(lay.n_m), a)
            ydot = lay.pack([], [], [], i_m, a_dot)
            pb = system.power_breakdown(y, ydot, 0.0)
            terminal = float(i_m @ (coarse_field.winding_matrix.T @ a_dot))
            assert pb.dh_dt == pytest.approx(-pb.eddy_loss + terminal,
                                             rel=1e-9, abs=1e-9)

    def test_circuit_only_matches_nodal_blocks(self, rlc):
        # no field: residual must equal the three-block circuit system
        _parsed, _graph, system = rlc
        assert system.layout.n_m == 0 and system.layout.n_a == 0
        rng = np.random.default_rng(13)
        for _ in range(100):
            y = random_state(system, rng)
            ydot = random_state(system, rng)
            t = float(rng.uniform(0.0, 0.02))
            assert_close_blocks(system.residual(y, ydot, t),
                                dense_residual(system, y, ydot, t))


class TestAssembleErrors:
    def test_winding_count_mismatch(self, coarse_field):
        parsed = parse_netlist("V src 1 0 SIN(1 50)\nM dev 1 0 FIELD=x\nR r 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        with pytest.raises(MeshError, match="does not match winding count"):
            assemble_coupled(graph, coarse_field)

    def test_device_without_field_rejected(self):
        parsed = parse_netlist("V src 1 0 SIN(1 50)\nM dev 1 0 FIELD=x\nR r 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        with pytest.raises(MeshError, match="no field model"):
            assemble_coupled(graph)
