"""Circuit topology, branch laws, and circuit energy."""

import math

import numpy as np
import pytest

from mona.circuit import (
    CircuitGraph,
    DiodeParams,
    NetlistElement,
    build_incidence,
    circuit_energy,
    diode_critical_voltage,
    diode_law,
    diode_voltage_limit,
    validate_topology,
)
from mona.coupling import assemble_coupled
from mona.errors import TopologyError
from mona.netlist import parse_netlist
from mona.sources import Waveform

from conftest import dense_incidence


def el(kind, name, *nodes, **kw):
    return NetlistElement(kind=kind, name=name, nodes=tuple(nodes), **kw)


DIODE = DiodeParams(saturation_current=1e-14, thermal_voltage=2.5e-2,
                    parallel_resistance=1e12)


class TestBuildIncidence:
    def test_rc_pair_stamps(self):
        graph = build_incidence(
            [el("R", "R1", 1, 2, value=0.1), el("C", "C1", 2, 0, value=1e-6)], 2)
        assert np.array_equal(graph.incidence("R"), [[1.0], [-1.0]])
        assert graph.incidence("D").shape == (2, 0)
        assert np.array_equal(graph.incidence("C"), [[0.0], [1.0]])
        assert np.array_equal(graph.conductance, [0.1])
        assert np.array_equal(graph.capacitance, [1e-6])

    def test_ground_row_eliminated(self):
        graph = build_incidence(
            [el("V", "V1", 1, 0, waveform=Waveform.dc(1.0)),
             el("R", "R1", 1, 0, value=0.1)], 1)
        assert np.array_equal(graph.incidence("V"), [[1.0]])
        assert np.array_equal(graph.incidence("R"), [[1.0]])

    def test_rectifier_shape(self, rectifier):
        _parsed, graph, _system = rectifier
        assert graph.incidence("M").shape == (4, 2)
        assert graph.n_branches("D") == 4
        assert graph.n_branches("R") == 1
        assert graph.incidence("R").shape == (4, 1)
        assert graph.incidence("D").shape == (4, 4)

    def test_duplicate_name_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            build_incidence([el("R", "R1", 1, 0, value=1.0),
                             el("R", "R1", 2, 0, value=1.0)], 2)

    def test_node_out_of_range(self):
        with pytest.raises(TopologyError, match="exceeds"):
            build_incidence([el("R", "R1", 1, 3, value=1.0)], 2)

    def test_disconnected_from_ground(self):
        with pytest.raises(TopologyError, match="not connected"):
            build_incidence([el("R", "R1", 1, 2, value=1.0)], 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            el("R", "R1", 1, 1, value=1.0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            el("C", "C1", 1, 0, value=-1e-6)

    def test_column_sums(self, rectifier):
        # ground-free columns sum to zero, grounded ones to +-1
        _parsed, graph, _system = rectifier
        for kind_mat in (graph.incidence(kind) for kind in "RDCLVIM"):
            for col in kind_mat.T:
                nnz = np.count_nonzero(col)
                assert nnz in (1, 2)
                assert col.sum() in (-1.0, 0.0, 1.0)
                if nnz == 2:
                    assert col.sum() == 0.0


class TestValidateTopology:
    def test_parallel_voltage_sources_fail(self):
        graph = build_incidence(
            [el("V", "V1", 1, 0, waveform=Waveform.dc(1.0)),
             el("V", "V2", 1, 0, waveform=Waveform.dc(2.0))], 1)
        report = validate_topology(graph)
        assert not report.passed
        assert report.errors[0].code == "voltage_loop"
        assert set(report.errors[0].elements) == {"V1", "V2"}

    def test_rectifier_passes(self, rectifier):
        _parsed, graph, _system = rectifier
        report = validate_topology(graph)
        assert report.passed
        # the source sits directly across the primary winding: reported, benign
        assert any(w.code == "device_source_loop" for w in report.warnings)

    def test_current_source_cutset(self):
        graph = build_incidence(
            [el("I", "I1", 1, 0, waveform=Waveform.dc(1.0))], 1)
        report = validate_topology(graph)
        assert not report.passed
        assert report.errors[0].code == "current_cutset"
        assert report.errors[0].elements == ("I1",)

    def test_report_text(self):
        # pins the whole report: which loops and cutsets are found, the order
        # of their members and the order of the issues
        graph = build_incidence(
            [el("V", "v1", 1, 0, waveform=Waveform.dc(1.0)),
             el("V", "v2", 1, 2, waveform=Waveform.dc(1.0)),
             el("V", "v3", 2, 0, waveform=Waveform.dc(1.0)),
             el("I", "i1", 3, 0, waveform=Waveform.dc(1.0)),
             el("I", "i2", 3, 1, waveform=Waveform.dc(1.0)),
             el("M", "x", 1, 0, field_ref="builtin")], 3)
        assert str(validate_topology(graph)) == (
            "error: loop of ideal voltage sources: {v1, v2, v3}\n"
            "error: current sources form a cutset: {i1, i2}\n"
            "warning: loop of voltage sources and device windings: {v1, x}")


def node_conductance(graph, psi_dot):
    """The psi/psi entry of the rate Jacobian of a one-node circuit at the
    node rate psi_dot: the slopes di/dv of its resistive branches, summed."""
    _j_state, j_rate = assemble_coupled(graph).jacobians(np.zeros(1), np.array([psi_dot]), 0.0)
    return j_rate.toarray()[0, 0]


class TestResistiveBranchLaw:
    """The two resistive laws: i = G v for a linear resistor, diode_law's
    current for a diode."""

    def one_diode_graph(self, extra=()):
        elements = [el("D", "D1", 1, 0, diode=DIODE)] + list(extra)
        return build_incidence(elements, 1)

    def test_diode_zero_voltage(self):
        graph = self.one_diode_graph()
        i = diode_law(graph, np.array([0.0]))[0]
        assert i[0] == 0.0

    def test_diode_forward_value(self):
        # at v = V_th * ln 2 the exponential term contributes exactly I_s
        graph = self.one_diode_graph()
        v = 2.5e-2 * math.log(2.0)
        i = diode_law(graph, np.array([v]))[0]
        expected = 1e-14 * (math.exp(v / 2.5e-2) - 1.0) + v / 1e12
        assert i[0] == pytest.approx(expected, rel=1e-15)
        assert i[0] == pytest.approx(2.733e-14, rel=1e-3)

    def test_linear_branch(self):
        graph = build_incidence([el("R", "load", 1, 0, value=0.1)], 1)
        i = graph.conductance * np.array([160.0])
        assert i[0] == pytest.approx(16.0)
        assert node_conductance(graph, 160.0) == 0.1

    def test_derivative_matches_finite_differences(self):
        graph = build_incidence(
            [el("R", "R1", 1, 0, value=0.25), el("D", "D1", 1, 0, diode=DIODE)], 1)
        rng = np.random.default_rng(7)
        h = 1e-7
        for v in rng.uniform(-1.0, 1.0, size=100):
            vv = np.array([v])
            fd_lin = (graph.conductance * (vv + h) - graph.conductance * (vv - h)) / (2 * h)
            fd_dio = (diode_law(graph, vv + h)[0] - diode_law(graph, vv - h)[0]) / (2 * h)
            didv = diode_law(graph, vv)[1]
            assert np.allclose(didv, fd_dio, rtol=1e-6, atol=1e-12)
            assert np.isclose(node_conductance(graph, v), fd_lin.sum() + fd_dio.sum(),
                              rtol=1e-6, atol=1e-12)

    def test_dissipation_nonnegative(self):
        graph = build_incidence(
            [el("R", "R1", 1, 0, value=0.25), el("D", "D1", 1, 0, diode=DIODE)], 1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.uniform(-5.0, 2.0, size=2)
            i = np.concatenate([graph.conductance * v[:1], diode_law(graph, v[1:])[0]])
            assert i @ v >= 0.0

    def test_overflow_guard_finite(self):
        graph = self.one_diode_graph()
        v = np.array([50.0])  # 2000 V_th
        i, didv = diode_law(graph, v)
        assert np.isfinite(i[0]) and np.isfinite(didv[0])
        assert np.isfinite(node_conductance(graph, v[0]))
        assert i[0] > 0


class TestDiodeParams:
    @pytest.mark.parametrize("saturation, thermal", [(1e-300, 1e300), (5e-324, 0.025)])
    def test_critical_voltage_must_be_finite(self, saturation, thermal):
        # 1/VT, 1/RP and IS/VT are finite, but VT/(sqrt(2)*IS) overflows, so
        # the limiter's critical voltage would be inf; rejected without a
        # numpy warning, which the suite turns into an error
        with pytest.raises(ValueError, match=r"^diode critical voltage "
                                             r"VT\*ln\(VT/\(sqrt\(2\)\*IS\)\) = inf is not finite"):
            DiodeParams(saturation_current=saturation, thermal_voltage=thermal,
                        parallel_resistance=1e12)
        # the workloads' diodes start limiting at 0.705 V
        assert float(diode_critical_voltage(DIODE.thermal_voltage, DIODE.saturation_current)) \
            == pytest.approx(0.705, abs=5e-4)


class TestDiodeVoltageLimit:
    def test_small_updates_untouched(self):
        vth = np.array([0.025])
        crit = diode_critical_voltage(vth, np.array([1e-14]))
        v_new = diode_voltage_limit(np.array([0.61]), np.array([0.6]), vth, crit)
        assert v_new[0] == 0.61

    def test_large_jump_contracted(self):
        vth = np.array([0.025])
        crit = diode_critical_voltage(vth, np.array([1e-14]))
        v_new = diode_voltage_limit(np.array([15.0]), np.array([0.6]), vth, crit)
        assert 0.6 < v_new[0] < 1.0

    def test_reverse_voltages_free(self):
        vth = np.array([0.025])
        crit = diode_critical_voltage(vth, np.array([1e-14]))
        v_new = diode_voltage_limit(np.array([-20.0]), np.array([0.6]), vth, crit)
        assert v_new[0] == -20.0


class TestCircuitEnergy:
    def rlc_graph(self):
        elements = [
            el("V", "V1", 1, 0, waveform=Waveform.dc(0.0)),
            el("R", "R1", 1, 2, value=0.5),
            el("L", "L1", 2, 3, value=0.01),
            el("L", "L2", 3, 0, value=0.02),
            el("C", "C1", 3, 4, value=1e-3),
            el("C", "C2", 4, 0, value=2e-3),
            el("R", "R2", 4, 5, value=0.1),
            el("L", "L3", 5, 0, value=0.05),
        ]
        return build_incidence(elements, 5)

    def test_zero_state(self):
        graph = self.rlc_graph()
        assert circuit_energy(graph, np.zeros(5), np.zeros(2)) == 0.0

    def test_single_capacitor(self):
        graph = build_incidence(
            [el("C", "C1", 1, 0, value=1.0), el("R", "R1", 1, 0, value=1.0)], 1)
        assert circuit_energy(graph, np.zeros(1), np.array([2.0])) == pytest.approx(2.0)

    def test_dense_oracle(self):
        graph = self.rlc_graph()
        rng = np.random.default_rng(3)
        a_l = dense_incidence(graph.branch_pairs["L"], graph.n_nodes)
        linv = np.diag(graph.inv_inductance)
        cinv = np.diag(1.0 / graph.capacitance)
        for _ in range(20):
            psi = rng.standard_normal(5)
            q_c = rng.standard_normal(2)
            expected = 0.5 * psi @ a_l @ linv @ a_l.T @ psi + 0.5 * q_c @ cinv @ q_c
            assert circuit_energy(graph, psi, q_c) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_homogeneity(self):
        graph = self.rlc_graph()
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(5)
        q_c = rng.standard_normal(2)
        h1 = circuit_energy(graph, psi, q_c)
        for alpha in (2.0, -3.0, 0.5):
            assert circuit_energy(graph, alpha * psi, alpha * q_c) == \
                pytest.approx(alpha**2 * h1, rel=1e-12)


def assert_branch_table_consistent(graph):
    for kind in "RCLVIDM":
        n = graph.n_branches(kind)
        assert graph.branch_pairs[kind].shape == (n, 2)
        assert len(graph.branch_names[kind]) == n
        assert graph.incidence(kind).shape == (graph.n_nodes, n)


def test_empty_graph_shapes():
    # the device stubs are windings like any other, both terminals on ground
    graph = CircuitGraph.empty(n_devices=2)
    assert graph.n_nodes == 0
    assert graph.incidence("M").shape == (0, 2)
    assert graph.incidence("R").shape == graph.incidence("D").shape == (0, 0)
    assert_branch_table_consistent(graph)
    assert graph.branch_pairs["M"].tolist() == [[0, 0], [0, 0]]


# every element kind, a two-winding device among them
EVERY_KIND = """
V src 1 0 SIN(1 50)
I bias 2 0 SIN(1 50)
R r1 1 2 10
C c1 2 3 1e-6
L l1 3 4 1e-3
D d1 4 0 IS=1e-14 VT=0.025 RP=1e12
R r2 3 0 5
D d2 0 5 IS=1e-14 VT=0.025 RP=1e12
M x 1 0 5 4 FIELD=builtin
"""


def test_incidences_are_those_of_the_branch_table():
    # the branch table is the graph's one topology: each incidence is its
    # kind's terminal pairs stamped, C-contiguous float64 (BLAS's summation
    # order depends on the layout)
    parsed = parse_netlist(EVERY_KIND)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    assert_branch_table_consistent(graph)
    assert graph.branch_names["M"] == ("x", "x")
    assert graph.branch_pairs["M"].tolist() == [[1, 0], [5, 4]]
    assert graph.branch_names["R"] == ("r1", "r2")
    for kind in "RCLVIDM":
        mat = graph.incidence(kind)
        assert graph.n_branches(kind) > 0
        assert mat.dtype == np.float64 and mat.flags.c_contiguous
        assert np.array_equal(mat, dense_incidence(graph.branch_pairs[kind], 5))
