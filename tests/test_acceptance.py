"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The rectifier benchmark uses the built-in transformer at the
default mesh density (2048 triangles, 961 field unknowns).
"""

import time

import numpy as np
import pytest

from mona.circuit import CircuitGraph, build_incidence
from mona.coupling import assemble_coupled
from mona.demo import DEMO_MESH_DENSITY, DEMO_NETLIST, DEMO_PROBES, assemble_netlist
from mona.fem import (
    MaterialMap,
    TriMesh,
    Winding,
    assemble_mass,
    assemble_stiffness,
    assemble_winding,
)
from mona.netlist import parse_netlist
from mona.probes import compile_probe, parse_probe_spec
from mona.stepping import TimeGrid, convergence_study, run_transient

from conftest import LINEAR_COUPLED_NETLIST, build_from_netlist, random_state, state_probe
from test_coupling import dense_residual

RECTIFIER_TAUS = (5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
FINE_DENSITIES = (0.00625, 0.003125)  # mesh h [m] of the finer criterion-1 runs
T_END = 0.05


@pytest.fixture(scope="module")
def demo():
    return assemble_netlist(DEMO_NETLIST)  # default density: 2048 triangles


@pytest.fixture(scope="module")
def demo_run(demo):
    grid = TimeGrid(0.0, T_END, 6.25e-4)
    probes = parse_probe_spec(demo.system, DEMO_PROBES, demo.parsed.node_ids)
    return run_transient(demo.system, grid, probes=probes)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_discrete_power_balance(demo):
    """Per-step balance defect small in absolute and relative terms, over
    the step sizes at the default mesh and over two finer meshes."""
    runs = [(DEMO_MESH_DENSITY, demo.system, tau) for tau in RECTIFIER_TAUS]
    runs += [(h, assemble_netlist(DEMO_NETLIST, mesh_density=h).system, 6.25e-4)
             for h in FINE_DENSITIES]
    worst_abs = worst_rel = 0.0
    for h, system, tau in runs:
        start = time.perf_counter()
        result = run_transient(system, TimeGrid(0.0, T_END, tau))
        elapsed = time.perf_counter() - start
        eps = result.max_balance_residual()
        rel = eps / result.peak_supplied_power()
        where = f"h={h}, tau={tau}"
        assert eps <= 1e-10, f"{where}: |eps_H| = {eps:.3e} exceeds 1e-10 W"
        assert rel <= 1e-12, f"{where}: relative eps_H = {rel:.3e} exceeds 1e-12"
        assert elapsed < 60.0, f"{where}: run took {elapsed:.1f}s"
        worst_abs = max(worst_abs, eps)
        worst_rel = max(worst_rel, rel)
    report(1, f"max |eps_H| = {worst_abs:.2e} W, relative {worst_rel:.2e}")


def test_criterion_2_second_order_convergence(demo, rlc):
    """Observed order ~2 on the rectifier and tightly 2 on a smooth RLC."""
    probe = compile_probe(demo.system, "psi(4)", demo.parsed.node_ids)
    rows = convergence_study(demo.system, TimeGrid(0.0, T_END, RECTIFIER_TAUS[0]),
                             halvings=3, probe=probe)
    orders = [row.order for row in rows[1:]]
    for order in orders:
        assert 1.7 <= order <= 2.3, f"rectifier e.o.c. {order:.3f} outside [1.7, 2.3]"

    parsed, _graph, system = rlc
    probe = compile_probe(system, "psi(3)", parsed.node_ids)
    rlc_rows = convergence_study(system, TimeGrid(0.0, 0.04, 1e-3),
                                 halvings=3, probe=probe)
    rlc_orders = [row.order for row in rlc_rows[1:]]
    for order in rlc_orders:
        assert 1.9 <= order <= 2.1, f"RLC e.o.c. {order:.3f} outside [1.9, 2.1]"
    report(2, "rectifier e.o.c. " + ", ".join(f"{o:.2f}" for o in orders)
           + "; RLC " + ", ".join(f"{o:.2f}" for o in rlc_orders))


def test_criterion_3_continuous_balance_recovered(coarse_field):
    """The continuous power identity holds at second order along trajectories."""
    _parsed, _graph, system = build_from_netlist(LINEAR_COUPLED_NETLIST,
                                                 field=coarse_field)

    def max_defect(tau):
        grid = TimeGrid(0.0, T_END, tau)
        result = run_transient(system, grid, probes={"y": state_probe})
        states = np.vstack([system.layout.zeros()[None, :], result.probe("y")])
        energies = np.array([system.energy(y) for y in states])
        times = grid.times()
        defects = []
        for k in range(2, len(times) - 2):
            dh = (energies[k - 2] - 8 * energies[k - 1]
                  + 8 * energies[k + 1] - energies[k + 2]) / (12 * tau)
            ydot = (states[k - 2] - 8 * states[k - 1]
                    + 8 * states[k + 1] - states[k + 2]) / (12 * tau)
            pb = system.power_breakdown(states[k], ydot, times[k])
            defects.append(dh + pb.resistive_loss + pb.eddy_loss
                           + pb.source_power_i + pb.source_power_v)
        return float(np.max(np.abs(defects)))

    coarse = max_defect(2.5e-4)
    fine = max_defect(1.25e-4)
    ratio = coarse / fine
    assert 3.4 <= ratio <= 4.6, f"defect ratio {ratio:.3f} outside [3.4, 4.6]"
    report(3, f"balance defect {coarse:.2e} -> {fine:.2e} W, ratio {ratio:.2f}")


def test_criterion_4_reduction_equivalences(coarse_field):
    """Residuals reduce to the standalone circuit, field, and RLI systems."""
    rng = np.random.default_rng(100)

    # (a) full circuit, no field: all five element kinds exercised
    parsed = parse_netlist("""
        V src 1 0 SIN(10 50)
        I inj 2 0 SIN(0.1 50)
        R r1 1 2 2
        L l1 2 3 0.01
        C c1 3 0 0.001
        D d1 2 0 IS=1e-14 VT=0.025 RP=1e12
    """)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    circuit_sys = assemble_coupled(graph)
    for _ in range(100):
        y = random_state(circuit_sys, rng)
        ydot = random_state(circuit_sys, rng)
        t = float(rng.uniform(0.0, 0.02))
        r = circuit_sys.residual(y, ydot, t)
        r_dense = dense_residual(circuit_sys, y, ydot, t)
        assert np.max(np.abs(r - r_dense)) <= 1e-12 * max(1.0, np.max(np.abs(r_dense)))

    # (b) field only with prescribed winding currents
    field_sys = assemble_coupled(CircuitGraph.empty(n_devices=2), coarse_field)
    lay = field_sys.layout
    m_mat = coarse_field.mass.toarray()
    k_mat = coarse_field.stiffness.toarray()
    x_mat = coarse_field.winding_matrix
    for _ in range(100):
        a = rng.standard_normal(lay.n_a)
        a_dot = rng.standard_normal(lay.n_a)
        i_m = rng.standard_normal(2)
        y = lay.pack([], [], [], np.zeros(2), a)
        ydot = lay.pack([], [], [], i_m, a_dot)
        r = field_sys.residual(y, ydot, 0.0)[lay.block_slice("a")]
        expected = m_mat @ a_dot + k_mat @ a - x_mat @ i_m
        assert np.max(np.abs(r - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    # (c) resistor-inductor-current-source circuit
    parsed = parse_netlist("""
        I isrc 1 0 SIN(2 50)
        R r1 1 2 4
        L l1 2 0 0.5
    """)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    rli_sys = assemble_coupled(graph)
    from conftest import dense_incidence
    a_lin = dense_incidence(graph.branch_pairs["R"], 2)
    a_l = dense_incidence(graph.branch_pairs["L"], 2)
    a_i = dense_incidence(graph.branch_pairs["I"], 2)
    for _ in range(100):
        psi = rng.standard_normal(2)
        psi_dot = rng.standard_normal(2)
        t = float(rng.uniform(0.0, 0.02))
        y = rli_sys.layout.pack(psi, [], [], [], [])
        ydot = rli_sys.layout.pack(psi_dot, [], [], [], [])
        r = rli_sys.residual(y, ydot, t)
        i_src = np.array([w(t) for w in rli_sys.graph.current_waveforms])
        expected = (a_lin @ np.diag(graph.conductance) @ a_lin.T @ psi_dot
                    + a_l @ np.diag(graph.inv_inductance) @ a_l.T @ psi + a_i @ i_src)
        assert np.max(np.abs(r - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
    report(4, "circuit-only, field-only, and RLI reductions match dense oracles")


def test_criterion_5_structure_checks(rectifier):
    """Monotone rate operator, antisymmetric coupling, consistent gradients."""
    _parsed, _graph, system = rectifier
    rng = np.random.default_rng(200)
    compact = system.compact_form()
    for _ in range(1000):
        w = random_state(system, rng, amplitude=1.0)
        assert compact.rate_op(w) @ w >= 0.0

    _, j_rate = system.jacobians(random_state(system, rng),
                                 random_state(system, rng), 0.0)
    j = j_rate.toarray()
    lay = system.layout
    for top, side in (("psi", "q_c"), ("psi", "q_v"), ("psi", "q_m"), ("q_m", "a")):
        b1 = j[lay.block_slice(top), lay.block_slice(side)]
        b2 = j[lay.block_slice(side), lay.block_slice(top)]
        assert np.array_equal(b1, -b2.T)

    # energy gradient and both Jacobians against central differences
    y = random_state(system, rng, amplitude=0.05)
    ydot = random_state(system, rng, amplitude=0.05)
    t = 0.013
    grad = system.energy_gradient(y)
    n = lay.size
    fd_grad = np.zeros(n)
    for j_idx in range(n):
        e = np.zeros(n)
        e[j_idx] = 1e-6
        fd_grad[j_idx] = (system.energy(y + e) - system.energy(y - e)) / 2e-6
    assert np.linalg.norm(grad - fd_grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    j_state, j_rate = system.jacobians(y, ydot, t)
    fd_state = np.zeros((n, n))
    fd_rate = np.zeros((n, n))
    for j_idx in range(n):
        e = np.zeros(n)
        e[j_idx] = 1e-7
        fd_state[:, j_idx] = (system.residual(y + e, ydot, t)
                              - system.residual(y - e, ydot, t)) / 2e-7
        e[j_idx] = 1e-5
        fd_rate[:, j_idx] = (system.residual(y, ydot + e, t)
                             - system.residual(y, ydot - e, t)) / 2e-5
    for exact, fd in ((j_state.toarray(), fd_state), (j_rate.toarray(), fd_rate)):
        denom = max(1.0, np.linalg.norm(exact))
        assert np.linalg.norm(exact - fd) <= 1e-6 * denom
    report(5, "1000 monotonicity samples, coupling antisymmetry, gradient checks")


def test_criterion_6_fem_oracles():
    """Hand-derived element matrices and first-order field convergence."""
    mesh = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   triangles=np.array([[0, 1, 2]]),
                   boundary_vertices=np.array([0, 1, 2]), depth=1.0)
    mats = MaterialMap(reluctivity=np.ones(1), conductivity=np.ones(1))
    k = assemble_stiffness(mesh, mats).toarray()
    m = assemble_mass(mesh, mats).toarray()
    winding = Winding(name="w", triangles=np.array([0]), orientation=np.array([1.0]),
                      turns=10.0)
    x = assemble_winding(mesh, [winding],
                         MaterialMap(reluctivity=np.ones(1), conductivity=np.zeros(1)))
    k_hand = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    m_hand = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    x_hand = np.full((3, 1), 10.0 / 3.0)
    assert np.max(np.abs(k - k_hand)) <= 1e-14
    assert np.max(np.abs(m - m_hand)) <= 1e-14
    assert np.max(np.abs(x - x_hand)) <= 1e-14

    from test_fem import TestManufacturedMagnetostatics
    errors = [TestManufacturedMagnetostatics.energy_error(n) for n in (8, 16, 32)]
    factors = [a / b for a, b in zip(errors, errors[1:])]
    for factor in factors:
        assert 1.7 <= factor <= 2.3, f"energy-norm factor {factor:.3f}"
    report(6, "element matrices exact; energy-norm factors "
           + ", ".join(f"{f:.2f}" for f in factors))


def test_criterion_7_rectifier_behavior(demo_run):
    """Full-wave rectification: sign, doubled frequency, positive mean."""
    v_r = demo_run.probe("v_R")
    times = demo_run.times()
    tau = demo_run.grid.tau
    source_period = 1.0 / 60.0

    assert np.min(v_r) >= -1.0, f"v_R dips to {np.min(v_r):.3f} V"

    tail = times > source_period
    assert np.mean(v_r[tail]) > 0.0

    # period from interpolated upward mean-crossings over the settled tail
    level = 0.5 * (v_r[tail].max() + v_r[tail].min())
    t_tail = times[tail]
    v_tail = v_r[tail]
    crossings = []
    for i in range(1, len(v_tail)):
        if v_tail[i - 1] < level <= v_tail[i]:
            frac = (level - v_tail[i - 1]) / (v_tail[i] - v_tail[i - 1])
            crossings.append(t_tail[i - 1] + frac * tau)
    assert len(crossings) >= 3
    period = float(np.mean(np.diff(crossings)))
    assert abs(period - source_period / 2.0) <= tau, \
        f"v_R period {period:.6f}s vs expected {source_period / 2:.6f}s"
    report(7, f"min v_R {np.min(v_r):.2f} V, period {period * 1e3:.3f} ms, "
           f"mean {np.mean(v_r[tail]):.2f} V")
