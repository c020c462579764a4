"""Midpoint stepping, Newton, power audit, transient driver, order studies."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from conftest import LINEAR_COUPLED_NETLIST, build_from_netlist, random_state
import mona.stepping
from mona.circuit import build_incidence
from mona.coupling import CoupledSystem, assemble_coupled
from mona.demo import build_demo_system
from mona.errors import ConsistencyError, SolverError
from mona.fem import TransformerParams, build_field_model, generate_transformer_mesh
from mona.netlist import parse_netlist
from mona.probes import compile_probe, default_state_probe
from mona.sources import SourceSet, Waveform
from mona.stepping import (
    FactorCache,
    NewtonConfig,
    StepOperator,
    TimeGrid,
    convergence_study,
    midpoint_step,
    newton_solve,
    power_audit,
    run_transient,
)



def rc_discharge_system():
    """Unit capacitor discharging through a unit resistor (time constant 1 s)."""
    parsed = parse_netlist("R r1 1 0 1\nC c1 1 0 1")
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    return assemble_coupled(graph)


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        assert grid.n_steps == 80
        assert grid.time(80) == pytest.approx(0.05)
        assert grid.times().shape == (81,)

    def test_non_integer_span_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(0.0, 0.05, 3e-3)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TimeGrid(0.0, 1.0, 0.0)

    def test_minimum_one_step(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeGrid(0.0, 0.0, 1e-3)

    def test_halved(self):
        grid = TimeGrid(0.0, 0.04, 1e-3)
        assert grid.halved().n_steps == 80


class TestNewtonSolve:
    def test_linear_single_iteration(self):
        mat = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, -2.0])

        def resid(x):
            return mat @ x - rhs

        x, stats = newton_solve(resid, lambda x: sp.csc_matrix(mat), np.zeros(2),
                                NewtonConfig())
        assert stats.iterations == 1
        assert stats.converged
        assert np.allclose(x, np.linalg.solve(mat, rhs))

    def test_scalar_quadratic(self):
        def resid(x):
            return np.array([x[0] ** 2 - 4.0])

        def jac(x):
            return sp.csc_matrix(np.array([[2.0 * x[0]]]))

        x, stats = newton_solve(resid, jac, np.array([3.0]), NewtonConfig())
        assert stats.iterations <= 7
        assert abs(x[0] - 2.0) <= 1e-12

    def test_zero_initial_guess_is_converged(self):
        x, stats = newton_solve(lambda x: np.zeros(2),
                                lambda x: sp.identity(2, format="csc"),
                                np.zeros(2), NewtonConfig())
        assert stats.iterations == 0

    def test_max_iterations_exceeded(self):
        # gradient never pointing at a root: |x| has none
        def resid(x):
            return np.array([abs(x[0]) + 1.0])

        def jac(x):
            return sp.csc_matrix(np.array([[1.0 if x[0] >= 0 else -1.0]]))

        with pytest.raises(SolverError, match="did not converge"):
            newton_solve(resid, jac, np.array([2.0]), NewtonConfig(max_iter=8))

    def test_singular_matrix(self):
        def resid(x):
            return np.array([1.0, 1.0])

        def jac(x):
            return sp.csc_matrix(np.zeros((2, 2)))

        with pytest.raises(SolverError):
            newton_solve(resid, jac, np.zeros(2), NewtonConfig())

    def test_damping_recovers_overshoot(self):
        # atan has tiny curvature tails: full Newton from far away overshoots
        def resid(x):
            return np.arctan(x)

        def jac(x):
            return sp.csc_matrix(np.diag(1.0 / (1.0 + x**2)))

        x, stats = newton_solve(resid, jac, np.array([20.0]), NewtonConfig())
        assert abs(x[0]) <= 1e-12
        assert stats.halvings > 0

    def test_half_wave_toy_needs_little_damping(self):
        # regression bound: stepping a half-wave rectifier through the source
        # peak takes at most a few damping events per step
        parsed = parse_netlist("""
            V src 1 0 SIN(10 50)
            D d1 1 2 IS=1e-14 VT=0.025 RP=1e12
            R load 2 0 10
        """)
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        result = run_transient(system, TimeGrid(0.0, 0.01, 2.5e-4))
        assert max(rec.newton.halvings for rec in result.records) <= 3


class TestMidpointStep:
    def test_rc_discharge_factor(self):
        # the capacitor charge obeys q' = -q/(RC); one midpoint step must
        # multiply it by (1 - tau/2RC)/(1 + tau/2RC)
        system = rc_discharge_system()
        tau = 0.1
        q0 = 1.7
        y0 = system.layout.pack([0.0], [q0], [], [], [])
        y1, record = midpoint_step(system, y0, 0.0, tau)
        factor = (1 - tau / 2.0) / (1 + tau / 2.0)
        assert factor == pytest.approx(0.95 / 1.05)
        q1 = y1[system.layout.block_slice("q_c")][0]
        assert q1 == pytest.approx(q0 * factor, rel=1e-12)
        assert record.newton.residual_norm <= 1e-12

    def test_zero_equilibrium_preserved(self):
        system = rc_discharge_system()
        y0 = system.layout.zeros()
        y1, record = midpoint_step(system, y0, 0.0, 0.05)
        assert np.array_equal(y1, y0)
        assert record.newton.iterations == 0

    def test_rejects_bad_inputs(self):
        system = rc_discharge_system()
        y0 = system.layout.zeros()
        with pytest.raises(ValueError, match="positive"):
            midpoint_step(system, y0, 0.0, -0.1)
        y0[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            midpoint_step(system, y0, 0.0, 0.1)

    def test_rectifier_switching_iteration_bound(self, rectifier):
        # regression bound: diode turn-on at the demo step size stays cheap
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        result = run_transient(system, grid)
        assert max(r.newton.iterations for r in result.records) <= 10

    def test_time_reversibility_linear(self, linear_coupled):
        # midpoint is its own adjoint: solving the same step equation for the
        # old state from the new one must return to the start
        _parsed, _graph, system = linear_coupled
        tau = 1e-3
        grid = TimeGrid(0.0, 5e-3, tau)
        result = run_transient(system, grid)
        y0 = result.records[-2].state
        y1 = result.records[-1].state
        t_prev = result.records[-2].time
        t_mid = t_prev + tau / 2

        def resid(z):
            return system.residual(0.5 * (z + y1), (y1 - z) / tau, t_mid)

        def jac(z):
            j_state, j_rate = system.jacobians(0.5 * (z + y1), (y1 - z) / tau, t_mid)
            return 0.5 * j_state - j_rate / tau

        y0_back, _stats = newton_solve(resid, jac, np.array(y1), NewtonConfig())
        scale = np.max(np.abs(y0)) + 1.0
        assert np.max(np.abs(y0_back - y0)) <= 1e-9 * scale


def full_space_run(system, grid):
    """run_transient's step loop with one LU of the whole iteration matrix."""
    operator = StepOperator(system, grid.tau)
    cache = FactorCache()
    y, z_pred, records = system.layout.zeros(), None, []
    for n in range(1, grid.n_steps + 1):
        y_next, rec = midpoint_step(system, y, grid.time(n - 1), grid.tau, cache=cache,
                                    index=n, increment_hint=z_pred, operator=operator)
        z_pred, y = y_next - y, y_next
        records.append(rec)
    return records


class TestBlockElimination:
    @pytest.mark.parametrize("h", [0.025, 0.0125])
    def test_solve_matches_full_matrix(self, h):
        system = build_demo_system(mesh_density=h).system
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        cache = FactorCache(n_trailing=system.layout.n_a)
        rng = np.random.default_rng(3)
        for _ in range(2):  # the second refactor reuses the field factorization
            z = 1e-3 * random_state(system, rng)
            matrix = operator.matrix(z)
            cache.refactor(matrix)
            for _ in range(3):
                rhs = rng.standard_normal(system.layout.size)
                x_ref = spsolve(matrix, rhs)
                err = np.max(np.abs(cache.solve(rhs) - x_ref))
                assert err <= 1e-12 * np.max(np.abs(x_ref))

    def test_stamp_reproduces_the_jacobians(self, rectifier):
        _parsed, _graph, system = rectifier
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        rng = np.random.default_rng(4)
        y, z = random_state(system, rng), 1e-3 * random_state(system, rng)
        j_state, j_rate = system.jacobians(y, z / tau, 0.0)
        expected = (0.5 * j_state + j_rate / tau).toarray()
        assert np.array_equal(operator.matrix(z).toarray(), expected)

    def test_transient_matches_full_space_run(self, rectifier):
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        result = run_transient(system, grid)
        reference = full_space_run(system, grid)
        states = result.states()
        ref_states = np.array([rec.state for rec in reference])
        assert np.max(np.abs(states - ref_states)) <= 1e-12 * np.max(np.abs(ref_states))
        for field_name in ("iterations", "factorizations", "halvings"):
            assert (sum(getattr(rec.newton, field_name) for rec in result.records)
                    == sum(getattr(rec.newton, field_name) for rec in reference))

    def test_linear_transformer_takes_one_iteration_per_step(self):
        # the field unknowns come from one back-substitution, not as a
        # difference of larger terms, so a linear step lands within tol at once
        field = build_field_model(*generate_transformer_mesh(TransformerParams(), 0.00625))
        _parsed, _graph, system = build_from_netlist(LINEAR_COUPLED_NETLIST, field)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert [rec.newton.iterations for rec in result.records[1:]] == [1] * 79
        assert sum(rec.newton.factorizations for rec in result.records) == 1

    def test_operator_checks_its_step_size(self, rlc):
        _parsed, _graph, system = rlc
        operator = StepOperator(system, 1e-3)
        with pytest.raises(ValueError, match="step size"):
            midpoint_step(system, system.layout.zeros(), 0.0, 5e-4, operator=operator)


class TestStepConstants:
    """What is constant over a run is built once; a step evaluates only what
    depends on its state."""

    def test_evaluator_calls_per_step(self, linear_coupled, monkeypatch):
        # the residual of the zero increment is the constant part itself, so a
        # one-iteration step evaluates rate_op at the start and at the Newton
        # iterate, and energy_gradient once more for the constant part
        _parsed, _graph, system = linear_coupled
        calls = {"rate_op": 0, "energy_gradient": 0}
        per_step = []
        compact_form = CoupledSystem.compact_form
        energy_gradient = CoupledSystem.energy_gradient
        step = mona.stepping.midpoint_step

        def counted_compact_form(self):
            form = compact_form(self)

            def rate_op(ydot):
                calls["rate_op"] += 1
                return form.rate_op(ydot)

            return dataclasses.replace(form, rate_op=rate_op)

        def counted_gradient(self, y):
            calls["energy_gradient"] += 1
            return energy_gradient(self, y)

        def counted_step(*args, **kwargs):
            before = dict(calls)
            out = step(*args, **kwargs)
            per_step.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(CoupledSystem, "compact_form", counted_compact_form)
        monkeypatch.setattr(CoupledSystem, "energy_gradient", counted_gradient)
        monkeypatch.setattr(mona.stepping, "midpoint_step", counted_step)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert [rec.newton.iterations for rec in result.records] == [1] * 80
        assert per_step == [{"rate_op": 2, "energy_gradient": 3}] * 80

    def test_limiter_built_once_per_run(self, rectifier, monkeypatch):
        _parsed, _graph, system = rectifier
        pinv = np.linalg.pinv
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(result.records) == 80
        assert len(calls) == 1


class TestPowerAudit:
    def test_balance_at_newton_scale(self, linear_coupled):
        _parsed, _graph, system = linear_coupled
        grid = TimeGrid(0.0, 0.02, 1e-3)
        result = run_transient(system, grid)
        for rec in result.records:
            bound = 100 * 1e-12 * max(1.0, abs(rec.audit.dh_dt))
            assert abs(rec.audit.residual) <= bound

    def test_detects_perturbed_state(self, linear_coupled):
        _parsed, _graph, system = linear_coupled
        tau = 1e-3
        grid = TimeGrid(0.0, 5e-3, tau)
        result = run_transient(system, grid)
        y_prev = result.records[-2].state
        y_next = result.records[-1].state
        t_prev = result.records[-2].time
        clean = power_audit(system, y_prev, y_next, tau, t_prev)
        assert abs(clean.residual) <= 1e-10
        tampered = y_next + 1e-6
        dirty = power_audit(system, y_prev, tampered, tau, t_prev)
        assert abs(dirty.residual) > 1e-8

    def test_energy_evaluated_once_per_state(self, linear_coupled, monkeypatch):
        parsed, _graph, system = linear_coupled
        energy = CoupledSystem.energy
        calls = []

        def counted(self, y):
            calls.append(1)
            return energy(self, y)

        monkeypatch.setattr(CoupledSystem, "energy", counted)
        tau = 1e-3
        grid = TimeGrid(0.0, 0.02, tau)
        result = run_transient(system, grid,
                               probes={"h": compile_probe(system, "H", parsed.node_ids)})
        assert len(calls) == grid.n_steps + 1
        monkeypatch.undo()

        h_prev = system.energy(system.layout.zeros())
        for rec, h_probe in zip(result.records, result.probe("h")):
            assert rec.energy == system.energy(rec.state)
            assert h_probe == rec.energy
            assert rec.audit.dh_dt == (rec.energy - h_prev) / tau
            h_prev = rec.energy
        assert np.array_equal(result.energies(), [rec.energy for rec in result.records])

    def test_pure_dissipation_decays(self):
        system = rc_discharge_system()
        tau = 0.05
        y = system.layout.pack([0.0], [2.0], [], [], [])
        t = 0.0
        cache = FactorCache()
        for n in range(1, 21):
            y_next, rec = midpoint_step(system, y, t, tau, cache=cache, index=n)
            assert rec.audit.dh_dt <= 0.0
            y, t = y_next, n * tau


class TestRunTransient:
    def test_zero_sources_stay_zero(self, rlc):
        parsed, graph, _system = rlc
        system = assemble_coupled(graph, sources=SourceSet(voltage=(Waveform.dc(0.0),)))
        grid = TimeGrid(0.0, 0.01, 1e-3)
        probes = {"u2": compile_probe(system, "u(2)", parsed.node_ids),
                  "h": compile_probe(system, "H", parsed.node_ids)}
        result = run_transient(system, grid, probes=probes)
        assert np.all(result.probe("u2") == 0.0)
        assert np.all(result.probe("h") == 0.0)

    def test_inconsistent_start_rejected(self):
        parsed = parse_netlist("V src 1 0 DC 5\nR r1 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        with pytest.raises(ConsistencyError, match="vanish at t0"):
            run_transient(system, TimeGrid(0.0, 0.01, 1e-3))

    def test_non_finite_source_rejected(self):
        parsed = parse_netlist("V src 1 0 SIN(1 60)\nR r1 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph, sources=SourceSet(
            voltage=(Waveform.sine(float("nan"), 60.0),)))
        with pytest.raises(ConsistencyError, match="residual nan"):
            run_transient(system, TimeGrid(0.0, 0.01, 1e-3))

    def test_record_bookkeeping(self, rlc):
        _parsed, _graph, system = rlc
        grid = TimeGrid(0.0, 0.01, 1e-3)
        result = run_transient(system, grid)
        assert len(result.records) == grid.n_steps
        times = result.times()
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(0.01)
        for rec in result.records:
            assert rec.newton.residual_norm <= 1e-12

    def test_energy_decays_after_source_cutoff(self, rlc):
        # drive the circuit, then continue stepping with the source zeroed:
        # the stored energy must be non-increasing from then on
        parsed, graph, _system = rlc
        driven = assemble_coupled(graph)
        result = run_transient(driven, TimeGrid(0.0, 0.02, 5e-4))
        y = result.records[-1].state

        quiet = assemble_coupled(graph, sources=SourceSet(voltage=(Waveform.dc(0.0),)))
        cache = FactorCache()
        t = 0.0
        h_prev = quiet.energy(y)
        for n in range(1, 41):
            y, rec = midpoint_step(quiet, y, t, 5e-4, cache=cache, index=n)
            h_now = quiet.energy(y)
            assert h_now <= h_prev + 1e-12
            h_prev = h_now
            t = n * 5e-4

    def test_partial_result_attached_on_failure(self, rectifier):
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 5e-3)
        config = NewtonConfig(max_iter=1)
        with pytest.raises(SolverError) as excinfo:
            run_transient(system, grid, config=config)
        partial = excinfo.value.partial_result
        assert not partial.completed


class TestProbes:
    def test_probe_consistency(self, rlc):
        parsed, graph, system = rlc
        grid = TimeGrid(0.0, 0.02, 5e-4)
        probes = {
            "v_r": compile_probe(system, "v(r1)", parsed.node_ids),
            "i_r": compile_probe(system, "i(r1)", parsed.node_ids),
            "i_c": compile_probe(system, "i(c1)", parsed.node_ids),
            "i_l": compile_probe(system, "i(l1)", parsed.node_ids),
            "u1": compile_probe(system, "u(1)", parsed.node_ids),
            "v_src": compile_probe(system, "v(src)", parsed.node_ids),
            "psi3": compile_probe(system, "psi(3)", parsed.node_ids),
            "h": compile_probe(system, "H", parsed.node_ids),
        }
        result = run_transient(system, grid, probes=probes)
        # Ohm's law on the series resistor
        assert np.allclose(result.probe("i_r"), 0.5 * result.probe("v_r"), rtol=1e-12)
        # the series branch carries one current
        assert np.allclose(result.probe("i_r"), result.probe("i_c"), rtol=1e-9, atol=1e-12)
        # source branch voltage equals the node-1 potential here
        assert np.allclose(result.probe("v_src"), result.probe("u1"), rtol=1e-12)
        assert np.all(result.probe("h") >= 0.0)

    def test_bad_expression_rejected(self, rlc):
        parsed, _graph, system = rlc
        with pytest.raises(ValueError, match="cannot parse"):
            compile_probe(system, "flux[1]", parsed.node_ids)
        with pytest.raises(KeyError):
            compile_probe(system, "v(nope)", parsed.node_ids)

    def test_default_probe_targets_load_node(self, rlc):
        parsed, graph, system = rlc
        probe = default_state_probe(system)
        grid = TimeGrid(0.0, 0.01, 1e-3)
        result = run_transient(system, grid, probes={
            "def": probe, "psi1": compile_probe(system, "psi(1)", parsed.node_ids)})
        # first linear resistor is r1 with plus node 1
        assert np.allclose(result.probe("def"), result.probe("psi1"))


class TestConvergenceStudy:
    def test_rlc_second_order(self, rlc):
        parsed, _graph, system = rlc
        probe = compile_probe(system, "psi(3)", parsed.node_ids)
        rows = convergence_study(system, TimeGrid(0.0, 0.04, 1e-3),
                                 halvings=2, probe=probe)
        assert len(rows) == 3
        assert rows[0].order is None
        for row in rows[1:]:
            assert 1.9 <= row.order <= 2.1
        # halving tau cuts the error by about four
        assert rows[0].error / rows[1].error == pytest.approx(4.0, rel=0.15)
        for row in rows:
            assert row.max_balance_residual <= 1e-10

    def test_requires_halvings(self, rlc):
        _parsed, _graph, system = rlc
        with pytest.raises(ValueError, match="halving"):
            convergence_study(system, TimeGrid(0.0, 0.04, 1e-3), halvings=0,
                              probe=lambda ctx: 0.0)
