"""Midpoint stepping, Newton, power audit, transient driver, order studies."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from conftest import (LINEAR_COUPLED_NETLIST, SOURCE_CAPACITOR_NETLISTS, build_from_netlist,
                      random_state, reference_newton, state_probe)
import mona.circuit
import mona.coupling
import mona.stepping
from mona.circuit import build_incidence, diode_critical_voltage, diode_voltage_limit
from mona.coupling import CoupledSystem, assemble_coupled
from mona.demo import DEMO_NETLIST, assemble_netlist
from mona.errors import ConsistencyError, SolverError
from mona.fem import TransformerParams, build_field_model, factor_spd, generate_transformer_mesh
from mona.netlist import parse_netlist
from mona.probes import compile_probe, default_state_probe
from mona.sources import Waveform
from mona.stepping import (
    DIODE_GROWTH_LIMIT,
    NEWTON_TOL,
    FactorCache,
    StepOperator,
    StepState,
    TimeGrid,
    convergence_study,
    midpoint_step,
    power_audit,
    run_transient,
)



# a half-wave rectifier with a smoothing capacitor and no field block
VDRC_NETLIST = "V src 1 0 SIN(10 50)\nD d1 1 2 IS=1e-12 VT=0.025 RP=1e9\nR load 2 0 100\nC c1 2 0 1e-4\n"


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
    """The step's Newton loop, newton_solve, on real midpoint steps."""

    def test_linear_step_takes_one_iteration_once_a_factor_exists(self, rlc):
        # the first step factors; the second reuses that factorization and
        # lands on the root of the linear step J_lin z = -c at once
        _parsed, _graph, system = rlc
        tau = 1e-3
        operator = StepOperator(system, tau)
        start, first = midpoint_step(operator, StepState(system, system.layout.zeros()), 0.0)
        assert (first.newton.iterations, first.newton.factorizations) == (1, 1)
        reached, record = midpoint_step(operator, start, tau)
        assert (record.newton.iterations, record.newton.factorizations) == (1, 0)
        const_part = system.energy_gradient(start.y) - system.source_vector(1.5 * tau)
        expected = spsolve(operator.matrix.tocsc(), -const_part)
        assert np.allclose(reached.y - start.y, expected, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(expected)))

    def test_rectifier_steps_converge(self, rectifier):
        # diode switching takes several iterations per step; each step ends
        # within the tolerance on the full-space residual
        _parsed, _graph, system = rectifier
        result = run_transient(system, TimeGrid(0.0, 0.0125, 6.25e-4))
        stats = [rec.newton for rec in result.records]
        assert max(s.iterations for s in stats) >= 3
        assert all(s.residual_norm <= NEWTON_TOL for s in stats)

    def test_zero_increment_root_takes_no_iteration(self, rlc):
        # with its source at DC 0 the circuit stays at rest: the zero
        # increment is the root, which Newton returns without a solve
        _parsed, graph, _system = rlc
        system = assemble_coupled(
            dataclasses.replace(graph, voltage_waveforms=(Waveform.dc(0.0),)))
        result = run_transient(system, TimeGrid(0.0, 0.005, 1e-3))
        assert [(rec.newton.iterations, rec.newton.factorizations)
                for rec in result.records] == [(0, 0)] * 5

    def test_max_iterations_exceeded(self, rectifier, monkeypatch):
        _parsed, _graph, system = rectifier
        monkeypatch.setattr(mona.stepping, "MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"^step 1 \(t=0, .*\): Newton did not converge "
                           r"in 1 iterations \(residual"):
            run_transient(system, TimeGrid(0.0, 0.05, 5e-3))

    def test_singular_matrix(self, monkeypatch):
        # a current source into a resistor: the iteration matrix is the one
        # stamped entry, which a stamp of zero makes exactly singular
        system = build_from_netlist("I src 1 0 SIN(1 50)\nR r1 1 0 1\n")[2]
        operator = StepOperator(system, 1e-3)
        assert operator.n_circuit == operator.cache.rows.size == 1
        monkeypatch.setattr(StepOperator, "stamp", lambda self, slopes: np.zeros(1))
        with pytest.raises(SolverError, match="matrix is exactly singular"):
            midpoint_step(operator, StepState(system, system.layout.zeros()), 0.0)

    def test_damped_steps_converge(self, rectifier):
        # at tau = 1.25e-3 two steps of the coarse rectifier halve a Newton
        # step on the way; both still end within the tolerance
        _parsed, _graph, system = rectifier
        result = run_transient(system, TimeGrid(0.0, 0.05, 1.25e-3))
        damped = [rec.newton for rec in result.records if rec.newton.halvings]
        assert damped
        assert all(s.residual_norm <= NEWTON_TOL for s in damped)

    def test_limited_step_is_a_state_difference(self):
        # the step after a limiter that returns the proposal z + dz as it
        # is, is (z + dz) - z, not dz: the two round differently
        rng = np.random.default_rng(2)
        z, dz = rng.standard_normal(50), 1e-3 * rng.standard_normal(50)
        assert not np.array_equal((z + dz) - z, dz)
        step, was_limited = mona.stepping._limited(lambda z_old, z_new: z_new, z, dz)
        assert np.array_equal(step, (z + dz) - z) and not was_limited
        halved = z + 0.5 * dz
        step, was_limited = mona.stepping._limited(lambda z_old, z_new: halved, z, dz)
        assert np.array_equal(step, halved - z) and was_limited
        step, was_limited = mona.stepping._limited(None, z, dz)
        assert step is dz and not was_limited

    def test_exact_newton_after_the_first_iteration(self, rectifier, monkeypatch):
        # a step's first iteration reuses the factorization the step before
        # left behind (the run's first step has none); every later one
        # refactors at its own iterate, from the very slopes its residual
        # evaluation gave
        _parsed, _graph, system = rectifier
        refactor, reduced_residual = mona.stepping._refactor, StepOperator.reduced_residual
        seen, asked = [], []

        def counted_residual(self, z_c, c_hat):
            out = reduced_residual(self, z_c, c_hat)
            seen.append((z_c, out[2]))
            return out

        def counted_refactor(operator, z_c, slopes, *args):
            asked.append((z_c, slopes))
            return refactor(operator, z_c, slopes, *args)

        monkeypatch.setattr(StepOperator, "reduced_residual", counted_residual)
        monkeypatch.setattr(mona.stepping, "_refactor", counted_refactor)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        stats = [rec.newton for rec in result.records]
        assert stats[0].factorizations == stats[0].iterations > 0
        assert all(s.factorizations == s.iterations - 1 for s in stats[1:])
        assert sum(s.factorizations for s in stats) == len(asked) > len(stats)
        assert all(any(z is z_seen and g is g_seen for z_seen, g_seen in seen)
                   for z, g in asked)

    @staticmethod
    def step_with_carried_solve(system, monkeypatch, carried):
        """The coarse rectifier's sixth step twice from the same start: with
        the factorization its fifth step left behind, whose first solve
        returns ``carried(dz)`` in place of dz, and from an operator without
        a factorization, which factors at the start.  Returns per run the
        reached state, the record and the number of solves."""
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        start = StepState(system, system.layout.zeros())
        for n in range(1, 6):
            start, _rec = midpoint_step(operator, start, (n - 1) * tau, index=n)
        solve = FactorCache.solve
        runs = []
        for op, change in ((operator, carried), (StepOperator(system, tau), None)):
            solves = []

            def counted(cache, b_c):
                solves.append(cache)
                dz = solve(cache, b_c)
                return change(dz) if change and len(solves) == 1 else dz

            monkeypatch.setattr(FactorCache, "solve", counted)
            runs.append((*midpoint_step(op, start, 5 * tau, index=6), len(solves)))
        return runs

    @pytest.mark.parametrize("carried, halvings", [
        (lambda dz: np.full_like(dz, np.nan), 0),        # a non-finite step
        (np.zeros_like, mona.stepping.MAX_HALVINGS + 1),  # no descent: search exhausted
    ], ids=["non-finite-step", "exhausted-search"])
    def test_failed_carried_factorization_redoes_the_iteration(self, rectifier, monkeypatch,
                                                               carried, halvings):
        # the first iteration is redone once from a factorization at the same
        # iterate: the step then is that of an operator with no factorization
        # to carry, with one solve more, the same iterations and
        # factorizations, and the failed search's halvings added
        _parsed, _graph, system = rectifier
        (state, record, solves), (ref_state, ref, ref_solves) = (
            self.step_with_carried_solve(system, monkeypatch, carried))
        assert ref.newton.iterations == ref.newton.factorizations >= 1
        assert np.array_equal(state.y, ref_state.y)
        assert solves == ref_solves + 1
        assert record.newton.iterations == ref.newton.iterations
        assert record.newton.factorizations == ref.newton.factorizations
        assert record.newton.halvings == ref.newton.halvings + halvings

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
        state, record = midpoint_step(StepOperator(system, tau), StepState(system, y0), 0.0)
        factor = (1 - tau / 2.0) / (1 + tau / 2.0)
        assert factor == pytest.approx(0.95 / 1.05)
        q1 = state.y[system.layout.block_slice("q_c")][0]
        assert q1 == pytest.approx(q0 * factor, rel=1e-12)
        assert record.newton.residual_norm <= 1e-12

    def test_zero_equilibrium_preserved(self):
        system = rc_discharge_system()
        y0 = system.layout.zeros()
        state, record = midpoint_step(StepOperator(system, 0.05), StepState(system, y0), 0.0)
        assert np.array_equal(state.y, y0)
        assert record.newton.iterations == 0

    def test_rejects_bad_inputs(self):
        system = rc_discharge_system()
        y0 = system.layout.zeros()
        with pytest.raises(ValueError, match="positive"):
            StepOperator(system, -0.1)
        y0[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            midpoint_step(StepOperator(system, 0.1), StepState(system, y0), 0.0)

    def test_states_are_read_only(self, rectifier):
        _parsed, _graph, system = rectifier
        start = StepState(system, system.layout.zeros())
        reached, _record = midpoint_step(StepOperator(system, 6.25e-4), start, 0.0)
        arrays = [start.y, start.element_values, reached.y, reached.element_values, reached.rate,
                  reached.increment]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_state_is_a_copy(self, rectifier):
        # a caller's array scaled in place after StepState(system, y) changes
        # neither
        # the state nor the step from it, bit for bit.  When a step took G a
        # from the array it had returned last, this cost 2 W of balance
        _parsed, _graph, system = rectifier
        tau = 6.25e-4
        run = run_transient(system, TimeGrid(0.0, 2 * tau, tau), probes={"y": state_probe})
        y = run.probe("y")[-1]
        kept = y.copy()
        state = StepState(system, y)
        y *= 1.5
        assert np.array_equal(state.y, kept)
        assert state.energy == system.energy(kept)
        reached, record = midpoint_step(StepOperator(system, tau), state, 2 * tau, index=3)
        expected, expected_record = midpoint_step(StepOperator(system, tau),
                                                  StepState(system, kept), 2 * tau, index=3)
        assert np.array_equal(reached.y, expected.y)
        assert record.audit == expected_record.audit
        assert abs(record.audit.residual) <= mona.stepping.EPS_H_ABS_BOUND

    def test_state_energy_is_that_of_its_y(self, rectifier):
        # a state forms G a and its energy from its own y: neither can be
        # handed in, reassigned or replaced.  A state that took the energy of
        # another y on trust once cost 1.98 W of balance on the demo
        _parsed, _graph, system = rectifier
        y = random_state(system, np.random.default_rng(1))
        state = StepState(system, y)
        values = system.element_values(y)
        assert np.array_equal(state.element_values, values)
        assert state.energy == system.energy(y, values)
        with pytest.raises(TypeError):
            StepState(y, values, 1.0)
        with pytest.raises(TypeError):
            StepState(system, y, energy=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.energy = 1.0
        with pytest.raises(TypeError):
            dataclasses.replace(state, energy=1.0)

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
        result = run_transient(system, grid, probes={"y": state_probe})
        y0, y1 = result.probe("y")[-2:]
        t_prev = result.records[-2].time
        t_mid = t_prev + tau / 2

        def resid(z):
            return system.residual(0.5 * (z + y1), (y1 - z) / tau, t_mid)

        def jac(z):
            j_state, j_rate = system.jacobians(0.5 * (z + y1), (y1 - z) / tau, t_mid)
            return (0.5 * j_state - j_rate / tau).toarray()

        y0_back = reference_newton(resid, jac, y1)
        scale = np.max(np.abs(y0)) + 1.0
        assert np.max(np.abs(y0_back - y0)) <= 1e-9 * scale


def iteration_matrix(system, tau, z):
    """The midpoint iteration matrix 0.5*J_state + J_rate/tau at the state
    increment z, from ``system.jacobians``."""
    j_state, j_rate = system.jacobians(system.layout.zeros(), z / tau, 0.0)
    return (0.5 * j_state + j_rate / tau).tocsc()


def stamp_at(operator, z):
    """The operator's stamp at the state increment z, from the diode slopes
    there."""
    k = operator.n_circuit
    return operator.stamp(operator.system.diode_rows(z[:k] / operator.tau)[1])


def stamped_matrix(operator, z):
    """The step matrix with the stamp at z written in: the iteration matrix
    that the cache factors after ``refactor(stamp_at(operator, z))``."""
    matrix = operator.matrix.tolil()
    matrix[operator.cache.rows, operator.cache.cols] = stamp_at(operator, z)
    return matrix.tocsc()


def assert_magnitude_exact(operator, matrix):
    """``operator.full_magnitude`` of every unit vector is the column of
    |matrix|, bit for bit: each entry of |J| e_j is one term, so it is exact
    whatever the order of the sum."""
    columns = np.column_stack([operator.full_magnitude(e) for e in np.eye(matrix.shape[0])])
    assert np.array_equal(columns, abs(matrix).toarray())


def definitional_residual(system, tau, const_part):
    """The midpoint step residual at the increment z from its definition:
    rate_op(z/tau) + const_part + 0.5 J_state z."""
    rate_op = system.compact_form().rate_op
    zero = system.layout.zeros()
    j_state, _j_rate = system.jacobians(zero, zero, 0.0)
    return lambda z: rate_op(z / tau) + const_part + 0.5 * (j_state @ z)


def full_space_states(system, grid):
    """The states of run_transient's steps solved by the reference Newton on
    all unknowns from the definitional residual, with a sparse LU of the
    whole iteration matrix from ``system.jacobians`` at each iterate."""
    tau = grid.tau
    limiter = StepOperator(system, tau).limiter
    y, z, states = system.layout.zeros(), system.layout.zeros(), []
    for n in range(1, grid.n_steps + 1):
        f = system.source_vector(grid.time(n - 1) + 0.5 * tau)
        const_part = system.energy_gradient(y) - f
        magnitude = np.abs(const_part)
        scale = mona.stepping._block_scale(system.layout, np.maximum(np.abs(f), magnitude))
        z = reference_newton(definitional_residual(system, tau, const_part),
                             lambda z: iteration_matrix(system, tau, z), z, scale, magnitude,
                             limiter)
        y_next = y + z
        z, y = y_next - y, y_next  # the next hint, as run_transient's
        states.append(y)
    return np.array(states)


class TestBlockElimination:
    @pytest.mark.parametrize("h", [0.025, 0.0125])
    def test_solve_matches_full_matrix(self, h):
        # full_solve solves with the whole iteration matrix; the cache's
        # solve, on the circuit unknowns, with the Schur complement it factored
        system = assemble_netlist(DEMO_NETLIST, mesh_density=h).system
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        cache = operator.cache
        k = operator.n_circuit
        rng = np.random.default_rng(3)
        for _ in range(2):  # the second refactor reuses the field factorization
            z = 1e-3 * random_state(system, rng)
            matrix = iteration_matrix(system, tau, z)
            cache.refactor(stamp_at(operator, z))
            schur = cache.schur_complement(stamp_at(operator, z))
            for _ in range(3):
                rhs = rng.standard_normal(system.layout.size)
                x_ref = spsolve(matrix, rhs)
                err = np.max(np.abs(operator.full_solve(rhs) - x_ref))
                assert err <= 1e-12 * np.max(np.abs(x_ref))
                x_c = cache.solve(rhs[:k])
                terms = np.max(np.abs(schur) @ np.abs(x_c))
                assert np.max(np.abs(schur @ x_c - rhs[:k])) <= 1e-12 * terms

    def test_stamp_reproduces_the_jacobians(self):
        # the dense Schur complement the cache factors, and the |J| of the
        # Newton floor, equal those formed from the whole step matrix with
        # the stamp written in, bit for bit; that matrix is the iteration
        # matrix of system.jacobians, to rounding
        tau = 6.25e-4
        rng = np.random.default_rng(4)
        for h in (0.025, 0.0125):
            system = assemble_netlist(DEMO_NETLIST, mesh_density=h).system
            operator = StepOperator(system, tau)
            cache = operator.cache
            k = system.layout.n_circuit
            for _ in range(2):  # both S share the field elimination
                z = 1e-3 * random_state(system, rng)
                matrix = stamped_matrix(operator, z)
                lu_aa = factor_spd(matrix[k:, k:])
                v = lu_aa.solve(matrix[:k, k:].T.toarray(), trans="T").T
                expected = matrix[:k, :k].toarray() - v @ matrix[k:, :k]
                schur = cache.schur_complement(stamp_at(operator, z))
                assert np.array_equal(schur, expected)
                cache.refactor(stamp_at(operator, z))
                assert_magnitude_exact(operator, matrix)
                # on the circuit unknowns the magnitude is (|J_cc| + |W|) |x|
                columns = np.column_stack([cache.magnitude(e) for e in np.eye(k)])
                w = v @ matrix[k:, :k]
                assert np.array_equal(columns, abs(matrix[:k, :k]).toarray() + np.abs(w))
                jacobians = iteration_matrix(system, tau, z)
                assert abs(matrix - jacobians).max() <= 1e-14 * abs(jacobians).max()

    def test_reduced_residual_is_the_eliminated_step_residual(self, rectifier):
        # the circuit rows of the step residual, at the field increment that
        # zeroes its field rows, are L z_c + c_hat + A_d i_d(A_d^T z_c / tau)
        _parsed, _graph, system = rectifier
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        cache = operator.cache
        k = system.layout.n_circuit
        rng = np.random.default_rng(6)
        const_part = system.energy_gradient(random_state(system, rng)) - system.source_vector(0.01)
        c_hat = operator.condense(const_part)
        step_residual = definitional_residual(system, tau, const_part)
        for amplitude in (1e-6, 1e-4, 1e-3):
            z = amplitude * random_state(system, rng)
            z[k:] = operator.back_substitute(-const_part[k:], z[:k])
            full = step_residual(z)
            reduced, rows, slopes = operator.reduced_residual(z[:k], c_hat)
            for got, expected in zip((rows, slopes), system.diode_rows(z[:k] / tau)):
                assert np.array_equal(got, expected)
            terms = np.max(np.abs(const_part)) + np.max(np.abs(full))
            assert np.max(np.abs(reduced - full[:k])) <= 1e-12 * terms
            # the field rows are solved, to rounding
            assert np.max(np.abs(full[k:])) <= 1e-12 * terms
            # the stamp from the slopes that came with the diode currents is
            # the psi/psi block of system.jacobians, to rounding
            stamp = operator.stamp(slopes)
            expected = iteration_matrix(system, tau, z)[cache.rows, cache.cols].A1
            assert np.allclose(stamp, expected, rtol=0.0, atol=1e-14 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("fixture", ["rectifier", "linear_coupled", "vdrc"])
    def test_step_matrix_residual_is_the_definitional_residual(self, fixture, request):
        # J_lin z + c + [A_d i_d(A_d^T z_c/tau); 0] is rate_op(z/tau) + c
        # + 0.5 J_state z, to rounding in the terms of either.  c comes from
        # a state as small as z, so it does not hide the matrix terms
        if fixture == "vdrc":
            system = build_from_netlist(VDRC_NETLIST)[2]
        else:
            system = request.getfixturevalue(fixture)[2]
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        rng = np.random.default_rng(9)
        zero = system.layout.zeros()
        j_state, j_rate = system.jacobians(zero, zero, 0.0)
        for amplitude in (1e-3, 0.1, 0.5):  # diode voltages of about that many volts
            z, y = amplitude * tau * rng.standard_normal((2, system.layout.size))
            const_part = system.energy_gradient(y) - system.source_vector(0.01)
            expected = definitional_residual(system, tau, const_part)(z)
            terms = ((abs(operator.matrix) + 0.5 * abs(j_state) + abs(j_rate) / tau) @ np.abs(z)
                     + np.abs(const_part) + np.abs(expected - operator.matrix @ z - const_part))
            assert np.all(np.abs(operator.residual(z, const_part) - expected) <= 1e-14 * terms)

    @pytest.mark.parametrize("n_trailing", [0, 1])
    def test_singular_circuit_block_raises(self, n_trailing):
        # S = [[1.5, 2], [0.5, 1]] - W is exactly singular with
        # W = [[0.5, 0], [0, 0]], which eliminating a trailing block [[2]]
        # coupled to the first unknown by 1 adds
        w = np.array([[0.5, 0.0], [0.0, 0.0]])
        block = np.array([[1.5, 2.0], [0.5, 1.0]])
        if not n_trailing:
            w, block = np.zeros((2, 2)), block - w
        rows, cols = np.indices((2, 2)).reshape(2, -1)
        cache = FactorCache(np.zeros((2, 2)), w, rows, cols)
        with pytest.raises(SolverError, match="factorization failed: matrix is exactly singular"):
            cache.refactor(block[rows, cols])
        assert not cache.ready
        cache.refactor((block + np.eye(2))[rows, cols])
        assert cache.ready

    def test_one_refactor_call_per_factorization(self, rectifier, monkeypatch):
        # the benchmark's tracer counts factorizations by FactorCache.refactor
        # calls, so no factorization may happen outside it, nor a call without one
        _parsed, _graph, system = rectifier
        calls = []
        refactor = FactorCache.refactor

        def counted(cache, block):
            calls.append(block)
            return refactor(cache, block)

        monkeypatch.setattr(FactorCache, "refactor", counted)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(calls) == sum(rec.newton.factorizations for rec in result.records) > 0

    @pytest.mark.parametrize("h", [0.025, 0.0125])
    def test_transient_matches_full_space_run(self, h):
        system = assemble_netlist(DEMO_NETLIST, mesh_density=h).system
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        states = run_transient(system, grid, probes={"y": state_probe}).probe("y")
        ref_states = full_space_states(system, grid)
        assert np.max(np.abs(states - ref_states)) <= 1e-12 * np.max(np.abs(ref_states))

    def test_failed_full_space_check_is_refined(self, rectifier, monkeypatch, caplog):
        # a reduced solution whose field part misses the full-space tolerance
        # is finished by refinement with the carried factorization, to the
        # state of an unforced run
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        reference = run_transient(system, grid, probes={"y": state_probe})
        newton_solve = mona.stepping.newton_solve
        k = system.layout.n_circuit
        forced = []

        def perturbed(*args):
            # the diode rows belong to z[:k], which the perturbation keeps
            z, stats, rows = newton_solve(*args)
            if not forced:
                forced.append(True)
                z = np.array(z)
                z[k:] *= 1.0 + 1e-6
            return z, stats, rows

        monkeypatch.setattr(mona.stepping, "newton_solve", perturbed)
        with caplog.at_level(logging.DEBUG, logger="mona.stepping"):
            result = run_transient(system, grid, probes={"y": state_probe})
        refined = [rec for rec in result.records if rec.newton.refinements]
        assert len(refined) == 1
        assert refined[0].newton.iterations > refined[0].newton.refinements
        assert refined[0].newton.residual_norm <= NEWTON_TOL
        # MONA_LOG=debug shows the refinements on the step's line
        line = next(r.getMessage() for r in caplog.records
                    if r.getMessage().startswith(f"step {refined[0].index} "))
        assert f" refine={refined[0].newton.refinements} " in line
        ref_states = reference.probe("y")
        assert (np.max(np.abs(result.probe("y") - ref_states))
                <= 1e-12 * np.max(np.abs(ref_states)))

    def test_step_refinement_cannot_fix_raises(self, rectifier, monkeypatch):
        # from step 3 on, the field rows of the step residual move by a
        # constant on every evaluation, so the residual is no function of z:
        # each correction leaves the last move behind, and the step fails
        # after MAX_REFINEMENTS corrections with the steps before it kept
        _parsed, _graph, system = rectifier
        k = system.layout.n_circuit
        residual, step, evaluations = StepOperator.residual, mona.stepping.midpoint_step, []

        def offset(operator, *args):
            r = residual(operator, *args)
            if evaluations:
                evaluations.append(1)
                r[k:] += len(evaluations)
            return r

        def third_step_offset(*args, **kwargs):
            evaluations[:] = [1] if kwargs["index"] == 3 else []
            return step(*args, **kwargs)

        monkeypatch.setattr(StepOperator, "residual", offset)
        monkeypatch.setattr(mona.stepping, "midpoint_step", third_step_offset)
        with pytest.raises(SolverError, match=r"^step 3 \(t=.*refinement missed the tolerance "
                           rf"after {mona.stepping.MAX_REFINEMENTS} corrections") as excinfo:
            run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(evaluations) == 1 + mona.stepping.MAX_REFINEMENTS + 1
        partial = excinfo.value.partial_result
        assert [rec.index for rec in partial.records] == [1, 2]

    def test_magnitude_survives_a_cancelling_entry(self):
        # at tau = 6.25e-4 the 1600 ohm resistor puts -1.0 at two stamped
        # entries of the step matrix, which a stamp of +1.0 would cancel to
        # zero; |J| must still take each stamped entry as it is
        system = build_from_netlist(
            "V src 1 0 SIN(1 50)\nR r1 1 2 1600\nR r2 2 0 10\n")[2]
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        cache = operator.cache
        assert np.count_nonzero(operator.matrix.toarray()[cache.rows, cache.cols] == -1.0) == 2
        rng = np.random.default_rng(5)
        z = random_state(system, rng)
        cache.refactor(stamp_at(operator, z))
        matrix = stamped_matrix(operator, z)
        assert_magnitude_exact(operator, matrix)
        x = random_state(system, rng)
        assert np.allclose(operator.full_solve(x), spsolve(matrix, x), rtol=1e-14, atol=0.0)

    def test_linear_transformer_takes_one_iteration_per_step(self):
        # the field unknowns come from one back-substitution, not as a
        # difference of larger terms, so a linear step lands within tol at once
        field = build_field_model(*generate_transformer_mesh(TransformerParams(), 0.00625))
        _parsed, _graph, system = build_from_netlist(LINEAR_COUPLED_NETLIST, field)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert [rec.newton.iterations for rec in result.records[1:]] == [1] * 79
        assert sum(rec.newton.factorizations for rec in result.records) == 1

    def test_linear_transformer_back_substitutes_once_per_step(self, linear_coupled,
                                                                monkeypatch):
        # every step solves on the circuit unknowns and takes one
        # back-substitution through the field block
        _parsed, _graph, system = linear_coupled
        calls = []
        back_substitute = StepOperator.back_substitute

        def counted(operator, b_a, x_c):
            calls.append(1)
            return back_substitute(operator, b_a, x_c)

        monkeypatch.setattr(StepOperator, "back_substitute", counted)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(calls) == len(result.records) == 80
        assert not any(rec.newton.refinements for rec in result.records)


class TestStepConstants:
    """What is constant over a run is built once; a step evaluates only what
    depends on its state."""

    def test_evaluator_calls_per_step(self, linear_coupled, monkeypatch):
        # every step iterates on the circuit rows, and its full residual is
        # the step matrix times the increment, so no step applies the rate
        # operator.  energy_gradient, the element-form field gradient, is
        # evaluated once per step, for the constant part.  The element map
        # G a of a state is formed once: for the new state's energy (for the
        # start, by run_transient), and that G a serves the next step's
        # energy_gradient
        _parsed, _graph, system = linear_coupled
        calls = {"rate_op": 0, "energy_gradient": 0, "G a": 0}
        per_step = []
        element_map = system.field.element_map

        class CountedMap:
            def __matmul__(self, a):
                calls["G a"] += 1
                return element_map @ a

        compact_form = CoupledSystem.compact_form
        step = mona.stepping.midpoint_step

        def counted_compact_form(self):
            form = compact_form(self)

            def rate_op(ydot):
                calls["rate_op"] += 1
                return form.rate_op(ydot)

            return dataclasses.replace(form, rate_op=rate_op)

        def counted(name):
            method = getattr(CoupledSystem, name)

            def counted_method(self, y, *args):
                calls[name] += 1
                return method(self, y, *args)

            return counted_method

        def counted_step(*args, **kwargs):
            before = dict(calls)
            out = step(*args, **kwargs)
            per_step.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(CoupledSystem, "compact_form", counted_compact_form)
        monkeypatch.setattr(CoupledSystem, "energy_gradient", counted("energy_gradient"))
        monkeypatch.setattr(mona.stepping, "midpoint_step", counted_step)
        monkeypatch.setattr(system.field, "element_map", CountedMap())
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4), probes={"y": state_probe})
        assert [rec.newton.iterations for rec in result.records] == [1] * 80
        assert per_step == [{"rate_op": 0, "energy_gradient": 1, "G a": 1}] * 80
        monkeypatch.undo()
        # handing G a on changes no bit: a step from a state formed afresh
        # from a copy of the previous one, with its increment kept, lands on
        # the same state and audit
        grid = result.grid
        operator = StepOperator(system, grid.tau)
        state = StepState(system, system.layout.zeros())
        for n, (rec, y) in enumerate(zip(result.records, result.probe("y")), start=1):
            afresh = StepState(system, state.y, increment=state.increment)
            state, fresh = midpoint_step(operator, afresh, grid.time(n - 1), index=n)
            assert np.array_equal(state.y, y) and fresh.audit == rec.audit

    def test_diode_law_once_per_iterate(self, rectifier, monkeypatch):
        # a step evaluates the diode laws once per reduced residual, plus
        # once for the audit; the stamps take the slopes of those
        # evaluations, and the full-space acceptance check adds none
        _parsed, _graph, system = rectifier
        calls, per_step = {"law": 0, "residual": 0}, []
        diode_law, reduced_residual, step = (mona.coupling.diode_law,
                                             StepOperator.reduced_residual,
                                             mona.stepping.midpoint_step)

        def counted_law(*args):
            calls["law"] += 1
            return diode_law(*args)

        def counted_residual(*args):
            calls["residual"] += 1
            return reduced_residual(*args)

        def counted_step(*args, **kwargs):
            before = dict(calls)
            out = step(*args, **kwargs)
            per_step.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(mona.coupling, "diode_law", counted_law)
        monkeypatch.setattr(mona.circuit, "diode_law", counted_law)
        monkeypatch.setattr(StepOperator, "reduced_residual", counted_residual)
        monkeypatch.setattr(mona.stepping, "midpoint_step", counted_step)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(per_step) == 80
        assert not any(rec.newton.refinements for rec in result.records)
        assert all(n["law"] == n["residual"] + 1 for n in per_step)
        assert sum(n["residual"] for n in per_step) > 80

    def test_diode_rows_handed_back_are_those_of_the_increment(self, rectifier,
                                                               monkeypatch):
        # the diode rows newton_solve returns are diode_rows at z_c / tau
        # of the z it returns, bit for bit, so the acceptance residual built
        # from them is the step residual itself
        _parsed, _graph, system = rectifier
        newton_solve = mona.stepping.newton_solve
        k = system.layout.n_circuit
        checked = []

        def checked_newton(operator, const_part, *args):
            z, stats, rows = newton_solve(operator, const_part, *args)
            assert np.array_equal(rows, system.diode_rows(z[:k] / operator.tau)[0])
            assert np.array_equal(operator.residual(z, const_part, rows),
                                  operator.residual(z, const_part))
            checked.append(stats.iterations)
            return z, stats, rows

        monkeypatch.setattr(mona.stepping, "newton_solve", checked_newton)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(checked) == len(result.records) == 80
        assert sum(checked) > 80

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

    def test_sources_evaluated_once_per_step(self, monkeypatch):
        # the step's source vector and its audit's source powers take the
        # same waveform values, evaluated once per source at the midpoint
        _parsed, graph, _system = build_from_netlist(
            "V src 1 0 SIN(10 50)\nR r1 1 2 2\nI isrc 2 0 SIN(1 50)\nC c1 2 0 1e-3\n")
        calls = {"V": 0, "I": 0}

        def counted(name, waveform):
            def evaluate(t):
                calls[name] += 1
                return waveform(t)
            return evaluate

        system = assemble_coupled(dataclasses.replace(
            graph, voltage_waveforms=(counted("V", graph.voltage_waveforms[0]),),
            current_waveforms=(counted("I", graph.current_waveforms[0]),)))
        step, per_step = mona.stepping.midpoint_step, []

        def counted_step(*args, **kwargs):
            before = dict(calls)
            out = step(*args, **kwargs)
            per_step.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(mona.stepping, "midpoint_step", counted_step)
        result = run_transient(system, TimeGrid(0.0, 0.01, 5e-4))
        assert len(result.records) == 20
        assert per_step == [{"V": 1, "I": 1}] * 20


def reference_limiter(system, tau):
    """The two-stage diode limiter with every constant rebuilt on each call,
    written with the four-argument ``diode_voltage_limit``; returns the
    limited increment and which stages acted."""
    g = system.graph
    a_dio = g.a_r[:, g.n_linear_resistive:]
    psi = system.layout.block_slice("psi")

    def voltages(z):
        return (a_dio.T @ z[psi]) / tau

    def limiter(z_old, z_new):
        v_old = voltages(z_old)
        v_new = voltages(z_new)
        v_crit = diode_critical_voltage(g.diode_thermal, g.diode_saturation)
        v_lim = diode_voltage_limit(v_new, v_old, g.diode_thermal, v_crit)
        z_adj = z_new
        stage_one = not np.array_equal(v_lim, v_new)
        if stage_one:
            z_adj = np.array(z_new)
            z_adj[psi] += np.linalg.pinv(a_dio.T) @ ((v_lim - v_new) * tau)
        ceiling = np.maximum(v_crit, v_old) + DIODE_GROWTH_LIMIT * g.diode_thermal
        v_adj = voltages(z_adj)
        over = v_adj > ceiling
        if np.any(over):
            beta = np.min((ceiling[over] - v_old[over])
                          / (v_adj[over] - v_old[over]))
            z_adj = z_old + beta * (z_adj - z_old)
        return z_adj, (stage_one, bool(np.any(over)))

    return limiter


class TestDiodeLimiter:
    def test_matches_limiter_rebuilt_per_call(self, rectifier):
        # the limiter's constants are built once per run; its results must
        # equal the limiter that rebuilds them on every call, bit for bit
        _parsed, _graph, system = rectifier
        tau = 6.25e-4
        limiter = StepOperator(system, tau).limiter
        reference = reference_limiter(system, tau)
        rng = np.random.default_rng(31)
        psi = system.layout.block_slice("psi")
        stages = set()
        for step in (1e-4, 0.1, 1.0, 10.0, 100.0):  # volts per node, about
            for _ in range(20):
                z_old = random_state(system, rng)
                z_old[psi] = tau * rng.uniform(-1.0, 1.0, psi.stop - psi.start)
                z_new = z_old + random_state(system, rng)
                z_new[psi] = z_old[psi] + tau * step * rng.standard_normal(psi.stop - psi.start)
                expected, acted = reference(z_old, z_new)
                got = limiter(z_old, z_new)
                assert np.array_equal(got, expected)
                if acted == (False, False):
                    assert got is z_new
                stages.add(acted)
        assert {(False, False), (True, False)} <= stages
        assert any(stage_two for _stage_one, stage_two in stages)

    def test_increment_exit_agrees_with_the_voltage_difference(self, rectifier, monkeypatch):
        # the limiter decides whether a stage may act from the voltage change
        # of the increment, A^T (z_new - z_old) / tau, not from the difference
        # of the two iterates' voltages.  On every limiter call of a run
        # through diode switching both agree, and the limiter's result is
        # the reference limiter's, bit for bit
        _parsed, graph, system = rectifier
        tau = 7.8125e-5
        a_dio = graph.a_r[:, graph.n_linear_resistive:]
        small = 2.0 * graph.diode_thermal
        psi = system.layout.block_slice("psi")
        reference = reference_limiter(system, tau)
        build, exits = mona.stepping._diode_limiter, []

        def checked_build(*args):
            limiter = build(*args)

            def checked(z_old, z_new):
                by_increment = np.all(
                    np.abs(a_dio.T @ (z_new[psi] - z_old[psi])) / tau <= small)
                by_voltages = np.all(
                    np.abs(a_dio.T @ z_new[psi] / tau - a_dio.T @ z_old[psi] / tau) <= small)
                assert by_increment == by_voltages
                exits.append(by_increment)
                got = limiter(z_old, z_new)
                assert np.array_equal(got, reference(z_old, z_new)[0])
                if by_voltages:
                    assert got is z_new
                return got

            return checked

        monkeypatch.setattr(mona.stepping, "_diode_limiter", checked_build)
        result = run_transient(system, TimeGrid(0.0, 0.05, tau))
        assert len(result.records) == 640
        assert len(exits) >= 640 and any(exits) and not all(exits)

    def test_small_changes_come_back_unchanged(self, rectifier):
        # a proposal that moves no diode voltage by more than two thermal
        # voltages is returned as it is, from forward bias as from reverse
        _parsed, graph, system = rectifier
        tau = 6.25e-4
        limiter = StepOperator(system, tau).limiter
        a_dio = graph.a_r[:, graph.n_linear_resistive:]
        thermal = graph.diode_thermal
        v_crit = diode_critical_voltage(thermal, graph.diode_saturation)
        psi = system.layout.block_slice("psi")
        n = psi.stop - psi.start
        rng = np.random.default_rng(32)
        for bias in (-5.0, 0.0, 0.7, 2.0):  # node potentials of about that many volts
            for _ in range(20):
                z_old = random_state(system, rng)
                z_old[psi] = tau * (bias + rng.uniform(-1.0, 1.0, n))
                z_new = z_old + random_state(system, rng)
                z_new[psi] = z_old[psi] + tau * thermal.min() * rng.uniform(-1.0, 1.0, n)
                v_old, v_new = (a_dio.T @ z_old[psi]) / tau, (a_dio.T @ z_new[psi]) / tau
                assert np.all(np.abs(v_new - v_old) <= 2.0 * thermal)
                assert diode_voltage_limit(v_new, v_old, thermal, v_crit) is v_new
                assert limiter(z_old, z_new) is z_new


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
        result = run_transient(system, grid, probes={"y": state_probe})
        y_prev, y_next = result.probe("y")[-2:]
        sources = system.sources(result.records[-2].time + 0.5 * tau)
        h_prev = system.energy(y_prev)
        clean = power_audit(system, (y_next - y_prev) / tau, sources,
                            (h_prev, system.energy(y_next)), tau)
        assert abs(clean.residual) <= 1e-10
        tampered = y_next + 1e-6
        dirty = power_audit(system, (tampered - y_prev) / tau, sources,
                            (h_prev, system.energy(tampered)), tau)
        assert abs(dirty.residual) > 1e-8

    def test_energy_evaluated_once_per_state(self, linear_coupled, monkeypatch):
        parsed, _graph, system = linear_coupled
        energy = CoupledSystem.energy
        calls = []

        def counted(self, y, *args):
            calls.append(1)
            return energy(self, y, *args)

        monkeypatch.setattr(CoupledSystem, "energy", counted)
        tau = 1e-3
        grid = TimeGrid(0.0, 0.02, tau)
        result = run_transient(system, grid,
                               probes={"h": compile_probe(system, "H", parsed.node_ids),
                                       "y": state_probe})
        assert len(calls) == grid.n_steps + 1
        monkeypatch.undo()

        h_prev = system.energy(system.layout.zeros())
        for rec, h_probe, y in zip(result.records, result.probe("h"), result.probe("y")):
            assert rec.energy == system.energy(y)
            assert h_probe == rec.energy
            assert rec.audit.dh_dt == (rec.energy - h_prev) / tau
            h_prev = rec.energy
        assert np.array_equal(result.energies(), [rec.energy for rec in result.records])

    def test_pure_dissipation_decays(self):
        system = rc_discharge_system()
        tau = 0.05
        state = StepState(system, system.layout.pack([0.0], [2.0], [], [], []))
        operator = StepOperator(system, tau)
        for n in range(1, 21):
            state, rec = midpoint_step(operator, state, (n - 1) * tau, index=n)
            assert rec.audit.dh_dt <= 0.0


class TestCertificate:
    def test_non_finite_defect_is_a_violation(self, rlc):
        # a NaN or infinite |eps_H| is within no bound, so it breaks the
        # certificate like any defect over the bounds
        _parsed, _graph, system = rlc
        result = run_transient(system, TimeGrid(0.0, 0.005, 1e-3))
        assert result.certificate_violations() == []
        for bad in (math.nan, math.inf, -math.inf):
            records = [dataclasses.replace(rec) for rec in result.records]
            records[2].audit = dataclasses.replace(records[2].audit, residual=bad)
            broken = dataclasses.replace(result, records=records)
            assert broken.certificate_violations() == [records[2]]


class TestRunTransient:
    def test_zero_sources_stay_zero(self, rlc):
        parsed, graph, _system = rlc
        system = assemble_coupled(
            dataclasses.replace(graph, voltage_waveforms=(Waveform.dc(0.0),)))
        grid = TimeGrid(0.0, 0.01, 1e-3)
        probes = {"u2": compile_probe(system, "u(2)", parsed.node_ids),
                  "h": compile_probe(system, "H", parsed.node_ids)}
        result = run_transient(system, grid, probes=probes)
        assert np.all(result.probe("u2") == 0.0)
        assert np.all(result.probe("h") == 0.0)

    @pytest.mark.parametrize("text", SOURCE_CAPACITOR_NETLISTS)
    def test_sources_and_capacitors_only(self, text):
        _parsed, _graph, system = build_from_netlist(text)
        result = run_transient(system, TimeGrid(0.0, 0.005, 6.25e-4))
        assert len(result.records) == 8
        assert result.max_balance_residual() <= 1e-12

    def test_inconsistent_start_rejected(self):
        parsed = parse_netlist("V src 1 0 DC 5\nR r1 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        with pytest.raises(ConsistencyError, match="vanish at t0"):
            run_transient(system, TimeGrid(0.0, 0.01, 1e-3))

    def test_non_finite_source_rejected(self):
        # a Waveform cannot be NaN (its amplitude is checked), so a plain
        # callable stands in for a source that evaluates to NaN
        parsed = parse_netlist("V src 1 0 SIN(1 60)\nR r1 1 0 1")
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(dataclasses.replace(
            graph, voltage_waveforms=(lambda t: math.nan,)))
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

    def test_memory_does_not_grow_with_states(self):
        # a run keeps each step's certificate, not its state: three times as
        # many steps may add less than a quarter of a state's bytes per step
        field = build_field_model(*generate_transformer_mesh(TransformerParams(), 0.0125))
        system = build_from_netlist(LINEAR_COUPLED_NETLIST, field=field)[2]
        tau, n = 6.25e-4, 25

        def peak(steps):
            tracemalloc.start()
            try:
                run_transient(system, TimeGrid(0.0, steps * tau, tau))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(n)  # the first run also builds what the system caches
        growth = (peak(4 * n) - peak(n)) / (3 * n)
        assert growth < 0.25 * system.layout.zeros().nbytes

    def test_state_probe_gives_history(self, rectifier):
        # a probe that returns state.y gives the states of a manual loop
        # of midpoint steps, bit for bit
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.0125, 6.25e-4)
        states = run_transient(system, grid, probes={"y": state_probe}).probe("y")
        assert states.shape == (grid.n_steps, system.layout.size)
        operator = StepOperator(system, grid.tau)
        state = StepState(system, system.layout.zeros())
        for n in range(1, grid.n_steps + 1):
            state, _rec = midpoint_step(operator, state, grid.time(n - 1), index=n)
            assert np.array_equal(states[n - 1], state.y)

    def test_energy_decays_after_source_cutoff(self, rlc):
        # drive the circuit, then continue stepping with the source zeroed:
        # the stored energy must be non-increasing from then on
        parsed, graph, _system = rlc
        driven = assemble_coupled(graph)
        result = run_transient(driven, TimeGrid(0.0, 0.02, 5e-4), probes={"y": state_probe})
        y = result.probe("y")[-1]

        quiet = assemble_coupled(
            dataclasses.replace(graph, voltage_waveforms=(Waveform.dc(0.0),)))
        operator = StepOperator(quiet, 5e-4)
        state = StepState(quiet, y)
        for n in range(1, 41):
            h_prev = state.energy
            state, rec = midpoint_step(operator, state, (n - 1) * 5e-4, index=n)
            assert rec.energy <= h_prev + 1e-12

    def test_diode_switching_steps_do_not_stall(self, rectifier):
        # regression bound: at tau = 7.8125e-5 the diode-switching steps once
        # took 36 iterations and the run 911 halvings, from limited steps
        # taken uphill with a stale Jacobian.  Each iteration after a step's
        # first now refactors at its iterate.  A refinement reuses the
        # factorization the circuit Newton ended with, so the bound holds for
        # the circuit iterations; a refinement takes one correction, on a
        # step whose full-space residual misses tol by rounding only
        _parsed, _graph, system = rectifier
        result = run_transient(system, TimeGrid(0.0, 0.05, 7.8125e-5))
        stats = [rec.newton for rec in result.records]
        assert len(stats) == 640
        assert max(s.iterations for s in stats) <= 12
        assert sum(s.halvings for s in stats) <= 20
        circuit = [s.iterations - s.refinements for s in stats]
        assert all(n - 1 <= s.factorizations <= n for n, s in zip(circuit, stats))
        refined = [s.refinements for s in stats if s.refinements]
        assert all(n == 1 for n in refined) and len(refined) <= 0.01 * len(stats)

    def test_debug_step_line_shows_the_work(self, rectifier, caplog):
        # MONA_LOG=debug prints each step's iterations, factorizations and
        # halvings
        _parsed, _graph, system = rectifier
        with caplog.at_level(logging.DEBUG, logger="mona.stepping"):
            result = run_transient(system, TimeGrid(0.0, 0.005, 6.25e-4))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
        assert len(lines) == len(result.records) == 8
        for line, rec in zip(lines, result.records):
            stats = rec.newton
            assert (f" iters={stats.iterations} fact={stats.factorizations} "
                    f"halv={stats.halvings} ") in line

    def test_no_diode_law_without_diodes(self, linear_coupled, monkeypatch):
        _parsed, _graph, system = linear_coupled

        def forbidden(*_args):
            raise AssertionError("diode law evaluated on a diode-free circuit")

        monkeypatch.setattr(mona.coupling, "diode_law", forbidden)
        result = run_transient(system, TimeGrid(0.0, 0.005, 6.25e-4))
        assert len(result.records) == 8

    def test_block_scale_is_the_blockwise_maximum(self, rectifier):
        # one reduceat over the non-empty blocks gives, bit for bit, each
        # block's max(1, |f|, |r0|); the rectifier has no capacitor block
        _parsed, _graph, system = rectifier
        layout = system.layout
        assert 0 in layout.sizes
        rng = np.random.default_rng(8)
        for amplitude in (1e-3, 1.0, 1e3):
            r0, f = amplitude * rng.standard_normal((2, layout.size))
            expected = np.ones(layout.size)
            for blk, n in zip(layout.slices, layout.sizes):
                if n:
                    expected[blk] = max(1.0, np.abs(f[blk]).max(), np.abs(r0[blk]).max())
            magnitude = np.maximum(np.abs(f), np.abs(r0))
            assert np.array_equal(mona.stepping._block_scale(layout, magnitude), expected)

    def test_partial_result_attached_on_failure(self, rectifier, monkeypatch):
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 5e-3)
        monkeypatch.setattr(mona.stepping, "MAX_ITER", 1)
        with pytest.raises(SolverError) as excinfo:
            run_transient(system, grid)
        partial = excinfo.value.partial_result
        assert partial.grid is grid and partial.records == []


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
        with pytest.raises(ValueError, match="unknown element 'nope'"):
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
                              probe=lambda state, t_mid: 0.0)
