"""Midpoint stepping, Newton, power audit, transient driver, order studies."""

import dataclasses
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from conftest import (LINEAR_COUPLED_NETLIST, SOURCE_CAPACITOR_NETLISTS, build_from_netlist,
                      exact_balance_defects, random_state, reference_newton, state_probe)
import mona.coupling
import mona.stepping
from mona.circuit import (CircuitGraph, build_incidence, diode_critical_voltage, diode_law,
                          diode_voltage_limit)
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

    @pytest.mark.parametrize("t0, t_end, tau", [(0.0, 1e10, 1e-300), (-1e308, 1e308, 1.0)])
    def test_overflowing_step_count_rejected(self, t0, t_end, tau):
        with pytest.raises(ValueError, match=r"^\(t_end - t0\)/tau = inf is not a finite "
                                             r"number of steps$"):
            TimeGrid(t0, t_end, tau)

    def test_halving_into_overflow_rejected(self):
        # 0.01 / (5e-3 / 2^k) is about 2^(k + 1) steps (tau is subnormal from
        # k = 1015 on and loses bits): finite through k = 1022
        grid = TimeGrid(0.0, 0.01, 5e-3)
        for _ in range(1022):
            grid = grid.halved()
        assert 2 ** 1022 < grid.n_steps < 2 ** 1024
        with pytest.raises(ValueError, match="not a finite number of steps"):
            grid.halved()


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

    @pytest.mark.parametrize("fixture", ["rlc", "rectifier"])
    @pytest.mark.parametrize("where", ["circuit", "last"])
    def test_non_finite_residual_is_no_root(self, fixture, where, request):
        # a NaN residual norm passes no comparison with the tolerance: the
        # solve fails and names it rather than returning the start point
        _parsed, _graph, system = request.getfixturevalue(fixture)
        operator = StepOperator(system, 1e-3)
        const_part = system.layout.zeros()
        const_part[0 if where == "circuit" else -1] = math.nan
        with pytest.raises(SolverError, match=r"^non-finite residual at the Newton start "
                                              r"\(scaled norm nan\)$"):
            mona.stepping.newton_solve(operator, const_part, system.layout.zeros(),
                                       np.zeros(operator.n_circuit))

    def test_singular_matrix(self, monkeypatch):
        # a current source into a diode: the iteration matrix is the one
        # stamped entry, the diode's pair, with nothing of J_lin in it, so a
        # diode slope of zero makes it exactly singular
        system = build_from_netlist("I src 1 0 SIN(1 50)\nD d1 1 0 IS=1e-14 VT=0.025 RP=1e12\n")[2]
        operator = StepOperator(system, 1e-3)
        assert operator.n_circuit == operator.rows.size == 1
        assert operator.matrix.nnz == 0
        diode_rows = CoupledSystem.diode_rows
        monkeypatch.setattr(CoupledSystem, "diode_rows", lambda self, v: (
            diode_rows(self, v)[0], np.zeros(1)))
        with pytest.raises(SolverError, match="matrix is exactly singular"):
            midpoint_step(operator, StepState(system, system.layout.zeros()), 0.0)

    def test_damped_steps_converge(self, rectifier, monkeypatch):
        # every Newton step is the full step after the limiter.  At tau =
        # 1.25e-3 some steps of the coarse rectifier (three here) take one
        # that does not descend: from a fresh factorization it is taken all
        # the same, from the carried one it is redone, and halvings counts
        # exactly those.  Each of the steps still ends within the tolerance
        _parsed, _graph, system = rectifier
        newton_step, calls = mona.stepping._newton_step, []

        def traced(operator, c_hat, z_c, r, nrm, floored, fresh, stats):
            trial = newton_step(operator, c_hat, z_c, r, nrm, floored, fresh, stats)
            calls.append((fresh, nrm, trial))
            return trial

        monkeypatch.setattr(mona.stepping, "_newton_step", traced)
        result = run_transient(system, TimeGrid(0.0, 0.05, 1.25e-3))
        assert all(trial is not None for fresh, _nrm, trial in calls if fresh)
        uphill = [trial for fresh, nrm, trial in calls
                  if fresh and not (trial[4] < nrm or trial[4] <= NEWTON_TOL)]
        redone = [trial for fresh, _nrm, trial in calls if not fresh and trial is None]
        assert uphill
        assert sum(rec.newton.halvings for rec in result.records) == len(uphill) + len(redone)
        damped = [rec.newton for rec in result.records if rec.newton.halvings]
        assert damped
        assert all(s.residual_norm <= NEWTON_TOL for s in damped)

    def test_limited_step_is_a_state_difference(self):
        # the step after a limiter that returns the proposal z + dz as it
        # is, is (z + dz) - z, not dz: the two round differently
        rng = np.random.default_rng(2)
        z, dz = rng.standard_normal(50), 1e-3 * rng.standard_normal(50)
        assert not np.array_equal((z + dz) - z, dz)
        step = mona.stepping._limited(lambda z_old, z_new: z_new, z, dz)
        assert np.array_equal(step, (z + dz) - z)
        halved = z + 0.5 * dz
        assert np.array_equal(mona.stepping._limited(lambda z_old, z_new: halved, z, dz),
                              halved - z)
        assert mona.stepping._limited(None, z, dz) is dz

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "carried"])
    @pytest.mark.parametrize("bad", ["uphill", "non-finite"])
    def test_full_step_that_does_not_descend(self, rectifier, monkeypatch, fresh, bad):
        # the rectifier's first Newton step from rest, reversed so that its
        # residual rises, or with a non-finite residual.  From a fresh
        # factorization the uphill full step is taken as the limiter left
        # it, and a non-finite residual raises; from a carried one neither
        # is taken (None: redo the iteration).  Either way it counts once
        _parsed, _graph, system = rectifier
        operator = StepOperator(system, 6.25e-4)
        k = operator.n_circuit
        const_part = -system.source_vector(0.5 * operator.tau)
        c_hat = operator.condense(const_part)
        z_c = np.zeros(k)
        r, _rows, slopes = operator.reduced_residual(z_c, c_hat)
        floored = np.ones(k)
        nrm = mona.stepping._scaled_norm(r, floored)
        assert nrm > NEWTON_TOL
        operator.refactor(slopes)
        solve, reduced_residual = operator.cache.solve, operator.reduced_residual
        dz = -solve(-r)
        monkeypatch.setattr(operator.cache, "solve", lambda b_c: -solve(b_c))
        if bad == "non-finite":
            monkeypatch.setattr(operator, "reduced_residual", lambda z, c: (
                np.full(k, math.nan), *reduced_residual(z, c)[1:]))
        stats = mona.stepping.NewtonStats()
        if fresh and bad == "non-finite":
            with pytest.raises(SolverError, match=r"^non-finite residual after a Newton step"):
                mona.stepping._newton_step(operator, c_hat, z_c, r, nrm, floored, fresh, stats)
        else:
            trial = mona.stepping._newton_step(operator, c_hat, z_c, r, nrm, floored, fresh,
                                               stats)
            if fresh:
                z_new, _r, _rows, _slopes, n_new = trial
                assert n_new > nrm
                assert np.array_equal(z_new, z_c + mona.stepping._limited(operator.limiter,
                                                                          z_c, dz))
            else:
                assert trial is None
        assert stats.halvings == 1

    def test_exact_newton_after_the_first_iteration(self, rectifier, monkeypatch):
        # a step's first iteration reuses the factorization the step before
        # left behind (the run's first step has none); every later one
        # refactors at its own iterate, from the very slopes its residual
        # evaluation gave.  Each refactorization stamps the slopes, and its
        # floor then takes the magnitude at the iterate
        _parsed, _graph, system = rectifier
        reduced_residual, refactor, magnitude = (StepOperator.reduced_residual,
                                                 StepOperator.refactor, StepOperator.magnitude)
        seen, stamped, floored = [], [], []

        def counted_residual(self, z_c, c_hat):
            out = reduced_residual(self, z_c, c_hat)
            seen.append((z_c, out[2]))
            return out

        def counted_refactor(self, slopes):
            stamped.append(slopes)
            return refactor(self, slopes)

        def counted_magnitude(self, z_c):
            floored.append(z_c)
            return magnitude(self, z_c)

        monkeypatch.setattr(StepOperator, "reduced_residual", counted_residual)
        monkeypatch.setattr(StepOperator, "refactor", counted_refactor)
        monkeypatch.setattr(StepOperator, "magnitude", counted_magnitude)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(stamped) == len(floored)
        asked = list(zip(floored, stamped))
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

    @pytest.mark.parametrize("carried", [
        lambda dz: np.full_like(dz, np.nan),  # a non-finite step
        np.zeros_like,                        # a step that does not descend
    ], ids=["non-finite-step", "no-descent"])
    def test_failed_carried_factorization_redoes_the_iteration(self, rectifier, monkeypatch,
                                                               carried):
        # the first iteration is redone once from a factorization at the same
        # iterate: the step then is that of an operator with no factorization
        # to carry, with one solve more, the same iterations and
        # factorizations, and the one redone full step counted in halvings
        _parsed, _graph, system = rectifier
        (state, record, solves), (ref_state, ref, ref_solves) = (
            self.step_with_carried_solve(system, monkeypatch, carried))
        assert ref.newton.iterations == ref.newton.factorizations >= 1
        assert np.array_equal(state.y, ref_state.y)
        assert solves == ref_solves + 1
        assert record.newton.iterations == ref.newton.iterations
        assert record.newton.factorizations == ref.newton.factorizations
        assert record.newton.halvings == ref.newton.halvings + 1

    def test_half_wave_toy_needs_little_damping(self):
        # regression bound: stepping a half-wave rectifier through the source
        # peak, at most one full Newton step per time step fails to descend
        parsed = parse_netlist("""
            V src 1 0 SIN(10 50)
            D d1 1 2 IS=1e-14 VT=0.025 RP=1e12
            R load 2 0 10
        """)
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        result = run_transient(system, TimeGrid(0.0, 0.01, 2.5e-4))
        assert max(rec.newton.halvings for rec in result.records) <= 1


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


def slopes_at(operator, z):
    """The diode slopes at the state increment z."""
    k = operator.n_circuit
    return operator.system.diode_rows(z[:k] / operator.tau)[1]


def stamp_at(operator, z):
    """The stamped entries of the iteration matrix at the state increment z,
    at the operator's (rows, cols), from their definition: J_lin's entry
    plus sum_d A_d[i, d] A_d[j, d] g_d / tau with the diode slopes g_d
    there, the incidences weighted by 1/tau first as the operator does."""
    rows, cols = operator.rows, operator.cols
    a_d = operator.system.diode_incidence
    pairs = (a_d[rows] * a_d[cols]) * (1.0 / operator.tau)
    return operator.matrix.toarray()[rows, cols] + pairs @ slopes_at(operator, z)


def stamped_matrix(operator, z):
    """The step matrix with the stamp at z written in: the iteration matrix
    that the operator factors at the diode slopes there."""
    matrix = operator.matrix.tolil()
    matrix[operator.rows, operator.cols] = stamp_at(operator, z)
    return matrix.tocsc()


class RecordingCache(FactorCache):
    """A :class:`FactorCache` that keeps every S it is handed."""

    def __init__(self):
        super().__init__()
        self.handed = []

    def refactor(self, schur):
        self.handed.append(schur)
        super().refactor(schur)


def refactor_with(operator, slopes):
    """Refactor the operator at the diode ``slopes``; returns the S that it
    handed to its cache."""
    if not isinstance(operator.cache, RecordingCache):
        operator.cache = RecordingCache()
    operator.refactor(slopes)
    return operator.cache.handed[-1]


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
        k = operator.n_circuit
        rng = np.random.default_rng(3)
        for _ in range(2):  # the second refactor reuses the field factorization
            z = 1e-3 * random_state(system, rng)
            matrix = iteration_matrix(system, tau, z)
            schur = refactor_with(operator, slopes_at(operator, z))
            for _ in range(3):
                rhs = rng.standard_normal(system.layout.size)
                x_ref = spsolve(matrix, rhs)
                err = np.max(np.abs(operator.full_solve(rhs) - x_ref))
                assert err <= 1e-12 * np.max(np.abs(x_ref))
                x_c = operator.cache.solve(rhs[:k])
                terms = np.max(np.abs(schur) @ np.abs(x_c))
                assert np.max(np.abs(schur @ x_c - rhs[:k])) <= 1e-12 * terms

    def test_stamp_reproduces_the_jacobians(self):
        # the dense Schur complement that the operator hands its cache, and
        # the |J| of the Newton floor, equal those formed from the whole
        # step matrix with the stamp of its definition written in, bit for
        # bit, W included, which has no entry at the stamped ones; that
        # matrix is the iteration matrix of system.jacobians, to rounding
        tau = 6.25e-4
        rng = np.random.default_rng(4)
        for h in (0.025, 0.0125):
            system = assemble_netlist(DEMO_NETLIST, mesh_density=h).system
            operator = StepOperator(system, tau)
            k = system.layout.n_circuit
            for _ in range(2):  # both S share the field elimination
                z = 1e-3 * random_state(system, rng)
                matrix = stamped_matrix(operator, z)
                lu_aa = factor_spd(matrix[k:, k:])
                v = lu_aa.solve(matrix[:k, k:].T.toarray(), trans="T").T
                expected = matrix[:k, :k].toarray() - v @ matrix[k:, :k]
                assert np.array_equal(refactor_with(operator, slopes_at(operator, z)), expected)
                assert_magnitude_exact(operator, matrix)
                # on the circuit unknowns the magnitude is (|J_cc| + |W|) |x|
                columns = np.column_stack([operator.magnitude(e) for e in np.eye(k)])
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
            # the psi/psi block of system.jacobians, to rounding: S holds it
            # at the stamped entries, where W has none, as it is
            schur = refactor_with(operator, slopes)
            rows, cols = operator.rows, operator.cols
            assert not operator.v[rows].any()
            expected = iteration_matrix(system, tau, z)[rows, cols].A1
            assert np.allclose(schur[rows, cols], expected, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(expected)))

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

    @pytest.mark.parametrize("factored", [False, True], ids=["fresh", "after-a-factor"])
    def test_singular_circuit_block_raises(self, factored):
        # a current source into a diode: S is the diode's stamp g/tau alone,
        # which a slope of zero makes exactly singular.  A failed refactor
        # leaves the cache without a factorization and both magnitudes at
        # the stamp last factored, J_lin's before the first; the next
        # refactor recovers
        system = build_from_netlist("I src 1 0 SIN(1 50)\nD d1 1 0 IS=1e-14 VT=0.025 RP=1e12\n")[2]
        tau = 1e-3
        operator = StepOperator(system, tau)
        one = np.ones(1)

        def magnitudes():
            return operator.magnitude(one).tolist() + operator.full_magnitude(one).tolist()

        if factored:
            operator.refactor(2.0 * one)
        last = magnitudes()
        assert last == [2.0 / tau if factored else 0.0] * 2
        with pytest.raises(SolverError, match="factorization failed: matrix is exactly singular"):
            operator.refactor(np.zeros(1))
        assert not operator.cache.ready
        assert magnitudes() == last
        operator.refactor(one)
        assert operator.cache.ready
        assert magnitudes() == [1.0 / tau] * 2
        assert operator.cache.solve(one).tolist() == [tau]

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
        # state of an unforced run.  The run's first back-substitution, the
        # field part of its first step's Newton solution, is perturbed; the
        # diode rows belong to z_c, which the perturbation keeps
        _parsed, _graph, system = rectifier
        grid = TimeGrid(0.0, 0.05, 6.25e-4)
        reference = run_transient(system, grid, probes={"y": state_probe})
        back_substitute = StepOperator.back_substitute
        forced = []

        def perturbed(operator, b_a, x_c):
            x_a = back_substitute(operator, b_a, x_c)
            if not forced:
                forced.append(True)
                x_a *= 1.0 + 1e-6
            return x_a

        monkeypatch.setattr(StepOperator, "back_substitute", perturbed)
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
        # at tau = 6.25e-4 the 1600 ohm resistor beside the diode puts -1.0
        # at two stamped entries of the step matrix, the off-diagonal ones of
        # the diode's pair, which a stamp of +1.0 would cancel to zero; |J|
        # must still take each stamped entry as it is
        system = build_from_netlist("V src 1 0 SIN(1 50)\nR r1 1 2 1600\n"
                                    "D d1 1 2 IS=1e-14 VT=0.025 RP=1e12\nR r2 2 0 10\n")[2]
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        stamped = operator.matrix.toarray()[operator.rows, operator.cols]
        assert np.count_nonzero(stamped == -1.0) == 2
        rng = np.random.default_rng(5)
        # diode voltages of a few tenths of a volt: the diode conducts, and
        # its conductance stays near the resistor's
        z = random_state(system, rng, amplitude=0.3 * tau)
        operator.refactor(slopes_at(operator, z))
        matrix = stamped_matrix(operator, z)
        assert_magnitude_exact(operator, matrix)
        x = random_state(system, rng)
        assert np.allclose(operator.full_solve(x), spsolve(matrix, x), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("fixture", ["rlc", "linear_coupled"])
    def test_linear_circuit_stamps_nothing(self, fixture, request):
        # without diodes no entry of the iteration matrix depends on the
        # iterate: the stamp is empty, S is L as it is, and one
        # factorization serves the run
        _parsed, _graph, system = request.getfixturevalue(fixture)
        operator = StepOperator(system, 6.25e-4)
        assert operator.rows.size == operator.cols.size == 0
        assert np.array_equal(refactor_with(operator, np.zeros(0)), operator.reduced_matrix)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert sum(rec.newton.factorizations for rec in result.records) == 1

    @pytest.mark.parametrize("netlist", [None, "V src 1 0 SIN(10 50)\nR rs 1 2 1\n"
                                         "D d1 2 3 IS=1e-12 VT=0.025 RP=1e9\nR load 3 0 100\n"],
                             ids=["rectifier", "series-resistor"])
    def test_stamp_pattern_is_the_diode_pairs(self, rectifier, netlist):
        # the stamped entries are the node pairs a diode joins, the nonzeros
        # of |A_d||A_d|^T, and exactly the entries of the iteration matrix
        # that change with the Newton iterate: on the rectifier, and behind
        # a series resistor, whose pairs off the diode are not stamped
        _parsed, graph, system = build_from_netlist(netlist) if netlist else rectifier
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        a_d = np.abs(system.diode_incidence)
        assert np.array_equal(np.column_stack([operator.rows, operator.cols]),
                              np.argwhere(a_d @ a_d.T))
        pairs = {(i - 1, j - 1) for p, m in graph.branch_pairs["D"]
                 for i in (p, m) for j in (p, m) if i and j}
        assert set(zip(operator.rows.tolist(), operator.cols.tolist())) == pairs
        rng = np.random.default_rng(7)
        z1, z2 = (1e-3 * random_state(system, rng) for _ in range(2))
        changed = (iteration_matrix(system, tau, z1).toarray()
                   != iteration_matrix(system, tau, z2).toarray())
        stamped = np.zeros_like(changed)
        stamped[operator.rows, operator.cols] = True
        assert np.array_equal(changed, stamped)

    def test_magnitude_is_the_schur_magnitude_at_the_last_stamp(self, rectifier):
        # operator.magnitude of every unit vector is the column of
        # |J_cc| + |W| with the stamped entries last factored, bit for bit:
        # before the first refactor those of the step matrix, after each
        # refactor those of its stamp
        _parsed, _graph, system = rectifier
        tau = 6.25e-4
        operator = StepOperator(system, tau)
        k = operator.n_circuit
        matrix = operator.matrix.tocsc()
        v = factor_spd(matrix[k:, k:]).solve(matrix[:k, k:].T.toarray(), trans="T").T
        abs_w = np.abs(v @ matrix[k:, :k])

        def columns():
            return np.column_stack([operator.magnitude(e) for e in np.eye(k)])

        assert np.array_equal(columns(), abs(matrix[:k, :k]).toarray() + abs_w)
        rng = np.random.default_rng(8)
        for _ in range(2):
            z = 1e-3 * random_state(system, rng)
            operator.refactor(slopes_at(operator, z))
            stamped = stamped_matrix(operator, z)
            assert_magnitude_exact(operator, stamped)
            assert np.array_equal(columns(), abs(stamped[:k, :k]).toarray() + abs_w)

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
        monkeypatch.setattr(StepOperator, "reduced_residual", counted_residual)
        monkeypatch.setattr(mona.stepping, "midpoint_step", counted_step)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(per_step) == 80
        assert not any(rec.newton.refinements for rec in result.records)
        assert all(n["law"] == n["residual"] + 1 for n in per_step)
        assert sum(n["residual"] for n in per_step) > 80

    def test_acceptance_residual_takes_the_diode_rows_of_the_increment(self, rectifier,
                                                                       monkeypatch):
        # the diode rows the acceptance residual takes from Newton's last
        # reduced residual are diode_rows at z_c / tau of the z it checks,
        # bit for bit, so that residual is the step residual itself
        _parsed, _graph, system = rectifier
        residual = StepOperator.residual
        k = system.layout.n_circuit
        checked = []

        def checked_residual(operator, z, const_part, diode_rows=None):
            r = residual(operator, z, const_part, diode_rows)
            if diode_rows is not None:
                assert np.array_equal(diode_rows, system.diode_rows(z[:k] / operator.tau)[0])
                assert np.array_equal(r, residual(operator, z, const_part))
                checked.append(z)
            return r

        monkeypatch.setattr(StepOperator, "residual", checked_residual)
        result = run_transient(system, TimeGrid(0.0, 0.05, 6.25e-4))
        assert len(checked) == len(result.records) == 80
        assert sum(rec.newton.iterations for rec in result.records) > 80

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
    a_dio = g.incidence("D")
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
        a_dio = graph.incidence("D")
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
        a_dio = graph.incidence("D")
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

    @pytest.mark.parametrize("fixture", ["linear_coupled", "rectifier"])
    def test_audit_matches_the_exact_balance(self, fixture, request):
        # the binary64 audit against the exact balance of the same stored
        # states (exact_balance_defects): over 20 coarse steps it errs by at
        # most 1e-12 W, a hundredth of the certificate's absolute bound
        # (measured: 6.7e-14 W on the transformer, 1.3e-13 W on the rectifier)
        _parsed, _graph, system = request.getfixturevalue(fixture)
        grid = TimeGrid(0.0, 20 * 6.25e-4, 6.25e-4)
        result = run_transient(system, grid, probes={"y": state_probe})
        exact = exact_balance_defects(system, grid, result.probe("y"))
        assert len(exact) == len(result.records) == 20
        assert max(abs(Fraction(rec.audit.residual) - eps)
                   for rec, eps in zip(result.records, exact)) <= 1e-12

    def test_exact_balance_sees_a_tampered_state(self, linear_coupled):
        # the oracle is the balance of the states it is given: one field
        # unknown of the third state moved by 1e-9 moves the exact defect of
        # the two steps that state ends and starts past the certificate's
        # absolute bound, and leaves the others' as they were
        _parsed, _graph, system = linear_coupled
        grid = TimeGrid(0.0, 5 * 6.25e-4, 6.25e-4)
        states = run_transient(system, grid, probes={"y": state_probe}).probe("y")
        clean = exact_balance_defects(system, grid, states)
        states = states.copy()
        states[2, -1] += 1e-9
        tampered = exact_balance_defects(system, grid, states)
        moved = [abs(float(a - b)) for a, b in zip(clean, tampered)]
        assert moved[0] == moved[1] == moved[4] == 0.0
        assert min(moved[2], moved[3]) > mona.stepping.EPS_H_ABS_BOUND

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

    @pytest.mark.parametrize("amplitude, tau, failed_at", [
        ("160", 3.125e-4, 43),
        ("1.6e5", 5e-3, 5),
    ], ids=["160V-tau3.125e-4", "1.6e5V-tau5e-3"])
    def test_sweep_runs_into_a_short_complete(self, coarse_field, amplitude, tau, failed_at):
        # the rectifier of the benchmark's converge-coarse workload at
        # h = 0.025 into a 0.01 ohm load.  While Newton halved its steps,
        # these runs failed at the step given (Newton did not converge in 50
        # iterations); with the limited full step they complete with finite
        # outputs.  The certificate is printed as it comes out (pytest -rP
        # shows it), not asserted: the 160 V run had 8 of 160 steps over (1.65e-10 W), and
        # the 1.6e5 V run 10 of 10 (8.6e-6 W), where binary64 states fall
        # short of the absolute bound at that power
        text = DEMO_NETLIST.replace("SIN(160 60)", f"SIN({amplitude} 60)")
        text = text.replace("R load 4 0 10\n", "R load 4 0 0.01\n")
        assert f"SIN({amplitude} 60)" in text and "R load 4 0 0.01" in text
        system = build_from_netlist(text, field=coarse_field)[2]
        grid = TimeGrid(0.0, 0.05, tau)
        result = run_transient(system, grid, probes={"y": state_probe})
        assert len(result.records) == grid.n_steps > failed_at
        assert np.isfinite(result.probe("y")).all()
        assert np.isfinite(result.energies()).all()
        assert np.isfinite(result.balance_residuals()).all()
        print(f"{amplitude} V, tau = {tau}: {len(result.certificate_violations())} of "
              f"{grid.n_steps} steps break the certificate, worst |eps_H| = "
              f"{result.max_balance_residual():.3g} W")

    def test_diode_switching_steps_do_not_stall(self, rectifier):
        # regression bound: at tau = 7.8125e-5 the diode-switching steps once
        # took 36 iterations and the run 911 halvings, from limited steps
        # taken uphill with a stale Jacobian.  Each iteration after a step's
        # first now refactors at its iterate, and hardly a full step fails
        # to descend (halvings counts those).  A refinement reuses the
        # factorization the circuit Newton ended with, so the bound holds for
        # the circuit iterations; a refinement takes one correction, on a
        # step whose full-space residual misses tol by rounding only
        _parsed, _graph, system = rectifier
        result = run_transient(system, TimeGrid(0.0, 0.05, 7.8125e-5))
        stats = [rec.newton for rec in result.records]
        assert len(stats) == 640
        assert max(s.iterations for s in stats) <= 12
        assert sum(s.halvings for s in stats) <= 5
        circuit = [s.iterations - s.refinements for s in stats]
        assert all(n - 1 <= s.factorizations <= n for n, s in zip(circuit, stats))
        refined = [s.refinements for s in stats if s.refinements]
        assert all(n == 1 for n in refined) and len(refined) <= 0.01 * len(stats)

    def test_debug_step_line_shows_the_work(self, rectifier, caplog):
        # MONA_LOG=debug prints each step's iterations, factorizations and
        # halvings, the full Newton steps that did not descend.  At tau =
        # 1.25e-3 the first step takes one uphill from a fresh factorization
        _parsed, _graph, system = rectifier
        with caplog.at_level(logging.DEBUG, logger="mona.stepping"):
            result = run_transient(system, TimeGrid(0.0, 0.01, 1.25e-3))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
        assert len(lines) == len(result.records) == 8
        assert " halv=1 " in lines[0]
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

    def test_resistive_probes_read_the_branch_laws_bit_for_bit(self):
        # v() and i() of a resistor or a diode read their own kind's
        # incidence; they equal, bit for bit, each kind's branch law on its
        # voltages: G v for the resistors, diode_law's current for the diodes
        parsed, graph, system = build_from_netlist(
            "V src 1 0 SIN(10 50)\nR rs 1 2 0.5\nD d1 2 3 IS=1e-12 VT=0.025 RP=1e9\n"
            "D d2 0 2 IS=1e-12 VT=0.025 RP=1e9\nR load 3 0 100\nC c1 3 0 1e-4\n")
        names = ("rs", "load", "d1", "d2")
        probes = {f"{fn}_{name}": compile_probe(system, f"{fn}({name})", parsed.node_ids)
                  for fn in "vi" for name in names}
        probes["rate"] = lambda state, t_mid: state.rate
        result = run_transient(system, TimeGrid(0.0, 0.02, 5e-4), probes=probes)
        psi_dot = result.probe("rate")[:, system.layout.block_slice("psi")]
        voltages = {kind: psi_dot @ graph.incidence(kind) for kind in "RD"}
        currents = {"R": graph.conductance * voltages["R"],
                    "D": np.array([diode_law(graph, v)[0] for v in voltages["D"]])}
        assert (currents["D"].max(axis=0) > 1e-3).all()  # both diodes conduct
        for name in names:
            kind, col = graph.find_branch(name)
            assert np.array_equal(result.probe(f"v_{name}"), voltages[kind][:, col])
            assert np.array_equal(result.probe(f"i_{name}"), currents[kind][:, col])

    def test_bad_expression_rejected(self, rlc):
        parsed, _graph, system = rlc
        with pytest.raises(ValueError, match="cannot parse"):
            compile_probe(system, "flux[1]", parsed.node_ids)
        with pytest.raises(ValueError, match="unknown element 'nope'"):
            compile_probe(system, "v(nope)", parsed.node_ids)

    def test_device_probe_needs_a_single_winding(self, coarse_field):
        # v() and i() of a device read one winding: a transformer's two are
        # rejected by name, where v() once read the primary's; the same
        # windings as two devices of one each are read, beside the source
        # and the load they are in parallel with
        parsed, _graph, system = build_from_netlist(LINEAR_COUPLED_NETLIST, coarse_field)
        for fn in "vi":
            with pytest.raises(ValueError, match=rf"^probe '{fn}\(xfmr\)': element 'xfmr' has 2 "
                                                 rf"windings; {fn}\(\) reads a device of a "
                                                 rf"single winding$"):
                compile_probe(system, f"{fn}(xfmr)", parsed.node_ids)
        parsed, _graph, system = build_from_netlist(
            "V src 1 0 SIN(160 60)\nM xp 1 0 FIELD=builtin\nM xs 2 0 FIELD=builtin\n"
            "R load 2 0 10\n", coarse_field)
        probes = {expr: compile_probe(system, expr, parsed.node_ids)
                  for expr in ("v(xp)", "v(src)", "v(xs)", "v(load)", "i(xs)", "i(load)")}
        result = run_transient(system, TimeGrid(0.0, 0.005, 1e-3), probes=probes)
        assert np.array_equal(result.probe("v(xp)"), result.probe("v(src)"))
        assert np.array_equal(result.probe("v(xs)"), result.probe("v(load)"))
        assert np.ptp(result.probe("i(xs)")) > 0.0
        assert np.allclose(result.probe("i(xs)"), -result.probe("i(load)"), rtol=1e-12, atol=0.0)

    def test_default_probe_targets_load_node(self, rlc):
        parsed, graph, system = rlc
        probe = default_state_probe(system)
        grid = TimeGrid(0.0, 0.01, 1e-3)
        result = run_transient(system, grid, probes={
            "def": probe, "psi1": compile_probe(system, "psi(1)", parsed.node_ids)})
        # first linear resistor is r1 with plus node 1
        assert np.allclose(result.probe("def"), result.probe("psi1"))

    def test_default_probe_without_a_resistor_is_the_first_state(self):
        # no linear resistor to name a load: the probe reads y[0], here the
        # potential of the one node; a system without states has no probe
        parsed, _graph, system = build_from_netlist(SOURCE_CAPACITOR_NETLISTS[0])
        assert system.graph.n_branches("R") == 0
        result = run_transient(system, TimeGrid(0.0, 0.01, 1e-3), probes={
            "def": default_state_probe(system), "y": state_probe,
            "psi1": compile_probe(system, "psi(1)", parsed.node_ids)})
        assert np.array_equal(result.probe("def"), result.probe("y")[:, 0])
        assert np.array_equal(result.probe("def"), result.probe("psi1"))
        assert np.ptp(result.probe("def")) > 0.0
        with pytest.raises(ValueError, match=r"^system has no state to probe$"):
            default_state_probe(assemble_coupled(CircuitGraph.empty()))

    @pytest.mark.parametrize("token", ["0", "gnd", "GND", "Gnd"])
    def test_ground_probes_read_zero(self, rlc, token):
        # the netlist's ground names, in any case, are node 0 to a probe too
        parsed, _graph, system = rlc
        result = run_transient(system, TimeGrid(0.0, 0.004, 1e-3), probes={
            fn: compile_probe(system, f"{fn}({token})", parsed.node_ids) for fn in ("u", "psi")})
        assert result.probe("u").tolist() == result.probe("psi").tolist() == [0.0] * 4

    def test_numeric_node_id(self):
        # a token that names no node is read as a node id, which must be a
        # node of the circuit or ground
        parsed, _graph, system = build_from_netlist(
            "V src in 0 SIN(10 50)\nR r1 in out 2\nC c1 out 0 1e-3\n")
        assert parsed.node_ids == {"in": 1, "out": 2}
        probes = {f"{fn}_{node}": compile_probe(system, f"{fn}({node})", parsed.node_ids)
                  for fn in ("u", "psi") for node in ("out", "2")}
        result = run_transient(system, TimeGrid(0.0, 0.004, 1e-3), probes=probes)
        for fn in ("u", "psi"):
            assert np.array_equal(result.probe(f"{fn}_2"), result.probe(f"{fn}_out"))
            assert np.ptp(result.probe(f"{fn}_2")) > 0.0
        for node_ids in (parsed.node_ids, None):
            with pytest.raises(ValueError, match=r"^node id 9 out of range$"):
                compile_probe(system, "u(9)", node_ids)

    def test_current_source_probe_is_its_waveform_at_the_midpoint(self):
        # i() of a current source is its waveform at the step's midpoint,
        # which the capacitor it drives carries as its charge rate
        parsed, graph, system = build_from_netlist(SOURCE_CAPACITOR_NETLISTS[0])
        grid = TimeGrid(0.0, 0.01, 1e-3)
        result = run_transient(system, grid, probes={
            "i_src": compile_probe(system, "i(src)", parsed.node_ids),
            "i_c": compile_probe(system, "i(c1)", parsed.node_ids)})
        t_mid = grid.times()[:-1] + 0.5 * grid.tau
        wave = graph.current_waveforms[0]
        assert np.array_equal(result.probe("i_src"), [wave(t) for t in t_mid])
        assert np.ptp(result.probe("i_src")) > 0.0
        assert np.allclose(np.abs(result.probe("i_c")), np.abs(result.probe("i_src")),
                           rtol=1e-12, atol=0.0)


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
