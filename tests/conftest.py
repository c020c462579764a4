"""Shared builders: small circuits and a coarse-mesh rectifier system, and
the oracles that tests compare the solver with."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mona.circuit import build_incidence, diode_law
from mona.coupling import assemble_coupled
from mona.demo import DEMO_NETLIST
from mona.fem import TransformerParams, build_field_model, generate_transformer_mesh
from mona.netlist import parse_netlist

RLC_NETLIST = """
V src 1 0 SIN(10 50)
R r1 1 2 2
L l1 2 3 0.01
C c1 3 0 0.001
"""

LINEAR_COUPLED_NETLIST = """
V src 1 0 SIN(160 60)
M xfmr 1 0 2 0 FIELD=builtin
R load 2 0 10
"""

# sources and capacitors only: no resistor, diode or inductor, so the psi/psi
# block of the midpoint iteration matrix is empty
SOURCE_CAPACITOR_NETLISTS = (
    "I src 1 0 SIN(1 50)\nC c1 1 0 1e-3\n",
    "V src 1 0 SIN(10 50)\nC c1 1 2 1e-3\nC c2 2 0 1e-3\n",
)

COARSE_MESH_DENSITY = 0.025  # 512 triangles, 225 interior dofs


def state_probe(state, t_mid):
    """The probe that keeps each step's state: ``run_transient(...,
    probes={"y": state_probe}).probe("y")`` is the (n_steps, n) history."""
    return state.y


def build_from_netlist(text, field=None):
    parsed = parse_netlist(text)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    system = assemble_coupled(graph, field)
    return parsed, graph, system


@pytest.fixture(scope="session")
def coarse_field():
    mesh, materials, windings = generate_transformer_mesh(
        TransformerParams(), COARSE_MESH_DENSITY)
    return build_field_model(mesh, materials, windings)


@pytest.fixture(scope="session")
def rlc():
    return build_from_netlist(RLC_NETLIST)


@pytest.fixture(scope="session")
def rectifier(coarse_field):
    return build_from_netlist(DEMO_NETLIST, field=coarse_field)


@pytest.fixture(scope="session")
def linear_coupled(coarse_field):
    return build_from_netlist(LINEAR_COUPLED_NETLIST, field=coarse_field)


def reference_newton(residual, jacobian, x0, scale=None, const_magnitude=0.0, limiter=None):
    """The tests' reference solver: exact Newton on all unknowns, with a
    sparse LU of ``jacobian(x)`` at every iterate and no line search.  Its
    tolerance, 1e-12 as the solver's, is on the max norm of the residual
    over ``scale`` (ones by default), floored as the solver's at 4 eps
    (|J| |x| + ``const_magnitude``) / 1e-12, where binary64 cannot reach
    it.  ``limiter(x, x + dx)`` may reshape a full step; the step is taken,
    uphill too, as long as its residual is finite."""
    tol = 1e-12
    x = np.array(x0, dtype=float)
    scale = np.ones_like(x) if scale is None else scale
    r = residual(x)
    for _ in range(50):
        jac = sp.csc_matrix(jacobian(x))
        floored = np.maximum(scale, 4.0 * np.finfo(float).eps / tol
                             * (abs(jac) @ np.abs(x) + const_magnitude))
        nrm = np.max(np.abs(r) / floored)
        if nrm <= tol:
            return x
        x_new = x + splu(jac).solve(-r)
        x = x_new if limiter is None else limiter(x, x_new)
        r = residual(x)
        if not np.isfinite(r).all():
            raise AssertionError("reference Newton reached a non-finite residual")
    raise AssertionError("reference Newton did not converge in 50 iterations")


def _rationals(values):
    """Each binary64 value as the rational it is."""
    return [Fraction(float(v)) for v in values]


def _exact_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _exact_operator(matrix):
    """x -> ``matrix @ x`` on lists of Fractions, with ``matrix``'s binary64
    entries read as rationals and every product and sum exact."""
    csr = sp.csr_matrix(matrix)
    rows = [(csr.indices[lo:hi], _rationals(csr.data[lo:hi]))
            for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:])]
    return lambda x: [_exact_dot(data, [x[j] for j in cols]) for cols, data in rows]


def exact_balance_defects(system, grid, states):
    """The exact balance defect eps_H of each step of a run from rest on
    ``grid``, from its stored binary64 ``states`` (the (n_steps, n) history
    of :func:`state_probe`), in ``fractions.Fraction``: every binary64 value,
    of a state, tau, the incidences, 1/L, C, G, coef, M, the conductances
    and the source values at the step's midpoint time, is read as the
    rational it is, and every sum, product and quotient of the identity
    (H(y_next) - H(y_prev))/tau + losses + source powers is exact, with the
    rate (y_next - y_prev)/tau exact too.  A diode current enters as the
    binary64 value the law gives at the binary64 branch voltage that
    :meth:`CoupledSystem.power_balance` forms; its pairing with the exact
    voltage is exact.  Returns the defects as Fractions, one per step."""
    g, lay, field = system.graph, system.layout, system.field
    psi_sl, qc_sl, qv_sl, _qm_sl, a_sl = lay.slices
    tau, half = Fraction(grid.tau), Fraction(1, 2)
    inv_l, cap, conductance = (_rationals(v) for v in
                               (g.inv_inductance, g.capacitance, g.conductance))
    incidence_t = {kind: _exact_operator(g.incidence(kind).T) for kind in "LRDI"}
    if field is not None:
        coef, grad_op, mass_op = (_rationals(field.coef), _exact_operator(field.element_map),
                                  _exact_operator(system.mass))

    def energy(y):
        phi = incidence_t["L"](y[psi_sl])
        h = half * _exact_dot(inv_l, [p * p for p in phi])
        h += half * sum((q * q / c for q, c in zip(y[qc_sl], cap)), Fraction(0))
        if field is not None:
            grad = grad_op(y[a_sl])
            gx, gy = grad[:len(coef)], grad[len(coef):]
            h += half * _exact_dot(coef, [x * x + z * z for x, z in zip(gx, gy)])
        return h

    y_prev = np.zeros(lay.size)
    exact_prev = [Fraction(0)] * lay.size
    h_prev = energy(exact_prev)
    defects = []
    for n, y_next in enumerate(states, start=1):
        exact_next = _rationals(y_next)
        h_next = energy(exact_next)
        rate = [(b - a) / tau for a, b in zip(exact_prev, exact_next)]
        psi_dot = rate[psi_sl]
        sources = system.sources(grid.time(n - 1) + 0.5 * grid.tau)
        # the diode currents as the law gives them at the audit's voltages
        rate64 = y_next - y_prev
        rate64 /= grid.tau
        i_d = diode_law(g, g.incidence("D").T @ rate64[psi_sl])[0]
        v_lin, v_d = incidence_t["R"](psi_dot), incidence_t["D"](psi_dot)
        loss = _exact_dot(conductance, [v * v for v in v_lin])
        loss += _exact_dot(_rationals(i_d), v_d)
        if field is not None:
            a_dot = rate[a_sl]
            loss += _exact_dot(a_dot, mass_op(a_dot))
        source = _exact_dot(incidence_t["I"](psi_dot), _rationals(sources.currents))
        source += _exact_dot(_rationals(sources.voltages), rate[qv_sl])
        defects.append((h_next - h_prev) / tau + loss + source)
        y_prev, exact_prev, h_prev = y_next, exact_next, h_next
    return defects


def random_state(system, rng, amplitude=0.1):
    lay = system.layout
    return amplitude * rng.standard_normal(lay.size)


def dense_incidence(pairs, n_nodes):
    """Independent incidence stamping used by the dense oracles."""
    mat = np.zeros((n_nodes, len(pairs)))
    for k, (plus, minus) in enumerate(pairs):
        if plus:
            mat[plus - 1, k] = 1.0
        if minus:
            mat[minus - 1, k] = -1.0
    return mat
