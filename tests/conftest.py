"""Shared builders: small circuits and a coarse-mesh rectifier system."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mona.circuit import build_incidence
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
    """The tests' reference solver: damped exact Newton on all unknowns, with
    a sparse LU of ``jacobian(x)`` at every iterate.  Its tolerance, 1e-12
    as the solver's, is on the max norm of the residual over ``scale`` (ones
    by default), floored as the solver's at 4 eps (|J| |x| +
    ``const_magnitude``) / 1e-12, where binary64 cannot reach it.  ``limiter(x, x + dx)`` may reshape a full
    step, which is then taken as long as it is finite; any other step is
    halved until the residual drops."""
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
        dx = splu(jac).solve(-r)
        proposal = x + dx if limiter is None else limiter(x, x + dx)
        limited = not np.array_equal(proposal, x + dx)
        dx = proposal - x
        for halvings in range(31):
            x_try = x + 0.5 ** halvings * dx
            r_try = residual(x_try)
            n_try = np.max(np.abs(r_try) / floored)
            if np.isfinite(n_try) and (n_try < nrm or (limited and not halvings)):
                break
        x, r = x_try, r_try
    raise AssertionError("reference Newton did not converge in 50 iterations")


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
