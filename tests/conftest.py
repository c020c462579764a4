"""Shared builders: small circuits and a coarse-mesh rectifier system."""

import numpy as np
import pytest
import scipy.sparse as sp

from mona.circuit import build_incidence
from mona.coupling import assemble_coupled
from mona.demo import DEMO_NETLIST
from mona.fem import TransformerParams, build_field_model, generate_transformer_mesh
from mona.netlist import parse_netlist
from mona.stepping import FactorCache

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
# block of the midpoint iteration matrix has no entry to stamp
SOURCE_CAPACITOR_NETLISTS = (
    "I src 1 0 SIN(1 50)\nC c1 1 0 1e-3\n",
    "V src 1 0 SIN(10 50)\nC c1 1 2 1e-3\nC c2 2 0 1e-3\n",
)

COARSE_MESH_DENSITY = 0.025  # 512 triangles, 225 interior dofs


def state_probe(ctx):
    """The probe that keeps each step's state: ``run_transient(...,
    probes={"y": state_probe}).probe("y")`` is the (n_steps, n) history."""
    return ctx.y_next


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


def dense_cache(n):
    """A FactorCache with every entry of an n x n matrix stamped: it factors
    whatever dense matrix the Newton Jacobian returns the entries of, in
    row-major order."""
    rows, cols = np.indices((n, n)).reshape(2, -1)
    return FactorCache(sp.csc_matrix((n, n)), rows, cols)


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
