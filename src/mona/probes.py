"""Named scalar probes evaluated after every accepted time step.

Probe expressions:

* ``H``           total stored energy at the step's end time
* ``psi(node)``   magnetic node potential (a state, end of step)
* ``u(node)``     electric node potential (a rate, interval midpoint)
* ``v(elem)``     branch voltage of a named element (rate, midpoint)
* ``i(elem)``     branch current of a named element

Voltages and currents are difference quotients of the step, i.e.
second-order accurate at the midpoint of the step they belong to; states are
exact grid-point values, which also makes them the right choice for
step-halving error studies.
"""

from __future__ import annotations

import re

from .circuit import diode_law
from .coupling import CoupledSystem
from .netlist import GROUND_NAMES

__all__ = ["compile_probe", "parse_probe_spec", "default_state_probe"]

# the columns trace.csv writes besides the probes: time, energy, balance residual
RESERVED_NAMES = ("t", "H", "eps_H")

_CALL = re.compile(r"^\s*(psi|u|v|i)\s*\(\s*([^()\s]+)\s*\)\s*$", re.IGNORECASE)


def _node_index(system: CoupledSystem, token: str, node_ids: dict | None) -> int:
    if token.lower() in GROUND_NAMES:
        return 0
    if node_ids is not None and token in node_ids:
        node = node_ids[token]
    else:
        try:
            node = int(token)
        except ValueError:
            raise ValueError(f"unknown node {token!r}") from None
    if not 0 <= node <= system.graph.n_nodes:
        raise ValueError(f"node id {node} out of range")
    return node


def compile_probe(system: CoupledSystem, expr: str, node_ids: dict | None = None):
    """Turn a probe expression into a callable ``probe(state, t_mid)`` of the
    :class:`~mona.stepping.StepState` a step reached and its midpoint time
    (:func:`~mona.stepping.run_transient`).  A field device of more than one
    winding has no one branch for ``v()`` or ``i()`` to read."""
    text = expr.strip()
    if text.upper() == "H":
        return lambda state, t_mid: state.energy

    match = _CALL.match(text)
    if not match:
        raise ValueError(f"cannot parse probe expression {expr!r}")
    fn, arg = match.group(1).lower(), match.group(2)
    psi_slice = system.layout.block_slice("psi")

    if fn in ("psi", "u"):
        node = _node_index(system, arg, node_ids)
        if node == 0:
            return lambda state, t_mid: 0.0
        off = psi_slice.start + node - 1
        if fn == "psi":
            return lambda state, t_mid: float(state.y[off])
        return lambda state, t_mid: float(state.rate[off])

    g = system.graph
    kind, col = g.find_branch(arg)
    windings = g.branch_names[kind].count(arg)
    if windings > 1:
        raise ValueError(f"probe {expr!r}: element {arg!r} has {windings} windings; "
                         f"{fn}() reads a device of a single winding")

    incidence = g.incidence(kind)
    if fn == "v":
        column = incidence[:, col]
        return lambda state, t_mid: float(column @ state.rate[psi_slice])

    # fn == "i"
    if kind in ("R", "D"):
        def probe_i(state, t_mid):
            v = incidence.T @ state.rate[psi_slice]
            return float((g.conductance * v if kind == "R" else diode_law(g, v)[0])[col])
        return probe_i
    if kind == "L":
        return lambda state, t_mid: float(g.inv_inductance[col]
                                          * (incidence[:, col] @ state.y[psi_slice]))
    if kind in ("C", "V", "M"):
        block = {"C": "q_c", "V": "q_v", "M": "q_m"}[kind]
        off = system.layout.block_slice(block).start + col
        return lambda state, t_mid: float(state.rate[off])
    if kind == "I":
        wave = g.current_waveforms[col]
        return lambda state, t_mid: float(wave(t_mid))
    raise ValueError(f"probe {fn!r} is not defined for element kind {kind!r}")


def parse_probe_spec(system: CoupledSystem, spec: str, node_ids: dict | None = None) -> dict:
    """Parse ``name=expr,name=expr`` into a probe dict; names must be unique
    and none of :data:`RESERVED_NAMES`, the trace's own columns."""
    probes = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"probe {item!r} must look like name=expression")
        name, expr = (s.strip() for s in item.split("=", 1))
        if name in probes:
            raise ValueError(f"duplicate probe name {name!r}")
        if name in RESERVED_NAMES:
            raise ValueError(f"probe name {name!r} is reserved: trace.csv has its own "
                             f"column {name!r}")
        probes[name] = compile_probe(system, expr, node_ids)
    return probes


def default_state_probe(system: CoupledSystem):
    """State probe for convergence studies: the magnetic potential of the
    node adjacent to the first linear resistor (the load), falling back to
    the first state component."""
    pairs = system.graph.branch_pairs.get("R")
    if pairs is not None and len(pairs):
        plus, minus = pairs[0]
        node = plus if plus != 0 else minus
        off = system.layout.block_slice("psi").start + node - 1
        return lambda state, t_mid: float(state.y[off])
    if system.layout.size == 0:
        raise ValueError("system has no state to probe")
    return lambda state, t_mid: float(state.y[0])
