"""Netlist assembly and the built-in full-wave rectifier demo.

:func:`assemble_netlist` is the one chain from netlist text to a coupled
system: parse, incidence, topology check, then :func:`assemble_graph` for
the field model and the assembly.  Every CLI subcommand that simulates goes
through it; ``check`` runs the same links itself to print the topology
report between them.

In the demo, a 60 Hz, 160 V sine drives the primary of the built-in
transformer; the secondary feeds a four-diode bridge into a 10 ohm load whose
minus rail is ground.  Node 4 is the rectified output.  The transformer
geometry is the parameterized core of :class:`mona.fem.TransformerParams`;
turn counts give an open-circuit secondary amplitude of about 20 V, so the
output peaks near 20 V minus two diode drops.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import NamedTuple

from .circuit import CircuitGraph, build_incidence, validate_topology
from .coupling import CoupledSystem, assemble_coupled
from .errors import NetlistError, TopologyError
from .fem import TransformerParams, build_field_model, generate_transformer_mesh, load_mesh
from .netlist import ParsedNetlist, parse_netlist

__all__ = ["DEMO_NETLIST", "DEMO_MESH_DENSITY", "DEMO_PROBES", "Assembly",
           "assemble_netlist", "assemble_graph"]

log = logging.getLogger(__name__)

DEMO_NETLIST = """\
# full-wave rectifier: source, transformer, diode bridge, resistive load
V src 1 0 SIN(160 60)
M xfmr 1 0 2 3 FIELD=builtin
D d1 2 4 IS=1e-14 VT=0.025 RP=1e12
D d2 3 4 IS=1e-14 VT=0.025 RP=1e12
D d3 0 2 IS=1e-14 VT=0.025 RP=1e12
D d4 0 3 IS=1e-14 VT=0.025 RP=1e12
R load 4 0 10
"""

DEMO_MESH_DENSITY = 0.0125  # 32x32 cells, 2048 triangles

# trace probes of the demo: source voltage, rectified output, load-node state
DEMO_PROBES = "v_src=v(src),v_R=v(load),psi_load=psi(4)"


class Assembly(NamedTuple):
    parsed: ParsedNetlist
    system: CoupledSystem


def assemble_netlist(text: str, mesh=None, mesh_density: float | None = None,
                     base=Path(".")) -> Assembly:
    """Parse netlist text, check its topology and assemble the coupled system.

    The devices' FIELD reference resolves as :func:`assemble_graph` says.
    """
    parsed = parse_netlist(text)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    report = validate_topology(graph)
    for issue in report.warnings:
        log.info("topology: %s", issue.message)
    if not report.passed:
        raise TopologyError(str(report))
    return Assembly(parsed, assemble_graph(parsed, graph, mesh, mesh_density, base))


def assemble_graph(parsed: ParsedNetlist, graph: CircuitGraph, mesh,
                   mesh_density: float | None, base) -> CoupledSystem:
    """The coupled system of a parsed netlist and its checked circuit graph.

    The devices' FIELD reference resolves to the mesh file ``mesh`` when one
    is given; otherwise ``builtin`` is the built-in transformer at
    ``mesh_density`` (default :data:`DEMO_MESH_DENSITY`) and any other value
    is a mesh file relative to ``base``.
    """
    refs = {el.field_ref for el in parsed.elements if el.kind == "M"}
    fieldmodel = None
    if refs:
        if len(refs) > 1:
            raise NetlistError(f"all devices must share one FIELD reference, got {sorted(refs)}")
        ref = refs.pop()
        if mesh is not None:
            parts = load_mesh(mesh)
        elif ref.lower() == "builtin":
            density = DEMO_MESH_DENSITY if mesh_density is None else mesh_density
            parts = generate_transformer_mesh(TransformerParams(), density)
        else:
            parts = load_mesh(Path(base) / ref)
        fieldmodel = build_field_model(*parts)

    system = assemble_coupled(graph, fieldmodel)
    log.info("assembled system: %s", system.dimension_report())
    return system
