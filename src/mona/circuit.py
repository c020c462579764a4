"""Lumped circuit topology and constitutive laws in magnetic-oriented variables.

States are magnetic node potentials (time integrals of the nodal voltages)
and branch charges, so every voltage and current appears as the time
derivative of a state.  Topology is stored as reduced branch-to-node
incidence matrices: one column per branch with +1 at the plus node and -1
at the minus node, and the ground row (node 0) eliminated.

Resistive branches come in two partitions: linear conductances and
exponential diodes.  Keeping them separate lets the linear part enter the
system matrices as a constant stamp while the diodes are evaluated through
their nonlinear branch law.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TopologyError
from .sources import Waveform

__all__ = [
    "GROUND",
    "DiodeParams",
    "NetlistElement",
    "CircuitGraph",
    "TopologyIssue",
    "TopologyReport",
    "build_incidence",
    "validate_topology",
    "resistive_branch_current",
    "diode_law",
    "diode_critical_voltage",
    "diode_voltage_limit",
    "circuit_energy",
]

GROUND = 0

ELEMENT_KINDS = ("R", "C", "L", "V", "I", "D", "M")

# Beyond this many thermal voltages the exponential is continued linearly so
# that Newton iterates stay finite on wild trial points.
DIODE_EXP_CAP = 500.0


@dataclass(frozen=True)
class DiodeParams:
    """Exponential diode: i = I_s*(exp(v/V_th) - 1) + v/R_par."""

    saturation_current: float  # I_s [A]
    thermal_voltage: float     # V_th [V]
    parallel_resistance: float  # R_par [ohm]

    def __post_init__(self):
        for name in ("saturation_current", "thermal_voltage", "parallel_resistance"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"diode {name} must be positive")


@dataclass(frozen=True)
class NetlistElement:
    """One circuit element.

    ``nodes`` holds the branch terminals (plus, minus); field devices (kind
    ``M``) carry an ordered list with two terminals per winding.  ``value``
    is the conductance [S], capacitance [F], or inductance [H] for R/C/L.
    """

    kind: str
    name: str
    nodes: tuple[int, ...]
    value: float | None = None
    waveform: Waveform | None = None
    diode: DiodeParams | None = None
    field_ref: str | None = None

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if not self.name:
            raise ValueError("element name must be non-empty")
        if any(n < 0 for n in self.nodes):
            raise ValueError(f"{self.name}: negative node id")
        if self.kind == "M":
            if len(self.nodes) < 2 or len(self.nodes) % 2 != 0:
                raise ValueError(f"{self.name}: field device needs two terminals per winding")
            if not self.field_ref:
                raise ValueError(f"{self.name}: field device needs a field reference")
        else:
            if len(self.nodes) != 2:
                raise ValueError(f"{self.name}: expected two terminals")
        for plus, minus in self.terminal_pairs():
            if plus == minus:
                raise ValueError(f"{self.name}: branch connects node {plus} to itself")
        if self.kind in ("R", "C", "L"):
            if self.value is None or not self.value > 0.0:
                raise ValueError(f"{self.name}: value must be positive")
        if self.kind in ("V", "I") and self.waveform is None:
            raise ValueError(f"{self.name}: source needs a waveform")
        if self.kind == "D" and self.diode is None:
            raise ValueError(f"{self.name}: diode needs parameters")

    def terminal_pairs(self) -> list[tuple[int, int]]:
        """Branch terminal pairs: one pair, or one per winding for M."""
        return [(self.nodes[i], self.nodes[i + 1]) for i in range(0, len(self.nodes), 2)]


@dataclass
class CircuitGraph:
    """Assembled circuit: reduced incidence matrices plus element parameters.

    Resistive columns are ordered linear-first, diodes after, so the combined
    resistive incidence matrix is ``a_r = [a_r_lin | a_r_dio]``.
    """

    n_nodes: int
    a_r: np.ndarray        # (n_nodes, n_lin + n_dio)
    a_c: np.ndarray
    a_l: np.ndarray
    a_v: np.ndarray
    a_i: np.ndarray
    a_m: np.ndarray
    conductance: np.ndarray       # diag G over linear resistive branches [S]
    capacitance: np.ndarray       # diag C [F]
    inv_inductance: np.ndarray    # diag 1/L [1/H]
    diode_saturation: np.ndarray  # per diode branch [A]
    diode_thermal: np.ndarray     # [V]
    diode_parallel: np.ndarray    # [ohm]
    voltage_waveforms: tuple[Waveform, ...]
    current_waveforms: tuple[Waveform, ...]
    branch_names: dict = field(default_factory=dict)   # kind -> tuple of names
    branch_pairs: dict = field(default_factory=dict)   # kind -> (n_k, 2) int array

    @property
    def n_linear_resistive(self) -> int:
        return self.conductance.size

    @property
    def n_diodes(self) -> int:
        return self.diode_saturation.size

    @property
    def n_resistive(self) -> int:
        return self.a_r.shape[1]

    @property
    def n_capacitors(self) -> int:
        return self.a_c.shape[1]

    @property
    def n_vsources(self) -> int:
        return self.a_v.shape[1]

    @property
    def n_devices(self) -> int:
        return self.a_m.shape[1]

    @cached_property
    def diode_exp_slope(self) -> np.ndarray:
        """I_s / V_th per diode [S]: the exponential's slope at zero."""
        return self.diode_saturation / self.diode_thermal

    @cached_property
    def diode_parallel_conductance(self) -> np.ndarray:
        """1 / R_par per diode [S]."""
        return 1.0 / self.diode_parallel

    def source_voltages(self, t: float) -> np.ndarray:
        """Voltages of the independent voltage sources at time t [V]."""
        return np.array([w(t) for w in self.voltage_waveforms], dtype=float)

    def source_currents(self, t: float) -> np.ndarray:
        """Currents of the independent current sources at time t [A]."""
        return np.array([w(t) for w in self.current_waveforms], dtype=float)

    @classmethod
    def empty(cls, n_devices: int = 0) -> "CircuitGraph":
        """Degenerate graph with no nodes, optionally with device branch stubs.

        Used for field-only reductions where the device currents are
        prescribed instead of being driven by a surrounding network.
        """
        def z(k):
            return np.zeros((0, k))
        return cls(
            n_nodes=0,
            a_r=z(0), a_c=z(0), a_l=z(0), a_v=z(0), a_i=z(0), a_m=z(n_devices),
            conductance=np.zeros(0), capacitance=np.zeros(0), inv_inductance=np.zeros(0),
            diode_saturation=np.zeros(0), diode_thermal=np.zeros(0), diode_parallel=np.zeros(0),
            voltage_waveforms=(), current_waveforms=(),
            branch_names={k: () for k in ELEMENT_KINDS},
            branch_pairs={k: np.zeros((0, 2), dtype=int) for k in ELEMENT_KINDS},
        )

    def find_branch(self, name: str) -> tuple[str, int]:
        """Locate an element by name; returns (kind, column index within its kind)."""
        for kind, names in self.branch_names.items():
            if name in names:
                return kind, names.index(name)
        raise ValueError(f"unknown element {name!r}")


def _stamp(columns, n_nodes: int) -> np.ndarray:
    mat = np.zeros((n_nodes, len(columns)))
    for k, (plus, minus) in enumerate(columns):
        if plus != GROUND:
            mat[plus - 1, k] = 1.0
        if minus != GROUND:
            mat[minus - 1, k] = -1.0
    return mat


def build_incidence(elements, n_nodes: int) -> CircuitGraph:
    """Assemble the reduced incidence matrices and parameter tables.

    Branch order within each kind follows the element order; diodes form a
    separate resistive partition appended after the linear conductances.
    Raises :class:`TopologyError` when node ids are out of range, names
    collide, or the graph is not connected to ground.
    """
    elements = tuple(elements)
    if not elements:
        raise TopologyError("netlist contains no elements")

    names_seen = set()
    for el in elements:
        if el.name in names_seen:
            raise TopologyError(f"duplicate element name {el.name!r}")
        names_seen.add(el.name)
        for n in el.nodes:
            if n > n_nodes:
                raise TopologyError(f"{el.name}: node id {n} exceeds node count {n_nodes}")

    pairs = {kind: [] for kind in ELEMENT_KINDS}
    names = {kind: [] for kind in ELEMENT_KINDS}
    g, c, linv = [], [], []
    d_is, d_vth, d_rp = [], [], []
    v_wave, i_wave = [], []
    for el in elements:
        for plus, minus in el.terminal_pairs():
            pairs[el.kind].append((plus, minus))
            names[el.kind].append(el.name)
        if el.kind == "R":
            g.append(el.value)
        elif el.kind == "C":
            c.append(el.value)
        elif el.kind == "L":
            linv.append(1.0 / el.value)
        elif el.kind == "D":
            d_is.append(el.diode.saturation_current)
            d_vth.append(el.diode.thermal_voltage)
            d_rp.append(el.diode.parallel_resistance)
        elif el.kind == "V":
            v_wave.append(el.waveform)
        elif el.kind == "I":
            i_wave.append(el.waveform)

    sets = _NodeSets(n_nodes)
    for kind_pairs in pairs.values():
        for plus, minus in kind_pairs:
            sets.join(plus, minus)
    ground = sets.find(GROUND)
    missing = [n for n in range(1, n_nodes + 1) if sets.find(n) != ground]
    if missing:
        touched = sorted({name for kind in ELEMENT_KINDS
                          for name, (p, m) in zip(names[kind], pairs[kind])
                          if p in missing or m in missing})
        raise TopologyError(f"nodes {missing} are not connected to ground "
                            f"(elements: {', '.join(touched)})")

    a_r = np.hstack([_stamp(pairs["R"], n_nodes), _stamp(pairs["D"], n_nodes)])
    return CircuitGraph(
        n_nodes=n_nodes,
        a_r=a_r,
        a_c=_stamp(pairs["C"], n_nodes),
        a_l=_stamp(pairs["L"], n_nodes),
        a_v=_stamp(pairs["V"], n_nodes),
        a_i=_stamp(pairs["I"], n_nodes),
        a_m=_stamp(pairs["M"], n_nodes),
        conductance=np.asarray(g, dtype=float),
        capacitance=np.asarray(c, dtype=float),
        inv_inductance=np.asarray(linv, dtype=float),
        diode_saturation=np.asarray(d_is, dtype=float),
        diode_thermal=np.asarray(d_vth, dtype=float),
        diode_parallel=np.asarray(d_rp, dtype=float),
        voltage_waveforms=tuple(v_wave),
        current_waveforms=tuple(i_wave),
        branch_names={k: tuple(v) for k, v in names.items()},
        branch_pairs={k: np.array(v, dtype=int).reshape(-1, 2) for k, v in pairs.items()},
    )


class _NodeSets:
    """Disjoint sets of the node ids 0..n_nodes, merged branch by branch
    (union-find); two nodes share a set when branches join them."""

    def __init__(self, n_nodes: int):
        self._parent = list(range(n_nodes + 1))

    def find(self, node: int) -> int:
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def join(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were one set already."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        self._parent[root_a] = root_b
        return True


@dataclass(frozen=True)
class TopologyIssue:
    code: str
    elements: tuple[str, ...]
    message: str


@dataclass
class TopologyReport:
    """Diagnostics from :func:`validate_topology`; fatal issues in ``errors``."""

    errors: list
    warnings: list

    @property
    def passed(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        lines = [f"error: {issue.message}" for issue in self.errors]
        lines += [f"warning: {issue.message}" for issue in self.warnings]
        return "\n".join(lines) if lines else "topology ok"


def validate_topology(graph: CircuitGraph) -> TopologyReport:
    """Check the assembled graph for structural problems before stepping.

    Fatal: loops made of voltage sources only (conflicting potentials) and
    cutsets made of current sources only (unsatisfiable current law); nodes
    unreachable from ground never get this far, :func:`build_incidence`
    rejects them.  Loops that mix voltage sources with
    field-device branches are reported as warnings only: a device winding
    behaves like an inductor, so putting a source directly across it is
    legitimate and solvable.
    """
    errors, warnings = [], []
    for cycle in _subgraph_cycles(graph, kinds=("V", "M")):
        names = tuple(dict.fromkeys(name for name, _kind in cycle))
        kinds = {k for _name, k in cycle}
        if kinds == {"V"}:
            errors.append(TopologyIssue(
                "voltage_loop", names,
                f"loop of ideal voltage sources: {{{', '.join(names)}}}"))
        else:
            warnings.append(TopologyIssue(
                "device_source_loop", names,
                f"loop of voltage sources and device windings: {{{', '.join(names)}}}"))

    # All-current-source cutsets: contract every non-I branch; an I branch
    # still spanning two components belongs to an I-only cutset.
    sets = _NodeSets(graph.n_nodes)
    for kind in ELEMENT_KINDS:
        if kind == "I":
            continue
        for p, m in graph.branch_pairs[kind]:
            sets.join(p, m)
    offending = tuple(
        name for name, (p, m) in zip(graph.branch_names["I"], graph.branch_pairs["I"])
        if sets.find(p) != sets.find(m)
    )
    if offending:
        errors.append(TopologyIssue(
            "current_cutset", offending,
            f"current sources form a cutset: {{{', '.join(offending)}}}"))

    return TopologyReport(errors=errors, warnings=warnings)


def _subgraph_cycles(graph: CircuitGraph, kinds) -> list:
    """Fundamental cycles of the subgraph spanned by the given branch kinds.

    A spanning forest is grown edge by edge; every edge whose endpoints the
    forest already joins closes a cycle and is paired with the forest path
    between them.  Returns one list of (element name, kind) per independent
    cycle.  Graphs here are tiny, so the path searches are fine.
    """
    forest = {}
    sets = _NodeSets(graph.n_nodes)
    cycles = []

    def forest_path(start, goal):
        prev = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if u == goal:
                break
            for w, label in forest.get(u, []):
                if w not in prev:
                    prev[w] = (u, label)
                    queue.append(w)
        path = []
        u = goal
        while prev[u] is not None:
            u, label = prev[u]
            path.append(label)
        return path

    for kind in kinds:
        for name, (p, m) in zip(graph.branch_names[kind], graph.branch_pairs[kind]):
            if sets.join(p, m):
                forest.setdefault(p, []).append((m, (name, kind)))
                forest.setdefault(m, []).append((p, (name, kind)))
            else:
                cycles.append(forest_path(p, m) + [(name, kind)])
    return cycles


def diode_law(graph: CircuitGraph, v: np.ndarray):
    """Currents I_s*(exp(v/V_th) - 1) + v/R_par of the diodes at voltages v and
    their slopes di/dv, from one exponential, continued linearly (with the
    cap's slope) past :data:`DIODE_EXP_CAP` thermal voltages to stay finite."""
    x = v / graph.diode_thermal
    if x.size and x.max() > DIODE_EXP_CAP:
        e = np.exp(np.minimum(x, DIODE_EXP_CAP))
        growth = np.where(x > DIODE_EXP_CAP, e * (1.0 + (x - DIODE_EXP_CAP)), e)
    else:
        e = growth = np.exp(x)
    return (graph.diode_saturation * (growth - 1.0) + v / graph.diode_parallel,
            graph.diode_exp_slope * e + graph.diode_parallel_conductance)


def resistive_branch_current(graph: CircuitGraph, v_branch: np.ndarray) -> np.ndarray:
    """Branch currents of the resistive partition.

    ``v_branch`` concatenates linear branches first, diodes after.  Linear
    branches obey i = G v, diodes :func:`diode_law`.
    """
    v_branch = np.asarray(v_branch, dtype=float)
    if v_branch.shape != (graph.n_resistive,):
        raise ValueError(f"expected {graph.n_resistive} branch voltages")
    n_lin = graph.n_linear_resistive
    i = np.empty_like(v_branch)
    i[:n_lin] = graph.conductance * v_branch[:n_lin]
    if graph.n_diodes:
        i[n_lin:] = diode_law(graph, v_branch[n_lin:])[0]
    return i


def diode_critical_voltage(thermal: np.ndarray, saturation: np.ndarray) -> np.ndarray:
    """Critical voltage V_th * ln(V_th / (sqrt(2) * I_s)) of exponential diodes,
    where the diode current's curvature is largest; voltage limiting acts
    only above it."""
    return thermal * np.log(thermal / (np.sqrt(2.0) * saturation))


def diode_voltage_limit(v_new: np.ndarray, v_old: np.ndarray,
                        thermal: np.ndarray, critical: np.ndarray) -> np.ndarray:
    """Junction-style limiting of a proposed diode voltage update.

    Forward voltages may not jump by more than a logarithmic contraction of
    the proposed change once past the critical voltage ``critical``
    (:func:`diode_critical_voltage` of the diodes, which depends on their
    parameters only, so a caller builds it once); this is the standard
    guard that keeps Newton iterates out of the exponential's overflow region
    without giving up quadratic convergence near the solution (the limit is
    inactive for changes below two thermal voltages).  When it limits no
    diode, ``v_new`` itself is returned.
    """
    change = v_new - v_old
    active = (v_new > critical) & (np.abs(change) > 2.0 * thermal)
    if not active.any():
        return v_new
    arg = 1.0 + change / thermal
    contracted = np.where(arg > 0.0,
                          v_old + thermal * np.log(np.maximum(arg, 1e-300)),
                          critical)
    limited = np.where(v_old > 0.0, contracted, critical)
    return np.where(active, limited, v_new)


def circuit_energy(graph: CircuitGraph, psi: np.ndarray, q_c: np.ndarray) -> float:
    """Energy stored in inductors and capacitors at the given state."""
    psi = np.asarray(psi, dtype=float)
    q_c = np.asarray(q_c, dtype=float)
    if psi.shape != (graph.n_nodes,):
        raise ValueError(f"psi must have length {graph.n_nodes}")
    if q_c.shape != (graph.n_capacitors,):
        raise ValueError(f"q_c must have length {graph.n_capacitors}")
    phi_l = graph.a_l.T @ psi
    inductive = 0.5 * float(phi_l @ (graph.inv_inductance * phi_l))
    capacitive = 0.5 * float(q_c @ (q_c / graph.capacitance)) if q_c.size else 0.0
    return inductive + capacitive
