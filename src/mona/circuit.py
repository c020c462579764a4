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
    elements: tuple[NetlistElement, ...] = ()

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
    def n_isources(self) -> int:
        return self.a_i.shape[1]

    @property
    def n_devices(self) -> int:
        return self.a_m.shape[1]

    @property
    def n_inductors(self) -> int:
        return self.a_l.shape[1]

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
        raise KeyError(f"no branch named {name!r}")


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

    reach = _reachable_from_ground(pairs, n_nodes)
    missing = [n for n in range(1, n_nodes + 1) if n not in reach]
    if missing:
        raise TopologyError(f"nodes not connected to ground: {missing}")

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
        elements=elements,
    )


def _reachable_from_ground(pairs: dict, n_nodes: int) -> set:
    adj = {n: [] for n in range(n_nodes + 1)}
    for kind_pairs in pairs.values():
        for plus, minus in kind_pairs:
            adj[plus].append(minus)
            adj[minus].append(plus)
    seen = {GROUND}
    queue = deque([GROUND])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


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

    Fatal: loops made of voltage sources only (conflicting potentials),
    cutsets made of current sources only (unsatisfiable current law), and
    nodes unreachable from ground.  Loops that mix voltage sources with
    field-device branches are reported as warnings only: a device winding
    behaves like an inductor, so putting a source directly across it is
    legitimate and solvable.
    """
    errors, warnings = [], []

    reach = _reachable_from_ground(graph.branch_pairs, graph.n_nodes)
    unreachable = [n for n in range(1, graph.n_nodes + 1) if n not in reach]
    if unreachable:
        touched = tuple(sorted({
            name
            for kind in ELEMENT_KINDS
            for name, (p, m) in zip(graph.branch_names[kind], graph.branch_pairs[kind])
            if p in unreachable or m in unreachable
        }))
        errors.append(TopologyIssue(
            "unreachable", touched,
            f"nodes {unreachable} are not connected to ground (elements: {', '.join(touched)})"))

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
    parent = list(range(graph.n_nodes + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for kind in ELEMENT_KINDS:
        if kind == "I":
            continue
        for p, m in graph.branch_pairs[kind]:
            parent[find(p)] = find(m)
    offending = tuple(
        name for name, (p, m) in zip(graph.branch_names["I"], graph.branch_pairs["I"])
        if find(p) != find(m)
    )
    if offending:
        errors.append(TopologyIssue(
            "current_cutset", offending,
            f"current sources form a cutset: {{{', '.join(offending)}}}"))

    return TopologyReport(errors=errors, warnings=warnings)


def _subgraph_cycles(graph: CircuitGraph, kinds) -> list:
    """Fundamental cycles of the subgraph spanned by the given branch kinds.

    A spanning forest is grown edge by edge; every edge that closes a cycle
    is paired with the forest path between its endpoints.  Returns one list
    of (element name, kind) per independent cycle.  Graphs here are tiny, so
    the repeated path searches are fine.
    """
    forest = {}
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
            forest.setdefault(p, [])
            forest.setdefault(m, [])
            reachable = m in _forest_component(forest, p)
            if reachable:
                cycles.append(forest_path(p, m) + [(name, kind)])
            else:
                forest[p].append((m, (name, kind)))
                forest[m].append((p, (name, kind)))
    return cycles


def _forest_component(forest, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w, _label in forest.get(u, []):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def resistive_branch_current(graph: CircuitGraph, v_branch: np.ndarray):
    """Branch currents and conductances of the resistive partition.

    ``v_branch`` concatenates linear branches first, diodes after.  Linear
    branches obey i = G v; diodes use the exponential law with the argument
    capped at :data:`DIODE_EXP_CAP` thermal voltages, beyond which a linear
    continuation keeps values and slopes finite.  Returns ``(i, di/dv)``.
    """
    v_branch = np.asarray(v_branch, dtype=float)
    n_lin = graph.n_linear_resistive
    if v_branch.shape != (graph.n_resistive,):
        raise ValueError(f"expected {graph.n_resistive} branch voltages")

    i = np.empty_like(v_branch)
    didv = np.empty_like(v_branch)
    i[:n_lin] = graph.conductance * v_branch[:n_lin]
    didv[:n_lin] = graph.conductance

    if graph.n_diodes:
        v = v_branch[n_lin:]
        i_s, v_th, r_p = graph.diode_saturation, graph.diode_thermal, graph.diode_parallel
        x = v / v_th
        e = np.exp(np.minimum(x, DIODE_EXP_CAP))
        over = x > DIODE_EXP_CAP
        growth = np.where(over, e * (1.0 + (x - DIODE_EXP_CAP)), e)
        i[n_lin:] = i_s * (growth - 1.0) + v / r_p
        didv[n_lin:] = i_s / v_th * e + 1.0 / r_p
    return i, didv


def diode_voltage_limit(v_new: np.ndarray, v_old: np.ndarray,
                        thermal: np.ndarray, saturation: np.ndarray) -> np.ndarray:
    """Junction-style limiting of a proposed diode voltage update.

    Forward voltages may not jump by more than a logarithmic contraction of
    the proposed change once past the critical voltage; this is the standard
    guard that keeps Newton iterates out of the exponential's overflow region
    without giving up quadratic convergence near the solution (the limit is
    inactive for changes below two thermal voltages).
    """
    v_crit = thermal * np.log(thermal / (np.sqrt(2.0) * saturation))
    change = v_new - v_old
    active = (v_new > v_crit) & (np.abs(change) > 2.0 * thermal)
    arg = 1.0 + change / thermal
    contracted = np.where(arg > 0.0,
                          v_old + thermal * np.log(np.maximum(arg, 1e-300)),
                          v_crit)
    limited = np.where(v_old > 0.0, contracted, v_crit)
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
