"""The coupled field-circuit differential-algebraic system.

State vector blocks, in order: magnetic node potentials, capacitor charges,
voltage-source charges, device-terminal charges, and the interior vector
-potential unknowns of the field model.  The residual stacks

* the nodal current law (resistive currents, branch charge rates, inductor
  currents, impressed source currents),
* the capacitor law,
* the voltage-source constraint,
* the terminal-voltage match between circuit and device, and
* the discrete eddy-current equation driven by the device currents,

with everything unknown on the left.  The same blocks split into a monotone
rate operator plus an energy gradient minus a source vector; that splitting
is what makes the power bookkeeping exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .circuit import CircuitGraph, circuit_energy, resistive_branch_current
from .errors import MeshError
from .fem import FieldModel
from .sources import SourceSet

__all__ = [
    "BlockLayout",
    "PowerBreakdown",
    "CompactForm",
    "CoupledSystem",
    "assemble_coupled",
]

BLOCK_NAMES = ("psi", "q_c", "q_v", "q_m", "a")


@dataclass(frozen=True)
class BlockLayout:
    """Offsets and lengths of the state blocks inside a flat state vector."""

    n_nodes: int
    n_c: int
    n_v: int
    n_m: int
    n_a: int

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return (self.n_nodes, self.n_c, self.n_v, self.n_m, self.n_a)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for n in self.sizes:
            out.append(acc)
            acc += n
        return tuple(out)

    @cached_property
    def size(self) -> int:
        return sum(self.sizes)

    @cached_property
    def _slices(self) -> dict:
        return {name: slice(off, off + n)
                for name, off, n in zip(BLOCK_NAMES, self.offsets, self.sizes)}

    def block_slice(self, name: str) -> slice:
        return self._slices[name]

    def split(self, vec: np.ndarray):
        """Views of the five blocks of a conforming flat vector."""
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise ValueError(f"state vector must have length {self.size}")
        return tuple(vec[blk] for blk in self._slices.values())

    def pack(self, psi, q_c, q_v, q_m, a) -> np.ndarray:
        return np.concatenate([np.asarray(b, dtype=float).ravel()
                               for b in (psi, q_c, q_v, q_m, a)])

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size)


@dataclass(frozen=True)
class PowerBreakdown:
    """Signed power bookkeeping of one evaluation (units: watts).

    ``residual`` is the defect of the balance identity: the energy rate plus
    all losses plus both source terms.  On exact solution points it vanishes.
    """

    dh_dt: float
    resistive_loss: float
    eddy_loss: float
    source_power_i: float
    source_power_v: float
    residual: float


@dataclass(frozen=True)
class CompactForm:
    """Gradient-structure split: rate_op(ydot) + energy_gradient(y) = source(y, t)."""

    rate_op: object
    energy_gradient: object
    source: object


class CoupledSystem:
    """Residual / Jacobian / energy evaluator for the coupled DAE.

    Immutable after assembly; all evaluations are pure functions of their
    arguments, so concurrent calls on distinct buffers are safe.
    """

    def __init__(self, graph: CircuitGraph, field: FieldModel | None,
                 sources: SourceSet, terminal_map=None):
        self.graph = graph
        self.field = field
        self.sources = sources

        n_m = graph.n_devices
        if field is not None:
            if terminal_map is None:
                terminal_map = tuple(range(field.n_windings))
            terminal_map = tuple(int(k) for k in terminal_map)
            if n_m != field.n_windings or len(terminal_map) != n_m:
                raise MeshError(
                    f"device branch count ({n_m}) does not match winding count "
                    f"({field.n_windings})")
            if sorted(terminal_map) != list(range(n_m)):
                raise MeshError(f"terminal map {terminal_map} is not a permutation")
            self.winding_matrix = field.winding_matrix[:, terminal_map]
            self.mass = field.mass
            self.stiffness = field.stiffness
            n_a = field.n_dofs
        else:
            if n_m != 0:
                raise MeshError("circuit has device branches but no field model was given")
            self.winding_matrix = np.zeros((0, 0))
            self.mass = sp.csr_matrix((0, 0))
            self.stiffness = sp.csr_matrix((0, 0))
            n_a = 0
        self.terminal_map = terminal_map if field is not None else ()

        if len(sources.voltage) != graph.n_vsources:
            raise ValueError("source set does not match the number of voltage sources")
        if len(sources.current) != graph.n_isources:
            raise ValueError("source set does not match the number of current sources")

        self.layout = BlockLayout(n_nodes=graph.n_nodes, n_c=graph.n_capacitors,
                                  n_v=graph.n_vsources, n_m=n_m, n_a=n_a)

    # -- inspection --------------------------------------------------------

    def dimension_report(self) -> str:
        lay = self.layout
        return (f"nodes={lay.n_nodes} capacitors={lay.n_c} vsources={lay.n_v} "
                f"devices={lay.n_m} field_dofs={lay.n_a} total={lay.size}")

    # -- core evaluations ---------------------------------------------------

    def residual(self, y: np.ndarray, ydot: np.ndarray, t: float) -> np.ndarray:
        """Stacked DAE residual at state y, rate ydot, time t.

        The gradient-structure split of :meth:`compact_form`:
        rate_op(ydot) + energy_gradient(y) - source_vector(t).
        """
        y = np.asarray(y, dtype=float)
        ydot = np.asarray(ydot, dtype=float)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(ydot))):
            raise ValueError("residual called with non-finite state or rate")
        return self._rate_op(ydot) + self.energy_gradient(y) - self.source_vector(t)

    def _rate_op(self, ydot: np.ndarray) -> np.ndarray:
        """Resistive currents and the antisymmetric coupling blocks at rate ydot."""
        g = self.graph
        lay = self.layout
        psi_dot, qc_dot, qv_dot, qm_dot, a_dot = lay.split(np.asarray(ydot, dtype=float))
        i_r, _ = resistive_branch_current(g, g.a_r.T @ psi_dot)
        out = np.empty(lay.size)
        out[lay.block_slice("psi")] = (g.a_r @ i_r + g.a_c @ qc_dot + g.a_v @ qv_dot
                                       + g.a_m @ qm_dot)
        out[lay.block_slice("q_c")] = -(g.a_c.T @ psi_dot)
        out[lay.block_slice("q_v")] = -(g.a_v.T @ psi_dot)
        out[lay.block_slice("q_m")] = -(g.a_m.T @ psi_dot) + self.winding_matrix.T @ a_dot
        out[lay.block_slice("a")] = self.mass @ a_dot - self.winding_matrix @ qm_dot
        return out

    def jacobians(self, y: np.ndarray, ydot: np.ndarray, t: float):
        """(d residual / d y, d residual / d ydot) as sparse matrices.

        Only the diode conductances depend on the evaluation point; every
        other block is constant.
        """
        g = self.graph
        lay = self.layout
        psi_dot = self.layout.split(np.asarray(ydot, dtype=float))[0]

        j_state = {}
        if g.n_inductors:
            j_state[(0, 0)] = g.a_l @ np.diag(g.inv_inductance) @ g.a_l.T
        if g.n_capacitors:
            j_state[(1, 1)] = np.diag(1.0 / g.capacitance)
        if lay.n_a:
            j_state[(4, 4)] = self.stiffness

        j_rate = {(0, 0): self.conductance(psi_dot)}
        if g.n_capacitors:
            j_rate[(0, 1)] = g.a_c
            j_rate[(1, 0)] = -g.a_c.T
        if g.n_vsources:
            j_rate[(0, 2)] = g.a_v
            j_rate[(2, 0)] = -g.a_v.T
        if lay.n_m:
            j_rate[(0, 3)] = g.a_m
            j_rate[(3, 0)] = -g.a_m.T
        if lay.n_a:
            j_rate[(4, 4)] = self.mass
            if lay.n_m:
                j_rate[(3, 4)] = self.winding_matrix.T
                j_rate[(4, 3)] = -self.winding_matrix
        sizes = lay.sizes
        return _block_sparse(j_state, sizes), _block_sparse(j_rate, sizes)

    def conductance(self, psi_dot: np.ndarray) -> np.ndarray:
        """Nodal conductance matrix of the resistive branches at node rates psi_dot.

        The ``psi``/``psi`` block of the rate Jacobian, and the only block of
        either Jacobian that depends on the evaluation point.
        """
        g = self.graph
        _, didv = resistive_branch_current(g, g.a_r.T @ psi_dot)
        return g.a_r @ (didv[:, None] * g.a_r.T)

    def energy(self, y: np.ndarray) -> float:
        """Stored energy: inductors, capacitors, and the magnetic field.

        The field part is summed per mesh element so its rounding error is
        relative to the energy itself; the audit's difference quotients would
        otherwise drown in the cancellation noise of the assembled quadratic
        form.
        """
        psi, q_c, _q_v, _q_m, a = self.layout.split(np.asarray(y, dtype=float))
        h = circuit_energy(self.graph, psi, q_c)
        if a.size:
            h += self.field.energy(a)
        return h

    def energy_gradient(self, y: np.ndarray) -> np.ndarray:
        """Gradient of the stored energy; zero on the source and device charges."""
        g = self.graph
        lay = self.layout
        psi, q_c, _q_v, _q_m, a = lay.split(np.asarray(y, dtype=float))
        out = np.zeros(lay.size)
        out[lay.block_slice("psi")] = g.a_l @ (g.inv_inductance * (g.a_l.T @ psi))
        if q_c.size:
            out[lay.block_slice("q_c")] = q_c / g.capacitance
        if a.size:
            out[lay.block_slice("a")] = self.stiffness @ a
        return out

    def source_vector(self, t: float) -> np.ndarray:
        """Source block of the gradient-structure form at time t."""
        g = self.graph
        lay = self.layout
        out = np.zeros(lay.size)
        out[lay.block_slice("psi")] = -(g.a_i @ self.sources.current_at(t))
        out[lay.block_slice("q_v")] = -self.sources.voltage_at(t)
        return out

    def power_breakdown(self, y: np.ndarray, ydot: np.ndarray, t: float) -> PowerBreakdown:
        """Instantaneous power bookkeeping at (y, ydot, t)."""
        ydot = np.asarray(ydot, dtype=float)
        return self.power_balance(float(self.energy_gradient(y) @ ydot), ydot, t)

    def power_balance(self, dh_dt: float, ydot: np.ndarray, t: float) -> PowerBreakdown:
        """Losses and source powers of the rate ydot at time t, balanced
        against the energy rate dh_dt."""
        g = self.graph
        psi_dot, _qc_dot, qv_dot, _qm_dot, a_dot = self.layout.split(ydot)
        v_r = g.a_r.T @ psi_dot
        i_r, _ = resistive_branch_current(g, v_r)
        resistive = float(i_r @ v_r)
        eddy = float(a_dot @ (self.mass @ a_dot)) if a_dot.size else 0.0
        source_i = float((g.a_i.T @ psi_dot) @ self.sources.current_at(t))
        source_v = float(self.sources.voltage_at(t) @ qv_dot)
        return PowerBreakdown(dh_dt=dh_dt, resistive_loss=resistive, eddy_loss=eddy,
                              source_power_i=source_i, source_power_v=source_v,
                              residual=dh_dt + resistive + eddy + source_i + source_v)

    def compact_form(self) -> CompactForm:
        """The system as rate_op(ydot) + energy_gradient(y) = source(y, t).

        ``rate_op`` collects dissipation and the antisymmetric coupling
        blocks; pairing it with its own argument yields exactly the
        resistive plus eddy losses, hence is non-negative.
        """

        def source(y, t):
            return self.source_vector(t)

        return CompactForm(rate_op=self._rate_op, energy_gradient=self.energy_gradient,
                           source=source)


def _block_sparse(blocks: dict, sizes) -> sp.csr_matrix:
    """Assemble a square block matrix from {(i, j): dense-or-sparse} blocks."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows, cols, vals = [], [], []
    for (bi, bj), block in blocks.items():
        block = sp.coo_matrix(block)
        if block.shape != (sizes[bi], sizes[bj]):
            raise ValueError(f"block ({bi},{bj}) has shape {block.shape}, "
                             f"expected {(sizes[bi], sizes[bj])}")
        rows.append(block.row + offsets[bi])
        cols.append(block.col + offsets[bj])
        vals.append(block.data)
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:
        rows = cols = vals = np.zeros(0)
    return sp.coo_matrix((vals, (rows, cols)), shape=(total, total)).tocsr()


def assemble_coupled(graph: CircuitGraph, field: FieldModel | None = None,
                     sources: SourceSet | None = None,
                     terminal_map=None) -> CoupledSystem:
    """Bind a circuit graph, an optional field model, and sources together.

    ``terminal_map[j]`` names the winding column driven by the j-th device
    branch of the circuit; it defaults to the identity and must be a
    permutation covering every winding.
    """
    if sources is None:
        sources = SourceSet(voltage=graph.voltage_waveforms,
                            current=graph.current_waveforms)
    return CoupledSystem(graph=graph, field=field, sources=sources,
                         terminal_map=terminal_map)
