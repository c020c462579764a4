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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .circuit import CircuitGraph, circuit_energy, diode_law, resistive_branch_current
from .errors import MeshError
from .fem import FieldModel

__all__ = [
    "BlockLayout",
    "PowerBreakdown",
    "SourceValues",
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
    def n_circuit(self) -> int:
        """The number of circuit unknowns: every block but the last, ``a``."""
        return self.size - self.n_a

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The slices of the five blocks, in block order."""
        return tuple(slice(off, off + n) for off, n in zip(self.offsets, self.sizes))

    @cached_property
    def nonempty_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Offsets and lengths of the blocks that are not empty, in block
        order: the indices and counts of a ``reduceat`` over the blocks."""
        sizes = np.array(self.sizes, dtype=np.intp)
        return np.array(self.offsets, dtype=np.intp)[sizes > 0], sizes[sizes > 0]

    def block_slice(self, name: str) -> slice:
        return self.slices[BLOCK_NAMES.index(name)]

    def split(self, vec: np.ndarray):
        """Views of the five blocks of a conforming flat vector."""
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise ValueError(f"state vector must have length {self.size}")
        return tuple(vec[blk] for blk in self.slices)

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


class SourceValues(NamedTuple):
    """The source waveforms at one time, each evaluated once: the currents
    of the current sources, the voltages of the voltage sources, and the
    source vector built from them."""

    currents: np.ndarray
    voltages: np.ndarray
    vector: np.ndarray


@dataclass(frozen=True)
class CompactForm:
    """The rate operator of the split rate_op(ydot) + energy_gradient(y) = source_vector(t)."""

    rate_op: object


class CoupledSystem:
    """Residual / Jacobian / energy evaluator for the coupled DAE.

    ``graph`` is the one description of the network: its incidence matrices
    and parameters give the storage and dissipation, and its waveforms the
    sources.  ``field`` is the device's field model, or None for a circuit
    without devices.  Immutable after assembly; all evaluations are pure
    functions of their arguments, so concurrent calls on distinct buffers
    are safe.
    """

    def __init__(self, graph: CircuitGraph, field: FieldModel | None):
        self.graph = graph
        self.field = field

        n_m = graph.n_devices
        if field is not None:
            if n_m != field.n_windings:
                raise MeshError(
                    f"device branch count ({n_m}) does not match winding count "
                    f"({field.n_windings})")
            # column-major: the layout fixes BLAS's summation order in
            # ``winding_matrix.T @ a``, which every output byte depends on
            self.winding_matrix = np.asfortranarray(field.winding_matrix)
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
        """Resistive currents and the antisymmetric coupling blocks at rate
        ydot: :attr:`circuit_rate_matrix` plus :meth:`diode_rows` in the
        circuit rows (every block but ``a``), plus the flux-linkage rate."""
        lay = self.layout
        k = lay.n_circuit
        out = np.empty(lay.size)
        out[:k] = self.circuit_rate_matrix @ ydot[:k] + self.diode_rows(ydot[:k])[0]
        if lay.n_a:
            _psi, _q_c, _q_v, q_m, a = lay.slices
            out[q_m] += self.winding_matrix.T @ ydot[a]
            out[a] = self.mass @ ydot[a] - self.winding_matrix @ ydot[q_m]
        return out

    @cached_property
    def circuit_rate_matrix(self) -> np.ndarray:
        """The linear part of the rate operator's circuit rows, dense k x k
        (k = n_circuit): the linear resistors' nodal conductance and the
        charge-rate incidences in the current law, minus their transposes in
        the capacitor, source and device-terminal voltages."""
        g = self.graph
        psi, *charges, _a = self.layout.slices
        k = self.layout.n_circuit
        out = np.zeros((k, k))
        a_lin = g.a_r[:, :g.n_linear_resistive]
        out[psi, psi] = a_lin @ (g.conductance[:, None] * a_lin.T)
        for blk, incidence in zip(charges, (g.a_c, g.a_v, g.a_m)):
            out[psi, blk] = incidence
            out[blk, psi] = -incidence.T
        return out

    @cached_property
    def circuit_hessian(self) -> np.ndarray:
        """The circuit block of the energy's constant Hessian, dense k x k:
        the inductors' nodal block and the inverse capacitances."""
        g = self.graph
        psi, q_c = self.layout.slices[:2]
        out = np.zeros_like(self.circuit_rate_matrix)
        out[psi, psi] = g.a_l @ (g.inv_inductance[:, None] * g.a_l.T)
        out[q_c, q_c] = np.diag(1.0 / g.capacitance)
        return out

    @cached_property
    def diode_incidence(self) -> np.ndarray:
        """A_d: the diodes' node incidence as rows of the k circuit unknowns."""
        g = self.graph
        out = np.zeros((self.circuit_rate_matrix.shape[0], g.n_diodes))
        out[:g.n_nodes] = g.a_r[:, g.n_linear_resistive:]
        return out

    def diode_rows(self, ydot_c: np.ndarray):
        """(A_d i_d(A_d^T ydot_c), di_d/dv): the diode currents in the circuit
        rows of the rate operator at the circuit rates ydot_c, the nonlinear
        rest of :attr:`circuit_rate_matrix`, and the diode slopes there, both
        from one :func:`~mona.circuit.diode_law`; (0.0, []) without diodes."""
        if not self.graph.n_diodes:
            return 0.0, np.zeros(0)
        a_d = self.diode_incidence
        currents, slopes = diode_law(self.graph, a_d.T @ ydot_c)
        return a_d @ currents, slopes

    @cached_property
    def constant_jacobians(self):
        """(J_state, J_rate_lin) as CSR matrices: the energy's constant
        Hessian, and the rate Jacobian without the diode conductances, the
        only entries of either that depend on the evaluation point.  The
        step matrix (:class:`~mona.stepping.StepOperator`) and
        :meth:`jacobians` are built from this one pair."""
        lay = self.layout
        coupling = np.zeros((lay.n_circuit, lay.n_a))
        coupling[lay.block_slice("q_m")] = self.winding_matrix.T
        return (sp.bmat([[self.circuit_hessian, None], [None, self.stiffness]]).tocsr(),
                sp.bmat([[self.circuit_rate_matrix, coupling],
                         [-coupling.T, self.mass]]).tocsr())

    def jacobians(self, y: np.ndarray, ydot: np.ndarray, t: float):
        """(d residual / d y, d residual / d ydot) as CSR matrices:
        :attr:`constant_jacobians` with A_d diag(g) A_d^T added to the rate
        Jacobian, g the diode slopes at ydot (:meth:`diode_rows`)."""
        j_state, j_rate = self.constant_jacobians
        lay = self.layout
        a_d = self.diode_incidence
        slopes = self.diode_rows(np.asarray(ydot, dtype=float)[:lay.n_circuit])[1]
        diodes = sp.block_diag((a_d @ (slopes[:, None] * a_d.T), sp.csr_matrix((lay.n_a, lay.n_a))))
        return j_state.copy(), (j_rate + diodes).tocsr()

    def element_values(self, y: np.ndarray):
        """G a of y's field block a, which :meth:`energy` and
        :meth:`energy_gradient` take; None without a field."""
        if self.field is None:
            return None
        return self.field.element_map @ y[self.layout.n_circuit:]

    def energy(self, y: np.ndarray, element_values=None) -> float:
        """Stored energy: inductors, capacitors, and the magnetic field.

        The field part is summed per mesh element (:meth:`FieldModel.energy`),
        and :meth:`energy_gradient` is the gradient of that same sum, so the
        audit and the residual share one definition of the field energy.
        ``element_values`` is :meth:`element_values` of y, if the caller has it.
        """
        lay = self.layout
        y = np.asarray(y, dtype=float)
        if y.shape != (lay.size,):
            raise ValueError(f"state vector must have length {lay.size}")
        psi, q_c = lay.slices[:2]
        h = circuit_energy(self.graph, y[psi], y[q_c])
        if lay.n_a:
            h += self.field.energy(y[lay.n_circuit:], element_values)
        return h

    def energy_gradient(self, y: np.ndarray, element_values=None) -> np.ndarray:
        """Gradient of the stored energy; zero on the source and device charges.

        The circuit rows are :attr:`circuit_hessian` times the circuit state,
        the field rows :meth:`FieldModel.energy_gradient`, (G^T C)(G a), with
        G a from ``element_values`` if the caller has it."""
        lay = self.layout
        k = lay.n_circuit
        out = np.empty(lay.size)
        out[:k] = self.circuit_hessian @ y[:k]
        if lay.n_a:
            out[k:] = self.field.energy_gradient(y[k:], element_values)
        return out

    def sources(self, t: float) -> SourceValues:
        """The source waveforms at time t and the source vector of the
        gradient-structure form, which :meth:`power_balance` pairs with the
        same values."""
        g = self.graph
        lay = self.layout
        currents, voltages = g.source_currents(t), g.source_voltages(t)
        out = np.zeros(lay.size)
        out[lay.block_slice("psi")] = -(g.a_i @ currents)
        out[lay.block_slice("q_v")] = -voltages
        return SourceValues(currents, voltages, out)

    def source_vector(self, t: float) -> np.ndarray:
        """Source block of the gradient-structure form at time t."""
        return self.sources(t).vector

    def power_breakdown(self, y: np.ndarray, ydot: np.ndarray, t: float) -> PowerBreakdown:
        """Instantaneous power bookkeeping at (y, ydot, t)."""
        y = np.asarray(y, dtype=float)
        ydot = np.asarray(ydot, dtype=float)
        return self.power_balance(float(self.energy_gradient(y) @ ydot), ydot, self.sources(t))

    def power_balance(self, dh_dt: float, ydot: np.ndarray,
                      sources: SourceValues) -> PowerBreakdown:
        """Losses and source powers of the rate ydot with the source values
        ``sources`` (:meth:`sources`), balanced against the energy rate dh_dt.

        A power past binary64 is inf, and the residual then inf or NaN,
        without a numpy warning: the certificate check names such steps."""
        g = self.graph
        psi_dot, _qc_dot, qv_dot, _qm_dot, a_dot = self.layout.split(ydot)
        v_r = g.a_r.T @ psi_dot
        i_r = resistive_branch_current(g, v_r)
        with np.errstate(over="ignore", invalid="ignore"):
            resistive = float(i_r @ v_r)
            eddy = float(a_dot @ (self.mass @ a_dot)) if a_dot.size else 0.0
            source_i = float((g.a_i.T @ psi_dot) @ sources.currents)
            source_v = float(sources.voltages @ qv_dot)
        return PowerBreakdown(dh_dt=dh_dt, resistive_loss=resistive, eddy_loss=eddy,
                              source_power_i=source_i, source_power_v=source_v,
                              residual=dh_dt + resistive + eddy + source_i + source_v)

    def compact_form(self) -> CompactForm:
        """The rate operator of rate_op(ydot) + energy_gradient(y) = source_vector(t).

        ``rate_op`` collects dissipation and the antisymmetric coupling
        blocks; pairing it with its own argument yields exactly the
        resistive plus eddy losses, hence is non-negative.
        """
        return CompactForm(rate_op=self._rate_op)


def assemble_coupled(graph: CircuitGraph, field: FieldModel | None = None) -> CoupledSystem:
    """Bind a circuit graph and an optional field model together.

    The j-th device branch of the circuit drives the j-th winding of the
    field model.  The sources are the graph's own waveforms; a system with
    other sources is assembled from a graph that carries them.
    """
    return CoupledSystem(graph=graph, field=field)
