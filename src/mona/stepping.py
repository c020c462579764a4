"""Implicit midpoint time integration with a per-step power-balance audit.

Each step solves the coupled residual evaluated at the state average and the
difference quotient of two consecutive states, at the interval midpoint in
time.  Because the stored energy is a quadratic form, the energy difference
between accepted states must equal the midpoint losses and source powers
exactly; the audit recomputes that identity from the stored states and
reports its defect.  In binary64 the defect grows with the Newton residual
a step is accepted with, on fine meshes at large steps, and with the
rounding of the stored states, like 1/tau at small steps; the CLI names the
steps over the certificate's bounds
(:meth:`TransientResult.certificate_violations`) on one ``warning:`` line.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from .circuit import diode_critical_voltage, diode_voltage_limit
from .coupling import BlockLayout, CoupledSystem, PowerBreakdown, SourceValues
from .errors import ConsistencyError, SolverError
from .fem import factor_spd

__all__ = [
    "TimeGrid",
    "NewtonStats",
    "FactorCache",
    "StepOperator",
    "StepState",
    "StepRecord",
    "TransientResult",
    "EocRow",
    "check_zero_state",
    "newton_solve",
    "midpoint_step",
    "power_audit",
    "run_transient",
    "convergence_study",
]

log = logging.getLogger(__name__)

INIT_RESIDUAL_TOL = 1e-10

# Newton's tolerance on the scaled max norm (floored where binary64 cannot
# reach it, see :func:`newton_solve`) and its iteration limit
NEWTON_TOL = 1e-12
MAX_ITER = 50
# residual components within this many machine epsilons of their own term
# magnitude count as solved: binary64 cannot represent anything smaller
FLOOR_FACTOR = 4.0
_FLOOR_EPS = FLOOR_FACTOR * np.finfo(float).eps
# corrections with the carried factorization that may finish a step whose
# circuit Newton missed the full-space tolerance (:func:`newton_solve`)
MAX_REFINEMENTS = 3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; the span must be an integer number of steps."""

    t0: float
    t_end: float
    tau: float

    def __post_init__(self):
        for name in ("t0", "t_end", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.tau > 0.0:
            raise ValueError("step size must be positive")
        ratio = (self.t_end - self.t0) / self.tau
        if not math.isfinite(ratio):
            raise ValueError(f"(t_end - t0)/tau = {ratio!r} is not a finite number of steps")
        n = round(ratio)
        if n < 1:
            raise ValueError("grid must contain at least one step")
        if abs(ratio - n) > 0.5 * np.spacing(max(abs(ratio), 1.0)):
            raise ValueError(
                f"(t_end - t0)/tau = {ratio!r} is not an integer number of steps")

    @property
    def n_steps(self) -> int:
        return round((self.t_end - self.t0) / self.tau)

    def time(self, n: int) -> float:
        return self.t0 + n * self.tau

    def times(self) -> np.ndarray:
        return self.t0 + self.tau * np.arange(self.n_steps + 1)

    def halved(self) -> "TimeGrid":
        return replace(self, tau=self.tau / 2.0)


@dataclass
class NewtonStats:
    """Work and outcome of one Newton solve (:func:`newton_solve`).
    ``iterations`` includes the ``refinements``: the corrections with the
    carried factorization that finished a step whose circuit Newton missed
    the full-space tolerance.  ``halvings`` counts the full Newton steps
    that did not descend: the uphill ones taken and the carried ones
    redone.  ``residual_norm`` is the scaled norm of the accepted step's
    full-space residual."""

    iterations: int = 0
    residual_norm: float = math.inf
    halvings: int = 0
    factorizations: int = 0
    refinements: int = 0


class _DenseLU:
    """LAPACK's LU with partial pivoting (getrf) of a dense square matrix.
    ``shape``, ``L`` (with its unit diagonal) and ``U`` read as a SuperLU
    object's do; the sparse factors are formed on each read."""

    def __init__(self, matrix: np.ndarray):
        self._lu, self._piv, info = dgetrf(matrix)
        if info != 0:
            raise SolverError(f"iteration matrix factorization failed: "
                              f"matrix is exactly singular (getrf info {info})")
        self.shape = matrix.shape

    @property
    def L(self) -> sp.csc_matrix:
        return sp.csc_matrix(np.tril(self._lu, -1) + np.eye(self.shape[0]))

    @property
    def U(self) -> sp.csc_matrix:
        return sp.csc_matrix(np.triu(self._lu))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgetrs(self._lu, self._piv, rhs)[0]


class FactorCache:
    """The dense LU of the circuit-sized Schur complement S of a Newton
    iteration matrix, carried from one Newton solve to the first iteration
    of the next (:func:`newton_solve`).  :meth:`StepOperator.refactor`
    forms each S and hands it to :meth:`refactor`; :meth:`solve` applies
    S^-1.  A singular S raises :class:`SolverError`."""

    def __init__(self):
        self._lu = None  # _DenseLU of S

    @property
    def ready(self) -> bool:
        return self._lu is not None

    def refactor(self, schur: np.ndarray) -> None:
        """Factor the dense S ``schur``."""
        self._lu = None
        self._lu = _DenseLU(schur)  # SolverError if singular

    def solve(self, b_c: np.ndarray) -> np.ndarray:
        """S^-1 b_c for the matrix last factored."""
        if self._lu is None:
            raise SolverError("no factorization available")
        return self._lu.solve(b_c)


@dataclass(frozen=True, eq=False, init=False)
class StepState:
    """A state ``y`` with its G a (:meth:`CoupledSystem.element_values`)
    and stored energy, which a step from it takes for the energy gradient
    and the audit's H(y_prev).

    ``StepState(system, y)`` copies ``y``, so later changes to the caller's
    array miss the state, and forms G a and the energy from that copy: no
    caller can hand in an energy or a G a of another array, and a state's
    fields cannot be reassigned.  Its arrays are read-only.  A state that
    :func:`midpoint_step` reached also carries the ``rate`` its audit took
    and the circuit part of y - y_prev, the ``increment`` where the next
    step's Newton starts."""

    y: np.ndarray
    element_values: object
    energy: float
    rate: np.ndarray | None
    increment: np.ndarray | None

    def __init__(self, system: CoupledSystem, y, *, rate=None, increment=None):
        y = np.array(y, dtype=float)
        values = system.element_values(y)
        # frozen: the fields are written past __setattr__, once
        self.__dict__.update(y=y, element_values=values, energy=system.energy(y, values),
                             rate=rate, increment=increment)
        for a in (y, values, rate, increment):
            if a is not None:
                a.flags.writeable = False


class StepOperator:
    """Everything a midpoint step of size tau on one system needs besides
    its state, built once, and the owner of the iteration matrix S that
    Newton solves with.

    ``matrix`` is the step matrix J_lin = 0.5*J_state + J_rate_lin/tau from
    the system's :attr:`~mona.coupling.CoupledSystem.constant_jacobians`,
    the midpoint iteration matrix without the diode conductances;
    :meth:`residual` is the step residual.  J_lin is split as
    [[J_cc, J_ca], [J_ac, J_aa]] with the ``n_circuit`` circuit unknowns
    first and the field block J_aa = 0.5*K + M/tau last, symmetric positive
    definite because the gauged K is and M is semidefinite.  The
    constructor factors J_aa in a symmetric fill-reducing ordering without
    pivoting off the diagonal and forms V = J_ca J_aa^-1 (``v``) and
    W = V J_ac; without a field block V is empty and W is zero.

    S = J_cc - W is the Schur complement of the iteration matrix, with
    ``reduced_matrix`` L = J_lin_cc - W.  Only the diode conductances, in
    the ``psi``/``psi`` block, of the iteration matrix depend on the Newton
    iterate: at (``rows``, ``cols``), the node pairs that a diode joins,
    and a circuit without diodes has none.  W has entries only in the
    winding charges' rows and columns, so none there.  :meth:`refactor`
    stamps them from the diode slopes into a copy of L, hands that S to
    ``cache``, the :class:`FactorCache` that carries its LU from step to
    step, and writes their magnitudes into |J_cc| and |J_cc| + |W|.

    On the circuit unknowns the step is :meth:`reduced_residual`, with the
    field eliminated by :meth:`condense` and recovered by
    :meth:`back_substitute`.  On all unknowns :meth:`full_solve` solves
    with the matrix last factored; :meth:`full_magnitude` is the size of
    its terms, and :meth:`magnitude` that of the terms of S's.
    """

    def __init__(self, system: CoupledSystem, tau: float):
        if not tau > 0.0:
            raise ValueError("step size must be positive")
        self.system = system
        self.tau = tau
        self.limiter = _diode_limiter(system, tau)
        # J_rate is weighted by 1/tau as sparse division does, so the stamped
        # block rounds exactly as the constant part does
        weight = 1.0 / tau
        j_state, j_rate = system.constant_jacobians
        self.matrix = 0.5 * j_state + j_rate * weight
        a_d = system.diode_incidence
        self.rows, self.cols = rows, cols = np.nonzero(np.abs(a_d) @ np.abs(a_d.T))
        base = self.matrix.tocsc()
        self.n_circuit = k = system.layout.n_circuit
        self._lu_aa = factor_spd(base[k:, k:])
        j_ac = base[k:, :k]
        # back_substitute multiplies the columns of J_ac with entries (the
        # winding charges) densely, without scipy's dispatch
        self._ac_cols = np.flatnonzero(np.diff(j_ac.indptr))
        self._j_ac = j_ac[:, self._ac_cols].toarray()
        # V solves only for the rows of J_ca with entries (the winding rows);
        # the others are zero.  V stays row-major, and W is formed with the
        # sparse J_ac: a column-major V or a dense J_ac changes BLAS's
        # summation order in V @ J_ac, and with it W's bits
        j_ca = base[:k, k:].tocsr()
        coupled = np.flatnonzero(np.diff(j_ca.indptr))
        self.v = np.zeros((k, base.shape[0] - k))
        self.v[coupled] = self._lu_aa.solve(j_ca[coupled].T.toarray(), trans="T").T
        self.abs_v = np.abs(self.v)
        w = self.v @ j_ac
        # J_cc, row-major: the layout fixes BLAS's summation order in the
        # products with J_cc - W, which every output byte depends on
        leading = base[:k, :k].toarray(order="C")
        self.reduced_matrix = leading - w
        self._linear_stamped = leading[rows, cols]
        self._off_abs = abs(j_ca), abs(j_ac), abs(base[k:, k:])
        # |J_cc| and |J_cc| + |W|, with J_lin's entries at the stamped
        # positions until the first refactor writes its stamp
        self._abs_cc, abs_w = np.abs(leading), np.abs(w)
        self._abs_schur = self._abs_cc + abs_w
        self.cache = FactorCache()
        # entry (i, j) of the diode stamp is sum_d A_d[i, d] A_d[j, d] g_d / tau;
        # the incidences are 0 or +-1, so weighting them first rounds alike
        self._diode_pairs = (a_d[rows] * a_d[cols]) * weight

    def residual(self, z: np.ndarray, const_part: np.ndarray,
                 diode_rows: np.ndarray | None = None) -> np.ndarray:
        """The step residual at the state increment z, J_lin z + c plus the
        diode currents A_d i_d(A_d^T z_c/tau) (:meth:`CoupledSystem.diode_rows`)
        in the circuit rows, with the per-step constant c = ``const_part``.
        ``diode_rows`` are those currents if the caller has them at this z_c,
        as :func:`newton_solve` does from its last reduced residual."""
        k = self.n_circuit
        r = self.matrix @ z
        r += const_part
        if diode_rows is None:
            diode_rows = self.system.diode_rows(z[:k] / self.tau)[0]
        r[:k] += diode_rows
        return r

    def reduced_residual(self, z_c: np.ndarray, c_hat: np.ndarray):
        """The circuit rows of the step residual where its field rows vanish,
        L z_c + c_hat + A_d i_d(A_d^T z_c/tau), with the condensed constant
        c_hat (:meth:`condense`); returns it with the diode rows A_d i_d and
        the diode slopes that came with them."""
        rows, slopes = self.system.diode_rows(z_c / self.tau)
        return self.reduced_matrix @ z_c + c_hat + rows, rows, slopes

    def refactor(self, slopes: np.ndarray) -> None:
        """Factor the iteration matrix at the diode ``slopes`` that
        :meth:`CoupledSystem.diode_rows` gave with the currents.  Its stamped
        entries are J_lin's plus the diode stamp; S is L with them written
        at (``rows``, ``cols``), and goes to ``cache``.  Once S is factored,
        their magnitudes are written into |J_cc| and |J_cc| + |W|, which a
        failed factorization leaves as they were."""
        stamped = self._linear_stamped + self._diode_pairs @ slopes
        schur = self.reduced_matrix.copy()
        schur[self.rows, self.cols] = stamped
        self.cache.refactor(schur)
        self._abs_cc[self.rows, self.cols] = self._abs_schur[self.rows, self.cols] = np.abs(stamped)

    def condense(self, b: np.ndarray) -> np.ndarray:
        """b_c - V b_a: the circuit rows of ``b`` with the field eliminated."""
        return b[:self.n_circuit] - self.v @ b[self.n_circuit:]

    def back_substitute(self, b_a: np.ndarray, x_c: np.ndarray) -> np.ndarray:
        """x_a = J_aa^-1 (b_a - J_ac x_c), the field unknowns that go with the
        circuit ones x_c: one back-substitution through J_aa, the unknowns
        themselves rather than a difference of larger terms."""
        return self._lu_aa.solve(b_a - self._j_ac @ x_c[self._ac_cols])

    def full_solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b on all unknowns, J the iteration matrix last factored:
        x_c = S^-1 (b_c - V b_a), then :meth:`back_substitute`."""
        x_c = self.cache.solve(self.condense(b))
        return np.concatenate([x_c, self.back_substitute(b[self.n_circuit:], x_c)])

    def magnitude(self, z_c: np.ndarray) -> np.ndarray:
        """(|J_cc| + |W|) |z_c| on the circuit unknowns, the size of the
        terms of S z_c for the S last factored."""
        return self._abs_schur @ np.abs(z_c)

    def full_magnitude(self, z: np.ndarray) -> np.ndarray:
        """|J| |z| on all unknowns, J the iteration matrix last factored:
        blockwise from the exact entries, the dense |J_cc| and the sparse
        |J_ca|, |J_ac| and |J_aa|."""
        x = np.abs(z)
        k = self.n_circuit
        abs_ca, abs_ac, abs_aa = self._off_abs
        return np.concatenate([self._abs_cc @ x[:k] + abs_ca @ x[k:],
                               abs_ac @ x[:k] + abs_aa @ x[k:]])


def _scaled_norm(r: np.ndarray, scale: np.ndarray) -> float:
    if not r.size:
        return 0.0
    scaled = np.abs(r)
    scaled /= scale
    return float(scaled.max())


def _floored(scale: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``scale`` floored where a residual assembled from terms of size
    ``terms`` cannot reach the tolerance in binary64 (:func:`newton_solve`)."""
    return np.maximum(scale, (_FLOOR_EPS / NEWTON_TOL) * terms)


def _block_scale(layout: BlockLayout, magnitude: np.ndarray) -> np.ndarray:
    """Per-component residual scaling, constant within each block.

    ``magnitude`` is max(|f|, |r0|) componentwise, of the source vector f and
    the initial residual r0.  Each block is scaled by max(1, its largest
    magnitude), so one tolerance is meaningful across the differently scaled
    current-law, voltage, and field equations.
    """
    starts, sizes = layout.nonempty_blocks
    peaks = np.maximum.reduceat(magnitude, starts)
    return np.repeat(np.maximum(peaks, 1.0), sizes)


def _limited(limiter, z_c: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The step ``dz`` from ``z_c`` after the limiter.  The step is
    ``proposal - z_c`` even when the limiter returns the proposal unchanged:
    ``(z_c + dz) - z_c`` rounds differently from ``dz``."""
    if limiter is None:
        return dz
    return limiter(z_c, z_c + dz) - z_c


def _newton_step(operator: StepOperator, c_hat: np.ndarray, z_c: np.ndarray, r: np.ndarray,
                 nrm: float, floored: np.ndarray, fresh: bool, stats: NewtonStats):
    """The full Newton step after the junction limiter from the iterate z_c
    with the residual r and its norm ``nrm`` under ``floored``, with the
    cache's factorization, which is of this iterate if ``fresh`` and
    carried from an earlier one if not; returns the next iterate with its
    residual, diode rows, slopes and norm.  A step that neither descends
    nor converges counts in ``stats.halvings``: from a fresh factorization
    it is taken all the same unless it or its residual is non-finite, which
    raises :class:`SolverError`, and from a carried one it gives None, the
    iteration to redo (:func:`newton_solve`)."""
    dz = operator.cache.solve(-r)
    if not np.isfinite(dz).all():
        if fresh:
            raise SolverError("singular iteration matrix (non-finite Newton step)")
        stats.halvings += 1
        return None
    z_new = z_c + _limited(operator.limiter, z_c, dz)
    r_new, rows, slopes = operator.reduced_residual(z_new, c_hat)
    n_new = _scaled_norm(r_new, floored)
    if not (n_new < nrm or n_new <= NEWTON_TOL):
        stats.halvings += 1
        if not fresh:
            return None
        if not math.isfinite(n_new):
            raise SolverError(f"non-finite residual after a Newton step (scaled norm {n_new})")
    return z_new, r_new, rows, slopes, n_new


def newton_solve(operator: StepOperator, const_part: np.ndarray, source_vector: np.ndarray,
                 z0: np.ndarray):
    """Solve a midpoint step for its increment z; returns z and the
    :class:`NewtonStats`.  ``const_part`` is the step residual's constant
    part c, which includes the midpoint ``source_vector`` f, and Newton
    starts from the circuit unknowns ``z0``.  Residuals are divided
    componentwise by the block scale of max(|f|, |c|) (:func:`_block_scale`;
    c is the residual of the zero increment) before the max norm is taken.

    Newton runs on the circuit unknowns.  The field rows J_aa z_a + J_ac z_c
    + c_a of the step residual are linear, with the root z_a = -J_aa^-1
    (c_a + J_ac z_c), which takes one back-substitution at the end.  The
    circuit rows there are :meth:`StepOperator.reduced_residual`,
    L z_c + c_hat + A_d i_d with c_hat = c_c - V c_a; their Jacobian, L
    plus the diode stamp, is the S that the operator owns: each
    :meth:`StepOperator.refactor` forms and factors it, from the slopes
    that came with the currents at its iterate, so each iterate evaluates
    the diode laws once.  Without a field block nothing is eliminated.

    The first iteration reuses the cache's factorization (a linear step
    factors once over all steps); every later one refactors at its iterate:
    exact Newton.  Every iteration takes the full step after the junction
    limiter, with no line search (:func:`_newton_step`): from a fresh
    factorization even uphill, to get off switching plateaus, unless its
    residual is non-finite; from the carried one only if it descends or
    converges, else the iteration is redone from a fresh factorization and
    counts no new iteration.  Past :data:`MAX_ITER` iterations, or at once
    on a non-finite starting residual, whose NaN norm would pass for
    converged, the solve fails with :class:`SolverError`.

    A residual component assembled from terms of magnitude m cannot come out
    below a few eps * m in binary64, so after every refactorization the
    circuit scale is floored at ``FLOOR_FACTOR * eps * (|S| |z_c| +
    |c_hat|) / NEWTON_TOL``, with |c_hat| bounded by |c_c| + |V| |c_a|; the
    tolerance stays meaningful where the residual is a small difference of
    large terms.

    z is accepted once the full-space residual r
    (:meth:`StepOperator.residual`) meets :data:`NEWTON_TOL` under the
    scale, or else under the scale floored with |J| |z| + |c|
    (:meth:`StepOperator.full_magnitude`); the first r takes the diode rows
    of Newton's last reduced residual, which was at z_c.  Failing that,
    refinement z += J^-1 (-r) (:meth:`StepOperator.full_solve`) with the
    factorization Newton left behind finishes the step, each correction
    counted in ``refinements`` and ``iterations``; after
    :data:`MAX_REFINEMENTS` of them the solve fails with :class:`SolverError`.
    """
    k = operator.n_circuit
    const_magnitude = np.abs(const_part)
    peak = np.abs(source_vector)
    scale = _block_scale(operator.system.layout, np.maximum(peak, const_magnitude, out=peak))
    c_hat = operator.condense(const_part)
    c_hat_terms = None
    floored = scale[:k]
    stats = NewtonStats()
    z_c = np.array(z0, dtype=float)
    r, rows, slopes = operator.reduced_residual(z_c, c_hat)
    nrm = _scaled_norm(r, floored)
    if not math.isfinite(nrm):
        raise SolverError(f"non-finite residual at the Newton start (scaled norm {nrm})")
    while nrm > NEWTON_TOL:
        if stats.iterations == MAX_ITER:
            raise SolverError(f"Newton did not converge in {MAX_ITER} iterations "
                              f"(residual {nrm:.3e}, tol {NEWTON_TOL:.3e})")
        stats.iterations += 1
        trial = None
        if stats.iterations == 1 and operator.cache.ready:
            trial = _newton_step(operator, c_hat, z_c, r, nrm, floored, False, stats)
        if trial is None:
            if c_hat_terms is None:
                c_hat_terms = const_magnitude[:k] + operator.abs_v @ const_magnitude[k:]
            operator.refactor(slopes)
            stats.factorizations += 1
            floored = _floored(scale[:k], operator.magnitude(z_c) + c_hat_terms)
            trial = _newton_step(operator, c_hat, z_c, r, nrm, floored, True, stats)
        z_c, r, rows, slopes, nrm = trial

    z = np.concatenate([z_c, operator.back_substitute(-const_part[k:], z_c)])
    while True:
        r = operator.residual(z, const_part, rows)
        nrm = _scaled_norm(r, scale)
        if nrm > NEWTON_TOL:  # the floor can only lower it
            nrm = _scaled_norm(r, _floored(scale, operator.full_magnitude(z) + const_magnitude))
        if nrm <= NEWTON_TOL:
            stats.residual_norm = nrm
            return z, stats
        if stats.refinements == MAX_REFINEMENTS:
            raise SolverError(
                f"refinement missed the tolerance after {MAX_REFINEMENTS} corrections "
                f"(residual {nrm:.3e}, tol {NEWTON_TOL:.3e})")
        z = z + operator.full_solve(-r)
        rows = None
        stats.refinements += 1
        stats.iterations += 1


# The balance certificate: a step's |eps_H| may exceed neither this many
# watts nor this fraction of the run's peak supplied power
# (:meth:`TransientResult.relative_scale`)
EPS_H_ABS_BOUND = 1e-10
EPS_H_REL_BOUND = 1e-12


@dataclass
class StepRecord:
    """One accepted time step, as its certificate needs it: the step's end
    time, the stored energy of its new state, Newton statistics and its
    power audit.

    The state itself is not kept, so the records of a run take memory in
    proportion to its steps, not to steps times unknowns; a caller that
    wants the states asks a probe for them (:func:`run_transient`)."""

    index: int
    time: float
    energy: float
    newton: NewtonStats
    audit: PowerBreakdown


@dataclass
class TransientResult:
    """A transient run: one :class:`StepRecord` per accepted step, and per
    probe the array of what it returned at each step, stacked along the
    first axis (:func:`run_transient`).  The result of a run that failed
    is the ``partial_result`` of its :class:`SolverError`."""

    grid: TimeGrid
    records: list
    probes: dict = field(default_factory=dict)

    def times(self) -> np.ndarray:
        return np.array([rec.time for rec in self.records])

    def probe(self, name: str) -> np.ndarray:
        return self.probes[name]

    def energies(self) -> np.ndarray:
        return np.array([rec.energy for rec in self.records])

    def balance_residuals(self) -> np.ndarray:
        return np.array([rec.audit.residual for rec in self.records])

    def max_balance_residual(self) -> float:
        res = self.balance_residuals()
        return float(np.max(np.abs(res))) if res.size else 0.0

    def peak_supplied_power(self) -> float:
        powers = [abs(rec.audit.source_power_i + rec.audit.source_power_v)
                  for rec in self.records]
        return max(powers) if powers else 0.0

    def relative_scale(self) -> float:
        """The denominator of the relative balance defect: the peak supplied
        power, read as 1.0 where it is not positive."""
        peak = self.peak_supplied_power()
        return peak if peak > 0 else 1.0

    def certificate_violations(self) -> list:
        """The records whose |eps_H| is not within :data:`EPS_H_ABS_BOUND` and,
        over :meth:`relative_scale`, :data:`EPS_H_REL_BOUND`; a non-finite
        |eps_H| is within neither."""
        scale = self.relative_scale()
        return [rec for rec in self.records
                if not (abs(rec.audit.residual) <= EPS_H_ABS_BOUND
                        and abs(rec.audit.residual) / scale <= EPS_H_REL_BOUND)]


# A diode iterate may not move more than this many thermal voltages past its
# critical voltage in one Newton iteration; keeps the exponential (and the
# LU pivots it produces) in a numerically sane range without ever capping a
# physically reachable operating point for more than one iteration.
DIODE_GROWTH_LIMIT = 16.0


def _diode_limiter(system: CoupledSystem, tau: float):
    """Increment-space junction limiter for the midpoint step, or None.

    Two stages.  First, proposed diode midpoint voltages are pulled onto the
    logarithmic limiting curve and the corrections are pushed back onto the
    magnetic-potential increments through the pseudoinverse of the diode
    incidence.  Because that redistribution is least-squares (diode voltages
    can outnumber free nodes), a second, direction-preserving stage damps the
    whole update so no achieved voltage exceeds the previous iterate's value
    or critical voltage by more than a fixed number of thermal voltages.
    Both stages are the identity once updates are small, so Newton fixed
    points are untouched, and a proposal that neither stage changes is
    returned as the same object.  Whether a stage may act is read off the
    voltage change of the proposed increment, one product; the voltages of
    both iterates are formed only when one may.  The pseudoinverse, the
    critical voltages and the headroom of the second stage depend on the
    system and tau only, so they are built once per run.
    """
    g = system.graph
    if g.n_branches("D") == 0:
        return None
    a_dio = g.incidence("D")
    psi_sl = system.layout.block_slice("psi")
    pinv = np.linalg.pinv(a_dio.T)
    thermal = g.diode_thermal
    v_crit = diode_critical_voltage(thermal, g.diode_saturation)
    headroom = DIODE_GROWTH_LIMIT * thermal
    # neither stage acts on a change of at most two thermal voltages: the
    # first limits larger changes only, and the second's ceiling is at least
    # v_old + DIODE_GROWTH_LIMIT thermal voltages.  The change of the
    # increment, A^T (z_new - z_old), rounds differently from the difference
    # of the two voltages, by a few eps of the voltages; a relative slack of
    # 1e-9, far above that, keeps the early exit to changes that are small
    # by either reckoning
    small_step = (1.0 - 1e-9) * 2.0 * thermal * tau

    def voltages(z):
        return (a_dio.T @ z[psi_sl]) / tau

    def limiter(z_old, z_new):
        if (np.abs(a_dio.T @ (z_new[psi_sl] - z_old[psi_sl])) <= small_step).all():
            return z_new
        v_old = voltages(z_old)
        v_new = voltages(z_new)
        v_lim = diode_voltage_limit(v_new, v_old, thermal, v_crit)
        z_adj, v_adj = z_new, v_new
        if v_lim is not v_new and not np.array_equal(v_lim, v_new):
            z_adj = np.array(z_new)
            z_adj[psi_sl] += pinv @ ((v_lim - v_new) * tau)
            v_adj = voltages(z_adj)

        ceiling = np.maximum(v_crit, v_old) + headroom
        over = v_adj > ceiling
        if over.any():
            beta = np.min((ceiling[over] - v_old[over])
                          / (v_adj[over] - v_old[over]))
            z_adj = z_old + beta * (z_adj - z_old)
        return z_adj

    return limiter


def midpoint_step(operator: StepOperator, start: StepState, t_prev: float, index: int = 0):
    """Advance one implicit midpoint step from the state ``start``; returns
    the :class:`StepState` it reaches and its :class:`StepRecord`.

    The Newton unknown is the state increment over the step rather than the
    new state itself, and the residual is :meth:`StepOperator.residual` with
    the constant part c, the gradient of the audited energy at the old state
    minus the sources at the midpoint time.  In exact arithmetic this is the
    textbook midpoint system; in floating point it keeps every
    state-dependent quantity conditioned on the small increment, so the
    branch voltages seen by the diode laws are not polluted by the magnitude
    of the accumulated states.

    The increment comes from :func:`newton_solve`, which starts from
    ``start.increment`` if it is given and finite, and accepts it only once
    the full-space residual meets the tolerance.

    The system, the step size, the step matrix, the diode limiter and the
    factorization carried between steps all come from ``operator``; the
    energy gradient and the audit's H(y_prev) come from ``start``'s G a and
    energy, which the state formed from its own ``y``.
    """
    system, tau = operator.system, operator.tau
    k = operator.n_circuit
    y_prev = start.y
    if not np.isfinite(y_prev).all():
        raise ValueError("midpoint_step called with non-finite state")

    sources = system.sources(t_prev + 0.5 * tau)
    const_part = system.energy_gradient(y_prev, start.element_values)
    const_part -= sources.vector
    z0 = np.zeros(k)
    if start.increment is not None and np.isfinite(start.increment).all():
        z0 = start.increment
    try:
        z, stats = newton_solve(operator, const_part, sources.vector, z0)
    except SolverError as exc:
        raise SolverError(f"step {index} (t={t_prev:.6g}, tau={tau:.6g}): {exc}") from exc

    y_next = y_prev + z
    rate = y_next - y_prev
    rate /= tau
    reached = StepState(system, y_next, rate=rate, increment=y_next[:k] - y_prev[:k])
    audit = power_audit(system, rate, sources, (start.energy, reached.energy), tau)
    record = StepRecord(index=index, time=t_prev + tau, energy=reached.energy, newton=stats,
                        audit=audit)
    return reached, record


def power_audit(system: CoupledSystem, rate: np.ndarray, sources: SourceValues,
                energies: tuple[float, float], tau: float) -> PowerBreakdown:
    """Discrete power balance of one step, recomputed from the stored states.

    ``rate`` is their difference quotient (y_next - y_prev)/tau, and the
    energy rate that of ``energies``, which are ``(system.energy(y_prev),
    system.energy(y_next))``; losses and source pairings use these midpoint
    rates and ``sources``, the source values at the midpoint time
    (:meth:`CoupledSystem.sources`).  The ``residual`` field is the balance
    defect.
    """
    h_prev, h_next = energies
    return system.power_balance((h_next - h_prev) / tau, rate, sources)


def check_zero_state(system: CoupledSystem, t0: float) -> None:
    """Raise :class:`ConsistencyError` unless the zero state is a solution at
    rest at t0: the residual of (y=0, ydot=0) must vanish to
    :data:`INIT_RESIDUAL_TOL` in the scaled max norm, which in particular
    demands sources that are zero at t0."""
    # rate_op(0) and energy_gradient(0) are exactly zero, a diode's current
    # I_s (exp(0) - 1) + 0/R_par at 0 V included, so the residual at rest is -f
    f = system.source_vector(t0)
    init_defect = _scaled_norm(-f, _block_scale(system.layout, np.abs(f)))
    if not init_defect <= INIT_RESIDUAL_TOL:
        raise ConsistencyError(
            f"zero initial state violates the algebraic constraints "
            f"(residual {init_defect:.3e}); sources must vanish at t0")


def run_transient(system: CoupledSystem, grid: TimeGrid,
                  probes: dict | None = None) -> TransientResult:
    """Integrate from the zero state over the grid, auditing every step.

    The zero state must satisfy the system at rest at t0
    (:func:`check_zero_state`).  A failed step aborts the run: the raised
    :class:`SolverError` carries the result of the steps accepted before it
    as its ``partial_result``.

    ``probes`` maps names to functions ``probe(state, t_mid)`` of the
    :class:`StepState` a step reached and the step's midpoint time
    t_prev + tau/2, called once per accepted step.  What a probe returns
    is stored as returned and stacked by ``np.array`` into
    ``result.probe(name)``: a probe of floats gives an (n_steps,) series,
    and ``{"y": lambda state, t_mid: state.y}`` gives the (n_steps, n)
    state history, which the records do not keep.  The run itself holds
    only the last state, so its memory is O(n + steps).
    """
    probes = probes or {}
    check_zero_state(system, grid.t0)
    state = StepState(system, system.layout.zeros())

    # one step matrix and one field-block factorization per run
    operator = StepOperator(system, grid.tau)
    records = []
    probe_values = {name: [] for name in probes}

    def result():
        return TransientResult(grid=grid, records=records,
                               probes={k: np.array(v) for k, v in probe_values.items()})

    for n in range(1, grid.n_steps + 1):
        t_prev = grid.time(n - 1)
        try:
            state, record = midpoint_step(operator, state, t_prev, index=n)
        except SolverError as exc:
            exc.partial_result = result()
            raise
        t_mid = t_prev + 0.5 * grid.tau
        for name, fn in probes.items():
            probe_values[name].append(fn(state, t_mid))
        records.append(record)
        stats = record.newton
        log.debug("step %d t=%.6g iters=%d fact=%d halv=%d refine=%d resid=%.3e eps_H=%.3e",
                  n, grid.time(n), stats.iterations, stats.factorizations, stats.halvings,
                  stats.refinements, stats.residual_norm, record.audit.residual)
    return result()


@dataclass
class EocRow:
    """One row of a step-halving convergence table, with its run's step
    count and the records over the certificate's bounds
    (:meth:`TransientResult.certificate_violations`)."""

    tau: float
    error: float
    order: float | None
    max_balance_residual: float
    steps: int
    violations: list


# Extra reference halvings beyond the finest studied step.  With only one,
# the finest row's error ratio against a second-order reference is (16-1)/
# (4-1) = 5 instead of 4, which biases its observed order to log2(5) = 2.32;
# three extra halvings push that bias below one percent.
REFERENCE_EXTRA_HALVINGS = 3


def convergence_study(system: CoupledSystem, grid: TimeGrid, halvings: int, probe) -> list:
    """Step-halving error table against a self-refined reference run.

    Runs the transient at tau, tau/2, ..., tau/2^halvings plus a reference
    refined by :data:`REFERENCE_EXTRA_HALVINGS` further halvings; the error
    per row is the max deviation of the probe from the reference over the
    row's own grid points, and the order column is the log2 ratio of
    consecutive errors; it is None unless both errors are positive.
    """
    if halvings < 1:
        raise ValueError("need at least one halving")
    grids = [grid]
    for _ in range(halvings):
        grids.append(grids[-1].halved())
    ref_grid = grids[-1]
    for _ in range(REFERENCE_EXTRA_HALVINGS):
        ref_grid = ref_grid.halved()

    runs = [run_transient(system, g, probes={"probe": probe}) for g in grids]
    ref = run_transient(system, ref_grid, probes={"probe": probe})
    ref_series = ref.probe("probe")

    rows = []
    prev_err = None
    for level, run in enumerate(runs):
        stride = 2 ** (halvings + REFERENCE_EXTRA_HALVINGS - level)
        series = run.probe("probe")
        ref_at_shared = ref_series[stride - 1::stride]
        err = float(np.max(np.abs(series - ref_at_shared)))
        order = None
        if prev_err is not None and prev_err > 0.0 and err > 0.0:
            order = math.log2(prev_err / err)
        rows.append(EocRow(tau=run.grid.tau, error=err, order=order,
                           max_balance_residual=run.max_balance_residual(),
                           steps=len(run.records), violations=run.certificate_violations()))
        prev_err = err
    return rows
