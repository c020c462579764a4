"""Implicit midpoint time integration with a per-step power-balance audit.

Each step solves the coupled residual evaluated at the state average and the
difference quotient of two consecutive states, at the interval midpoint in
time.  Because the stored energy is a quadratic form, the energy difference
between accepted states must equal the midpoint losses and source powers
exactly; the audit recomputes that identity from the stored states and
reports its defect, which stays at the Newton-tolerance scale unless a step
was accepted with an unconverged or tampered state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .circuit import diode_voltage_limit
from .coupling import BlockLayout, CoupledSystem, PowerBreakdown
from .errors import ConsistencyError, SolverError

__all__ = [
    "TimeGrid",
    "NewtonConfig",
    "NewtonStats",
    "FactorCache",
    "StepOperator",
    "StepRecord",
    "TransientResult",
    "EocRow",
    "newton_solve",
    "midpoint_step",
    "power_audit",
    "run_transient",
    "convergence_study",
]

log = logging.getLogger(__name__)

INIT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; the span must be an integer number of steps."""

    t0: float
    t_end: float
    tau: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("step size must be positive")
        ratio = (self.t_end - self.t0) / self.tau
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


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12
    max_iter: int = 50
    max_halvings: int = 30
    refactor_after: int = 4  # refresh the factorization when an iteration count exceeds this
    # residual components within this many machine epsilons of their own term
    # magnitude count as solved: binary64 cannot represent anything smaller
    floor_factor: float = 4.0


@dataclass
class NewtonStats:
    iterations: int = 0
    residual_norm: float = math.inf
    halvings: int = 0
    factorizations: int = 0
    converged: bool = False


class FactorCache:
    """LU factorization of a Newton iteration matrix, reused across solves.

    With ``n_trailing`` > 0 the matrix is split as [[J_cc, J_ca], [J_ac, J_aa]]
    with a trailing block J_aa of that size (the field block of a midpoint
    step, 0.5*K + M/tau, symmetric positive definite because the gauged K is
    and M is semidefinite).  The first ``refactor`` factors J_aa in a
    symmetric fill-reducing ordering without pivoting off the diagonal and
    forms V = J_ca J_aa^-1 from the transposed solve; every ``refactor`` then
    factors only the Schur complement S = J_cc - V J_ac.  ``solve`` takes
    x_c = S^-1 (b_c - V b_a) and x_a = J_aa^-1 (b_a - J_ac x_c): one
    back-substitution through J_aa, whose result is the trailing unknowns
    themselves rather than a difference of larger terms.  J_aa, J_ac and J_ca
    must be the same in every matrix passed in, as they are for one step
    size.  With no trailing block the Schur complement is the whole matrix.
    """

    def __init__(self, n_trailing: int = 0):
        self.n_trailing = n_trailing
        self._trailing = None  # (LU of J_aa, J_ac, V, V J_ac), built once
        self._lu = None        # LU of the Schur complement
        self.matrix = None

    @property
    def ready(self) -> bool:
        return self._lu is not None

    def refactor(self, matrix) -> None:
        try:
            matrix = sp.csc_matrix(matrix)
            schur = matrix
            if self.n_trailing:
                k = matrix.shape[0] - self.n_trailing
                if self._trailing is None:
                    lu_aa = splu(matrix[k:, k:], permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
                    j_ac = matrix[k:, :k]
                    v = lu_aa.solve(matrix[:k, k:].T.toarray(), trans="T").T
                    self._trailing = (lu_aa, j_ac, v, sp.csc_matrix(v @ j_ac))
                schur = matrix[:k, :k] - self._trailing[3]
            self._lu = splu(schur)
            self.matrix = matrix
        except RuntimeError as exc:
            self._lu = None
            self.matrix = None
            raise SolverError(f"iteration matrix factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            raise SolverError("no factorization available")
        if self._trailing is None:
            return self._lu.solve(rhs)
        lu_aa, j_ac, v, _ = self._trailing
        k = rhs.shape[0] - self.n_trailing
        x_c = self._lu.solve(rhs[:k] - v @ rhs[k:])
        return np.concatenate([x_c, lu_aa.solve(rhs[k:] - j_ac @ x_c)])


class StepOperator:
    """The constants of midpoint steps of size tau on one system.

    Holds the iteration matrix 0.5*J_state + J_rate/tau, built once from
    :meth:`CoupledSystem.jacobians`, the system's compact form
    (:meth:`CoupledSystem.compact_form`) and the diode limiter.  Only
    the resistive conductance block (``psi``/``psi``) of the matrix depends
    on the Newton iterate, so :meth:`matrix` copies the constant matrix and
    overwrites that block.
    """

    def __init__(self, system: CoupledSystem, tau: float):
        self.system = system
        self.tau = tau
        self.compact = system.compact_form()
        self.limiter = _diode_limiter(system, tau)
        # J_rate is weighted by 1/tau as sparse division does, so the stamped
        # block rounds exactly as the constant part does
        self._rate_weight = 1.0 / tau
        zero = system.layout.zeros()
        j_state, j_rate = system.jacobians(zero, zero, 0.0)
        self._psi = psi = system.layout.block_slice("psi")
        self._inductive = 0.5 * j_state[psi, psi].toarray()
        # conductances are positive, so the pattern of the block at rest is
        # the pattern at every iterate
        self._rows, self._cols = np.nonzero(
            (system.conductance(zero[psi]) != 0.0) | (self._inductive != 0.0))
        base = (0.5 * j_state + j_rate * self._rate_weight).tolil()
        base[self._rows, self._cols] = 1.0  # keeps a slot for every stamped entry
        self._base = base.tocsc()
        position = self._base.copy()
        position.data = np.arange(1.0, self._base.nnz + 1.0)
        self._slots = np.asarray(position[self._rows, self._cols]).ravel().astype(int) - 1

    def matrix(self, z: np.ndarray) -> sp.csc_matrix:
        """Iteration matrix at the state increment z."""
        block = (self._inductive + self._rate_weight
                 * self.system.conductance(z[self._psi] / self.tau))
        data = self._base.data.copy()
        data[self._slots] = block[self._rows, self._cols]
        return sp.csc_matrix((data, self._base.indices, self._base.indptr),
                             shape=self._base.shape)


def _scaled_norm(r: np.ndarray, scale) -> float:
    if scale is None:
        return float(np.max(np.abs(r))) if r.size else 0.0
    return float(np.max(np.abs(r) / scale)) if r.size else 0.0


def newton_solve(residual, jacobian, x0: np.ndarray, config: NewtonConfig | None = None,
                 scale: np.ndarray | None = None, cache: FactorCache | None = None,
                 const_magnitude: np.ndarray | None = None, limiter=None):
    """Damped Newton iteration; returns the first iterate within tolerance.

    ``jacobian(x)`` must return a matrix accepted by the sparse LU.  The
    optional ``scale`` divides the residual componentwise before taking the
    max norm; ``cache`` carries a factorization across calls: stale Jacobians
    are kept while they keep converging and refreshed when an iteration count
    exceeds ``config.refactor_after`` or a line search stalls.  Step halving
    (at most ``max_halvings``) guards against overshoot; a step whose residual
    stays non-finite after all halvings is a hard failure.

    A residual component assembled from terms of magnitude m cannot come out
    below a few eps * m in binary64, so whenever a fresh factorization is
    available the componentwise scale is floored at
    ``floor_factor * eps * (|J| |x| + const_magnitude) / tol``; this keeps the
    tolerance meaningful on equations whose residual is a small difference of
    large terms instead of stalling on the last unreachable bits.

    ``limiter(x, x_proposed) -> x_limited`` may reshape a proposed full step
    before the line search (used for junction-voltage limiting); it must be
    the identity at fixed points.
    """
    config = config or NewtonConfig()
    own_cache = cache if cache is not None else FactorCache()
    stats = NewtonStats()

    x = np.array(x0, dtype=float)
    base_scale = np.ones_like(x) if scale is None else np.asarray(scale, dtype=float)
    eff_scale = base_scale

    def update_floor():
        nonlocal eff_scale
        if own_cache.matrix is None:
            return
        terms = abs(own_cache.matrix) @ np.abs(x)
        if const_magnitude is not None:
            terms = terms + const_magnitude
        floor = (config.floor_factor * np.finfo(float).eps / config.tol) * terms
        eff_scale = np.maximum(base_scale, floor)

    r = residual(x)
    nrm = _scaled_norm(r, eff_scale)
    stats.residual_norm = nrm
    if nrm <= config.tol:
        stats.converged = True
        return x, stats

    fresh = False

    def refresh():
        nonlocal fresh
        own_cache.refactor(jacobian(x))
        stats.factorizations += 1
        fresh = True
        update_floor()

    def limited(dx):
        """The step after limiting, and whether the limiter changed it."""
        if limiter is None:
            return dx, False
        proposal = limiter(x, x + dx)
        return proposal - x, not np.array_equal(proposal, x + dx)

    stale_ok = True  # last iteration was a clean full step
    for it in range(1, config.max_iter + 1):
        if not own_cache.ready or it > config.refactor_after or not stale_ok:
            refresh()

        dx = own_cache.solve(-r)
        if not np.all(np.isfinite(dx)):
            if fresh:
                raise SolverError("singular iteration matrix (non-finite Newton step)")
            refresh()
            dx = own_cache.solve(-r)
            if not np.all(np.isfinite(dx)):
                raise SolverError("singular iteration matrix (non-finite Newton step)")
        dx, was_limited = limited(dx)

        accepted = False
        for attempt in range(2):
            alpha = 1.0
            x_try = r_try = n_try = None
            for _ in range(config.max_halvings + 1):
                x_try = x + alpha * dx
                r_try = residual(x_try)
                n_try = _scaled_norm(r_try, eff_scale)
                # a limited full step is its own safeguard: take it as long as
                # it is finite, even uphill, to get off switching plateaus
                if np.isfinite(n_try) and (n_try < nrm or n_try <= config.tol
                                           or (was_limited and alpha == 1.0)):
                    accepted = True
                    break
                alpha *= 0.5
                stats.halvings += 1
            if accepted:
                break
            if attempt == 0 and not fresh:
                # the stale Jacobian may simply point the wrong way
                refresh()
                dx, was_limited = limited(own_cache.solve(-r))
                continue
            if not np.isfinite(n_try):
                raise SolverError("non-finite residual after damping was exhausted")
            accepted = True  # overshoot guard exhausted on a finite residual

        x, r, nrm = x_try, r_try, n_try
        stats.iterations = it
        stats.residual_norm = nrm
        if nrm <= config.tol:
            stats.converged = True
            return x, stats
        stale_ok = not was_limited and alpha == 1.0
        fresh = False

    raise SolverError(
        f"Newton did not converge in {config.max_iter} iterations "
        f"(residual {nrm:.3e}, tol {config.tol:.3e})")


@dataclass
class StepRecord:
    """One accepted time step: state, its stored energy, Newton statistics,
    and its power audit."""

    index: int
    time: float
    state: np.ndarray
    energy: float
    newton: NewtonStats
    audit: PowerBreakdown


@dataclass
class TransientResult:
    """A completed (or aborted) transient run."""

    grid: TimeGrid
    records: list
    probes: dict = field(default_factory=dict)
    completed: bool = True

    def times(self) -> np.ndarray:
        return np.array([rec.time for rec in self.records])

    def states(self) -> np.ndarray:
        return np.array([rec.state for rec in self.records])

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
    points are untouched.
    """
    g = system.graph
    if g.n_diodes == 0:
        return None
    a_dio = g.a_r[:, g.n_linear_resistive:]
    psi_sl = system.layout.block_slice("psi")
    pinv = np.linalg.pinv(a_dio.T)
    v_crit = g.diode_thermal * np.log(g.diode_thermal
                                      / (np.sqrt(2.0) * g.diode_saturation))

    def voltages(z):
        return (a_dio.T @ z[psi_sl]) / tau

    def limiter(z_old, z_new):
        v_old = voltages(z_old)
        v_new = voltages(z_new)
        v_lim = diode_voltage_limit(v_new, v_old, g.diode_thermal, g.diode_saturation)
        z_adj = z_new
        if not np.array_equal(v_lim, v_new):
            z_adj = np.array(z_new)
            z_adj[psi_sl] += pinv @ ((v_lim - v_new) * tau)

        ceiling = np.maximum(v_crit, v_old) + DIODE_GROWTH_LIMIT * g.diode_thermal
        v_adj = voltages(z_adj)
        over = v_adj > ceiling
        if np.any(over):
            beta = np.min((ceiling[over] - v_old[over])
                          / (v_adj[over] - v_old[over]))
            z_adj = z_old + beta * (z_adj - z_old)
        return z_adj

    return limiter


def _block_scale(layout: BlockLayout, r0: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-component residual scaling, constant within each block.

    Each block is scaled by max(1, |source block f|, |initial residual block|)
    in the max norm, so one tolerance is meaningful across the differently
    scaled current-law, voltage, and field equations.
    """
    scale = np.ones(layout.size)
    for scale_blk, f_blk, r0_blk in zip(layout.split(scale), layout.split(np.abs(f)),
                                        layout.split(np.abs(r0))):
        if f_blk.size:
            scale_blk[:] = max(1.0, f_blk.max(), r0_blk.max())
    return scale


def midpoint_step(system: CoupledSystem, y_prev: np.ndarray, t_prev: float, tau: float,
                  config: NewtonConfig | None = None, cache: FactorCache | None = None,
                  index: int = 0, increment_hint: np.ndarray | None = None,
                  operator: StepOperator | None = None, energy_prev: float | None = None):
    """Advance one implicit midpoint step; returns (y_next, StepRecord).

    The Newton unknown is the state increment over the step rather than the
    new state itself: the midpoint residual is evaluated as the rate operator
    applied to increment/tau, plus the (linear) energy gradient split into
    its constant part at the old state and its half-increment part.  In exact
    arithmetic this is the textbook midpoint system; in floating point it
    keeps every state-dependent quantity conditioned on the small increment,
    so the branch voltages seen by the diode laws are not polluted by the
    magnitude of the accumulated states.  Linear systems converge in a single
    iteration once a factorization exists.

    ``operator`` supplies the iteration matrices, the compact form and the
    diode limiter; it must be built for this system and step size, and is
    built here when omitted.  ``energy_prev`` is ``system.energy(y_prev)``
    when the caller already has it (the previous record's ``energy``); it is
    evaluated here when omitted.
    """
    config = config or NewtonConfig()
    y_prev = np.asarray(y_prev, dtype=float)
    if not np.all(np.isfinite(y_prev)):
        raise ValueError("midpoint_step called with non-finite state")
    if not tau > 0.0:
        raise ValueError("step size must be positive")
    if operator is None:
        operator = StepOperator(system, tau)
    elif operator.system is not system or operator.tau != tau:
        raise ValueError("step operator was built for another system or step size")
    t_mid = t_prev + 0.5 * tau

    rate_op = operator.compact.rate_op
    f_mid = system.source_vector(t_mid)
    const_part = system.energy_gradient(y_prev) - f_mid

    def step_residual(z):
        return rate_op(z / tau) + const_part + 0.5 * system.energy_gradient(z)

    # the rate operator, the energy gradient and the diode currents all
    # vanish at zero, so const_part is the residual of the zero increment
    scale = _block_scale(system.layout, const_part, f_mid)
    if increment_hint is not None and np.all(np.isfinite(increment_hint)):
        z0 = np.asarray(increment_hint, dtype=float)
    else:
        z0 = np.zeros_like(y_prev)
    try:
        z, stats = newton_solve(step_residual, operator.matrix, z0,
                                config=config, scale=scale, cache=cache,
                                const_magnitude=np.abs(const_part),
                                limiter=operator.limiter)
    except SolverError as exc:
        raise SolverError(f"step {index} (t={t_prev:.6g}, tau={tau:.6g}): {exc}") from exc

    y_next = y_prev + z
    if energy_prev is None:
        energy_prev = system.energy(y_prev)
    energy = system.energy(y_next)
    audit = power_audit(system, y_prev, y_next, tau, t_prev,
                        energies=(energy_prev, energy))
    record = StepRecord(index=index, time=t_prev + tau, state=y_next, energy=energy,
                        newton=stats, audit=audit)
    return y_next, record


def power_audit(system: CoupledSystem, y_prev: np.ndarray, y_next: np.ndarray,
                tau: float, t_prev: float,
                energies: tuple[float, float] | None = None) -> PowerBreakdown:
    """Discrete power balance of one step, recomputed from the stored states.

    The energy rate is the difference quotient of the energies at the two
    states; losses and source pairings use the midpoint rates and midpoint
    time.  The ``residual`` field is the balance defect.  ``energies`` is
    ``(system.energy(y_prev), system.energy(y_next))`` when the caller has
    already evaluated them; they are evaluated here when omitted.
    """
    rate = (np.asarray(y_next, dtype=float) - np.asarray(y_prev, dtype=float)) / tau
    h_prev, h_next = energies or (system.energy(y_prev), system.energy(y_next))
    return system.power_balance((h_next - h_prev) / tau, rate, t_prev + 0.5 * tau)


def run_transient(system: CoupledSystem, grid: TimeGrid, probes: dict | None = None,
                  config: NewtonConfig | None = None) -> TransientResult:
    """Integrate from the zero state over the grid, auditing every step.

    The zero state must satisfy the system at rest: the residual of
    (y=0, ydot=0) at t0 is required to vanish, which in particular demands
    sources that start at zero.  A failed step aborts the run and returns the
    partial result with ``completed=False`` via the raised error's
    ``partial_result`` attribute.
    """
    config = config or NewtonConfig()
    probes = probes or {}
    y = system.layout.zeros()

    r0 = system.residual(y, np.zeros_like(y), grid.t0)
    scale = _block_scale(system.layout, np.zeros_like(r0), system.source_vector(grid.t0))
    init_defect = _scaled_norm(r0, scale)
    if not init_defect <= INIT_RESIDUAL_TOL:
        raise ConsistencyError(
            f"zero initial state violates the algebraic constraints "
            f"(residual {init_defect:.3e}); sources must vanish at t0")

    # one iteration matrix and one field-block factorization per run
    operator = StepOperator(system, grid.tau)
    cache = FactorCache(n_trailing=system.layout.n_a)
    records = []
    probe_values = {name: [] for name in probes}
    t_prev = grid.t0
    z_pred = None
    energy = system.energy(y)  # each later state's energy comes with its record
    for n in range(1, grid.n_steps + 1):
        try:
            y_next, record = midpoint_step(system, y, t_prev, grid.tau,
                                           config=config, cache=cache, index=n,
                                           increment_hint=z_pred, operator=operator,
                                           energy_prev=energy)
        except SolverError as exc:
            exc.partial_result = TransientResult(
                grid=grid, records=records,
                probes={k: np.array(v) for k, v in probe_values.items()},
                completed=False)
            raise
        ctx = StepContext(system=system, index=n, t_prev=t_prev, tau=grid.tau,
                          y_prev=y, y_next=y_next, energy=record.energy)
        for name, fn in probes.items():
            probe_values[name].append(float(fn(ctx)))
        records.append(record)
        z_pred = y_next - y
        y, energy = y_next, record.energy
        t_prev = grid.time(n)
        log.debug("step %d t=%.6g iters=%d resid=%.3e eps_H=%.3e",
                  n, t_prev, record.newton.iterations, record.newton.residual_norm,
                  record.audit.residual)

    return TransientResult(grid=grid, records=records,
                           probes={k: np.array(v) for k, v in probe_values.items()})


@dataclass
class StepContext:
    """Everything a probe may look at after an accepted step.

    State quantities refer to the step's end time; rate quantities are the
    step's difference quotients, i.e. second-order values at the interval
    midpoint.  ``energy`` is the stored energy of ``y_next``.
    """

    system: CoupledSystem
    index: int
    t_prev: float
    tau: float
    y_prev: np.ndarray
    y_next: np.ndarray
    energy: float

    @property
    def t_mid(self) -> float:
        return self.t_prev + 0.5 * self.tau

    @property
    def time(self) -> float:
        return self.t_prev + self.tau

    @property
    def rate(self) -> np.ndarray:
        return (self.y_next - self.y_prev) / self.tau


@dataclass
class EocRow:
    """One row of a step-halving convergence table."""

    tau: float
    error: float
    order: float | None
    max_balance_residual: float


# Extra reference halvings beyond the finest studied step.  With only one,
# the finest row's error ratio against a second-order reference is (16-1)/
# (4-1) = 5 instead of 4, which biases its observed order to log2(5) = 2.32;
# three extra halvings push that bias below one percent.
REFERENCE_EXTRA_HALVINGS = 3


def convergence_study(system: CoupledSystem, grid: TimeGrid, halvings: int,
                      probe, config: NewtonConfig | None = None) -> list:
    """Step-halving error table against a self-refined reference run.

    Runs the transient at tau, tau/2, ..., tau/2^halvings plus a reference
    refined by :data:`REFERENCE_EXTRA_HALVINGS` further halvings; the error
    per row is the max deviation of the probe from the reference over the
    row's own grid points, and the order column is the log2 ratio of
    consecutive errors.
    """
    if halvings < 1:
        raise ValueError("need at least one halving")
    grids = [grid]
    for _ in range(halvings):
        grids.append(grids[-1].halved())
    ref_grid = grids[-1]
    for _ in range(REFERENCE_EXTRA_HALVINGS):
        ref_grid = ref_grid.halved()

    runs = [run_transient(system, g, probes={"probe": probe}, config=config)
            for g in grids]
    ref = run_transient(system, ref_grid, probes={"probe": probe}, config=config)
    ref_series = ref.probe("probe")

    rows = []
    prev_err = None
    for level, run in enumerate(runs):
        stride = 2 ** (halvings + REFERENCE_EXTRA_HALVINGS - level)
        series = run.probe("probe")
        ref_at_shared = ref_series[stride - 1::stride]
        err = float(np.max(np.abs(series - ref_at_shared)))
        order = None if prev_err is None else math.log2(prev_err / err)
        rows.append(EocRow(tau=run.grid.tau, error=err, order=order,
                           max_balance_residual=run.max_balance_residual()))
        prev_err = err
    return rows
