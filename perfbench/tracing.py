"""Per-layer spans recorded around mona's public entry points, from outside.

``Tracer.installed()`` replaces the entry points of each layer with wrappers
that record a span (name, start, end, parent) and restores them on exit.
Nothing inside ``mona`` is changed.  Spans stay in memory; ``layer_metrics``
reduces them to self times and call counts, and ``write_spans`` dumps them
once the run is over.

Functions are patched in every ``mona`` module that binds them, because the
CLI and the stepper call them through their own module globals.  Work the
tracer itself does after a call (counting LU fill, summing file sizes) is
recorded as a ``trace.hook`` span, so it is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import mona.cli
import mona.coupling
import mona.demo
import mona.stepping
from scenarios import EPS_ABS_BOUND, EPS_REL_BOUND

MODULES = (mona.cli, mona.stepping, mona.demo)

# metric -> span names whose self times it sums
SELF_TIMES = {
    "netlist.parse_s": ("netlist.parse",),
    "circuit.topology_s": ("circuit.incidence", "circuit.validate"),
    "fem.mesh_s": ("fem.mesh",),
    "fem.field_model_s": ("fem.field_model",),
    "coupling.assemble_s": ("coupling.assemble",),
    "coupling.jacobian_s": ("coupling.jacobian",),
    "coupling.residual_s": ("coupling.residual",),
    "coupling.energy_s": ("coupling.energy",),
    "stepping.factor_s": ("stepping.factor",),
    "stepping.backsolve_s": ("stepping.backsolve",),
    "stepping.newton_self_s": ("stepping.newton",),
    "stepping.step_self_s": ("stepping.step",),
    "stepping.audit_s": ("stepping.audit",),
    "probes.eval_s": ("probes.eval",),
    "cli.tables_s": ("cli.tables",),
    "cli.csv_write_s": ("cli.csv_write",),
}

# metric -> span name whose calls it counts
CALL_COUNTS = {
    "coupling.jacobian_calls": "coupling.jacobian",
    "coupling.residual_calls": "coupling.residual",
    "stepping.factorizations": "stepping.factor",
    "stepping.backsolves": "stepping.backsolve",
    "stepping.steps": "stepping.step",
}

# counts that must repeat exactly for identical input
WORK_COUNTS = ("stepping.steps", "stepping.newton_iters", "stepping.factorizations",
               "stepping.halvings", "stepping.lu_fill_nnz")

FLOAT_BYTES = 8
INDEX_BYTES = 4


class Tracer:
    """Span recorder plus the counts that are read off call results."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._stack = []
        self.newton_iters = 0
        self.halvings = 0
        self.lu_fill_nnz = 0   # largest nnz(L+U) of any factorization
        self._fill = 0         # nnz(L+U) of the current factorization
        self._n = 0            # its dimension
        self.backsolve_bytes = 0
        self.csv_bytes = 0
        self.transients = []   # TransientResult of every run_transient call

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` runs in a hook span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook = ["trace.hook", clock(), 0.0, parent]
                spans.append(hook)
                after(result, args)
                hook[2] = clock()
            return result

        return traced

    # -- counts read off results ---------------------------------------------

    def _on_newton(self, result, _args):
        stats = result[1]
        self.newton_iters += stats.iterations
        self.halvings += stats.halvings

    def _on_factor(self, _result, args):
        lu = args[0]._lu
        n = lu.shape[0]
        # L is stored with its unit diagonal, which L+U shares with U
        self._fill = lu.L.nnz + lu.U.nnz - n
        self._n = n
        self.lu_fill_nnz = max(self.lu_fill_nnz, self._fill)

    def _on_backsolve(self, _result, _args):
        # computed, not measured: read L and U values and indices once,
        # read the right-hand side and write the solution
        self.backsolve_bytes += (self._fill * (FLOAT_BYTES + INDEX_BYTES)
                                 + 2 * self._n * FLOAT_BYTES)

    def _on_csv(self, _result, args):
        self.csv_bytes += Path(args[1]).stat().st_size

    def _on_transient(self, result, _args):
        self.transients.append(result)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        saved = []

        def patch(owner, attr, name, after=None, wrapper=None):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(original) if wrapper
                    else self.wrap(name, original, after))

        def patch_function(attr, name, after=None, wrapper=None):
            original = next(getattr(m, attr) for m in MODULES if hasattr(m, attr))
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    patch(module, attr, name, after, wrapper)

        def traced_probes(fn):
            def compile_probes(*args, **kwargs):
                probes = fn(*args, **kwargs)
                if isinstance(probes, dict):
                    return {k: self.wrap("probes.eval", p) for k, p in probes.items()}
                return self.wrap("probes.eval", probes)
            return compile_probes

        def traced_compact_form(fn):
            def compact_form(system):
                form = fn(system)
                return dataclasses.replace(
                    form, rate_op=self.wrap("coupling.residual", form.rate_op))
            return compact_form

        try:
            patch_function("parse_netlist", "netlist.parse")
            patch_function("build_incidence", "circuit.incidence")
            patch_function("validate_topology", "circuit.validate")
            patch_function("generate_transformer_mesh", "fem.mesh")
            patch_function("build_field_model", "fem.field_model")
            patch_function("assemble_coupled", "coupling.assemble")
            patch_function("parse_probe_spec", None, wrapper=traced_probes)
            patch_function("default_state_probe", None, wrapper=traced_probes)
            patch_function("run_transient", "stepping.run_transient", self._on_transient)
            patch_function("convergence_study", "stepping.convergence_study")
            patch_function("midpoint_step", "stepping.step")
            patch_function("newton_solve", "stepping.newton", self._on_newton)
            patch_function("power_audit", "stepping.audit")
            for table in ("trace_table", "audit_table", "eoc_table"):
                patch_function(table, "cli.tables")
            system = mona.coupling.CoupledSystem
            patch(system, "residual", "coupling.residual")
            patch(system, "energy_gradient", "coupling.residual")
            patch(system, "compact_form", None, wrapper=traced_compact_form)
            patch(system, "jacobians", "coupling.jacobian")
            patch(system, "energy", "coupling.energy")
            cache = mona.stepping.FactorCache
            patch(cache, "refactor", "stepping.factor", self._on_factor)
            patch(cache, "solve", "stepping.backsolve", self._on_backsolve)
            patch(mona.cli.CsvTrace, "write", "cli.csv_write", self._on_csv)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self times [s] per layer, call and work counts, step percentiles,
        and the steps over either certificate bound in every transient traced."""
        names = np.array([s[0] for s in self.spans])
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=int)
        duration = end - start
        covered = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered

        metrics = {metric: float(self_time[np.isin(names, spans)].sum())
                   for metric, spans in SELF_TIMES.items()}
        for metric, span in CALL_COUNTS.items():
            metrics[metric] = int(np.count_nonzero(names == span))
        steps_ms = 1e3 * duration[names == "stepping.step"]
        metrics["stepping.step_p50_ms"] = float(np.percentile(steps_ms, 50))
        metrics["stepping.step_p99_ms"] = float(np.percentile(steps_ms, 99))
        metrics["stepping.newton_iters"] = self.newton_iters
        metrics["stepping.halvings"] = self.halvings
        metrics["stepping.iters_per_factorization"] = (
            self.newton_iters / metrics["stepping.factorizations"])
        metrics["stepping.lu_fill_nnz"] = self.lu_fill_nnz
        metrics["stepping.backsolve_bytes"] = self.backsolve_bytes
        metrics["cli.csv_bytes"] = self.csv_bytes
        metrics["cert_violations"] = sum(map(_violations, self.transients))
        return metrics

    def write_spans(self, path: Path) -> None:
        """One line per span: name, start and end [s], parent index (-1: root)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _violations(result) -> int:
    peak = result.peak_supplied_power() or 1.0
    return sum(1 for r in result.balance_residuals()
               if abs(r) > EPS_ABS_BOUND or abs(r) / peak > EPS_REL_BOUND)
