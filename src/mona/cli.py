"""Command-line front end.

Subcommands: ``run`` (transient with CSV traces), ``converge`` (step-halving
error table), ``demo-rectifier`` (built-in benchmark), and ``check``
(``run``'s assembly and initial-state check, no transient).  Exit codes: 0
success, 1 parse or validation failure, 2 solver failure.  The environment
variable ``MONA_LOG`` (error | info | debug) sets diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demo import DEMO_NETLIST, DEMO_PROBES, assemble_netlist
from .errors import MonaError, SolverError
from .fem import save_mesh
from .probes import default_state_probe, parse_probe_spec
from .stepping import (EPS_H_ABS_BOUND, EPS_H_REL_BOUND, TimeGrid, check_zero_state,
                       convergence_study, run_transient)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER = 2

T0 = 0.0  # every transient starts at rest at this time


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class CsvTrace:
    """A rectangular table bound for disk; the first column is time."""

    header: list
    rows: list

    def __post_init__(self):
        width = len(self.header)
        if any(len(row) != width for row in self.rows):
            raise ValueError("CSV rows must match the header width")
        if self.header and self.header[0] == "t":
            times = [row[0] for row in self.rows]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("time column must be strictly increasing")

    def write(self, path) -> None:
        """Serialize with 17 significant digits (binary64 round-trip exact)."""
        path = Path(path)
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(self.header) + "\n")
                for row in self.rows:
                    fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                      for v in row) + "\n")
        except OSError as exc:
            raise MonaError(f"cannot write {path}: {exc}") from exc


def trace_table(result, probe_names) -> CsvTrace:
    header = ["t", *probe_names, "H", "eps_H"]
    energies = result.energies()
    rows = []
    for k, rec in enumerate(result.records):
        row = [rec.time]
        row += [float(result.probes[name][k]) for name in probe_names]
        row += [float(energies[k]), rec.audit.residual]
        rows.append(row)
    return CsvTrace(header=header, rows=rows)


def audit_table(result) -> CsvTrace:
    header = ["t", "d_tau_H", "resistive_loss", "eddy_loss",
              "source_power_I", "source_power_V", "eps_H", "eps_H_rel"]
    denom = result.relative_scale()
    rows = []
    for rec in result.records:
        a = rec.audit
        rows.append([rec.time, a.dh_dt, a.resistive_loss, a.eddy_loss,
                     a.source_power_i, a.source_power_v, a.residual,
                     a.residual / denom])
    return CsvTrace(header=header, rows=rows)


def eoc_table(rows) -> CsvTrace:
    header = ["tau", "eps_tau", "eoc", "max_eps_H"]
    table = [[r.tau, r.error, "" if r.order is None else _fmt(r.order),
              r.max_balance_residual] for r in rows]
    return CsvTrace(header=header, rows=table)


def _print_error(exc, file=None) -> None:
    """``error:`` before each line of the message of ``exc``, one line per
    problem it names."""
    print("error: " + str(exc).replace("\n", "\nerror: "), file=file)


def _assemble(args):
    """The ``--netlist`` (the built-in demo without one) assembled with the
    mesh options."""
    if args.netlist is None:
        return assemble_netlist(DEMO_NETLIST, args.mesh, args.mesh_density)
    path = Path(args.netlist)
    return assemble_netlist(path.read_text(encoding="utf-8"), args.mesh,
                            args.mesh_density, base=path.parent)


def _warn_certificate(over, steps: int, prefix: str = "") -> None:
    """One ``warning:`` line on standard error if any of a run's ``steps``
    steps breaks the certificate's bounds, ``over`` being the records that
    do (:meth:`TransientResult.certificate_violations`): how many, and the
    worst |eps_H| with its time, where a NaN is the worst; ``prefix``
    follows ``warning:``."""
    if not over:
        return
    worst = max(over, key=lambda rec: math.inf if math.isnan(rec.audit.residual)
                else abs(rec.audit.residual))
    print(f"warning: {prefix}{len(over)} of {steps} steps break the balance "
          f"certificate (|eps_H| > {EPS_H_ABS_BOUND:g} W or > {EPS_H_REL_BOUND:g} of the "
          f"peak supplied power); worst |eps_H| = {abs(worst.audit.residual):.3e} W "
          f"at t = {worst.time:.6g} s", file=sys.stderr)


def _run(args):
    """Assemble, run the transient and write ``trace.csv`` and ``audit.csv``;
    warn on standard error if a step breaks the balance certificate.

    ``--out`` is created before the transient, so an unusable path fails
    before the work rather than after it.  A failed transient still writes
    both files, with the steps accepted before the failure, and re-raises;
    the ``eps_H_rel`` column of that partial audit is relative to the peak
    supplied power over those steps only."""
    grid = TimeGrid(t0=T0, t_end=args.t_end, tau=args.tau)  # bad values fail before assembly
    parsed, _report, system = _assemble(args)
    probes = parse_probe_spec(system, args.probes, parsed.node_ids) if args.probes else {}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(result):
        trace_table(result, list(probes)).write(out / "trace.csv")
        audit_table(result).write(out / "audit.csv")

    try:
        result = run_transient(system, grid, probes=probes)
    except SolverError as exc:
        if hasattr(exc, "partial_result"):
            write(exc.partial_result)
        raise
    write(result)
    _warn_certificate(result.certificate_violations(), len(result.records))
    return system, result, out


def cmd_run(args) -> int:
    _system, result, out = _run(args)
    print(f"wrote {out / 'trace.csv'} and {out / 'audit.csv'} "
          f"({result.grid.n_steps} steps, max |eps_H| = "
          f"{result.max_balance_residual():.3e} W)")
    return EXIT_OK


def cmd_converge(args) -> int:
    grid = TimeGrid(t0=T0, t_end=args.t_end, tau=args.tau)  # bad values fail before assembly
    if args.halvings < 1:
        raise ValueError(f"--halvings must be at least 1, got {args.halvings}")
    parsed, _report, system = _assemble(args)
    if args.probes:
        probes = parse_probe_spec(system, args.probes, parsed.node_ids)
        if not probes:
            raise ValueError(f"--probes {args.probes!r} names no probe")
        if len(probes) > 1:
            raise ValueError(f"--probes {args.probes!r} names {len(probes)} probes; "
                             f"converge studies exactly one")
        (probe,) = probes.values()
    else:
        probe = default_state_probe(system)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = convergence_study(system, grid, args.halvings, probe)
    eoc_table(rows).write(out / "eoc.csv")
    for r in rows:
        eoc = "--" if r.order is None else f"{r.order:.2f}"
        print(f"tau={r.tau:<12.6g} eps_tau={r.error:<12.6g} eoc={eoc:<6} "
              f"max|eps_H|={r.max_balance_residual:.3e}")
    print(f"wrote {out / 'eoc.csv'}")
    for r in rows:
        _warn_certificate(r.violations, r.steps, f"tau={r.tau:.6g}: ")
    return EXIT_OK


def cmd_demo(args) -> int:
    system, result, out = _run(args)
    (out / "demo.net").write_text(DEMO_NETLIST, encoding="utf-8")
    field = system.field
    save_mesh(out / "transformer.mesh", field.mesh, field.materials, field.windings)
    v_r = result.probe("v_R")
    print(f"rectifier demo: {result.grid.n_steps} steps, v_R peak {np.max(v_r):.2f} V, "
          f"max |eps_H| = {result.max_balance_residual():.3e} W")
    print(f"wrote demo.net, transformer.mesh, trace.csv, audit.csv in {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    """``run`` without the transient: assemble the system (:func:`_assemble`)
    and check that the zero state is at rest at t0 (:func:`check_zero_state`).
    Every problem, parse and file errors included, is an ``error:`` line on
    standard output; on success it prints the topology report (its
    warnings, or ``topology ok``) and the netlist's size."""
    try:
        parsed, report, system = _assemble(args)
        check_zero_state(system, T0)
    except (MonaError, ValueError, OSError) as exc:
        _print_error(exc)
        return EXIT_INVALID
    print(report)
    print(f"{len(parsed.elements)} elements, {parsed.n_nodes} nodes: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mona",
        description="Field-circuit transient simulation with a certified power balance")
    sub = parser.add_subparsers(dest="command", required=True)

    def density_option(p):
        p.add_argument("--mesh-density", type=float, default=None,
                       help="cell size for the built-in transformer [m]")

    def mesh_options(p):
        p.add_argument("--mesh", help="mesh file overriding the netlist FIELD reference")
        density_option(p)

    def transient_options(p):
        p.add_argument("--tau", type=float, default=6.25e-4, help="time step [s]")
        p.add_argument("--t-end", type=float, default=0.05, dest="t_end",
                       help="end time [s]")
        p.add_argument("--out", default=".", help="output directory")

    def netlist_options(p, netlist_required=True):
        if netlist_required:
            p.add_argument("--netlist", required=True, help="netlist file")
        else:
            p.add_argument("--netlist", help="netlist file (default: built-in demo)")
        mesh_options(p)
        p.add_argument("--probes", help="comma-separated name=expr probe list")
        transient_options(p)

    p_run = sub.add_parser("run", help="run a transient and write trace/audit CSVs")
    netlist_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="step-halving convergence study")
    netlist_options(p_conv, netlist_required=False)
    p_conv.add_argument("--halvings", type=int, default=3)
    p_conv.set_defaults(func=cmd_converge)

    p_demo = sub.add_parser("demo-rectifier", help="run the built-in rectifier benchmark")
    density_option(p_demo)
    transient_options(p_demo)
    p_demo.set_defaults(func=cmd_demo, netlist=None, mesh=None, probes=DEMO_PROBES)

    p_check = sub.add_parser("check", help="validate a netlist and assemble its system")
    p_check.add_argument("--netlist", required=True)
    mesh_options(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("MONA_LOG", "error").lower()
    numeric = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("mona").setLevel(numeric)


def run_cli(argv) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MonaError, ValueError, OSError) as exc:
        _print_error(exc, sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
