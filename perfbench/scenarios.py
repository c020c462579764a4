"""The benchmark's workloads: generated netlists, CLI arguments, output checks.

A workload is one ``mona`` CLI command on a netlist generated from the
benchmark seed.  Seeds map onto a fixed table of ``N_VARIANTS`` scenarios:
variant 0 is the unperturbed scenario of the ROADMAP, every other variant
scales the load resistance and the source amplitude by factors drawn
uniformly from 1 +- ``PERTURBATION``.  The start from rest is kept, so every
variant is a consistent transient.  Because the table is finite, the
reference outputs of every variant are committed next to this file
(``reference.json``) and each run is checked against them.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_VARIANTS = 16
PERTURBATION = 0.03
BASE_AMPLITUDE = 160.0
BASE_LOAD = 10.0

# shipping bounds of the per-step balance certificate
EPS_ABS_BOUND = 1e-10
EPS_REL_BOUND = 1e-12

# A probe or energy sample may differ from the reference by this share of the
# column's largest magnitude.  The solver stops at a scaled Newton residual
# of 1e-12, so an exact reformulation (for example eliminating the field
# block) moves samples by far less; a wrong step moves them by far more.
TRACE_RTOL = 1e-8
# Step-halving errors are differences of nearby probe values, so they carry
# the solver tolerance amplified by about 1/eps_tau.
EOC_RTOL = 1e-6
EOC_RANGE = (1.7, 2.3)

RECTIFIER_NETLIST = """\
# full-wave rectifier: source, transformer, diode bridge, resistive load
V src 1 0 SIN({amplitude!r} 60)
M xfmr 1 0 2 3 FIELD=builtin
D d1 2 4 IS=1e-14 VT=0.025 RP=1e12
D d2 3 4 IS=1e-14 VT=0.025 RP=1e12
D d3 0 2 IS=1e-14 VT=0.025 RP=1e12
D d4 0 3 IS=1e-14 VT=0.025 RP=1e12
R load 4 0 {load!r}
"""

LINEAR_NETLIST = """\
# linear transformer: source, transformer, resistive load; no diodes
V src 1 0 SIN({amplitude!r} 60)
M xfmr 1 0 2 0 FIELD=builtin
R load 2 0 {load!r}
"""


@dataclass(frozen=True)
class Workload:
    """One CLI command on a generated netlist."""

    name: str
    netlist: str            # template with {amplitude} and {load}
    command: str            # "run" or "converge"
    mesh_density: float
    tau: float
    t_end: float
    probes: str | None = None
    halvings: int | None = None

    def argv(self, netlist: Path, out: Path, warmup: bool = False) -> list:
        """CLI arguments; ``warmup`` shortens the run to a few steps."""
        t_end = 4 * self.tau if warmup else self.t_end
        argv = [self.command, "--netlist", str(netlist),
                "--mesh-density", repr(self.mesh_density),
                "--tau", repr(self.tau), "--t-end", repr(t_end), "--out", str(out)]
        if self.probes:
            argv += ["--probes", self.probes]
        if self.halvings is not None:
            argv += ["--halvings", "1" if warmup else str(self.halvings)]
        return argv

    def output_files(self) -> tuple:
        return ("eoc.csv",) if self.command == "converge" else ("trace.csv", "audit.csv")


WORKLOADS = {w.name: w for w in (
    Workload("rectifier-fine", RECTIFIER_NETLIST, "run", 0.00625, 6.25e-4, 0.05,
             probes="v_src=v(src),v_R=v(load),psi_load=psi(4)"),
    Workload("converge-coarse", RECTIFIER_NETLIST, "converge", 0.025, 5e-3, 0.05,
             halvings=3),
    Workload("linear-fine", LINEAR_NETLIST, "run", 0.00625, 6.25e-4, 0.5,
             probes="v_load=v(load),u1=u(1)"),
)}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def variant_params(variant: int) -> tuple:
    """(source amplitude [V], load resistance [ohm]) of a variant."""
    if variant == 0:
        return BASE_AMPLITUDE, BASE_LOAD
    da, dr = np.random.default_rng(variant).uniform(-PERTURBATION, PERTURBATION, 2)
    return BASE_AMPLITUDE * (1.0 + float(da)), BASE_LOAD * (1.0 + float(dr))


def netlist_text(workload: Workload, variant: int) -> str:
    amplitude, load = variant_params(variant)
    return workload.netlist.format(amplitude=amplitude, load=load)


def read_table(text: str) -> dict:
    """CSV text -> {column: list of floats, None for empty cells}."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) if row[i] else None for row in body]
            for i, name in enumerate(header)}


@dataclass
class Outputs:
    """What one invocation wrote, reduced to what the benchmark checks."""

    raw: dict               # file name -> bytes
    table: dict             # trace.csv or eoc.csv columns
    eps_abs: list           # worst |eps_H| per transient (one, or one per leg)

    @classmethod
    def read(cls, workload: Workload, out: Path) -> "Outputs":
        raw = {name: (out / name).read_bytes() for name in workload.output_files()}
        if workload.command == "converge":
            table = read_table(raw["eoc.csv"].decode())
            eps = [abs(v) for v in table["max_eps_H"]]
        else:
            table = read_table(raw["trace.csv"].decode())
            audit = read_table(raw["audit.csv"].decode())
            eps = [max(abs(v) for v in audit["eps_H"])]
            table["eps_H_rel"] = audit["eps_H_rel"]
        return cls(raw=raw, table=table, eps_abs=eps)

    def digest(self) -> str:
        """Hash of every output file, to compare invocations across processes."""
        h = hashlib.sha256()
        for name in sorted(self.raw):
            h.update(name.encode())
            h.update(self.raw[name])
        return h.hexdigest()

    def max_eps_rel(self, reference: dict) -> float:
        """Worst defect relative to the peak supplied power.

        ``run`` writes the relative column itself.  ``converge`` writes only
        absolute defects, so each leg's is divided by that leg's peak
        supplied power from the reference (a property of the scenario).
        """
        if "eps_H_rel" in self.table:
            return max(abs(v) for v in self.table["eps_H_rel"])
        return max(e / p for e, p in zip(self.eps_abs, reference["peak_power"]))


def reference_entry(workload: Workload, outputs: Outputs, peak_power=None) -> dict:
    """The committed reference for one variant: sampled columns, or eoc rows."""
    if workload.command == "converge":
        return {"tau": outputs.table["tau"], "eps_tau": outputs.table["eps_tau"],
                "peak_power": list(peak_power)}
    n = len(outputs.table["t"])
    stride = max(1, n // 40)
    rows = sorted(set(range(stride - 1, n, stride)) | {n - 1})
    columns = [c for c in outputs.table if c not in ("t", "eps_H", "eps_H_rel")]
    return {"steps": n, "rows": rows,
            "columns": {c: [outputs.table[c][i] for i in rows] for c in columns}}


def check(workload: Workload, outputs: Outputs, reference: dict) -> list:
    """Problems of one invocation's outputs against the reference; empty if fine."""
    table = outputs.table
    problems = []
    if workload.command == "converge":
        if table["tau"] != reference["tau"]:
            return [f"step sizes {table['tau']} != {reference['tau']}"]
        for tau, err, ref in zip(table["tau"], table["eps_tau"], reference["eps_tau"]):
            if not abs(err - ref) <= EOC_RTOL * abs(ref):
                problems.append(f"eps_tau at tau={tau!r}: {err!r} != {ref!r}")
        lo, hi = EOC_RANGE
        for tau, eoc in zip(table["tau"], table["eoc"]):
            if eoc is not None and not lo <= eoc <= hi:
                problems.append(f"eoc at tau={tau!r} is {eoc!r}, outside [{lo}, {hi}]")
        return problems

    if len(table["t"]) != reference["steps"]:
        return [f"{len(table['t'])} steps, reference has {reference['steps']}"]
    for name, ref in reference["columns"].items():
        if name not in table:
            problems.append(f"column {name} missing")
            continue
        got = [table[name][i] for i in reference["rows"]]
        tol = TRACE_RTOL * max(abs(v) for v in ref)
        worst = max(abs(a - b) for a, b in zip(got, ref))
        if not worst <= tol:
            problems.append(f"column {name} deviates by {worst:.3e} (tolerance {tol:.3e})")
    return problems
