"""mona benchmark: one workload, one JSON line of results.

    python3 perfbench/run.py --workload rectifier-fine --seed 0 --seconds 30 --trace 0

Run it from the repository root: it imports ``mona`` from ``./src`` and
writes its netlists, CLI outputs and span dumps under ``./.perfbench_out``.
Each invocation calls ``mona.cli.run_cli`` in-process on a netlist generated
from the seed (see ``scenarios.py``) and is checked against the committed
reference.

``--trace 0`` times untraced invocations for ``--seconds`` and prints the
end-to-end metrics.  It splits the window into ``PARTS`` parts, each timed
after a warm-up by a process of its own (``--part``), one after the other.
``--trace 1`` alternates untraced and traced invocations in this process and
prints the per-layer metrics of the traced ones.  The last line of standard
output is the result object; the line before it records the environment and
the sample counts.
"""

from __future__ import annotations

import os

# pinned before numpy loads: the benchmark measures single-threaded mona
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = ".perfbench_out"
# A timed run rotates over this many consecutive variants, starting at the
# seed's own.  The certificate of a single variant moves by up to 12% from
# variant to variant (it is rounding noise); the median over three moves
# less.
WINDOW = 3
# set-up is timed in a batch of this length before every invocation, so its
# samples see the machine in the same states as the invocations do
SETUP_BATCH_SECONDS = 0.15
# A timed run is split into this many parts, each run by a process of its
# own, one after the other.  On a shared host a process keeps a speed of its
# own for its whole life: the medians of separate processes differed by up to
# 20% while the two halves of one agreed within 7%, so the median over
# several processes is steadier.  Part p starts its rotation p variants on,
# so every run covers all WINDOW variants however few rounds a part has time
# for.
PARTS = 3
# time a part may take beyond its window (start-up, warm-up, last round)
PART_GRACE_SECONDS = 120


def import_mona(root: Path):
    """Import mona from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "mona" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mona sources under {src}")
    sys.path.insert(0, str(src))
    import mona

    if Path(mona.__file__).resolve().parent != src / "mona":
        raise SystemExit(f"perfbench: mona imported from {mona.__file__}, not {src}")
    return mona


class Bench:
    """One workload variant: its netlist, reference and invocation helper."""

    def __init__(self, root: Path, workload_name: str, variant: int, reference=None):
        import scenarios

        self.workload = scenarios.WORKLOADS[workload_name]
        self.variant = variant
        self.reference = reference
        self.out = root / OUT_DIR / workload_name / f"v{variant}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.netlist_text = scenarios.netlist_text(self.workload, variant)
        self.netlist = self.out / "input.net"
        self.netlist.write_text(self.netlist_text, encoding="utf-8")

    def invoke(self, warmup: bool = False, tracer=None) -> dict:
        """One CLI call; returns its wall and CPU time and its exit code.

        Garbage left by earlier calls is collected first, as a fresh ``mona``
        process would not carry it.
        """
        from mona.cli import run_cli

        argv = self.workload.argv(self.netlist, self.out, warmup)
        scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
        sink = io.StringIO()
        code = None
        gc.collect()
        with scope, contextlib.redirect_stdout(sink):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = run_cli(argv)
            except Exception:  # a crash is a failed run, not a failed benchmark
                traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return {"code": code, "wall": wall, "cpu": cpu}

    def outputs_and_problems(self, code):
        """Read and check what the last invocation wrote."""
        import scenarios

        if code != 0:
            return None, [f"exit code {code}"]
        outputs = scenarios.Outputs.read(self.workload, self.out)
        return outputs, scenarios.check(self.workload, outputs, self.reference)

    def setup_seconds(self, budget: float) -> list:
        """Times of the public assembly chain, repeated for ``budget`` seconds."""
        from mona import (assemble_coupled, build_field_model, build_incidence,
                          generate_transformer_mesh, parse_netlist, validate_topology)
        from mona.fem import TransformerParams

        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < budget:
            t0 = time.perf_counter()
            parsed = parse_netlist(self.netlist_text)
            graph = build_incidence(parsed.elements, parsed.n_nodes)
            if not validate_topology(graph).passed:
                raise RuntimeError("generated netlist failed topology validation")
            mesh = generate_transformer_mesh(TransformerParams(), self.workload.mesh_density)
            assemble_coupled(graph, build_field_model(*mesh))
            times.append(time.perf_counter() - t0)
        return times


def timed(benches: list, seconds: float, offset: int) -> dict:
    """One part of a timed run: untraced invocations for ``seconds``.

    The invocations rotate over the variants from ``benches[offset]`` on.  A
    round (set-up batch, invocation, probe) starts while at least half a round
    of median length is left in the window, so a part lasts about ``seconds``
    on average.  Times are scaled to the
    reference speed of the host by the mean of the probes taken between
    invocations (see ``speed.py``).  Returns the samples as plain data for
    ``combine``.
    """
    import speed

    speed.probe()  # warm-up
    setup, runs, probes, rounds, rss = [], [], [speed.probe()], [], None
    start = end = time.perf_counter()
    while not runs or end - start + statistics.median(rounds) / 2 <= seconds:
        setup.append(benches[0].setup_seconds(SETUP_BATCH_SECONDS))
        bench = benches[(offset + len(runs)) % len(benches)]
        run = bench.invoke()
        outputs, found = bench.outputs_and_problems(run["code"])
        run.update(variant=bench.variant, problems=found)
        if outputs is not None:
            run.update(digest=outputs.digest(), eps_abs=max(outputs.eps_abs),
                       eps_rel=outputs.max_eps_rel(bench.reference))
        runs.append(run)
        # a user's mona process runs one command; the peak is taken after one
        rss = rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes.append(speed.probe())
        rounds.append(time.perf_counter() - end)
        end += rounds[-1]
    k = speed.scale(probes)
    for run in runs:
        run["scale"] = k
    return {"runs": runs, "probes": probes,
            "setup": [t * k for batch in setup for t in batch], "peak_rss_mib": rss}


def timed_in_parts(args) -> list:
    """Run the ``PARTS`` parts of a timed run one after another, each in a
    process of its own, and return what each part measured."""
    parts = []
    for part in range(PARTS):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / PARTS), "--trace", "0",
                   "--part", str(part)]
        # run() kills and waits for the part if it overruns
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds / PARTS + PART_GRACE_SECONDS)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: part {part} exited with status {done.returncode}")
        parts.append(json.loads(done.stdout.splitlines()[-1]))
    return parts


def combine(parts: list):
    """End-to-end metrics from the parts of a timed run.

    Time metrics are medians over every invocation of every part.  The same
    variant must write the same bytes in every invocation, across parts too.
    """
    runs = [run for part in parts for run in part["runs"]]
    seen = {}
    for run in runs:
        if "digest" in run:
            first = seen.setdefault(run["variant"], run)
            if run["digest"] != first["digest"]:
                run["problems"].append(f"variant {run['variant']}: outputs differ "
                                       "from its first run")
    metrics = {
        "wall_s": statistics.median(r["wall"] * r["scale"] for r in runs),
        "cpu_s": statistics.median(r["cpu"] * r["scale"] for r in runs),
        "setup_s": statistics.median(t for part in parts for t in part["setup"]),
        "peak_rss_mib": max(part["peak_rss_mib"] for part in parts),
    }
    if seen:
        metrics["max_eps_H_W"] = statistics.median(r["eps_abs"] for r in seen.values())
        metrics["max_eps_H_rel"] = statistics.median(r["eps_rel"] for r in seen.values())
    problems = [p for r in runs for p in r["problems"]]
    samples = {"wall_s": len(runs), "setup_s": sum(len(part["setup"]) for part in parts),
               "variants": sorted(seen), "raw_wall_s": [r["wall"] for r in runs],
               "probe_s": [part["probes"] for part in parts]}
    return runs, problems, metrics, samples


def traced(benches: list, seconds: float):
    """Alternating untraced and traced invocations of the seed's own variant."""
    import tracing

    bench = benches[0]
    plain, spanned, layer, problems = [], [], [], []
    first_raw = counts = last_tracer = None
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        # alternate which of the pair goes first, so drift hits both alike
        order = (False, True) if len(spanned) % 2 == 0 else (True, False)
        for with_trace in order:
            tracer = tracing.Tracer() if with_trace else None
            run = bench.invoke(tracer=tracer)
            outputs, found = bench.outputs_and_problems(run["code"])
            if outputs is not None:
                first_raw = first_raw or outputs.raw
                if outputs.raw != first_raw:
                    found.append("traced and untraced outputs differ")
            if with_trace and not found:
                metrics = tracer.layer_metrics()
                work = {k: metrics[k] for k in tracing.WORK_COUNTS}
                counts = counts or work
                if work != counts:
                    found.append(f"work counts {work} differ from {counts}")
                layer.append(metrics)
                last_tracer = tracer
            run["problems"] = found
            problems += found
            (spanned if with_trace else plain).append(run)
    if last_tracer is not None:
        last_tracer.write_spans(bench.out / "spans.csv")

    metrics = {}
    if layer:
        for name, value in layer[0].items():
            if name.endswith(("_s", "_ms")):
                value = statistics.median(m[name] for m in layer)
            metrics[name] = value
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in spanned)
                                       - statistics.median(r["wall"] for r in plain))
    samples = {"traced": len(spanned), "untraced": len(plain)}
    return plain + spanned, problems, metrics, samples


def environment(workload: str, variants: list, seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "seed": seed,
            "variants": variants, "workload": workload}


def main(argv=None) -> int:
    import scenarios

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    first = scenarios.variant_of(args.seed)
    variants = [(first + i) % scenarios.N_VARIANTS
                for i in range(1 if args.trace else WINDOW)]
    if args.trace == 0 and args.part is None:
        runs, problems, metrics, samples = combine(timed_in_parts(args))
    else:
        root = Path.cwd()
        import_mona(root)
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
        benches = [Bench(root, args.workload, v, reference[v]) for v in variants]
        benches[0].invoke(warmup=True)
        if args.part is not None:
            print(json.dumps(timed(benches, args.seconds, args.part)))
            return 0
        runs, problems, metrics, samples = traced(benches, args.seconds)

    declared = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics) and not problems:
        raise SystemExit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json "
                         f"declares {sorted(m['name'] for m in declared)}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(1 for r in runs if r["problems"])
    env = environment(args.workload, variants, args.seed)
    print("# " + json.dumps({"env": env, "samples": samples}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
