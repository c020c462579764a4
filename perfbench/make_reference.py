"""Regenerate ``reference.json``: the checked outputs of every workload variant.

    python3 perfbench/make_reference.py

Run it from the repository root, and only when a change is meant to alter
mona's results; the benchmark fails every run whose outputs leave the
tolerances in ``scenarios.py`` around this file's values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import scenarios


def main() -> int:
    root = Path.cwd()
    run.import_mona(root)
    import tracing

    reference = {}
    for name, workload in scenarios.WORKLOADS.items():
        entries = []
        for variant in range(scenarios.N_VARIANTS):
            bench = run.Bench(root, name, variant)
            tracer = tracing.Tracer()
            code = bench.invoke(tracer=tracer)["code"]
            if code != 0:
                raise SystemExit(f"{name} variant {variant}: exit code {code}")
            outputs = scenarios.Outputs.read(workload, bench.out)
            legs = tracer.transients[:len(outputs.eps_abs)]
            peaks = [leg.peak_supplied_power() for leg in legs]
            entries.append(scenarios.reference_entry(workload, outputs, peaks))
            print(f"{name} variant {variant}: max |eps_H| {max(outputs.eps_abs):.3e} W",
                  flush=True)
        reference[name] = entries
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
