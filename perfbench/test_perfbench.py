"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

Work counts must repeat exactly, tracing must change no output byte and must
leave mona as it found it, and the output check must reject wrong results.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

ROOT = Path(__file__).resolve().parents[1]
run.import_mona(ROOT)

import mona.cli  # noqa: E402
import mona.coupling  # noqa: E402
import mona.stepping  # noqa: E402
import scenarios  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rectifier_runs():
    """The rectifier-fine seed scenario run untraced, traced, untraced, traced."""
    bench = run.Bench(ROOT, "rectifier-fine", 0, REFERENCE["rectifier-fine"][0])
    runs = []
    for with_trace in (False, True, False, True):
        tracer = tracing.Tracer() if with_trace else None
        code = bench.invoke(tracer=tracer)["code"]
        outputs, problems = bench.outputs_and_problems(code)
        assert problems == []
        runs.append((outputs, tracer.layer_metrics() if tracer else None))
    return runs


def test_work_counts_repeat_exactly(rectifier_runs):
    counts = [{k: m[k] for k in tracing.WORK_COUNTS} for _, m in rectifier_runs if m]
    assert counts[0] == counts[1]
    assert counts[0]["stepping.steps"] == 80
    assert counts[0]["stepping.newton_iters"] == 495
    assert counts[0]["stepping.factorizations"] == 202
    # untraced runs show their step count in the audit
    for outputs, _ in rectifier_runs:
        assert len(outputs.table["t"]) == 80


def test_tracing_changes_no_output_byte(rectifier_runs):
    first = rectifier_runs[0][0].raw
    assert all(outputs.raw == first for outputs, _ in rectifier_runs)


def test_tracing_restores_entry_points():
    before = (mona.cli.run_transient, mona.stepping.midpoint_step,
              mona.coupling.CoupledSystem.jacobians, mona.stepping.FactorCache.refactor,
              mona.cli.CsvTrace.write)
    with tracing.Tracer().installed():
        assert mona.stepping.midpoint_step is not before[1]
    after = (mona.cli.run_transient, mona.stepping.midpoint_step,
             mona.coupling.CoupledSystem.jacobians, mona.stepping.FactorCache.refactor,
             mona.cli.CsvTrace.write)
    assert after == before


def test_check_rejects_a_moved_probe(rectifier_runs):
    workload = scenarios.WORKLOADS["rectifier-fine"]
    reference = REFERENCE["rectifier-fine"][0]
    outputs = rectifier_runs[0][0]
    assert scenarios.check(workload, outputs, reference) == []
    row = reference["rows"][10]
    outputs.table["v_R"][row] *= 1.0 + 1e-6
    try:
        assert scenarios.check(workload, outputs, reference)
    finally:
        outputs.table["v_R"][row] /= 1.0 + 1e-6


def test_check_rejects_wrong_convergence():
    workload = scenarios.WORKLOADS["converge-coarse"]
    reference = REFERENCE["converge-coarse"][0]
    good = {"tau": reference["tau"], "eps_tau": list(reference["eps_tau"]),
            "eoc": [None, 2.0, 2.0, 2.0]}
    outputs = scenarios.Outputs(raw={}, table=good, eps_abs=[])
    assert scenarios.check(workload, outputs, reference) == []
    good["eoc"][2] = 1.5
    assert any("eoc" in p for p in scenarios.check(workload, outputs, reference))
    good["eoc"][2] = 2.0
    good["eps_tau"][1] *= 1.001
    assert any("eps_tau" in p for p in scenarios.check(workload, outputs, reference))


def test_scale_brings_times_to_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale([ref, ref]) == pytest.approx(1.0)
    assert speed.scale([ref, 2 * ref, 3 * ref]) == pytest.approx(0.5)


def test_combine_rejects_outputs_that_differ_between_parts():
    def part(digest):
        run_ = {"wall": 2.0, "cpu": 1.9, "scale": 1.5, "variant": 3, "problems": [],
                "digest": digest, "eps_abs": 4e-10, "eps_rel": 3e-12}
        return {"runs": [run_], "probes": [0.2, 0.2], "setup": [0.05], "peak_rss_mib": 100.0}

    _, problems, metrics, _ = run.combine([part("a"), part("a")])
    assert problems == []
    assert metrics["wall_s"] == pytest.approx(3.0)
    runs, problems, _, _ = run.combine([part("a"), part("b")])
    assert len(problems) == 1 and runs[1]["problems"] == problems
