"""Tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest bench``.  They use
the workloads' small sizes and a zero measuring time, so each run is one
pass.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_environment()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads_and_layers_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    traced = {name.rsplit(".", 1)[0] for name in _units("per_layer")}
    assert set(tracing.LAYERS) <= traced


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    result, report = harness.run_workload(name, seed=3, seconds=0, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(section)
    assert result["attempted"] == len(workloads.WORKLOADS[name](3, small=True).ops)
    assert result["correct"], report["incorrect"]
    assert result["failed"] == 0, report["misses"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_wrong_result_counts_as_failure():
    work = workloads.sweeps(3, small=True)
    op = next(op for op in work.ops if op.kind.startswith("sweep_locus X7 "))
    real = op.run

    def wrong():
        sweep, fit, pieces = real()
        axes = (fit.fitted_axes[0] * (1.0 + 1e-6), fit.fitted_axes[1])
        return sweep, dataclasses.replace(fit, fitted_axes=axes), pieces

    op.run = op.replay = wrong
    tally, _ = harness.measure(work, seconds=0)
    assert tally.failed == 1
    assert len(tally.incorrect) == 1 and "fitted major axis" in tally.incorrect[0]


def test_injected_wrong_scalar_result_is_failed_and_incorrect():
    op = workloads.scalar(3, small=True).ops[1]
    real = op.run

    def wrong():
        outcomes = real()
        outcomes[1] = outcomes[1] + workloads.oc.Point(1e-3, 0.0)  # move X9 off the origin
        return outcomes

    op.run = op.replay = wrong
    tally, _ = harness.measure(workloads.Workload([op], tail_pct=50.0), seconds=0)
    assert tally.failed == 1 and len(tally.incorrect) == 1
    assert any(key.endswith("X9 beyond tolerance") for key in tally.misses)


def test_envelope_probe_reports_its_failed_share_and_failures_by_layer():
    report = {}
    failed_frac = harness.probe_envelope(small=True, report=report)
    envelope = report["envelope"]
    assert envelope["ops"] == len(workloads.envelope(small=True))
    assert failed_frac == envelope["failed"] / envelope["ops"]
    assert set(envelope["layer_failures"]) <= set(tracing.LAYERS)
    assert all(not op.claimed for op in workloads.envelope(small=True))


def test_cli_output_change_on_repeat_is_a_failure():
    op = next(op for op in workloads.cli_workload(3, small=True).ops if op.kind == "cli cb")
    code, stdout = op.replay()
    assert code == 0 and op.check((code, stdout)) == []
    assert op.check((code, stdout)) == []
    assert op.check((code, stdout + b" ")) == ["output differs from the first invocation"]
    assert op.check((2, stdout)) == ["exit code 2"]


def test_traced_replay_reproduces_untraced_results_and_records_layers():
    work = workloads.sweeps(3, small=True)
    tracer = tracing.Tracer()
    tally, replay_time = harness.measure(work, seconds=0, tracer=tracer)
    assert tally.incorrect == [] and replay_time["traced"] > 0
    roots = [s for s in tracer.spans if s[1] is None]
    assert len(roots) == len(work.ops)
    names = {s[3] for s in tracer.spans}
    assert {"billiard.orbit", "centers.center", "loci.sweep", "loci.fit",
            "circumbilliard", "conic_invariants.hyperbola"} <= names
    # the library functions are restored once the traced pass ends
    assert workloads.oc.orbit.__module__ == "orbitconics.billiard"
    assert not hasattr(workloads.oc.orbit, "__wrapped__")


def test_traced_replay_divergence_makes_the_run_incorrect():
    results = iter([1.0, 2.0])
    op = workloads.Op("diverging", 1, run=lambda: next(results), check=lambda r: [])
    op.replay = op.run
    tally, _ = harness.measure(workloads.Workload([op], tail_pct=50.0), seconds=0,
                               tracer=tracing.Tracer())
    assert tally.incorrect == ["diverging: traced replay diverged"]


def test_untyped_exception_is_a_failure_and_makes_the_run_incorrect():
    def boom():
        raise ZeroDivisionError("boom")

    op = workloads.Op("boom", 1, run=boom, check=lambda r: [], claimed=False)
    tally, _ = harness.measure(workloads.Workload([op], tail_pct=50.0), seconds=0)
    assert tally.failed == 1
    assert tally.incorrect == ["boom: raised untyped ZeroDivisionError: boom"]


def test_failure_is_attributed_to_the_span_that_raised():
    tracer = tracing.Tracer()

    def inner():
        raise ValueError("inner")

    with pytest.raises(ValueError):
        tracer.call("outer", tracer.call, "inner", inner)
    errors = {span[3]: span[7] for span in tracer.spans}
    assert errors == {"inner": "ValueError", "outer": None}
