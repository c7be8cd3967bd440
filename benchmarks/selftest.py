"""Self-test of the benchmark harness.

Runs each workload at a tiny size, traced and untraced, and shows that every
correctness gate rejects a corrupted output.  Run from anywhere::

    python3 benchmarks/selftest.py

It exits with code 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
os.chdir(ROOT)
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import trustevo.sweep  # noqa: E402
from tracing import PATCHES, NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MAX_SELECTION_EXPONENT,
    FigureSweep,
    Oracles,
    Pass,
    WORKLOADS,
    PointQueries,
    check_fixation,
    check_monte_carlo,
    check_reports,
    check_sweep,
    check_verify,
)


def tiny_workloads(seed: int = 3):
    return (
        FigureSweep(seed, presets=("fig3",)),
        PointQueries(seed, count=4, max_population=30),
        Oracles(seed, mc_samples=200, fixation_runs=2000),
    )


def check_tiny_runs():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    for workload in tiny_workloads():
        plain, traced, errors = run.run_passes(workload, seconds=0, trace=True)
        assert len(plain) == len(traced) == 1, workload.name
        assert not errors, (workload.name, errors)
        figures = run.workload_figures(workload, plain)
        layers = run.per_layer(plain, traced)
        for name, (value, _) in layers.items():
            assert math.isfinite(value) and value >= 0 or name == "trace.overhead_s", name
        assert figures["failed_share"] == (0.0, "share"), workload.name


def check_sweep_spans_nest_across_threads():
    workload = FigureSweep(3, presets=("fig3",))
    tracer = Tracer()
    with tracer:
        workload.run_pass(0, tracer)
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    reports = [s for s in tracer.spans if s[2] == "metrics.report"]
    assert len(reports) == 21
    assert all(names[parent] == "sweep.run" for _, parent, _, _, _ in reports)
    times = tracer.layer_times()
    assert all(row["self_s"] >= 0 for row in times.values())
    assert times["metrics.report"]["self_s"] < times["metrics.report"]["total_s"]
    assert tracer.calls["evolution.fixation"] == 21 * 26
    assert tracer.fixation_useful() <= 21 * 20


def check_tracer_restores_names():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in PATCHES}
    with Tracer():
        assert trustevo.sweep.cooperation_report is not before[("trustevo.sweep", "cooperation_report")]
    after = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in PATCHES}
    assert before == after


def check_call_times_add_each_calls_median():
    passes = [Pass(attempted=1, stages={"a": (2.0, 0.5), "b": (1.0, 1.0)}),
              Pass(attempted=1, stages={"a": (1.5, 0.25), "b": (3.0, 1.0)}),
              Pass(attempted=1, stages={"a": (9.0, 1.0), "b": (2.0, 2.0)})]
    assert run.call_times(passes) == {"a": 2.0, "b": 2.0}
    assert run.total_time(passes) == 4.0
    assert run.total_time(passes, "b") == 2.0
    assert run.call_times(passes, relative=True) == {"a": 6.0, "b": 1.0}


def check_point_queries_repeat_and_bound_selection():
    first, again = PointQueries(7), PointQueries(7)
    assert first.params == again.params and len(first.params) == 240
    assert first.params != PointQueries(8).params
    for q in first.params:
        assert 0 <= q["selection_strength"] <= 0.1
        exponent = q["selection_strength"] * q["population"] * q["payoff_scale"]
        assert exponent <= MAX_SELECTION_EXPONENT * (1 + 1e-12)


def check_sweep_gates():
    workload = FigureSweep(3, presets=("fig3",))
    result = workload.run_pass(0, NullTracer())
    rows, csvs = result.output
    assert not check_sweep(rows, csvs, workload.golden)
    text = csvs["fig3"]
    at = len(text) // 2
    flipped = text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]
    assert check_sweep(rows, {"fig3": flipped}, workload.golden)
    bad_rows = {"fig3": [dict(r) for r in rows["fig3"]]}
    bad_rows["fig3"][5]["freq_TUC"] += 1e-9
    assert check_sweep(bad_rows, csvs, workload.golden)
    assert not workload.check(result)
    other = Pass(attempted=21, output=(rows, {"fig3": flipped}))
    assert any("differs from the first pass" in e for e in workload.check(other))


def check_report_gates():
    workload = PointQueries(3, count=3, max_population=30)
    reports = workload.run_pass(0, NullTracer()).output
    assert reports and not check_reports(reports)
    report = reports[0]
    for bad in (np.array([0.5, 0.6, -0.1]), np.array([0.5, 0.5, 1e-9]), np.array([np.nan, 0.5, 0.5])):
        stat = dataclasses.replace(report.stationary_without, probabilities=bad)
        assert check_reports([dataclasses.replace(report, stationary_without=stat)])
    assert check_reports([dataclasses.replace(report, with_trust=float("nan"))])


def check_failed_queries_are_counted_not_redrawn():
    class OneBadQuery(PointQueries):
        def draw(self):
            good = super().draw()[0]
            return [good, good | {"population": 1}]

    workload = OneBadQuery(3, count=2, max_population=30)
    result = workload.run_pass(0, NullTracer())
    assert (result.attempted, result.failed, len(result.output)) == (2, 1, 1)
    failure = result.failures[0]
    assert failure["seed"] == 3 and failure["query"] == 1
    assert failure["params"]["population"] == 1
    assert failure["error"].startswith("ParameterDomainError")


def check_oracle_gates():
    workload = Oracles(3, mc_samples=200, fixation_runs=2000)
    result = workload.run_pass(0, NullTracer())
    report, mc, freqs = result.output
    assert not check_verify(report)
    assert check_verify(dataclasses.replace(report, comparisons=report.comparisons - 1))
    assert check_verify(dataclasses.replace(report, failures=1))
    assert not check_monte_carlo(mc, workload.closed_form)
    assert check_monte_carlo(dataclasses.replace(mc, mean_a=mc.mean_a + 6 * mc.stderr_a), workload.closed_form)
    assert check_monte_carlo(dataclasses.replace(mc, mean_b=mc.mean_b - 6 * mc.stderr_b), workload.closed_form)
    assert not check_fixation(freqs, workload.rho, workload.fixation_runs)
    for i, rho in enumerate(workload.rho):
        sigma = math.sqrt(rho * (1 - rho) / workload.fixation_runs)
        bumped = list(freqs)
        bumped[i] = rho + 6 * sigma
        assert check_fixation(bumped, workload.rho, workload.fixation_runs)
    assert not workload.check(result)
    other = dataclasses.replace(result, output=(report, mc, [f + 1e-3 for f in freqs]))
    assert any("differ from the first pass" in e for e in workload.check(other))


def check_command_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "point-queries",
             "--seed", "2", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        measured = {name: m["unit"] for name, m in result["metrics"].items()}
        assert measured == declared, (trace, set(measured) ^ set(declared))


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(BENCH_DIR, Path(scratch) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "oracles",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


CHECKS = (
    check_tiny_runs,
    check_sweep_spans_nest_across_threads,
    check_tracer_restores_names,
    check_call_times_add_each_calls_median,
    check_point_queries_repeat_and_bound_selection,
    check_sweep_gates,
    check_report_gates,
    check_failed_queries_are_counted_not_redrawn,
    check_oracle_gates,
    check_command_output,
    check_refuses_without_sources,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
