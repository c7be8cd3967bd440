"""Benchmark for trustevo: figure sweeps, point queries and the two oracles.

Run from the root of a checkout (the directory holding ``src/trustevo``)::

    python3 benchmarks/run.py --workload figure-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all          # each workload in its own process

A run repeats passes of the workload (see ``workloads.py``) for about
``--seconds`` seconds, checks every output against the correctness gates and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
provenance and the workload's own figures.  A failed gate prints the
violations on stderr and exits with code 1.

``--trace 0`` (end-to-end, untraced) reports on every workload:

* ``setup_s``: wall time for a fresh interpreter to ``import trustevo``,
  which every CLI call pays; the median of a few launches up front and one
  after every pass;
* ``wall_ref``: wall time of one pass (five preset sweeps and their CSVs;
  240 point queries; verify, Monte Carlo and fixation) in units of a fixed
  reference loop (``workloads.reference_s``) timed on either side of each
  call;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Every pass makes the same calls on the same inputs, and each call is timed
on its own: a preset's sweep or CSV, a query, verify, the Monte Carlo, a
fixation simulation.  After each call the reference loop runs for a fifth
of the call's time, at least 4 ms, on the sweep's thread count in
figure-sweep.  ``wall_ref`` adds up, over the calls, the median over passes
of each call's time divided by the mean of the loop's unit time just before
and just after it.  A shared two-CPU virtual machine (Python 3.11, numpy
2.4) switches, for seconds or minutes at a time, between a fast regime and
one up to 1.9 times slower, and whole runs can land in the slow one; the
loop slows with the program, so the ratio keeps the program's cost and
drops most of the host's.  Over ten seeds per workload of 40-second runs
on such a machine, the pass time in seconds spread 15% (figure-sweep), 18%
(point-queries) and 26% (oracles) between runs (quartile distance over
median), and ``wall_ref`` 5.0%, 1.1% and 7.4%.  Every pass time and set-up
sample is printed on the line before the result.

The workload figures on that line are ``wall_s``, the pass time in seconds
(each call's median), the figure-sweep ``sweep_points_per_s``, the
point-queries ``query_ms_p50`` and ``query_ms_p95`` (percentiles over the
queries' median times), the oracles ``verify_s``, ``mc_samples_per_s`` and
``fixation_runs_per_s``, and ``failed_share`` everywhere.

``--trace 1`` alternates untraced and traced passes on the same inputs and
reports per-layer counts per pass, each layer's time as a share of the time
of the traced pass's timed calls, and ``trace.overhead_s``, the traced
``wall_s`` minus the untraced one.  Layers run on both sweep threads at
once, so in figure-sweep their shares add up to about the thread count.  A
layer a workload bypasses reads 0; ``evolution.fixation_useful_share`` then
reads 1, as no fixation sum was wasted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_LAUNCHES_FIRST = 6
IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import trustevo"
WORKLOAD_NAMES = ("figure-sweep", "point-queries", "oracles")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import trustevo from this checkout's src/, never from elsewhere."""
    src = Path("src").resolve()
    if not (src / "trustevo" / "__init__.py").is_file():
        fail("run from the root of a trustevo checkout: src/trustevo is missing")
    sys.path.insert(0, str(src))
    import trustevo

    if src not in Path(trustevo.__file__).resolve().parents:
        fail(f"imported trustevo from {trustevo.__file__}, not from {src}")
    return trustevo


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the directory."""
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def time_import() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True)
    return perf_counter() - start


def call_times(passes, relative: bool = False) -> dict[str, float]:
    """Each timed call's median time over the passes, in seconds or, when
    ``relative``, in units of the reference loop timed around it."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, (took, reference) in p.stages.items():
            samples.setdefault(key, []).append(took / reference if relative else took)
    return {key: statistics.median(values) for key, values in samples.items()}


def total_time(passes, prefix: str = "", relative: bool = False) -> float:
    return sum(t for key, t in call_times(passes, relative).items() if key.startswith(prefix))


def run_passes(workload, seconds: float, trace: bool, between=None):
    """Untraced passes, each followed (when ``trace``) by a traced one on
    the same inputs.

    Every output is gated as soon as its pass ends, and ``between`` (if
    given) runs after each pass.  Stops before the pass (or pair) that would
    end after ``seconds``; the first always runs.  Returns the untraced
    passes, the traced ones and the gate violations.
    """
    from tracing import NullTracer, Tracer

    plain, traced, errors = [], [], []

    def finish(result, kind, began):
        result.wall = perf_counter() - began
        errors.extend(f"{kind} pass {index}: {e}" for e in workload.check(result))
        result.output = None

    start = perf_counter()
    index = 0
    while True:
        began = perf_counter()
        result = workload.run_pass(index, NullTracer())
        finish(result, "untraced", began)
        plain.append(result)
        if trace:
            tracer = Tracer()
            began_traced = perf_counter()
            with tracer:
                result = workload.run_pass(index, tracer)
            finish(result, "traced", began_traced)
            result.tracer = tracer
            traced.append(result)
        if between:
            between()
        index += 1
        step = perf_counter() - began
        if perf_counter() - start + step > seconds:
            return plain, traced, errors


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q percent at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def workload_figures(workload, passes) -> dict:
    """The workload's own end-to-end figures, as (value, unit)."""
    attempted = sum(p.attempted for p in passes)
    figures = {
        "failed_share": (sum(p.failed for p in passes) / attempted, "share"),
        "passes": (len(passes), "count"),
        "wall_s": (total_time(passes), "s"),
    }
    if workload.name == "figure-sweep":
        figures["sweep_points_per_s"] = (
            passes[0].attempted / total_time(passes, "sweep "), "1/s"
        )
        figures["csv_s"] = (total_time(passes, "csv "), "s")
    elif workload.name == "point-queries":
        latencies = list(call_times(passes).values())
        figures["queries"] = (len(latencies), "count")
        figures["query_ms_p50"] = (1000 * percentile(latencies, 50), "ms")
        figures["query_ms_p95"] = (1000 * percentile(latencies, 95), "ms")
    else:
        figures["verify_s"] = (total_time(passes, "verify"), "s")
        figures["mc_samples_per_s"] = (
            workload.mc_samples / total_time(passes, "monte carlo"), "1/s"
        )
        runs = workload.fixation_runs * len(workload.rho)
        figures["fixation_runs_per_s"] = (runs / total_time(passes, "fixation "), "1/s")
    return figures


def end_to_end(passes, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (total_time(passes, relative=True), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced) -> dict:
    """Per-pass counts and time shares from the traced passes."""
    n = len(traced)
    # The timed calls only, without the reference loop between them.
    wall = sum(took for p in traced for took, _ in p.stages.values())
    spans, calls, useful = {}, {}, 0
    for p in traced:
        for name, row in p.tracer.layer_times().items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
        for name, value in p.tracer.calls.items():
            calls[name] = calls.get(name, 0) + value
        useful += p.tracer.fixation_useful()
    span = lambda name, key: spans.get(name, {}).get(key, 0)
    count = lambda key: sum(p.counts.get(key, 0) for p in traced) / n
    fixations = calls.get("evolution.fixation", 0)
    sweep_s = span("sweep.run", "total_s")
    metrics = {}
    for layer in ("evolution.chain", "evolution.stationary", "metrics.report",
                  "payoffs.matrix", "match_sim.exact"):
        metrics[f"{layer}_calls"] = (span(layer, "calls") / n, "count")
        metrics[f"{layer}_self_share"] = (span(layer, "self_s") / wall, "share")
    for layer in ("evolution.group_payoffs", "evolution.fixation", "payoffs.entry",
                  "strategies.next_action", "strategies.observe"):
        metrics[f"{layer}_calls"] = (calls.get(layer, 0) / n, "count")
    metrics.update({
        "evolution.fixation_useful_share": (useful / fixations if fixations else 1.0, "share"),
        "sweep.run_share": (sweep_s / wall, "share"),
        "sweep.self_share": (span("sweep.run", "self_s") / wall, "share"),
        "sweep.csv_share": (span("sweep.csv", "total_s") / wall, "share"),
        "sweep.csv_bytes": (count("csv_bytes"), "B"),
        "sweep.span_over_wall": (
            span("metrics.report", "total_s") / sweep_s if sweep_s else 0.0, "ratio"
        ),
        "verification.comparisons": (count("comparisons"), "count"),
        "verification.self_share": (span("verification.run", "self_s") / wall, "share"),
        "match_sim.mc_share": (span("match_sim.mc", "total_s") / wall, "share"),
        "match_sim.mc_rounds": (count("mc_rounds"), "count"),
        "evolution.simulate_fixation_share": (
            span("evolution.simulate_fixation", "total_s") / wall, "share"
        ),
        "trace.overhead_s": (total_time(traced) - total_time(plain), "s"),
    })
    return metrics


def as_json(metrics: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Each workload in its own process; exit 1 if any of them fails."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}")
            worst = max(worst, proc.returncode or 1)
            continue
        result = json.loads(lines[-1])
        figures = json.loads(lines[-2])["figures"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in {**result["metrics"], **figures}.items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    trustevo = import_package()
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    probe = None if args.trace else lambda: setup_times.append(time_import())
    for _ in range(0 if args.trace else SETUP_LAUNCHES_FIRST):
        probe()
    workload.warm_up()
    plain, traced, errors = run_passes(workload, args.seconds, bool(args.trace), probe)
    passes = plain + traced
    figures = workload_figures(workload, plain)
    provenance = {
        "git_sha": git_sha(),
        "trustevo": trustevo.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sweep_threads": getattr(workload, "threads", None),
    }
    # Traced passes repeat the untraced inputs, so their failures are repeats.
    failures = [f for p in plain for f in p.failures]
    print(json.dumps({
        "provenance": provenance,
        "figures": as_json(figures),
        "pass_s": [p.wall for p in plain],
        "setup_s": setup_times,
        "failures": failures,
    }))
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup_times)
    for failure in failures:
        print(f"failed operation: {json.dumps(failure)}", file=sys.stderr)
    for error in errors:
        print(f"gate failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": as_json(metrics),
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
