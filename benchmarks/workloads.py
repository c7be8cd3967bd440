"""The benchmark's three workloads, their inputs and their correctness gates.

Every workload is a sequence of passes.  A pass is a fixed unit of work whose
inputs depend only on the workload seed, so every pass, traced or not, makes
the same calls on the same inputs and the harness can take each call's
median time.  ``run_pass`` returns a ``Pass`` with one stage time per timed
call; ``check`` returns its gate violations (empty when every output is correct),
after which the harness drops the outputs, so memory does not grow with the
number of passes.  Seeded outputs must also repeat bit for bit across passes.

* ``figure-sweep``: ``run_sweep`` on the five presets (365 points at N=100),
  each written with ``write_csv``.  The paper's figure traffic; it never
  touches ``match_sim``.  The grid is fixed, so the seed is recorded only.
* ``point-queries``: a closed loop with one caller making single
  ``cooperation_report`` calls, 240 to a pass, with parameters drawn from
  the seed by Latin hypercube sampling so every range is covered evenly.
  Same modules as the sweep, one point at a time, at up to ten times the
  population.  A query that raises is a failed operation; it is recorded
  with its parameters and never redrawn.
* ``oracles``: the 17,550-comparison enumerator check, a seeded Monte Carlo
  of TUC(3, 0.25) against TUD(3), and ``simulate_fixation`` on the three
  criterion-8 pairs at N=20.  Nearly all of its work is in ``match_sim`` and
  ``strategies``; it builds no fixation chain and runs no sweep.

The stochastic gates use a 5-sigma band around the closed forms, not the
3-sigma band of acceptance criterion 8: with five such checks in a run (its
passes repeat the same seeded draws), a correct program fails one with
probability about 3e-6, against 1.3e-2 at 3 sigma.
"""

from __future__ import annotations

import io
import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from trustevo.evolution import EvolutionParams, fixation_probability, simulate_fixation
from trustevo.game_model import make_prisoners_dilemma
from trustevo.match_sim import monte_carlo_payoffs
from trustevo.metrics import cooperation_report
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud
from trustevo.sweep import STRATEGY_ORDER, preset_config, run_sweep, write_csv
from trustevo.verification import run_oracle_verification

PRESETS = ("fig3", "fig4", "fig5", "appendix_theta5", "appendix_theta10")
GOLDEN_CSV = Path("tests") / "data" / "fig3_golden.csv"
ORACLE_COMPARISONS = 17_550
SIGMA_BAND = 5.0
SUM_TOLERANCE = 1e-12
# Largest beta * N * stake scale a point query draws (see PointQueries.draw).
MAX_SELECTION_EXPONENT = 100.0

# Errors the package raises for inputs it cannot serve.  Anything else (a
# TypeError, say) means the benchmark no longer matches the API and stops
# the run instead of being counted as a failed operation.
PROGRAM_ERRORS = (ValueError, RuntimeError, ArithmeticError)


@dataclass
class Pass:
    """One pass: its stage timings, operation counts and outputs to check."""

    attempted: int
    failed: int = 0
    stages: dict[str, tuple[float, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    output: object = None


# The reference loop runs after each call for this share of the call's time
# (at least REF_MIN_S), so a long call gets a long, steady speed sample.
REF_SHARE = 0.2
REF_MIN_S = 0.004


def _reference_unit(_=None) -> float:
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    xs = [math.sin(0.37 * i) * i for i in range(60)]
    return float(total) + statistics.fmean(xs) + statistics.median(xs) + statistics.pstdev(xs)


def reference_s(duration: float = REF_MIN_S, threads: int = 1) -> float:
    """Seconds per unit of a fixed piece of pure-Python work, averaged over
    about ``duration`` seconds, on ``threads`` threads as the sweep runs.

    The host's speed drifts by up to 1.9 times, for seconds or minutes at a
    time, and a run cannot choose when it lands.  Timed right after each
    call, this loop tells how fast the host ran around it, so the harness can
    express every call's time in units of the loop: host speed mostly
    cancels, the program's does not.  The unit (rational arithmetic and
    ``statistics`` on a short list, from the standard library) is
    interpreter-bound with a wide code footprint, like trustevo's scalar
    loops, so a slow spell slows both alike; it never calls trustevo.
    """
    units = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    start = perf_counter()
    try:
        while True:
            if pool is None:
                _reference_unit()
                units += 1
            else:
                units += len(list(pool.map(_reference_unit, range(8 * threads))))
            elapsed = perf_counter() - start
            if elapsed >= duration:
                return elapsed / units
    finally:
        if pool is not None:
            pool.shutdown()


class Stopwatch:
    """Times calls, each with the reference loop run on either side of it.

    ``stages`` maps a call's key to (seconds, reference seconds), the latter
    the mean of the loop's unit time just before and just after the call.
    The loop after one call is the loop before the next.
    """

    def __init__(self, threads: int = 1) -> None:
        self.stages: dict[str, tuple[float, float]] = {}
        self.threads = threads
        self._reference = reference_s(threads=threads)

    def time(self, key: str, tracer, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return tracer.call(name, fn, *args, **kwargs)
        finally:
            took = perf_counter() - start
            after = reference_s(max(REF_MIN_S, REF_SHARE * took), self.threads)
            self.stages[key] = (took, (self._reference + after) / 2)
            self._reference = after


def _frequencies_ok(probabilities) -> Optional[str]:
    p = np.asarray(probabilities, dtype=float)
    if not np.all(np.isfinite(p)):
        return "non-finite stationary entry"
    if np.any(p < 0):
        return f"negative stationary entry {float(p.min())!r}"
    gap = abs(math.fsum(p.tolist()) - 1.0)
    if gap > SUM_TOLERANCE:
        return f"stationary vector sum is off 1 by {gap:.3e}"
    return None


# ---------------------------------------------------------------- figure-sweep


class FigureSweep:
    name = "figure-sweep"

    def __init__(self, seed: int, presets=PRESETS) -> None:
        self.seed = seed
        self.presets = tuple(presets)
        self.configs = [preset_config(p) for p in self.presets]
        self.golden = GOLDEN_CSV.read_text()
        # run_sweep is called with its default thread count, as the CLI does.
        self.threads = os.cpu_count() or 1
        self.first_csvs = None

    def warm_up(self) -> None:
        run_sweep(preset_config("fig3"))

    def run_pass(self, index: int, tracer) -> Pass:
        rows_by_preset, csvs, clock = {}, {}, Stopwatch(self.threads)
        for preset, config in zip(self.presets, self.configs):
            rows = clock.time(f"sweep {preset}", tracer, "sweep.run", run_sweep, config)
            buffer = io.StringIO()
            clock.time(f"csv {preset}", tracer, "sweep.csv", write_csv, rows, buffer)
            rows_by_preset[preset] = rows
            csvs[preset] = buffer.getvalue()
        points = sum(len(rows) for rows in rows_by_preset.values())
        failed = sum(
            1 for rows in rows_by_preset.values() for row in rows
            if not all(math.isfinite(v) for v in row.values())
        )
        return Pass(
            attempted=points,
            failed=failed,
            stages=clock.stages,
            counts={"csv_bytes": sum(len(text.encode()) for text in csvs.values())},
            output=(rows_by_preset, csvs),
        )

    def check(self, result: Pass) -> list[str]:
        rows_by_preset, csvs = result.output
        errors = check_sweep(rows_by_preset, csvs, self.golden)
        if self.first_csvs is None:
            self.first_csvs = csvs
        if csvs != self.first_csvs:
            errors.append("CSV differs from the first pass")
        return errors


def check_sweep(rows_by_preset: dict, csvs: dict, golden: str) -> list[str]:
    """fig3 CSV byte-identical to the golden file; frequencies sum to 1."""
    errors = []
    if "fig3" in csvs and csvs["fig3"] != golden:
        errors.append("fig3 CSV differs from tests/data/fig3_golden.csv")
    for preset, rows in rows_by_preset.items():
        for number, row in enumerate(rows):
            freqs = [row[f"freq_{label}"] for label in STRATEGY_ORDER]
            problem = _frequencies_ok(freqs)
            if problem:
                errors.append(f"{preset} row {number}: {problem}")
    return errors


# --------------------------------------------------------------- point-queries


class PointQueries:
    name = "point-queries"

    def __init__(self, seed: int, count: int = 240, max_population: int = 1000) -> None:
        self.seed = seed
        self.count = count
        self.max_population = max_population
        self.params = self.draw()

    def draw(self) -> list[dict]:
        """Latin hypercube sample: one stratum per query on every axis.

        Selection strength is drawn up to 0.1, the presets' value, and at
        most MAX_SELECTION_EXPONENT / (N * stake scale).  Beyond that bound
        some chains are so close to reducible (a fixation probability near
        exp(-beta * N * scale * payoff gap)) that ``stationary_distribution``
        refuses them with ``NumericalError``: with beta up to 0.1 about one
        query in a thousand, at exponents from about 1,000 up.
        """
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        n = self.count
        u = (rng.permuted(np.tile(np.arange(n), (7, 1)), axis=1) + rng.random((7, n))) / n
        out = []
        for i in range(n):
            theta = 1 + int(u[0, i] * 10)
            population = 10 + int(u[6, i] * (self.max_population - 9))
            scale = float(10.0 ** (-1.0 + 4.0 * u[4, i]))
            top = min(0.1, MAX_SELECTION_EXPONENT / (population * scale))
            out.append({
                "trust_threshold": theta,
                "expected_rounds": float(theta + 1 + int(u[1, i] * (100 - theta))),
                "check_prob": float(u[2, i]),
                "check_cost": float(u[3, i]),
                "payoff_scale": scale,
                "selection_strength": float(top * u[5, i]),
                "population": population,
            })
        return out

    def warm_up(self) -> None:
        cooperation_report(make_prisoners_dilemma(), EvolutionParams(10, 0.1))

    def run_pass(self, index: int, tracer) -> Pass:
        clock = Stopwatch()
        result = Pass(attempted=len(self.params), stages=clock.stages, output=[])
        for number, q in enumerate(self.params):
            try:
                report = _query(q, tracer, clock, f"query {number}")
            except PROGRAM_ERRORS as exc:
                result.failed += 1
                result.failures.append(
                    {"seed": self.seed, "query": number, "params": q,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
                continue
            if not (math.isfinite(report.with_trust) and math.isfinite(report.without_trust)):
                result.failed += 1
            result.output.append(report)
        return result

    def check(self, result: Pass) -> list[str]:
        return check_reports(result.output)


def _query(q: dict, tracer, clock: Stopwatch, key: str):
    game = make_prisoners_dilemma(
        payoff_scale=q["payoff_scale"],
        check_cost=q["check_cost"],
        expected_rounds=q["expected_rounds"],
    )
    params = EvolutionParams(q["population"], q["selection_strength"])
    return clock.time(
        key, tracer, "metrics.report", cooperation_report, game, params,
        trust_threshold=q["trust_threshold"], check_prob=q["check_prob"],
    )


def check_reports(reports) -> list[str]:
    """Each stationary vector is finite, non-negative and sums to 1."""
    errors = []
    for number, report in enumerate(reports):
        for which in ("stationary_with", "stationary_without"):
            problem = _frequencies_ok(getattr(report, which).probabilities)
            if problem:
                errors.append(f"query {number} {which}: {problem}")
        for value in (report.with_trust, report.without_trust):
            if not math.isfinite(value):
                errors.append(f"query {number}: non-finite cooperation {value!r}")
    return errors


# --------------------------------------------------------------------- oracles


FIXATION_PAIRS = ((1, 0), (3, 1), (4, 2))  # (mutant, resident) in ALLC..TUD order


class Oracles:
    name = "oracles"

    def __init__(self, seed: int, mc_samples: int = 2000, fixation_runs: int = 10_000) -> None:
        self.seed = seed
        self.mc_samples = mc_samples
        self.fixation_runs = fixation_runs
        self.game = make_prisoners_dilemma()
        self.values = payoff_matrix((ALLC, ALLD, TFT, tuc(3, 0.25), tud(3)), self.game).values
        self.params = EvolutionParams(20, 0.1)
        # Closed-form references, computed once and outside any trace.
        self.closed_form = (float(self.values[3, 4]), float(self.values[4, 3]))
        self.rho = [fixation_probability(self.values, m, r, self.params) for m, r in FIXATION_PAIRS]
        self.first_estimates = None

    def warm_up(self) -> None:
        monte_carlo_payoffs(tuc(3, 0.25), tud(3), self.game, samples=10, seed=self.seed)
        simulate_fixation(self.values, 1, 0, self.params, runs=10, seed=self.seed)

    def run_pass(self, index: int, tracer) -> Pass:
        clock = Stopwatch()
        report = clock.time("verify", tracer, "verification.run", run_oracle_verification)
        mc = clock.time(
            "monte carlo", tracer, "match_sim.mc", monte_carlo_payoffs, tuc(3, 0.25), tud(3), self.game,
            samples=self.mc_samples, seed=self.seed,
        )
        freqs = []
        for mutant, resident in FIXATION_PAIRS:
            freq = clock.time(
                f"fixation {mutant}{resident}", tracer, "evolution.simulate_fixation", simulate_fixation,
                self.values, mutant, resident, self.params,
                runs=self.fixation_runs, seed=self.seed,
            )
            freqs.append(freq)
        estimates = [mc.mean_a, mc.mean_b] + freqs
        return Pass(
            attempted=report.comparisons + 1 + len(freqs),
            failed=report.failures + sum(1 for x in estimates if not math.isfinite(x)),
            stages=clock.stages,
            counts={
                "comparisons": report.comparisons,
                "mc_rounds": self.mc_samples * self.game.simulation_rounds(),
            },
            output=(report, mc, freqs),
        )

    def check(self, result: Pass) -> list[str]:
        report, mc, freqs = result.output
        errors = check_verify(report)
        errors += check_monte_carlo(mc, self.closed_form)
        errors += check_fixation(freqs, self.rho, self.fixation_runs)
        if self.first_estimates is None:
            self.first_estimates = (mc, freqs)
        if (mc, freqs) != self.first_estimates:
            errors.append("seeded estimates differ from the first pass")
        return errors


def check_verify(report) -> list[str]:
    if report.comparisons != ORACLE_COMPARISONS:
        return [f"verify made {report.comparisons} comparisons, expected {ORACLE_COMPARISONS}"]
    if not report.ok:
        return [f"verify failed: {report.summary()}"]
    return []


def check_monte_carlo(mc, closed_form) -> list[str]:
    errors = []
    for side, mean, stderr, ref in (
        ("a", mc.mean_a, mc.stderr_a, closed_form[0]),
        ("b", mc.mean_b, mc.stderr_b, closed_form[1]),
    ):
        if not abs(mean - ref) <= SIGMA_BAND * stderr:
            errors.append(
                f"Monte Carlo mean_{side} {mean!r} is outside {SIGMA_BAND:g} sigma "
                f"({stderr!r}) of the closed form {ref!r}"
            )
    return errors


def check_fixation(freqs, rho, runs: int) -> list[str]:
    errors = []
    for (mutant, resident), freq, ref in zip(FIXATION_PAIRS, freqs, rho):
        sigma = math.sqrt(ref * (1.0 - ref) / runs)
        if not abs(freq - ref) <= SIGMA_BAND * sigma:
            errors.append(
                f"fixation {STRATEGY_ORDER[mutant]} into {STRATEGY_ORDER[resident]}: "
                f"{freq!r} is outside {SIGMA_BAND:g} sigma ({sigma:.3e}) of {ref!r}"
            )
    return errors


WORKLOADS = {w.name: w for w in (FigureSweep, PointQueries, Oracles)}
