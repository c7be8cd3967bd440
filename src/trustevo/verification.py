"""Cross-validation of the closed forms against the match enumerator.

The two payoff routes are written against the same behaviour contracts but
share no arithmetic: :mod:`trustevo.payoffs` evaluates phase-split formulas,
:mod:`trustevo.match_sim` integrates the behaviour machines round by round.
This module sweeps both over a standard parameter grid and reports the worst
relative disagreement, which the ``verify`` CLI subcommand and the
acceptance suite both consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .game_model import make_prisoners_dilemma
from .match_sim import exact_expected_payoffs
from .payoffs import analytic_entry
from .strategies import ALLC, ALLD, TFT, tuc, tud

GRID_THRESHOLDS = (1, 3, 5, 10)
GRID_CHECK_PROBS = (0.0, 0.1, 0.25, 0.5, 1.0)
GRID_ROUNDS = (5, 10, 20, 50)
GRID_CHECK_COSTS = (0.0, 0.25, 1.0)
GRID_SCALES = (0.1, 1.0, 10.0)

TOLERANCE = 1e-10


@dataclass(frozen=True)
class OracleReport:
    comparisons: int
    failures: int
    worst_tolerance_ratio: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        passed = self.comparisons - self.failures
        head = "OK" if self.ok else "FAIL"
        return (
            f"{head}: {passed}/{self.comparisons} oracle comparisons within "
            f"{TOLERANCE:g} relative tolerance "
            f"(worst deviation at {self.worst_tolerance_ratio:.3e} of tolerance)"
        )


def _tolerance_ratio(analytic: float, exact: float, tolerance: float) -> float:
    """Disagreement as a fraction of the allowed band; above 1 is a failure.

    The band is relative with an absolute floor of 1e-12 so that entries
    which are exactly zero on one route and roundoff-sized on the other do
    not divide by nothing.
    """
    gap = abs(analytic - exact)
    scale = max(abs(analytic), abs(exact))
    return gap / max(1e-12, tolerance * scale)


def run_oracle_verification(tolerance: float = TOLERANCE) -> OracleReport:
    """Compare every ordered pair entry over the standard grid.

    Grid combinations with theta >= rounds are skipped because the closed
    forms are undefined there (the enumerator would still run).  Each
    unordered pair is enumerated once; the run validates both ordered
    entries.
    """
    comparisons = 0
    failures = 0
    worst = 0.0
    for theta in GRID_THRESHOLDS:
        for rounds in GRID_ROUNDS:
            if theta >= rounds:
                continue
            for check_prob in GRID_CHECK_PROBS:
                strategies = (ALLC, ALLD, TFT, tuc(theta, check_prob), tud(theta))
                for cost in GRID_CHECK_COSTS:
                    for scale in GRID_SCALES:
                        game = make_prisoners_dilemma(
                            payoff_scale=scale,
                            check_cost=cost,
                            expected_rounds=float(rounds),
                        )
                        for a, b in combinations_with_replacement(strategies, 2):
                            exact_a, exact_b = exact_expected_payoffs(
                                a, b, game, rounds=rounds
                            )
                            checks = [(a, b, exact_a), (b, a, exact_b)]
                            for row, col, exact in checks:
                                predicted = analytic_entry(row, col, game)
                                ratio = _tolerance_ratio(predicted, exact, tolerance)
                                worst = max(worst, ratio)
                                comparisons += 1
                                if ratio > 1.0:
                                    failures += 1
    return OracleReport(comparisons, failures, worst)
