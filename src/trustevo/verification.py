"""Cross-validation of the closed forms against the match enumerator.

The two payoff routes are written against the same behaviour contracts but
share no arithmetic: :mod:`trustevo.payoffs` evaluates phase-split formulas,
:mod:`trustevo.match_sim` integrates the behaviour machines round by round.
This module sweeps both over a standard parameter grid and reports the worst
relative disagreement, which the ``verify`` CLI subcommand and the
acceptance suite both consume.  The enumerator's outcome counts hold no game
and a shorter match is a prefix of a longer one, so each (theta, p, pair)
is walked once, to the longest grid match, and every round count, cost and
stake on the grid is priced from that walk's prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .game_model import make_prisoners_dilemma
from .match_sim import expected_outcomes, outcome_payoffs
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
    forms are undefined there.  Each unordered pair is walked once per
    (theta, p); the walk validates both ordered entries of every game.  A
    comparison fails unless its ratio is at most 1, so a NaN on either
    route fails, and the worst ratio is then NaN too.
    """
    games = []
    for rounds, cost, scale in product(GRID_ROUNDS, GRID_CHECK_COSTS, GRID_SCALES):
        game = make_prisoners_dilemma(
            payoff_scale=scale, check_cost=cost, expected_rounds=float(rounds)
        )
        games.append((rounds, game, outcome_payoffs(game)))
    comparisons = failures = 0
    worst = 0.0
    for theta, check_prob in product(GRID_THRESHOLDS, GRID_CHECK_PROBS):
        strategies = (ALLC, ALLD, TFT, tuc(theta, check_prob), tud(theta))
        for a, b in combinations_with_replacement(strategies, 2):
            counts = expected_outcomes(a, b, max(GRID_ROUNDS))
            for rounds, game, price in games:
                if theta >= rounds:
                    continue
                exact_a, exact_b = counts[rounds - 1] @ price / rounds
                for row, col, exact in ((a, b, exact_a), (b, a, exact_b)):
                    ratio = _tolerance_ratio(analytic_entry(row, col, game), exact, tolerance)
                    comparisons += 1
                    failures += not ratio <= 1.0
                    if math.isnan(ratio) or ratio > worst:
                        worst = ratio
    return OracleReport(comparisons, failures, float(worst))
