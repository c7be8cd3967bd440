"""Cross-validation of the closed forms against the match enumerator.

The two payoff routes are written against the same behaviour contracts but
share no arithmetic: :mod:`trustevo.payoffs` evaluates phase-split formulas,
:mod:`trustevo.match_sim` integrates the behaviour machines round by round.
This module sweeps both over a standard parameter grid and reports the worst
relative disagreement and where it sits.  The enumerator's outcome counts
hold no game and a shorter match is a prefix of a longer one, so each
distinct strategy pair is walked once, to the longest grid match, and priced
against all grid games in one stacked product; ALLC v ALLD, say, serves every
(theta, p) cell from one walk.  Each cell is then compared as one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .game_model import GameSpec
from .match_sim import expected_outcomes, outcome_payoffs
from .metrics import strategy_pool
from .payoffs import analytic_entry

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
    worst_at: str = ""

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
        ) + (f" in {self.worst_at}" if self.worst_at else "")


def _tolerance_ratio(analytic, exact, tolerance: float):
    """Disagreement as a fraction of the allowed band; above 1 is a failure.

    The band is relative with an absolute floor of 1e-12 so that entries
    which are exactly zero on one route and roundoff-sized on the other do
    not divide by nothing.  Elementwise; a NaN on either route gives NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(abs(analytic), abs(exact))
        return abs(analytic - exact) / np.maximum(1e-12, tolerance * scale)


def run_oracle_verification() -> OracleReport:
    """Compare every ordered pair entry over the standard grid.

    Grid combinations with theta >= rounds are skipped because the closed
    forms are undefined there.  A comparison fails unless its ratio to
    ``TOLERANCE`` is at most 1, so a NaN on either route fails, and the worst
    ratio and its location are then those of the first NaN.
    """
    grid = list(product(GRID_ROUNDS, GRID_CHECK_COSTS, GRID_SCALES))
    games = [
        GameSpec(payoff_scale=scale, check_cost=cost, expected_rounds=float(rounds))
        for rounds, cost, scale in grid
    ]
    rounds = np.array([r for r, _, _ in grid])
    prices = np.array([outcome_payoffs(game) for game in games])
    priced = {}  # (a, b) -> (games, 2) mean payoffs of a and b in each grid game
    comparisons = failures = 0
    worst, worst_at = 0.0, ""
    for theta, p in product(GRID_THRESHOLDS, GRID_CHECK_PROBS):
        pairs = list(combinations_with_replacement(strategy_pool(theta, p), 2))
        for a, b in pairs:
            if (a, b) not in priced:
                counts = expected_outcomes(a, b, max(GRID_ROUNDS))
                priced[a, b] = (counts[rounds - 1] @ prices[:, :, None])[..., 0] / rounds[:, None]
        kept = [g for g, (r, _, _) in enumerate(grid) if r > theta]
        exact = np.array([priced[pair][kept] for pair in pairs])
        entries = (
            analytic_entry(row, col, games[g])
            for a, b in pairs for g in kept for row, col in ((a, b), (b, a))
        )
        analytic = np.fromiter(entries, float, exact.size).reshape(exact.shape)
        ratio = _tolerance_ratio(analytic, exact, TOLERANCE)
        comparisons += ratio.size
        failures += ratio.size - np.count_nonzero(ratio <= 1.0)
        at = np.unravel_index(np.argmax(ratio), ratio.shape)  # the first NaN, if any
        if not np.isnan(worst) and not ratio[at] <= worst:
            worst = float(ratio[at])
            row, col = pairs[at[0]][::-1] if at[2] else pairs[at[0]]
            worst_at = "{} v {}, theta={}, p={}, rounds={}, cost={}, scale={}".format(
                row.label, col.label, theta, p, *grid[kept[at[1]]]
            )
    return OracleReport(comparisons, int(failures), worst, worst_at)
