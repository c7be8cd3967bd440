"""Cross-validation of the closed forms against the match enumerator.

The two payoff routes are written against the same behaviour contracts but
share no arithmetic: :mod:`trustevo.payoffs` evaluates phase-split formulas,
:mod:`trustevo.match_sim` integrates the behaviour machines round by round.
This module sweeps both over a standard parameter grid and reports the worst
relative disagreement and where it sits.  The enumerator's outcome counts
hold no game and a shorter match is a prefix of a longer one, so each
distinct strategy pair is walked once, to the longest grid match, and the
walks share one behaviour table, so each distinct behaviour is stepped once.
Every walk's counts at the grid's match lengths are priced against all grid
games in one product; ALLC v ALLD serves every (theta, p) cell from one walk.
The closed forms price the whole grid as one ``payoff_tables`` stack, theta
and p given per game as the sweeps give them, and the whole grid is compared
as one array gathered to that stack's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .game_model import GameSpec
from .match_sim import _outcome_counts, outcome_payoffs
from .metrics import strategy_pool
from .payoffs import payoff_tables

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
    terms = np.array([(*g.scaled_payoffs(), g.expected_rounds, g.check_cost) for g in games])
    cells = list(product(GRID_THRESHOLDS, GRID_CHECK_PROBS))
    kept = rounds > np.array([theta for theta, _ in cells])[:, None]  # (cells, games)
    at_cell, at_game = np.nonzero(kept)  # each stack row's cell and game
    columns = np.column_stack((terms[at_game], np.array(cells)[at_cell]))
    stack = payoff_tables([s.kind for s in strategy_pool(*cells[0])], *columns.T)
    walks = {}  # (a, b) -> index of its walk, in first-seen cell order
    walk_of = np.array([  # (cells, pairs)
        [walks.setdefault(pair, len(walks)) for pair in combinations_with_replacement(pool, 2)]
        for pool in (strategy_pool(*cell) for cell in cells)
    ])
    table = {}  # one behaviour table for all walks
    at_rounds = np.array(GRID_ROUNDS)[:, None] - 1
    counts = np.array([  # (walks, rounds, 1, 2, 12): each walk's counts at the grid's rounds
        _outcome_counts(a, b, max(GRID_ROUNDS), table)[at_rounds] for a, b in walks
    ])
    by_rounds = prices.reshape(len(GRID_ROUNDS), -1, 12, 1)  # the grid is rounds-major
    priced = (counts @ by_rounds).reshape(len(walks), len(grid), 2) / rounds[:, None]  # means
    exact = priced[walk_of[at_cell], at_game[:, None]]  # (stack rows, pairs, 2)
    rows, cols = np.triu_indices(stack.shape[-1])  # the pairs' pool indices, in order
    analytic = stack[:, [rows, cols], [cols, rows]].transpose(0, 2, 1)  # as exact
    ratio = _tolerance_ratio(analytic, exact, TOLERANCE)
    failures = ratio.size - np.count_nonzero(ratio <= 1.0)
    ordered = np.zeros((len(cells), len(rows), len(grid), 2))  # (cell, pair, game, side)
    ordered.transpose(0, 2, 1, 3)[kept] = ratio  # skipped games read 0
    cell, pair, game, side = at = np.unravel_index(np.argmax(ordered), ordered.shape)
    row, col = list(walks)[walk_of[cell, pair]][:: -1 if side else 1]
    where = "{} v {}, theta={}, p={}, rounds={}, cost={}, scale={}".format(
        row.label, col.label, *cells[cell], *grid[game]
    )  # the first NaN or the first largest ratio, in (cell, pair, game, side) order
    worst = float(ordered[at])
    return OracleReport(ratio.size, int(failures), worst, "" if worst <= 0.0 else where)
