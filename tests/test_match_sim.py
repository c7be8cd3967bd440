import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trustevo.match_sim as match_sim
from trustevo.errors import ParameterDomainError, StateSpaceError
from trustevo.evolution import EvolutionParams, simulate_fixation
from trustevo.game_model import GameSpec, make_prisoners_dilemma
from trustevo.match_sim import (
    CostConvention,
    MatchOutcome,
    exact_expected_payoffs,
    expected_outcomes,
    monte_carlo_payoffs,
    outcome_payoffs,
    play_match,
)
from trustevo.metrics import strategy_pool
from trustevo.strategies import (
    ALLC,
    ALLD,
    TFT,
    Action,
    StrategyKind,
    StrategySpec,
    StrategyState,
    check_probability,
    initial_state,
    next_action,
    observe,
    tuc,
    tud,
)
from trustevo.verification import _tolerance_ratio, run_oracle_verification

import test_payoffs
from test_payoffs import analytic_entry

C = Action.COOPERATE
D = Action.DEFECT

DEFAULT_GAME = make_prisoners_dilemma()
DEFAULT_SET = (ALLC, ALLD, TFT, tuc(3, 0.25), tud(3))


class TestPlayMatch:
    def test_default_round_count_comes_from_the_game(self):
        outcome = play_match(ALLC, ALLD, DEFAULT_GAME)
        assert outcome.rounds == 50

    def test_allc_vs_alld_trace(self):
        outcome = play_match(ALLC, ALLD, GameSpec(expected_rounds=5))
        assert outcome.actions_a == (C,) * 5
        assert outcome.actions_b == (D,) * 5
        assert not any(outcome.checks_a)
        assert not any(outcome.checks_b)
        assert outcome.payoffs_a == (-1.0,) * 5
        assert outcome.payoffs_b == (2.0,) * 5
        assert outcome.payoff_a == -1.0
        assert outcome.payoff_b == 2.0

    def test_tuc_with_certain_checks_against_tud(self):
        """With p=1 the whole match is deterministic: trust at round 3,
        exploitation caught immediately, mutual defection after."""
        outcome = play_match(tuc(3, 1.0), tud(3), GameSpec(expected_rounds=8))
        assert outcome.actions_a == (C, C, C, C, D, D, D, D)
        assert outcome.actions_b == (C, C, C, D, D, D, D, D)
        # The exploiter stops paying for observation once it trusts.
        assert outcome.checks_a == (True,) * 8
        assert outcome.checks_b == (True, True, True, False, False, False, False, False)
        # Pre-trust rounds cost both sides a check on top of mutual cooperation.
        assert outcome.payoffs_a[0] == 0.75
        assert outcome.payoffs_b[0] == 0.75
        # Catch round: the sucker payoff, with the catching check free.
        assert outcome.payoffs_a[3] == -1.0
        assert outcome.payoffs_b[3] == 2.0
        # After reversion the watcher keeps paying for every check.
        assert outcome.payoffs_a[4] == -0.25
        assert outcome.payoffs_b[4] == 0.0

    def test_every_check_convention_charges_the_catch(self):
        outcome = play_match(
            tuc(3, 1.0), tud(3), GameSpec(expected_rounds=8),
            convention=CostConvention.EVERY_CHECK,
        )
        assert outcome.payoffs_a[3] == -1.25
        assert outcome.convention is CostConvention.EVERY_CHECK

    def test_same_seed_reproduces_the_trace(self):
        a = play_match(tuc(3, 0.25), tud(3), DEFAULT_GAME, seed=7)
        b = play_match(tuc(3, 0.25), tud(3), DEFAULT_GAME, seed=7)
        assert a == b

    def test_different_seeds_move_the_detection_round(self):
        catches = set()
        for seed in range(30):
            outcome = play_match(tuc(3, 0.25), tud(3), DEFAULT_GAME, seed=seed)
            caught = next(
                i
                for i in range(outcome.rounds)
                if outcome.checks_a[i] and outcome.actions_b[i] is D
            )
            catches.add(caught)
        assert len(catches) > 1


_BAD_COUNTS = [-1, 0, 2.5, True]
_BAD_SEEDS = [-1, 2.5, True]
_PARAMS = EvolutionParams(10, 0.1)
_ORACLES = {
    "play_match": lambda seed=0: play_match(tuc(3, 0.25), tud(3), DEFAULT_GAME, seed=seed),
    "monte_carlo_payoffs": lambda samples=3, seed=0: monte_carlo_payoffs(
        tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=samples, seed=seed
    ),
    "simulate_fixation": lambda runs=3, seed=0: simulate_fixation(
        np.eye(2), 1, 0, _PARAMS, runs=runs, seed=seed
    ),
}


class TestOracleArguments:
    @pytest.mark.parametrize("oracle", sorted(_ORACLES))
    @pytest.mark.parametrize("seed", _BAD_SEEDS)
    def test_seed_must_be_a_non_negative_int(self, oracle, seed):
        with pytest.raises(ParameterDomainError, match="seed"):
            _ORACLES[oracle](seed=seed)

    @pytest.mark.parametrize("oracle, name", [
        ("monte_carlo_payoffs", "samples"), ("simulate_fixation", "runs"),
    ])
    @pytest.mark.parametrize("count", _BAD_COUNTS)
    def test_count_must_be_a_positive_int(self, oracle, name, count):
        with pytest.raises(ParameterDomainError, match=name):
            _ORACLES[oracle](**{name: count})

    def test_large_seeds_are_accepted(self):
        for call in _ORACLES.values():
            call(seed=2**80)


class TestExactEnumeration:
    def test_matches_closed_forms_for_all_pairs(self):
        """Both routes agree on every ordered pair at the default parameters."""
        for row, col in itertools.product(DEFAULT_SET, repeat=2):
            expected = analytic_entry(row, col, DEFAULT_GAME)
            got, _ = exact_expected_payoffs(row, col, DEFAULT_GAME)
            assert got == pytest.approx(expected, abs=1e-12), (
                row.label,
                col.label,
            )

    def test_returns_both_sides_consistently(self):
        a_first, b_first = exact_expected_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME)
        b_second, a_second = exact_expected_payoffs(tud(3), tuc(3, 0.25), DEFAULT_GAME)
        assert a_first == pytest.approx(a_second, abs=1e-15)
        assert b_first == pytest.approx(b_second, abs=1e-15)

    def test_deterministic_pair_is_exact(self):
        got = exact_expected_payoffs(TFT, TFT, DEFAULT_GAME)
        assert got == (0.75, 0.75)

    def test_convention_gap_formula(self):
        """The conventions differ by eps * P(detection) / rounds, on the
        watcher's side of the TUC-TUD pair only."""
        free_a, free_b = exact_expected_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME)
        paid_a, paid_b = exact_expected_payoffs(
            tuc(3, 0.25), tud(3), DEFAULT_GAME,
            convention=CostConvention.EVERY_CHECK,
        )
        detection = 1.0 - 0.75**47
        assert free_a - paid_a == pytest.approx(0.25 * detection / 50, abs=1e-15)
        assert free_b == pytest.approx(paid_b, abs=1e-15)

    def test_conventions_agree_without_a_catch(self):
        for row, col in ((tuc(3, 0.25), ALLC), (tuc(3, 0.25), ALLD), (TFT, tud(3))):
            free = exact_expected_payoffs(row, col, DEFAULT_GAME)
            paid = exact_expected_payoffs(
                row, col, DEFAULT_GAME, convention=CostConvention.EVERY_CHECK
            )
            assert free == paid

    @settings(max_examples=100, deadline=None)
    @given(
        reward=st.floats(-5.0, 5.0),
        gaps=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
        share=st.floats(0.01, 0.99),
        theta_rounds=st.integers(1, 9).flatmap(
            lambda theta: st.tuples(st.just(theta), st.integers(theta + 1, 60))
        ),
        prob=st.one_of(
            st.sampled_from([0.0, 1.0, 1e-12, 1e-13, 5e-324, 1.0 - 1e-9]),
            st.floats(1e-12, 1.0),
            st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
            st.floats(5e-324, 1e-12, exclude_max=True),
            st.floats(-323.0, -12.0).map(lambda e: max(10.0**e, 5e-324)),
        ),
        cost=st.floats(0.0, 2.0),
        log_scale=st.floats(-2.0, 2.0),
    )
    # A large stake at p = 1e-13, where the closed forms once used the p = 0
    # limit and missed by 2.4 times the tolerance.
    @example(
        reward=-2.563,
        gaps=(-2.563 + 5.065, -5.065 + 7.974),
        share=(0.161 + 2.563) / (-2.563 + 7.974),
        theta_rounds=(2, 52),
        prob=1e-13,
        cost=0.325,
        log_scale=math.log10(2.8),
    )
    def test_matches_closed_forms_off_the_grid(
        self, reward, gaps, share, theta_rounds, prob, cost, log_scale
    ):
        """Both routes agree within 1e-10 on all 25 ordered pairs at random
        dilemma tables, thresholds, round counts, costs, scales and check
        probabilities, down to the smallest subnormal."""
        # R - P = a and P - S = b; T - R = share * (a + b) keeps 2R > T + S.
        a, b = gaps
        theta, rounds = theta_rounds
        game = GameSpec(
            temptation=reward + share * (a + b),
            reward=reward,
            punishment=reward - a,
            sucker=reward - a - b,
            payoff_scale=10.0**log_scale,
            check_cost=cost,
            expected_rounds=float(rounds),
        )
        strategies = (ALLC, ALLD, TFT, tuc(theta, prob), tud(theta))
        for row, col in itertools.product(strategies, repeat=2):
            exact, _ = exact_expected_payoffs(row, col, game)
            predicted = analytic_entry(row, col, game)
            assert _tolerance_ratio(predicted, exact, 1e-10) <= 1.0, (
                row.label, col.label, predicted, exact,
            )

    @pytest.mark.parametrize(
        "walk",
        [
            lambda: exact_expected_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME),
            lambda: monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=200),
        ],
        ids=["enumerator", "rollout"],
    )
    def test_state_budget_guard(self, monkeypatch, walk):
        """The enumerator and the rollout share one walk and its joint-state
        budget.  A one-sample play_match never holds two states, so Monte
        Carlo pins the rollout."""
        monkeypatch.setattr(match_sim, "_STATE_LIMIT", 1)
        with pytest.raises(StateSpaceError):
            walk()


def _results(counts):
    """(rounds, 2, 4) counts of T, R, P and S, summed over the observations."""
    return counts.reshape(len(counts), 2, 3, 4).sum(axis=2)


class TestExpectedOutcomes:
    PAIRS = list(itertools.product(DEFAULT_SET, repeat=2))

    def test_shorter_matches_are_prefixes(self):
        for a, b in self.PAIRS:
            full = expected_outcomes(a, b, 50)
            for rounds in (1, 5, 10, 20, 50):
                assert np.array_equal(full[rounds - 1], expected_outcomes(a, b, rounds)[-1])

    def test_each_round_has_one_result(self):
        for a, b in self.PAIRS:
            totals = _results(expected_outcomes(a, b, 50)).sum(axis=2)
            played = np.arange(1, 51)[:, None]
            np.testing.assert_allclose(totals, np.broadcast_to(played, (50, 2)), rtol=0, atol=1e-12)

    def test_results_mirror_between_players(self):
        for a, b in self.PAIRS:
            results = _results(expected_outcomes(a, b, 50))
            t, r, p, s = range(4)
            for mine, theirs in ((t, s), (s, t), (r, r), (p, p)):
                np.testing.assert_allclose(
                    results[:, 0, mine], results[:, 1, theirs], rtol=0, atol=1e-12
                )

    def test_both_conventions_price_one_count_array(self):
        game = make_prisoners_dilemma(check_cost=0.4, payoff_scale=2.5)
        for a, b in self.PAIRS:
            counts = expected_outcomes(a, b, 50)[-1]
            for convention in CostConvention:
                priced = tuple(counts @ outcome_payoffs(game, convention) / 50)
                assert exact_expected_payoffs(a, b, game, convention=convention) == priced

    def test_rounds_validation(self):
        for rounds in (0, 2.5, True):
            with pytest.raises(ParameterDomainError):
                expected_outcomes(ALLC, ALLD, rounds)

    def test_counts_are_summed_in_place(self):
        """The cumulative sum overwrites the per-round counts, so 100,000
        rounds peak at one 18.3 MiB array, where a separate sum held two."""
        import tracemalloc

        tracemalloc.start()
        try:
            counts = expected_outcomes(ALLC, ALLD, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (100_000, 2, 12) and counts[-1].sum() == 200_000
        assert counts.nbytes <= peak < 20 * 2**20

    def test_verify_walks_each_distinct_pair_once(self, monkeypatch):
        """One walk per distinct pair: 6 among ALLC, ALLD and TFT, 4 TUD
        pairs per theta and 5 TUC pairs per (theta, p): 6 + 16 + 100 = 122.
        Each walk steps each joint behaviour state once, two actions a step:
        604 steps over the 122 walks, where stepping every state every
        round took 6,631.  110 walks end by round 12, at a round that leaves
        the frontier unchanged or, in ALLD v TUC or TUD, only lowers the
        trust level: 1,123 rounds walked, not 122 * 50 = 6,100.  The 12 that
        run all 50 rounds are TUC v TUD with 0 < p < 1, whose uncaught mass
        decays."""
        import trustevo.verification as verification

        calls = []
        actions = []
        walked = []
        walk = match_sim._walk

        def counted_walk(*args, **kwargs):
            walked.append(walk(*args, **kwargs))
            return walked[-1]

        def counted(*args):
            calls.append(args)
            return expected_outcomes(*args)

        def counted_action(spec, state):
            actions.append(spec)
            return next_action(spec, state)

        monkeypatch.setattr(verification, "expected_outcomes", counted)
        monkeypatch.setattr(match_sim, "next_action", counted_action)
        monkeypatch.setattr(match_sim, "_walk", counted_walk)
        report = run_oracle_verification()
        assert len(calls) == 122
        assert len({(a, b) for a, b, _ in calls}) == 122
        assert len(actions) == 1208
        assert sum(walked) == 1123
        assert sum(n < 50 for n in walked) == 110 and max(n for n in walked if n < 50) == 12
        assert report.comparisons == 17550 and report.ok


def _scalar_ratio(analytic, exact, tolerance):
    """The tolerance band in plain floats, one comparison at a time."""
    gap = abs(analytic - exact)
    scale = max(abs(analytic), abs(exact))
    return gap / max(1e-12, tolerance * scale)


def _scalar_verification(tolerance=1e-10):
    """Reference loop: one walk per (theta, p, pair), priced one game and
    compared one entry at a time against the scalar closed forms, over the
    verification module's grid."""
    import trustevo.verification as verification

    games = []
    for rounds, cost, scale in itertools.product(
        verification.GRID_ROUNDS, verification.GRID_CHECK_COSTS, verification.GRID_SCALES
    ):
        game = make_prisoners_dilemma(
            payoff_scale=scale, check_cost=cost, expected_rounds=float(rounds)
        )
        games.append((rounds, game, outcome_payoffs(game)))
    comparisons = failures = 0
    worst = 0.0
    for theta, check_prob in itertools.product(
        verification.GRID_THRESHOLDS, verification.GRID_CHECK_PROBS
    ):
        strategies = (ALLC, ALLD, TFT, tuc(theta, check_prob), tud(theta))
        for a, b in itertools.combinations_with_replacement(strategies, 2):
            counts = expected_outcomes(a, b, max(verification.GRID_ROUNDS))
            for rounds, game, price in games:
                if theta >= rounds:
                    continue
                exact_a, exact_b = counts[rounds - 1] @ price / rounds
                for row, col, exact in ((a, b, exact_a), (b, a, exact_b)):
                    analytic = test_payoffs.analytic_entry(row, col, game)
                    ratio = _scalar_ratio(analytic, exact, tolerance)
                    comparisons += 1
                    failures += not ratio <= 1.0
                    if math.isnan(ratio) or ratio > worst:
                        worst = ratio
    return comparisons, failures, float(worst)


def _nan_in_tables(row, col, game):
    """``payoff_tables`` with the (row, col) entry of ``game`` set to NaN at
    the stack row of ``game`` in the pair's (theta, p) cell."""
    return _nans_in_tables((row, col, game, row.trust_threshold, col.check_prob))


def _nans_in_tables(*entries):
    """``payoff_tables`` with NaN at each ``(row, col, game, theta, p)``
    entry: the (row, col) entry at the one stack row of ``game`` in the
    (theta, p) cell."""
    from trustevo.payoffs import payoff_tables

    def tables(kinds, *columns):
        values = payoff_tables(kinds, *columns)
        for row, col, game, *cell in entries:
            point = (*game.scaled_payoffs(), game.expected_rounds, game.check_cost, *cell)
            at = np.all(np.transpose(columns) == point, axis=1)
            assert np.count_nonzero(at) == 1
            values[at, kinds.index(row.kind), kinds.index(col.kind)] = math.nan
        return values

    return tables


def _frozen_verification():
    """``run_oracle_verification`` as it compared the grid one (theta, p)
    cell at a time, frozen to pin the whole-grid comparison's report byte for
    byte: ``(comparisons, failures, worst.hex(), worst_at)``.  The grid,
    ``payoff_tables``, ``expected_outcomes`` and ``_tolerance_ratio`` are
    read from the module at call time, so a patch reaches both."""
    import trustevo.verification as v

    grid = list(itertools.product(v.GRID_ROUNDS, v.GRID_CHECK_COSTS, v.GRID_SCALES))
    games = [
        GameSpec(payoff_scale=scale, check_cost=cost, expected_rounds=float(rounds))
        for rounds, cost, scale in grid
    ]
    rounds = np.array([r for r, _, _ in grid])
    prices = np.array([outcome_payoffs(game) for game in games])
    terms = np.array([(*g.scaled_payoffs(), g.expected_rounds, g.check_cost) for g in games])
    cells = list(itertools.product(v.GRID_THRESHOLDS, v.GRID_CHECK_PROBS))
    kept_games = [[g for g, (r, _, _) in enumerate(grid) if r > theta] for theta, _ in cells]
    columns = [(*terms[g], theta, p) for (theta, p), kept in zip(cells, kept_games) for g in kept]
    stack = v.payoff_tables([s.kind for s in strategy_pool(*cells[0])], *np.array(columns).T)
    offsets = np.cumsum([len(kept) for kept in kept_games])[:-1]
    priced = {}  # (a, b) -> (games, 2) mean payoffs of a and b in each grid game
    comparisons = failures = 0
    worst, worst_at = 0.0, ""
    for (theta, p), kept, tables in zip(cells, kept_games, np.split(stack, offsets)):
        pool = strategy_pool(theta, p)
        pairs = list(itertools.combinations_with_replacement(pool, 2))
        for a, b in pairs:
            if (a, b) not in priced:
                counts = v.expected_outcomes(a, b, max(v.GRID_ROUNDS))
                priced[a, b] = (counts[rounds - 1] @ prices[:, :, None])[..., 0] / rounds[:, None]
        exact = np.array([priced[pair][kept] for pair in pairs])
        rows, cols = np.triu_indices(len(pool))  # the pairs' pool indices, in order
        analytic = tables[:, [rows, cols], [cols, rows]].transpose(2, 0, 1)  # as exact
        ratio = v._tolerance_ratio(analytic, exact, v.TOLERANCE)
        comparisons += ratio.size
        failures += ratio.size - np.count_nonzero(ratio <= 1.0)
        at = np.unravel_index(np.argmax(ratio), ratio.shape)  # the first NaN, if any
        if not np.isnan(worst) and not ratio[at] <= worst:
            worst = float(ratio[at])
            row, col = pairs[at[0]][::-1] if at[2] else pairs[at[0]]
            worst_at = "{} v {}, theta={}, p={}, rounds={}, cost={}, scale={}".format(
                row.label, col.label, theta, p, *grid[kept[at[1]]]
            )
    return comparisons, int(failures), worst.hex(), worst_at


def _report_equals_the_frozen_loop():
    report = run_oracle_verification()
    worst = report.worst_tolerance_ratio
    assert (report.comparisons, report.failures, worst.hex(), report.worst_at) == (
        _frozen_verification()
    )
    return report


class TestOracleVerification:
    @pytest.fixture
    def small_grid(self, monkeypatch):
        import trustevo.verification as verification

        monkeypatch.setattr(verification, "GRID_THRESHOLDS", (3,))
        monkeypatch.setattr(verification, "GRID_CHECK_PROBS", (0.0, 0.25))
        monkeypatch.setattr(verification, "GRID_ROUNDS", (5, 20))
        return verification

    def test_matches_the_scalar_loop(self, small_grid):
        report = run_oracle_verification()
        assert report.comparisons == 2 * 15 * 2 * 9 * 2
        expected = _scalar_verification()
        assert (report.comparisons, report.failures, report.worst_tolerance_ratio) == expected

    def test_a_nan_entry_matches_the_scalar_loop(self, small_grid, monkeypatch):
        """The same entry is NaN in verify's stacked tables and in the scalar
        closed forms of the reference loop."""
        game = make_prisoners_dilemma(expected_rounds=20.0)

        def nan_at_one_entry(row, col, at):
            if (row, col, at) == (tud(3), tuc(3, 0.25), game):
                return math.nan
            return analytic_entry(row, col, at)

        monkeypatch.setattr(test_payoffs, "analytic_entry", nan_at_one_entry)
        monkeypatch.setattr(
            small_grid, "payoff_tables", _nan_in_tables(tud(3), tuc(3, 0.25), game)
        )
        report = run_oracle_verification()
        comparisons, failures, worst = _scalar_verification()
        assert report.comparisons == comparisons
        assert report.failures == failures == 1
        assert math.isnan(report.worst_tolerance_ratio) and math.isnan(worst)
        assert report.worst_at == "TUD v TUC, theta=3, p=0.25, rounds=20, cost=0.25, scale=1.0"

    def test_the_full_grid_equals_the_frozen_loop(self):
        report = _report_equals_the_frozen_loop()
        assert report.comparisons == 17550 and report.ok

    def test_the_small_grid_equals_the_frozen_loop(self, small_grid):
        report = _report_equals_the_frozen_loop()
        assert report.comparisons == 1080 and report.ok and report.worst_at

    def test_a_nan_entry_equals_the_frozen_loop(self, small_grid, monkeypatch):
        game = make_prisoners_dilemma(expected_rounds=20.0)
        monkeypatch.setattr(
            small_grid, "payoff_tables", _nan_in_tables(tud(3), tuc(3, 0.25), game)
        )
        report = _report_equals_the_frozen_loop()
        assert report.failures == 1 and math.isnan(report.worst_tolerance_ratio)

    @pytest.mark.parametrize(
        "entries, where",
        [
            pytest.param(
                [(tuc(3, 0.0), tud(3), 20.0, 0.0), (ALLC, ALLD, 20.0, 0.25)],
                "TUC v TUD, theta=3, p=0.0, rounds=20, cost=0.25, scale=1.0",
                id="an earlier cell before an earlier pair",
            ),
            pytest.param(
                [(tuc(3, 0.25), tud(3), 5.0, 0.25), (ALLC, ALLD, 20.0, 0.25)],
                "ALLC v ALLD, theta=3, p=0.25, rounds=20, cost=0.25, scale=1.0",
                id="an earlier pair before an earlier game",
            ),
            pytest.param(
                [(tud(3), tuc(3, 0.25), 5.0, 0.25), (tuc(3, 0.25), tud(3), 5.0, 0.25)],
                "TUC v TUD, theta=3, p=0.25, rounds=5, cost=0.25, scale=1.0",
                id="side 0 before side 1",
            ),
        ],
    )
    def test_the_first_of_several_nans_is_named(self, small_grid, monkeypatch, entries, where):
        """NaNs tie for worst, so the order of the search names one: cell,
        then pair, then game, then side, as the cell-by-cell loop found it."""
        nans = [
            (row, col, make_prisoners_dilemma(expected_rounds=rounds), 3, p)
            for row, col, rounds, p in entries
        ]
        monkeypatch.setattr(small_grid, "payoff_tables", _nans_in_tables(*nans))
        report = _report_equals_the_frozen_loop()
        assert report.failures == 2 and math.isnan(report.worst_tolerance_ratio)
        assert report.worst_at == where

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_a_tie_everywhere_names_the_first_entry(self, small_grid, monkeypatch, value):
        monkeypatch.setattr(
            small_grid, "_tolerance_ratio", lambda analytic, exact, _: np.full(exact.shape, value)
        )
        report = _report_equals_the_frozen_loop()
        assert report.failures == (report.comparisons if value > 1 else 0)
        assert report.worst_tolerance_ratio == value
        assert report.worst_at == "ALLC v ALLC, theta=3, p=0.0, rounds=5, cost=0.0, scale=0.1"

    def test_all_zero_ratios_name_no_entry(self, small_grid, monkeypatch):
        monkeypatch.setattr(
            small_grid, "_tolerance_ratio", lambda analytic, exact, _: np.zeros(exact.shape)
        )
        report = _report_equals_the_frozen_loop()
        assert report.worst_tolerance_ratio.hex() == (0.0).hex() and report.worst_at == ""
        assert report.ok

    def test_worst_deviation_names_its_grid_point(self):
        """The location is a grid entry whose own ratio is the worst one."""
        import trustevo.verification as verification

        report = run_oracle_verification()
        found = re.fullmatch(
            r"(\w+) v (\w+), theta=(\d+), p=(\S+), rounds=(\d+), cost=(\S+), scale=(\S+)",
            report.worst_at,
        )
        assert found, report.worst_at
        row, col, theta, prob, rounds, cost, scale = found.groups()
        theta, rounds = int(theta), int(rounds)
        prob, cost, scale = float(prob), float(cost), float(scale)
        assert theta in verification.GRID_THRESHOLDS and prob in verification.GRID_CHECK_PROBS
        assert rounds in verification.GRID_ROUNDS and theta < rounds
        assert cost in verification.GRID_CHECK_COSTS and scale in verification.GRID_SCALES
        specs = {s.label: s for s in (ALLC, ALLD, TFT, tuc(theta, prob), tud(theta))}
        game = make_prisoners_dilemma(
            payoff_scale=scale, check_cost=cost, expected_rounds=float(rounds)
        )
        exact, _ = exact_expected_payoffs(specs[row], specs[col], game)
        analytic = analytic_entry(specs[row], specs[col], game)
        assert _scalar_ratio(analytic, exact, 1e-10) == report.worst_tolerance_ratio
        assert report.summary().endswith(f" of tolerance) in {report.worst_at}")


class TestMonteCarlo:
    def test_agrees_with_exact_expectation(self):
        exact_a, exact_b = exact_expected_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME)
        mc = monte_carlo_payoffs(
            tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=2000, seed=0
        )
        assert abs(mc.mean_a - exact_a) < 4 * mc.stderr_a
        assert abs(mc.mean_b - exact_b) < 4 * mc.stderr_b

    def test_deterministic_pair_has_zero_spread(self):
        mc = monte_carlo_payoffs(TFT, ALLD, DEFAULT_GAME, samples=50, seed=3)
        assert mc.mean_a == pytest.approx(-0.27, abs=1e-15)
        assert mc.stderr_a == 0.0

    def test_bitwise_reproducible(self):
        first = monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=200)
        second = monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=200)
        assert first == second

    def test_single_sample_reports_no_spread(self):
        mc = monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=1)
        assert mc.samples == 1
        assert mc.stderr_a == 0.0 and mc.stderr_b == 0.0

    def test_sample_count_validation(self):
        with pytest.raises(ParameterDomainError):
            monte_carlo_payoffs(ALLC, ALLD, DEFAULT_GAME, samples=0)

    @pytest.mark.parametrize("convention", list(CostConvention))
    def test_first_sample_is_the_seeded_match(self, convention):
        for spec_a, spec_b in ((tuc(3, 0.25), tud(3)), (tud(2), tuc(2, 0.6))):
            for seed in (0, 1, 7, 2024):
                outcome = play_match(
                    spec_a, spec_b, DEFAULT_GAME, convention=convention, seed=seed
                )
                mc = monte_carlo_payoffs(
                    spec_a, spec_b, DEFAULT_GAME,
                    convention=convention, samples=1, seed=seed,
                )
                assert mc.mean_a == outcome.payoff_a
                assert mc.mean_b == outcome.payoff_b

    def test_stderr_scales_with_sample_count(self):
        small = monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=200)
        large = monte_carlo_payoffs(tuc(3, 0.25), tud(3), DEFAULT_GAME, samples=3200)
        ratio = small.stderr_a / large.stderr_a
        assert ratio == pytest.approx(math.sqrt(16), rel=0.35)


def _reference_match(spec_a, spec_b, game, convention, draws):
    """One match interpreted round by round from its (rounds, 2) uniforms.

    Returns the trace rows (actions, checks, payoffs) and both payoff
    totals, summed round by round.
    """
    t, r, p, s = game.scaled_payoffs()
    table = {(C, C): (r, r), (C, D): (s, t), (D, C): (t, s), (D, D): (p, p)}

    def charged(spec, state, opponent_action):
        free = (
            convention is CostConvention.DETECTION_FREE
            and spec.kind is StrategyKind.TUC
            and state.trusting
            and not state.reverted
            and opponent_action is D
        )
        return not free

    state_a, state_b = initial_state(spec_a), initial_state(spec_b)
    rows, total_a, total_b = [], 0.0, 0.0
    for draw_a, draw_b in draws.tolist():
        act_a, act_b = next_action(spec_a, state_a), next_action(spec_b, state_b)
        pay_a, pay_b = table[act_a, act_b]
        check_a = draw_a < check_probability(spec_a, state_a)
        check_b = draw_b < check_probability(spec_b, state_b)
        if check_a:
            if charged(spec_a, state_a, act_b):
                pay_a -= game.check_cost
            state_a = observe(spec_a, state_a, act_b)
        if check_b:
            if charged(spec_b, state_b, act_a):
                pay_b -= game.check_cost
            state_b = observe(spec_b, state_b, act_a)
        total_a += pay_a
        total_b += pay_b
        rows.append((act_a, act_b, check_a, check_b, pay_a, pay_b))
    return rows, total_a, total_b


def _stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _reference_monte_carlo(spec_a, spec_b, game, rounds, convention, samples, seed):
    """Samples one at a time, each taking the next (rounds, 2) uniforms."""
    stream = _stream(seed)
    means = np.empty((2, samples))
    for i in range(samples):
        _, total_a, total_b = _reference_match(
            spec_a, spec_b, game, convention, stream.random((rounds, 2))
        )
        means[:, i] = total_a / rounds, total_b / rounds
    stderr = [
        0.0 if samples == 1 else float(np.std(m, ddof=1) / math.sqrt(samples))
        for m in means
    ]
    return (float(np.mean(means[0])), float(np.mean(means[1])), *stderr)


@st.composite
def _strategy_specs(draw):
    kind = draw(st.sampled_from(list(StrategyKind)))
    theta = draw(st.integers(1, 5))
    if kind is StrategyKind.TUC:
        prob = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        return tuc(theta, prob)
    if kind is StrategyKind.TUD:
        return tud(theta)
    return StrategySpec(kind)


class TestAgainstScalarReference:
    """The lockstep rollout equals a per-sample scalar interpreter bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec_a=_strategy_specs(),
        spec_b=_strategy_specs(),
        rounds=st.integers(1, 60),
        convention=st.sampled_from(list(CostConvention)),
        samples=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        cost=st.floats(0.0, 1.0),
    )
    @example(tuc(1, 0.95), ALLC, 40, CostConvention.DETECTION_FREE, 5, 2, 0.3)
    def test_rollouts_equal_the_reference(
        self, spec_a, spec_b, rounds, convention, samples, seed, cost
    ):
        game = make_prisoners_dilemma(check_cost=cost, expected_rounds=rounds)
        rows, _, _ = _reference_match(
            spec_a, spec_b, game, convention, _stream(seed).random((rounds, 2))
        )
        outcome = play_match(spec_a, spec_b, game, convention=convention, seed=seed)
        assert outcome == MatchOutcome(*zip(*rows), convention)
        mc = monte_carlo_payoffs(
            spec_a, spec_b, game, convention=convention, samples=samples, seed=seed
        )
        expected = _reference_monte_carlo(
            spec_a, spec_b, game, rounds, convention, samples, seed
        )
        assert (mc.mean_a, mc.mean_b, mc.stderr_a, mc.stderr_b) == expected

    @pytest.mark.parametrize("convention", list(CostConvention))
    def test_samples_across_a_block_boundary(self, convention):
        """More samples than one lockstep block holds."""
        game = make_prisoners_dilemma(expected_rounds=30)
        mc = monte_carlo_payoffs(
            tuc(2, 0.3), tud(2), game, convention=convention, samples=1100, seed=4
        )
        expected = _reference_monte_carlo(
            tuc(2, 0.3), tud(2), game, 30, convention, 1100, 4
        )
        assert (mc.mean_a, mc.mean_b, mc.stderr_a, mc.stderr_b) == expected


def _stepwise_walk(spec_a, spec_b, rounds, mass, split, record, settle=False):
    """Reference walk without a memo: every round steps every joint state
    through the behaviour machines, and successors merge on a key that also
    keeps a tit-for-tat level and tells an unobserved opponent from one seen
    to cooperate.  It walks every round, ``settle`` or not."""
    results = {(C, C): 1, (C, D): 3, (D, C): 0, (D, D): 2}

    def side(spec, state, action, opponent_action):
        result = results[action, opponent_action]
        prob = check_probability(spec, state)
        unseen = (False, result, state)
        if not prob > 0.0:
            return prob, [unseen]
        after = observe(spec, state, opponent_action)
        seen = (True, result + (8 if after.reverted and not state.reverted else 4), after)
        return prob, [seen] if prob >= 1.0 else [seen, unseen]

    def key(state):
        return (0 if state.trusting else state.trust_level, *state[1:])

    frontier = [(mass, initial_state(spec_a), initial_state(spec_b))]
    for i in range(rounds):
        successors = {}
        for mass, sa, sb in frontier:
            act_a = next_action(spec_a, sa)
            act_b = next_action(spec_b, sb)
            prob_a, branches_a = side(spec_a, sa, act_a, act_b)
            prob_b, branches_b = side(spec_b, sb, act_b, act_a)
            for seen_a, code_a, sa2 in branches_a:
                part = split(i, 0, mass, prob_a, seen_a)
                if part is None:
                    continue
                for seen_b, code_b, sb2 in branches_b:
                    cell = split(i, 1, part, prob_b, seen_b)
                    if cell is None:
                        continue
                    record(i, cell, act_a, act_b, code_a, code_b)
                    joint = (key(sa2), key(sb2))
                    hit = successors.get(joint)
                    successors[joint] = (
                        (cell, sa2, sb2) if hit is None else (hit[0] + cell,) + hit[1:]
                    )
        if len(successors) > match_sim._STATE_LIMIT:
            raise StateSpaceError("joint state budget exceeded")
        frontier = successors.values()
    return rounds


class TestMemoisedWalk:
    """The walk that steps each joint behaviour state once equals the
    stepwise reference walk bit for bit, in the enumerator, the traced
    match and Monte Carlo."""

    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.integers(1, 10),
        prob=st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
        pair=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        rounds=st.integers(1, 60),
        convention=st.sampled_from(list(CostConvention)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(10, 5e-324, (3, 4), 60, CostConvention.DETECTION_FREE, 0)
    @example(1, 0.5, (3, 3), 60, CostConvention.EVERY_CHECK, 1)
    @example(3, 0.1, (3, 2), 2000, CostConvention.DETECTION_FREE, 2)  # TUC v TFT settles
    @example(3, 0.25, (3, 4), 2000, CostConvention.EVERY_CHECK, 3)  # TUC v TUD never does
    @example(3, 0.25, (1, 3), 2000, CostConvention.DETECTION_FREE, 4)  # ALLD v TUC: levels fall
    @example(2, 0.5, (4, 1), 2000, CostConvention.EVERY_CHECK, 5)  # TUD v ALLD: levels fall
    def test_equals_the_stepwise_walk(self, theta, prob, pair, rounds, convention, seed):
        pool = strategy_pool(theta, prob)
        a, b = pool[pair[0]], pool[pair[1]]
        game = make_prisoners_dilemma(check_cost=0.3, expected_rounds=rounds)

        def outputs():
            return (
                expected_outcomes(a, b, rounds).tobytes(),
                repr(play_match(a, b, game, convention=convention, seed=seed)),
                repr(monte_carlo_payoffs(a, b, game, convention=convention, samples=9, seed=seed)),
            )

        memoised = outputs()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(match_sim, "_walk", _stepwise_walk)
            assert outputs() == memoised


class TestSimulationBounds:
    """Match length and sample count are bounded before anything is drawn or
    allocated; the bounds themselves are never played here."""

    LONG = make_prisoners_dilemma(expected_rounds=1_000_001)

    @pytest.mark.parametrize(
        "simulate",
        [
            lambda game: play_match(ALLC, ALLD, game),
            lambda game: monte_carlo_payoffs(ALLC, ALLD, game, samples=2),
            lambda game: exact_expected_payoffs(ALLC, ALLD, game),
            lambda game: expected_outcomes(ALLC, ALLD, game.simulation_rounds()),
        ],
    )
    def test_rounds_past_the_bound_are_refused(self, simulate):
        with pytest.raises(ParameterDomainError, match="rounds must be at most 1000000, got 1000001$"):
            simulate(self.LONG)

    def test_samples_past_the_bound_are_refused(self):
        with pytest.raises(ParameterDomainError, match="samples must be at most 10000000, got 10000001$"):
            monte_carlo_payoffs(ALLC, ALLD, DEFAULT_GAME, samples=10_000_001)


class TestSettleRule:
    """``_repeats`` ends an enumerator walk only where every later round
    repeats the last: its keys may change in nothing but pre-trust levels
    that all fall by one amount d > 0, from below theta - 1."""

    SPECS = (ALLD, tuc(3, 0.25))
    ALLD_KEY = StrategyState(0, False, False, None)

    @classmethod
    def frontier(cls, *entries):
        """A frontier of (TUC level, trusting, mass) entries against ALLD."""
        return {
            (cls.ALLD_KEY, StrategyState(level, trusting, False, None if trusting else D)): mass
            for level, trusting, mass in entries
        }

    def repeats(self, before, after):
        return match_sim._repeats(self.frontier(*before), self.frontier(*after), self.SPECS)

    def test_accepts_an_unchanged_frontier(self):
        assert self.repeats([(-1, False, 0.5), (0, True, 0.5)], [(-1, False, 0.5), (0, True, 0.5)])

    def test_accepts_levels_falling_by_one_amount(self):
        assert self.repeats([(-1, False, 1.0)], [(-2, False, 1.0)])
        assert self.repeats(
            [(0, True, 0.25), (-1, False, 0.5), (-3, False, 0.25)],
            [(0, True, 0.25), (-2, False, 0.5), (-4, False, 0.25)],
        )

    def test_refuses_rising_levels(self):
        assert not self.repeats([(-2, False, 1.0)], [(-1, False, 1.0)])

    def test_refuses_unequal_masses(self):
        assert not self.repeats([(-1, False, 1.0)], [(-2, False, 1.0 - 2**-53)])

    def test_refuses_uneven_drops(self):
        assert not self.repeats([(-1, False, 0.5), (-3, False, 0.5)], [(-2, False, 0.5), (-5, False, 0.5)])

    def test_refuses_an_unchanged_level_before_a_falling_one(self):
        assert not self.repeats([(-1, False, 0.5), (-3, False, 0.5)], [(-1, False, 0.5), (-4, False, 0.5)])

    def test_refuses_a_level_that_can_reach_trust(self):
        """At theta - 1 one cooperation reaches trust; the level one lower
        does not, so the next round would step differently."""
        assert not self.repeats([(2, False, 1.0)], [(1, False, 1.0)])
        assert self.repeats([(1, False, 1.0)], [(0, False, 1.0)])

    def test_refuses_other_changed_fields(self):
        (alld, tuc_key), = self.frontier((-2, False, 1.0))
        changed = {(alld, tuc_key._replace(last_observed=C)): 1.0}
        assert not match_sim._repeats(self.frontier((-1, False, 1.0)), changed, self.SPECS)


class TestLongMatchBlocks:
    """Matches over 512 rounds take fewer samples per lockstep block, so
    the draws held at once stay within ``_BLOCK * 512`` rounds for matches
    up to that many rounds, where a block is down to one sample."""

    @pytest.mark.parametrize("convention", list(CostConvention))
    def test_multi_block_long_match_equals_one_sample_blocks(self, monkeypatch, convention):
        """With ``_BLOCK = 8`` a 1,500-round match takes blocks of 2 samples."""
        game = make_prisoners_dilemma(check_cost=0.3, expected_rounds=1500)

        def estimates():
            mc = monte_carlo_payoffs(
                tuc(2, 0.3), tud(2), game, convention=convention, samples=5, seed=6
            )
            return [x.hex() for x in (mc.mean_a, mc.mean_b, mc.stderr_a, mc.stderr_b)]

        monkeypatch.setattr(match_sim, "_BLOCK", 8)
        blocks = estimates()
        monkeypatch.setattr(match_sim, "_BLOCK", 1)
        assert estimates() == blocks

    def test_draws_held_at_once_are_bounded(self):
        """512 samples of 2,048 rounds would hold 16 MB of draws in one
        block; two blocks of 256 samples hold 8 MB."""
        import tracemalloc

        game = make_prisoners_dilemma(expected_rounds=2048)
        tracemalloc.start()
        try:
            mc = monte_carlo_payoffs(ALLC, ALLD, game, samples=512, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t, _, _, s = game.scaled_payoffs()
        assert (mc.mean_a, mc.mean_b) == (s, t)
        assert 1024 * 512 * 2 * 8 <= peak < 9 * 2**20
