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
from trustevo.payoffs import analytic_entry
from trustevo.strategies import (
    ALLC,
    ALLD,
    TFT,
    Action,
    StrategyKind,
    StrategySpec,
    check_probability,
    initial_state,
    next_action,
    observe,
    tuc,
    tud,
)
from trustevo.verification import _tolerance_ratio, run_oracle_verification

C = Action.COOPERATE
D = Action.DEFECT

DEFAULT_GAME = make_prisoners_dilemma()
DEFAULT_SET = (ALLC, ALLD, TFT, tuc(3, 0.25), tud(3))


class TestPlayMatch:
    def test_default_round_count_comes_from_the_game(self):
        outcome = play_match(ALLC, ALLD, DEFAULT_GAME)
        assert outcome.rounds == 50

    def test_allc_vs_alld_trace(self):
        outcome = play_match(ALLC, ALLD, DEFAULT_GAME, rounds=5)
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
        outcome = play_match(tuc(3, 1.0), tud(3), DEFAULT_GAME, rounds=8)
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
            tuc(3, 1.0), tud(3), DEFAULT_GAME, rounds=8,
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

    def test_rounds_validation(self):
        with pytest.raises(ParameterDomainError):
            play_match(ALLC, ALLD, DEFAULT_GAME, rounds=0)
        with pytest.raises(ParameterDomainError):
            play_match(ALLC, ALLD, DEFAULT_GAME, rounds=2.5)


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
            exact, _ = exact_expected_payoffs(row, col, game, rounds=rounds)
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

    def test_verify_walks_each_distinct_pair_once(self, monkeypatch):
        """One walk per distinct pair: 6 among ALLC, ALLD and TFT, 4 TUD
        pairs per theta and 5 TUC pairs per (theta, p): 6 + 16 + 100 = 122."""
        import trustevo.verification as verification

        calls = []

        def counted(*args):
            calls.append(args)
            return expected_outcomes(*args)

        monkeypatch.setattr(verification, "expected_outcomes", counted)
        report = run_oracle_verification()
        assert len(calls) == 122
        assert len({(a, b) for a, b, _ in calls}) == 122
        assert report.comparisons == 17550 and report.ok


def _scalar_ratio(analytic, exact, tolerance):
    """The tolerance band in plain floats, one comparison at a time."""
    gap = abs(analytic - exact)
    scale = max(abs(analytic), abs(exact))
    return gap / max(1e-12, tolerance * scale)


def _scalar_verification(tolerance=1e-10):
    """Reference loop: one walk per (theta, p, pair), priced one game and
    compared one entry at a time, over the verification module's grid."""
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
                    analytic = verification.analytic_entry(row, col, game)
                    ratio = _scalar_ratio(analytic, exact, tolerance)
                    comparisons += 1
                    failures += not ratio <= 1.0
                    if math.isnan(ratio) or ratio > worst:
                        worst = ratio
    return comparisons, failures, float(worst)


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
        analytic_entry = small_grid.analytic_entry
        game = make_prisoners_dilemma(expected_rounds=20.0)

        def nan_at_one_entry(row, col, at):
            if (row, col, at) == (tud(3), tuc(3, 0.25), game):
                return math.nan
            return analytic_entry(row, col, at)

        monkeypatch.setattr(small_grid, "analytic_entry", nan_at_one_entry)
        report = run_oracle_verification()
        comparisons, failures, worst = _scalar_verification()
        assert report.comparisons == comparisons
        assert report.failures == failures == 1
        assert math.isnan(report.worst_tolerance_ratio) and math.isnan(worst)
        assert report.worst_at == "TUD v TUC, theta=3, p=0.25, rounds=20, cost=0.25, scale=1.0"

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
