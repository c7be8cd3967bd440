import pytest
from hypothesis import given, strategies as st

from trustevo.errors import (
    AlternationDominanceError,
    DilemmaViolationError,
    ParameterDomainError,
)
from trustevo.game_model import (
    GameSpec,
    expected_rounds_from_continuation,
    make_donation_game,
    make_prisoners_dilemma,
)


class TestGameSpecValidation:
    def test_default_table_is_valid(self):
        """The package default table satisfies both dilemma inequalities."""
        game = make_prisoners_dilemma()
        assert (game.temptation, game.reward, game.punishment, game.sucker) == (
            2.0,
            1.0,
            0.0,
            -1.0,
        )

    def test_temptation_must_exceed_reward(self):
        with pytest.raises(DilemmaViolationError, match="temptation > reward"):
            GameSpec(temptation=1.0, reward=1.0, punishment=0.0, sucker=-1.0)

    def test_reward_must_exceed_punishment(self):
        with pytest.raises(DilemmaViolationError, match="reward > punishment"):
            GameSpec(temptation=2.0, reward=0.0, punishment=0.0, sucker=-1.0)

    def test_punishment_must_exceed_sucker(self):
        with pytest.raises(DilemmaViolationError, match="punishment > sucker"):
            GameSpec(temptation=2.0, reward=1.0, punishment=-1.0, sucker=-1.0)

    def test_alternation_must_not_dominate(self):
        """2R must strictly exceed T + S for repetition to favour cooperation."""
        with pytest.raises(AlternationDominanceError):
            GameSpec(temptation=3.0, reward=1.0, punishment=0.0, sucker=-1.0)

    def test_override_allows_non_dilemma_tables(self):
        game = GameSpec(
            temptation=1.0, reward=1.0, punishment=0.0, sucker=-1.0,
            enforce_dilemma=False,
        )
        assert game.temptation == game.reward

    def test_override_still_checks_parameter_domains(self):
        with pytest.raises(ParameterDomainError):
            GameSpec(1.0, 1.0, 0.0, -1.0, payoff_scale=0.0, enforce_dilemma=False)

    def test_scale_must_be_positive(self):
        with pytest.raises(ParameterDomainError):
            make_prisoners_dilemma(payoff_scale=0.0)
        with pytest.raises(ParameterDomainError):
            make_prisoners_dilemma(payoff_scale=-1.0)

    def test_check_cost_must_be_non_negative(self):
        with pytest.raises(ParameterDomainError):
            make_prisoners_dilemma(check_cost=-0.1)

    def test_rounds_must_be_at_least_one(self):
        with pytest.raises(ParameterDomainError):
            make_prisoners_dilemma(expected_rounds=0.5)

    @pytest.mark.parametrize(
        "field",
        ["temptation", "reward", "punishment", "sucker",
         "payoff_scale", "check_cost", "expected_rounds"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_are_rejected(self, field, value):
        """Even with the dilemma checks off, no NaN or infinity gets in."""
        numbers = dict(temptation=2.0, reward=1.0, punishment=0.0, sucker=-1.0)
        numbers[field] = value
        with pytest.raises(ParameterDomainError, match=f"{field} must be finite"):
            GameSpec(**numbers, enforce_dilemma=False)


class TestScaling:
    def test_scale_multiplies_table_only(self):
        """The scale touches all four payoffs but never the check cost."""
        game = make_prisoners_dilemma(payoff_scale=10.0, check_cost=0.25)
        assert game.scaled_payoffs() == (20.0, 10.0, 0.0, -10.0)
        assert game.check_cost == 0.25

    def test_unit_scale_is_identity(self):
        game = make_prisoners_dilemma()
        assert game.scaled_payoffs() == (2.0, 1.0, 0.0, -1.0)


class TestSimulationRounds:
    def test_rounds_to_nearest_integer(self):
        assert make_prisoners_dilemma(expected_rounds=49.6).simulation_rounds() == 50
        assert make_prisoners_dilemma(expected_rounds=49.4).simulation_rounds() == 49

    def test_never_below_one(self):
        assert make_prisoners_dilemma(expected_rounds=1.0).simulation_rounds() == 1


class TestDonationGame:
    def test_mapping(self):
        """b=3, c=1 maps to T=3, R=2, P=0, S=-1."""
        game = make_donation_game(benefit=3.0, cost=1.0)
        assert (game.temptation, game.reward, game.punishment, game.sucker) == (
            3.0,
            2.0,
            0.0,
            -1.0,
        )

    def test_rejects_cost_at_or_above_benefit(self):
        with pytest.raises(ParameterDomainError):
            make_donation_game(benefit=1.0, cost=1.0)
        with pytest.raises(ParameterDomainError):
            make_donation_game(benefit=1.0, cost=2.0)

    def test_rejects_non_positive_cost(self):
        with pytest.raises(ParameterDomainError):
            make_donation_game(benefit=1.0, cost=0.0)

    @given(
        cost=st.floats(min_value=1e-3, max_value=1e3),
        margin=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_any_valid_benefit_cost_pair_is_a_dilemma(self, cost, margin):
        """Every b > c > 0 passes both ordering checks without an override."""
        make_donation_game(benefit=cost + margin, cost=cost)


class TestContinuationProbability:
    def test_canonical_value(self):
        """w = 0.98 corresponds to 50 expected rounds."""
        assert expected_rounds_from_continuation(0.98) == pytest.approx(50.0)

    def test_zero_continuation_is_one_round(self):
        assert expected_rounds_from_continuation(0.0) == 1.0

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            expected_rounds_from_continuation(1.0)
        with pytest.raises(ParameterDomainError):
            expected_rounds_from_continuation(-0.1)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_round_trip(self, w):
        """Inverting r = 1/(1-w) recovers w to machine precision."""
        r = expected_rounds_from_continuation(w)
        assert 1.0 - 1.0 / r == pytest.approx(w, abs=1e-12)
