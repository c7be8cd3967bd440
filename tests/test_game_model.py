import pytest

from trustevo.errors import (
    AlternationDominanceError,
    DilemmaViolationError,
    ParameterDomainError,
)
from trustevo.game_model import GameSpec, make_prisoners_dilemma


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

    def test_default_game_has_one_home(self):
        """``GameSpec()`` is the default game; the factory name is the class."""
        assert make_prisoners_dilemma is GameSpec
        game = GameSpec()
        assert (game.payoff_scale, game.check_cost, game.expected_rounds) == (1.0, 0.25, 50.0)

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
        """Finiteness is checked first, so a NaN or infinite table entry is
        a domain error rather than a dilemma violation."""
        with pytest.raises(ParameterDomainError, match=f"{field} must be finite"):
            GameSpec(**{field: value})


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
