import numpy as np
import pytest
from hypothesis import given, strategies as st

import trustevo.match_sim as match_sim
from trustevo.errors import ParameterDomainError
from trustevo.game_model import make_prisoners_dilemma
from trustevo.match_sim import CostConvention
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
    strategy_from_label,
    tuc,
    tud,
)

C = Action.COOPERATE
D = Action.DEFECT


def play_observed(spec, actions):
    """Fold a fully observed action sequence into a final state."""
    state = initial_state(spec)
    for action in actions:
        state = observe(spec, state, opponent_action=action)
    return state


class TestSpecValidation:
    def test_classic_specs_reject_trust_parameters(self):
        for kind in (StrategyKind.ALLC, StrategyKind.ALLD, StrategyKind.TFT):
            with pytest.raises(ParameterDomainError):
                StrategySpec(kind, trust_threshold=3)
            with pytest.raises(ParameterDomainError):
                StrategySpec(kind, check_prob=0.25)

    def test_tuc_requires_both_parameters(self):
        with pytest.raises(ParameterDomainError):
            StrategySpec(StrategyKind.TUC, trust_threshold=3)
        with pytest.raises(ParameterDomainError):
            StrategySpec(StrategyKind.TUC, check_prob=0.25)

    def test_tud_takes_threshold_only(self):
        tud(3)
        with pytest.raises(ParameterDomainError):
            StrategySpec(StrategyKind.TUD, trust_threshold=3, check_prob=0.25)

    def test_threshold_must_be_positive_integer(self):
        with pytest.raises(ParameterDomainError):
            tuc(0, 0.25)
        with pytest.raises(ParameterDomainError):
            tuc(3.0, 0.25)
        with pytest.raises(ParameterDomainError):
            tuc(True, 0.25)
        with pytest.raises(ParameterDomainError):
            tud(-1)

    def test_check_prob_domain(self):
        tuc(3, 0.0)
        tuc(3, 1.0)
        with pytest.raises(ParameterDomainError):
            tuc(3, -0.01)
        with pytest.raises(ParameterDomainError):
            tuc(3, 1.01)

    def test_labels(self):
        assert ALLC.label == "ALLC"
        assert tuc(3, 0.25).label == "TUC"
        assert tud(3).label == "TUD"


class TestClassics:
    def test_allc_always_cooperates_and_never_checks(self):
        state = initial_state(ALLC)
        assert next_action(ALLC, state) is C
        assert check_probability(ALLC, state) == 0.0

    def test_alld_always_defects_and_never_checks(self):
        state = initial_state(ALLD)
        assert next_action(ALLD, state) is D
        assert check_probability(ALLD, state) == 0.0

    def test_tft_opens_with_cooperation_then_mirrors(self):
        state = initial_state(TFT)
        assert next_action(TFT, state) is C
        state = observe(TFT, state, D)
        assert next_action(TFT, state) is D
        state = observe(TFT, state, C)
        assert next_action(TFT, state) is C

    def test_tft_checks_every_round(self):
        state = play_observed(TFT, [C, D, C])
        assert check_probability(TFT, state) == 1.0


class TestTrustUntilCaught:
    def test_behaves_like_tft_before_trust(self):
        spec = tuc(3, 0.25)
        state = play_observed(spec, [C, D])
        assert not state.trusting
        assert next_action(spec, state) is D
        assert check_probability(spec, state) == 1.0

    def test_trust_latches_at_threshold(self):
        spec = tuc(3, 0.25)
        state = play_observed(spec, [C, C, C])
        assert state.trusting
        assert next_action(spec, state) is C
        assert check_probability(spec, state) == 0.25

    def test_net_record_not_raw_count_reaches_threshold(self):
        """A defection in the ledger pushes the trust point two rounds out."""
        spec = tuc(3, 0.25)
        state = play_observed(spec, [C, D, C, C])
        assert not state.trusting
        assert state.trust_level == 2
        state = observe(spec, state, C)
        assert state.trusting

    def test_caught_defection_reverts_permanently(self):
        spec = tuc(3, 0.25)
        state = play_observed(spec, [C, C, C])
        state = observe(spec, state, D)
        assert state.trusting and state.reverted
        assert next_action(spec, state) is D
        assert check_probability(spec, state) == 1.0
        state = observe(spec, state, C)
        assert state.reverted
        assert check_probability(spec, state) == 1.0
        assert next_action(spec, state) is C

    def test_unobserved_defection_does_not_revert(self):
        """Only rounds the player paid to observe touch the ledger."""
        spec = tuc(3, 0.25)
        state = play_observed(spec, [C, C, C])
        assert next_action(spec, state) is C
        assert not state.reverted
        assert state.trust_level == 3


class TestTrustThenDefect:
    def test_cooperates_until_trust_then_defects(self):
        spec = tud(3)
        state = play_observed(spec, [C, C])
        assert next_action(spec, state) is C
        state = observe(spec, state, C)
        assert state.trusting
        assert next_action(spec, state) is D

    def test_stops_checking_once_trusting(self):
        spec = tud(3)
        state = play_observed(spec, [C, C])
        assert check_probability(spec, state) == 1.0
        state = observe(spec, state, C)
        assert check_probability(spec, state) == 0.0


class TestCheckDraw:
    """A trusting TUC's check is decided by its own uniform draw: it observes
    exactly when the draw is below its check probability."""

    @staticmethod
    def observes_in_round_four(prob, draw):
        draws = np.zeros((1, 4, 2))
        draws[0, 3, 0] = draw
        trace = []
        match_sim._rollout(
            tuc(3, prob), ALLC, make_prisoners_dilemma(),
            CostConvention.DETECTION_FREE, draws, trace,
        )
        assert [row[2] for row in trace[:3]] == [True, True, True]
        return trace[3][2]

    def test_draw_below_probability_checks(self):
        assert self.observes_in_round_four(0.25, 0.249)
        assert not self.observes_in_round_four(0.25, 0.25)

    def test_edge_probabilities(self):
        below_one = 1.0 - 2**-53
        assert self.observes_in_round_four(1.0, below_one)
        assert self.observes_in_round_four(1.0, 0.0)
        assert not self.observes_in_round_four(0.0, 0.0)
        assert not self.observes_in_round_four(0.0, below_one)


@given(
    actions=st.lists(st.sampled_from([C, D]), max_size=60),
    spec=st.sampled_from([ALLC, ALLD, TFT, tuc(3, 0.25), tuc(1, 0.5), tud(3), tud(1)]),
)
def test_ledger_tracks_net_observed_cooperation(actions, spec):
    """trust_level is exactly #C - #D over observed rounds, for every kind."""
    state = play_observed(spec, actions)
    net = sum(1 if a is C else -1 for a in actions)
    assert state.trust_level == net
    if actions:
        assert state.last_observed is actions[-1]
    else:
        assert state.last_observed is None


@given(actions=st.lists(st.sampled_from([C, D]), max_size=60))
def test_trust_latches_exactly_when_running_net_hits_threshold(actions):
    """Trust switches on the first time the running ledger reaches theta."""
    threshold = 3
    for spec in (tuc(threshold, 0.25), tud(threshold)):
        state = initial_state(spec)
        running, expect_trusting = 0, False
        for action in actions:
            state = observe(spec, state, action)
            running += 1 if action is C else -1
            if running >= threshold:
                expect_trusting = True
            assert state.trusting is expect_trusting


@given(actions=st.lists(st.sampled_from([C, D]), max_size=60))
def test_classics_never_trust_or_revert(actions):
    for spec in (ALLC, ALLD, TFT):
        state = play_observed(spec, actions)
        assert not state.trusting
        assert not state.reverted


class TestLabelParsing:
    def test_round_trip_for_all_labels(self):
        for label in ("ALLC", "ALLD", "TFT", "TUC", "TUD"):
            assert strategy_from_label(label, 3, 0.25).label == label

    def test_case_insensitive(self):
        assert strategy_from_label("tuc", 3, 0.25).kind is StrategyKind.TUC

    def test_attaches_trust_parameters(self):
        spec = strategy_from_label("TUC", trust_threshold=5, check_prob=0.5)
        assert spec.trust_threshold == 5
        assert spec.check_prob == 0.5
        assert strategy_from_label("ALLC", 5, 0.5).trust_threshold is None

    def test_unknown_label(self):
        with pytest.raises(ParameterDomainError, match="unknown strategy"):
            strategy_from_label("GRIM", 3, 0.25)
