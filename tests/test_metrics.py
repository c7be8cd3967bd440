import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trustevo.errors import ParameterDomainError
from trustevo.evolution import (
    EvolutionParams,
    markov_transition_matrix,
    stationary_distribution,
)
from trustevo.game_model import make_prisoners_dilemma
from trustevo.metrics import (
    cooperation_report,
    population_cooperation,
    selfplay_cooperation_index,
)
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud


class TestSelfplayIndex:
    def test_full_cooperators(self):
        for spec in (ALLC, TFT, tuc(3, 0.25)):
            assert selfplay_cooperation_index(spec, 50.0) == 1.0

    def test_defector(self):
        assert selfplay_cooperation_index(ALLD, 50.0) == 0.0

    def test_tud_cooperates_only_while_building_trust(self):
        assert selfplay_cooperation_index(tud(3), 50.0) == pytest.approx(0.06)
        assert selfplay_cooperation_index(tud(5), 50.0) == pytest.approx(0.10)
        assert selfplay_cooperation_index(tud(3), 500.0) == pytest.approx(0.006)

    def test_round_and_threshold_domains(self):
        with pytest.raises(ParameterDomainError):
            selfplay_cooperation_index(ALLC, 0.5)
        with pytest.raises(ParameterDomainError):
            selfplay_cooperation_index(tud(3), 3.0)


class TestPopulationCooperation:
    def test_weighted_average(self):
        stationary = np.array([0.25, 0.5, 0.25])
        indices = np.array([1.0, 0.0, 0.06])
        assert population_cooperation(stationary, indices) == pytest.approx(0.265)

    def test_degenerate_population(self):
        assert population_cooperation(np.array([1.0]), np.array([0.42])) == 0.42

    def test_shape_mismatch(self):
        with pytest.raises(ParameterDomainError):
            population_cooperation(np.array([0.5, 0.5]), np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.sampled_from((3, 5))).flatmap(
            lambda nk: st.sampled_from((nk, (2, *nk)))
        ),
        data=st.data(),
    )
    def test_a_stack_equals_its_rows_bit_for_bit(self, shape, data):
        """Each average of a stack has the bytes of its own rows' 1-D call,
        which returns a Python float."""
        unit = st.floats(0.0, 1.0)
        stationary = data.draw(arrays(float, shape, elements=unit))
        indices = data.draw(arrays(float, shape, elements=unit))
        stacked = population_cooperation(stationary, indices)
        assert stacked.shape == shape[:-1]
        for at in np.ndindex(shape[:-1]):
            single = population_cooperation(stationary[at], indices[at])
            assert type(single) is float
            assert stacked[at].hex() == single.hex() == float(stationary[at] @ indices[at]).hex()


class TestCooperationReport:
    GAME = make_prisoners_dilemma()
    PARAMS = EvolutionParams(100, 0.1)

    def test_frozen_default_report(self):
        rep = cooperation_report(self.GAME, self.PARAMS)
        assert rep.with_trust == pytest.approx(0.5770021685346832, abs=1e-12)
        assert rep.without_trust == pytest.approx(0.32998293315278143, abs=1e-12)
        assert rep.delta == pytest.approx(0.2470192353819018, abs=1e-12)

    def test_delta_is_the_difference(self):
        rep = cooperation_report(self.GAME, self.PARAMS)
        assert rep.delta == rep.with_trust - rep.without_trust

    def test_pools_and_indices_are_wired_through(self):
        rep = cooperation_report(self.GAME, self.PARAMS)
        assert rep.stationary_with.labels == ("ALLC", "ALLD", "TFT", "TUC", "TUD")
        assert rep.stationary_without.labels == ("ALLC", "ALLD", "TFT")
        assert rep.selfplay_indices == {
            "ALLC": 1.0,
            "ALLD": 0.0,
            "TFT": 1.0,
            "TUC": 1.0,
            "TUD": 0.06,
        }

    def test_classic_pool_is_defector_heavy(self):
        """Without the trust strategies the baseline sits mostly on ALLD."""
        rep = cooperation_report(self.GAME, self.PARAMS)
        without = rep.stationary_without.as_dict()
        assert without["ALLD"] == pytest.approx(0.6700170668472185, abs=1e-12)
        assert without["ALLD"] > max(without["ALLC"], without["TFT"])

    def test_trust_parameters_change_the_report(self):
        base = cooperation_report(self.GAME, self.PARAMS)
        shifted = cooperation_report(
            self.GAME, self.PARAMS, trust_threshold=5, check_prob=0.5
        )
        assert shifted.with_trust != base.with_trust
        assert shifted.without_trust == base.without_trust
        assert shifted.selfplay_indices["TUD"] == pytest.approx(0.10)

    @pytest.mark.parametrize(
        "params", [EvolutionParams(100, 0.1), EvolutionParams(2, 5.0), EvolutionParams(1000, 2.0)]
    )
    def test_baseline_equals_the_stand_alone_three_strategy_pipeline(self, params):
        """The classic pool's block of the five-strategy fixation matrix
        gives the same chain as a three-strategy table, bit for bit."""
        rep = cooperation_report(self.GAME, params)
        matrix = payoff_matrix((ALLC, ALLD, TFT), self.GAME)
        chain = markov_transition_matrix(matrix.values, params)
        alone = stationary_distribution(chain, matrix.labels)
        assert rep.stationary_without.labels == alone.labels
        assert np.array_equal(rep.stationary_without.probabilities, alone.probabilities)
        assert rep.without_trust == population_cooperation(
            alone.probabilities, np.array([1.0, 0.0, 1.0])
        )


def _tuc_lead(check_cost=0.25, payoff_scale=1.0, expected_rounds=50.0, theta=3):
    """TUC's stationary mass minus ALLD's, at the acceptance suite's
    defaults (p = 0.25, N = 100, beta = 0.1)."""
    game = make_prisoners_dilemma(
        check_cost=check_cost, payoff_scale=payoff_scale, expected_rounds=expected_rounds
    )
    matrix = payoff_matrix((ALLC, ALLD, TFT, tuc(theta, 0.25), tud(theta)), game)
    chain = markov_transition_matrix(matrix.values, EvolutionParams(100, 0.1))
    masses = stationary_distribution(chain).probabilities
    return masses[3] - masses[1]


def _crossover(lead, low, high):
    """Where ``lead`` changes sign between ``low`` and ``high``, to 1e-6."""
    ahead_at_low = lead(low) > 0
    assert (lead(high) > 0) != ahead_at_low
    while high - low > 1e-6:
        mid = 0.5 * (low + high)
        if (lead(mid) > 0) == ahead_at_low:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


class TestAcceptanceCrossovers:
    """Where criteria 5 and 7 turn from TUC ahead to ALLD ahead, as built;
    the README's acceptance note quotes these numbers."""

    def test_threshold_ten_cost_crossover(self):
        def lead(cost):
            return _tuc_lead(check_cost=cost, theta=10)

        assert lead(0.2) > 0 > lead(0.4)
        assert _crossover(lead, 0.2, 0.4) == pytest.approx(0.29666, abs=1e-3)

    def test_twenty_round_stake_crossover(self):
        def lead(stake):
            return _tuc_lead(payoff_scale=stake, expected_rounds=20.0)

        assert lead(0.5) < 0 < lead(2.0)
        assert _crossover(lead, 0.5, 2.0) == pytest.approx(1.09945, abs=1e-3)
