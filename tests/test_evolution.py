import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import trustevo.evolution as evolution
from trustevo.errors import NumericalError, ParameterDomainError
from trustevo.evolution import (
    EvolutionParams,
    fermi_probability,
    fixation_probability,
    group_payoffs,
    markov_transition_matrix,
    simulate_fixation,
    stationary_distribution,
)
from trustevo.game_model import make_prisoners_dilemma
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud

DEFAULT_SET = (ALLC, ALLD, TFT, tuc(3, 0.25), tud(3))
DEFAULT_VALUES = payoff_matrix(DEFAULT_SET, make_prisoners_dilemma()).values
DEFAULT_PARAMS = EvolutionParams(population_size=100, selection_strength=0.1)


def absorption_oracle(values, mutant, resident, params):
    """Fixation probability from the absorbing-chain linear system.

    Independent of the product formula: builds the full tridiagonal jump
    chain over mutant counts and solves for the probability of hitting N
    before 0 from a single mutant.
    """
    n = params.population_size
    beta = params.selection_strength
    size = n - 1
    system = np.zeros((size, size))
    rhs = np.zeros(size)
    for k in range(1, n):
        pi_m, pi_r = group_payoffs(values, mutant, resident, k, n)
        pick = (n - k) * k / (n * n)
        gain = pick * fermi_probability(pi_m - pi_r, beta)
        loss = pick * fermi_probability(pi_r - pi_m, beta)
        i = k - 1
        system[i, i] = gain + loss
        if k + 1 <= n - 1:
            system[i, i + 1] = -gain
        else:
            rhs[i] = gain
        if k - 1 >= 1:
            system[i, i - 1] = -loss
    return float(np.linalg.solve(system, rhs)[0])


def scalar_chain(values, params):
    """The chain built one fixation sum at a time, from scalar group payoffs.

    The reference for the array route: the same per-k formula, cumulative
    sum and direct or log-space evaluation, in the same operation order.
    Also returns which branches the off-diagonal sums took.
    """
    n = params.population_size
    size = values.shape[0]
    matrix = np.zeros((size, size))
    branches = set()
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            deltas = np.empty(n - 1)
            for k in range(1, n):
                pi_m, pi_r = group_payoffs(values, j, i, k, n)
                deltas[k - 1] = pi_m - pi_r
            args = -params.selection_strength * np.cumsum(deltas)
            peak = float(np.max(args))
            if peak < evolution._EXP_GUARD:
                branches.add("direct")
                rho = 1.0 / (1.0 + float(np.sum(np.exp(args))))
            else:
                branches.add("log")
                log_sum = peak + np.log(np.sum(np.exp(args - peak)))
                rho = float(np.exp(-np.logaddexp(0.0, log_sum)))
            matrix[i, j] = rho / (size - 1)
        matrix[i, i] = 1.0 - matrix[i].sum()
    return matrix, branches


class TestEvolutionParams:
    def test_domain_checks(self):
        with pytest.raises(ParameterDomainError):
            EvolutionParams(population_size=1, selection_strength=0.1)
        with pytest.raises(ParameterDomainError):
            EvolutionParams(population_size=100.0, selection_strength=0.1)
        with pytest.raises(ParameterDomainError):
            EvolutionParams(population_size=True, selection_strength=0.1)
        with pytest.raises(ParameterDomainError):
            EvolutionParams(population_size=100, selection_strength=-0.1)

    def test_zero_selection_is_allowed(self):
        EvolutionParams(population_size=2, selection_strength=0.0)

    def test_non_finite_selection_is_rejected(self):
        for beta in (math.nan, math.inf):
            with pytest.raises(ParameterDomainError, match="finite"):
                EvolutionParams(population_size=100, selection_strength=beta)


class TestFermi:
    def test_frozen_value(self):
        """beta * diff = 1 gives the logistic value 1/(1 + 1/e)."""
        assert fermi_probability(10.0, 0.1) == pytest.approx(
            0.7310585786300049, abs=1e-16
        )

    def test_neutral_cases(self):
        assert fermi_probability(123.4, 0.0) == 0.5
        assert fermi_probability(0.0, 7.0) == 0.5

    def test_saturation_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fermi_probability(1e6, 10.0) == 1.0
            assert fermi_probability(-1e6, 10.0) == 0.0

    @given(
        diff=st.floats(min_value=-1e3, max_value=1e3),
        beta=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_complementary_probabilities(self, diff, beta):
        total = fermi_probability(diff, beta) + fermi_probability(-diff, beta)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGroupPayoffs:
    # Hand-checked two-strategy table: A earns 1 against itself and -1
    # against B; B earns 2 against A and 0 against itself.
    VALUES = np.array([[1.0, -1.0], [2.0, 0.0]])

    def test_single_mutant(self):
        pi_a, pi_b = group_payoffs(self.VALUES, 0, 1, k=1, n=100)
        assert pi_a == -1.0
        assert pi_b == pytest.approx(2.0 / 99.0, abs=1e-16)

    def test_single_resident_left(self):
        pi_a, pi_b = group_payoffs(self.VALUES, 0, 1, k=99, n=100)
        assert pi_a == pytest.approx(97.0 / 99.0, abs=1e-16)
        assert pi_b == 2.0

    def test_self_interaction_is_excluded(self):
        """In a 2-player population each side sees only the opponent."""
        pi_a, pi_b = group_payoffs(self.VALUES, 0, 1, k=1, n=2)
        assert (pi_a, pi_b) == (-1.0, 2.0)

    def test_count_domain(self):
        with pytest.raises(ParameterDomainError):
            group_payoffs(self.VALUES, 0, 1, k=0, n=100)
        with pytest.raises(ParameterDomainError):
            group_payoffs(self.VALUES, 0, 1, k=100, n=100)


class TestFixationProbability:
    def test_neutral_mutant_fixes_at_exactly_one_over_n(self):
        for n in (2, 3, 50, 100):
            params = EvolutionParams(n, 0.0)
            rho = fixation_probability(DEFAULT_VALUES, 3, 1, params)
            assert rho == 1.0 / n

    def test_matches_absorbing_chain_oracle(self):
        """Product formula against the linear-system route, all ordered pairs."""
        params = EvolutionParams(8, 0.1)
        for mutant in range(5):
            for resident in range(5):
                if mutant == resident:
                    continue
                rho = fixation_probability(DEFAULT_VALUES, mutant, resident, params)
                oracle = absorption_oracle(DEFAULT_VALUES, mutant, resident, params)
                assert rho == pytest.approx(oracle, rel=1e-11, abs=1e-13)

    def test_log_space_path_matches_direct_evaluation(self, monkeypatch):
        """Forcing the overflow-safe branch reproduces the direct sum."""
        direct = fixation_probability(DEFAULT_VALUES, 0, 1, DEFAULT_PARAMS)
        monkeypatch.setattr(evolution, "_EXP_GUARD", -1.0)
        logged = fixation_probability(DEFAULT_VALUES, 0, 1, DEFAULT_PARAMS)
        assert logged == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("beta", [1e4, 1e308])
    def test_extreme_selection_stays_in_bounds(self, beta):
        """At 1e308, beta times the advantage sum overflows to +-inf, whose
        limits 0 and 1 come out exactly and without a warning."""
        params = EvolutionParams(100, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doomed = fixation_probability(DEFAULT_VALUES, 0, 1, params)
            favoured = fixation_probability(DEFAULT_VALUES, 1, 0, params)
        assert 0.0 <= doomed < 1e-100
        assert favoured > 0.999

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_is_refused(self, bad):
        """A NaN entry would pass the overflow bound, which compares false."""
        values = np.array([[bad, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="non-finite"):
            fixation_probability(values, 1, 0, EvolutionParams(100, 0.1))


class TestMarkovChain:
    def test_rows_sum_to_one(self):
        matrix = markov_transition_matrix(DEFAULT_VALUES, DEFAULT_PARAMS)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-15)
        assert (matrix >= 0).all()

    def test_off_diagonal_entries_are_scaled_fixation_probabilities(self):
        matrix = markov_transition_matrix(DEFAULT_VALUES, DEFAULT_PARAMS)
        rho = fixation_probability(DEFAULT_VALUES, 1, 0, DEFAULT_PARAMS)
        assert matrix[0, 1] == pytest.approx(rho / 4, abs=1e-16)

    def test_rejects_non_square_or_trivial_tables(self):
        with pytest.raises(ParameterDomainError):
            markov_transition_matrix(np.zeros((2, 3)), DEFAULT_PARAMS)
        with pytest.raises(ParameterDomainError):
            markov_transition_matrix(np.zeros((1, 1)), DEFAULT_PARAMS)

    @pytest.mark.parametrize("n, beta", [(2, 300.0), (3, 300.0), (100, 20.0), (1000, 2.0)])
    def test_mixed_branches_match_the_scalar_route(self, n, beta):
        """At these strengths some sums go to log space and some do not."""
        params = EvolutionParams(n, beta)
        expected, branches = scalar_chain(DEFAULT_VALUES, params)
        assert branches == {"direct", "log"}
        assert np.array_equal(markov_transition_matrix(DEFAULT_VALUES, params), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(2, 5).flatmap(
            lambda size: arrays(np.float64, (size, size), elements=st.floats(-10.0, 10.0))
        ),
        n=st.sampled_from((2, 3, 100, 1000)),
        beta=st.floats(0.0, 50.0),
    )
    @example(values=DEFAULT_VALUES, n=100, beta=0.0)
    def test_matches_the_scalar_route_bit_for_bit(self, values, n, beta):
        params = EvolutionParams(n, beta)
        expected, _ = scalar_chain(values, params)
        chain = markov_transition_matrix(values, params)
        assert np.array_equal(chain, expected)
        size = values.shape[0]
        for i in range(size):
            for j in range(size):
                if i != j:
                    rho = fixation_probability(values, j, i, params)
                    assert rho / (size - 1) == expected[i, j]


# Random tables and populations, with beta * N * (table spread) <= 100: the
# cap under which the dense stationary solve is expected never to refuse.
POPULATIONS = st.sampled_from((2, 3, 100, 1000))
TABLES = st.integers(2, 5).flatmap(
    lambda size: arrays(np.float64, (size, size), elements=st.floats(-10.0, 10.0))
)
UNIT = st.floats(0.0, 1.0)


def capped_beta(unit, n, values, stake=1.0):
    spread = stake * float(values.max() - values.min())
    return unit * 100.0 / (n * max(spread, 1e-9))


class TestChainProperties:
    @settings(max_examples=80, deadline=None)
    @given(values=TABLES, n=POPULATIONS, unit=UNIT)
    def test_rows_are_stochastic_and_the_stationary_vector_sums_to_one(
        self, values, n, unit
    ):
        params = EvolutionParams(n, capped_beta(unit, n, values))
        chain = markov_transition_matrix(values, params)
        assert np.abs(chain.sum(axis=1) - 1.0).max() <= 1e-12
        assert ((chain >= 0.0) & (chain <= 1.0)).all()
        pi = stationary_distribution(chain).probabilities
        assert (pi >= 0.0).all()
        assert abs(pi.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(values=TABLES, n=POPULATIONS)
    def test_neutral_fixation_is_exactly_one_over_n(self, values, n):
        rho = evolution.fixation_matrix(values, EvolutionParams(n, 0.0))
        off_diagonal = ~np.eye(len(values), dtype=bool)
        assert (rho[off_diagonal] == 1 / n).all()

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 4), min_size=2, max_size=5, unique=True),
        theta=st.integers(1, 5),
        p=st.floats(0.0, 1.0),
        extra_rounds=st.floats(1.0, 100.0),
        stake=st.floats(0.1, 10.0),
        n=POPULATIONS,
        unit=UNIT,
    )
    def test_with_free_checks_stake_scales_like_selection(
        self, picks, theta, p, extra_rounds, stake, n, unit
    ):
        """Stake g at beta gives the stationary vector of stake 1 at beta * g."""
        every = (ALLC, ALLD, TFT, tuc(theta, p), tud(theta))
        specs = tuple(every[i] for i in sorted(picks))
        game = make_prisoners_dilemma(check_cost=0.0, expected_rounds=theta + extra_rounds)
        values = payoff_matrix(specs, game).values
        beta = capped_beta(unit, n, values, stake)

        def stationary(scale, strength):
            table = payoff_matrix(specs, dataclasses.replace(game, payoff_scale=scale))
            chain = markov_transition_matrix(table.values, EvolutionParams(n, strength))
            return stationary_distribution(chain).probabilities

        gap = np.abs(stationary(stake, beta) - stationary(1.0, beta * stake)).max()
        assert gap <= 1e-10


# Stake 100 over four rounds at N=100: a chain the dense solve cannot trust.
STIFF_GAME = make_prisoners_dilemma(payoff_scale=100.0, expected_rounds=4.0)
STIFF_VALUES = payoff_matrix(DEFAULT_SET, STIFF_GAME).values
STIFF_CHAIN = markov_transition_matrix(STIFF_VALUES, DEFAULT_PARAMS)


class TestStacks:
    """A stack of tables or chains equals the per-matrix calls bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        tables=st.integers(2, 5).flatmap(
            lambda size: arrays(np.float64, (4, size, size), elements=st.floats(-3.0, 3.0))
        ),
        n=POPULATIONS,
        unit=UNIT,
    )
    def test_stacked_chain_and_solve_equal_single_calls(self, tables, n, unit):
        params = EvolutionParams(n, capped_beta(unit, n, tables))
        fixation = evolution.fixation_matrix(tables, params)
        stacked = stationary_distribution(evolution.chain_from_fixation(fixation))
        for table, rho, pi in zip(tables, fixation, stacked.probabilities):
            assert np.array_equal(evolution.fixation_matrix(table, params), rho)
            alone = stationary_distribution(markov_transition_matrix(table, params))
            assert np.array_equal(alone.probabilities, pi)

    def test_a_bad_table_is_named_by_its_index(self):
        stack = np.stack([DEFAULT_VALUES] * 3)
        stack[2, 0, 1] = np.nan
        with pytest.raises(NumericalError, match=r"non-finite entry at stack index 2$"):
            evolution.fixation_matrix(stack, DEFAULT_PARAMS)
        stack[2, 0, 1] = 0.0
        stack[1, 3, 3] = 1e306
        with pytest.raises(NumericalError, match=r"at N=100 at stack index 1$"):
            evolution.fixation_matrix(stack, DEFAULT_PARAMS)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (np.eye(2), NumericalError, "stationary solve failed"),
            (np.array([[0.5, 0.4], [0.3, 0.7]]), ParameterDomainError, "sum to 1"),
            (np.array([[0.5, np.nan], [0.3, 0.7]]), ParameterDomainError, "non-finite entry nan"),
            (STIFF_CHAIN, NumericalError, "untrustworthy"),
        ],
    )
    def test_a_bad_chain_is_named_by_its_index(self, bad, error, message):
        good = np.full(bad.shape, 1.0 / len(bad))
        stack = np.stack([good, good, bad, bad])
        with pytest.raises(error, match=rf"{message}.* at stack index 2$"):
            stationary_distribution(stack)
        with pytest.raises(error, match=message) as alone:
            stationary_distribution(bad)
        assert "stack index" not in str(alone.value)


class TestStationaryDistribution:
    def test_default_chain_frozen_values(self):
        matrix = markov_transition_matrix(DEFAULT_VALUES, DEFAULT_PARAMS)
        sd = stationary_distribution(matrix, [s.label for s in DEFAULT_SET])
        expected = {
            "ALLC": 0.04544805959179554,
            "ALLD": 0.2674052126538573,
            "TFT": 0.12209775519149166,
            "TUC": 0.39952490999747303,
            "TUD": 0.1655240625653824,
        }
        got = sd.as_dict()
        for label, value in expected.items():
            assert got[label] == pytest.approx(value, abs=1e-12)
        assert sd.probabilities.sum() == pytest.approx(1.0, abs=1e-14)

    def test_linear_solve_agrees_with_power_iteration(self):
        """The solve matches the fixed point power iteration converges to: the
        left eigenvector at eigenvalue 1, normalised to sum to one."""
        matrix = markov_transition_matrix(DEFAULT_VALUES, DEFAULT_PARAMS)
        solved = stationary_distribution(matrix).probabilities
        eigenvalues, eigenvectors = np.linalg.eig(matrix.T)
        fixed = eigenvectors[:, np.argmin(np.abs(eigenvalues - 1.0))].real
        assert np.abs(solved - fixed / fixed.sum()).max() < 1e-8

    def test_two_state_detailed_balance(self):
        sub = DEFAULT_VALUES[np.ix_([1, 2], [1, 2])]
        matrix = markov_transition_matrix(sub, DEFAULT_PARAMS)
        pi = stationary_distribution(matrix, ("ALLD", "TFT")).probabilities
        assert pi[0] * matrix[0, 1] == pytest.approx(pi[1] * matrix[1, 0], abs=1e-12)
        ratio = fixation_probability(sub, 1, 0, DEFAULT_PARAMS) / fixation_probability(
            sub, 0, 1, DEFAULT_PARAMS
        )
        assert pi[1] / pi[0] == pytest.approx(ratio, rel=1e-10)

    def test_uniform_chain(self):
        matrix = np.full((4, 4), 0.25)
        pi = stationary_distribution(matrix).probabilities
        assert np.allclose(pi, 0.25, atol=1e-14)

    def test_reducible_chain_is_rejected(self):
        with pytest.raises(NumericalError):
            stationary_distribution(np.eye(2))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ParameterDomainError, match="sum to 1"):
            stationary_distribution(np.array([[0.5, 0.4], [0.3, 0.7]]))

    def test_nan_rows_are_rejected(self):
        with pytest.raises(ParameterDomainError, match="sum to 1"):
            stationary_distribution(np.array([[np.nan, np.nan], [0.3, 0.7]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_named(self, bad):
        """The row-sum failure names the first non-finite entry and its place."""
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        matrix[1, 0] = bad
        with pytest.raises(
            ParameterDomainError,
            match=rf"sum to 1.*\(row 1 has non-finite entry {bad} at column 0\)",
        ):
            stationary_distribution(matrix)

    def test_label_wiring(self):
        matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
        sd = stationary_distribution(matrix, ("A", "B"))
        assert set(sd.as_dict()) == {"A", "B"}
        with pytest.raises(ParameterDomainError):
            stationary_distribution(matrix, ("A",))


def composition_chain(values, params, mu):
    """The full pairwise-comparison chain over every population composition.

    A focal player is drawn at random.  With probability ``mu`` it mutates,
    to each other strategy with probability ``mu / (S - 1)``; otherwise it
    draws a random other player and copies it with the Fermi probability.
    Payoffs exclude self-interaction.  Built from the payoff table alone,
    never from the fixation probabilities.  Returns the (states, S) counts
    and the row-stochastic chain.
    """
    n, beta = params.population_size, params.selection_strength
    size = len(values)
    states = []
    for bars in itertools.combinations(range(n + size - 1), size - 1):
        edges = (-1, *bars, n + size - 1)
        states.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    index = {counts: k for k, counts in enumerate(states)}
    chain = np.zeros((len(states), len(states)))
    for k, counts in enumerate(states):
        fitness = (values @ counts - np.diag(values)) / (n - 1)
        for i, j in itertools.permutations(range(size), 2):
            if counts[i] == 0:
                continue
            moved = list(counts)
            moved[i] -= 1
            moved[j] += 1
            copy = counts[j] / (n - 1) / (1.0 + math.exp(-beta * (fitness[j] - fitness[i])))
            rate = mu / (size - 1) + (1.0 - mu) * copy
            chain[k, index[tuple(moved)]] += counts[i] / n * rate
        chain[k, k] = 1.0 - chain[k].sum()
    return np.array(states), chain


class TestSmallMutationReduction:
    def test_full_chain_approaches_the_homogeneous_chain(self):
        """The strategy frequencies of the full chain converge to the
        small-mutation stationary vector at first order in mu (Fudenberg &
        Imhof 2006): deviation / mu is the same at two rates, and small."""
        params = EvolutionParams(10, 0.1)
        limit = stationary_distribution(markov_transition_matrix(DEFAULT_VALUES, params))
        ratios = []
        for mu in (1e-4, 1e-5):
            states, chain = composition_chain(DEFAULT_VALUES, params, mu)
            assert len(states) == 1001
            system = chain.T - np.eye(len(chain))
            system[-1] = 1.0
            rhs = np.zeros(len(chain))
            rhs[-1] = 1.0
            frequencies = np.linalg.solve(system, rhs) @ states / params.population_size
            ratios.append(np.max(np.abs(frequencies - limit.probabilities)) / mu)
        assert ratios[1] < 2.0
        assert ratios[0] == pytest.approx(ratios[1], rel=0.01)


class TestSimulateFixation:
    def test_agrees_with_closed_form(self):
        params = EvolutionParams(50, 0.1)
        cases = ((3, 1), (1, 0), (2, 1))
        expected = (0.02358894646404369, 0.09939435086708541, 0.02135775049888826)
        runs = 4000
        for (mutant, resident), rho in zip(cases, expected):
            freq = simulate_fixation(
                DEFAULT_VALUES, mutant, resident, params, runs=runs, seed=11
            )
            sigma = math.sqrt(rho * (1 - rho) / runs)
            assert abs(freq - rho) < 4 * sigma

    def test_seeded_runs_are_reproducible(self):
        params = EvolutionParams(30, 0.1)
        first = simulate_fixation(DEFAULT_VALUES, 3, 1, params, runs=500, seed=5)
        second = simulate_fixation(DEFAULT_VALUES, 3, 1, params, runs=500, seed=5)
        assert first == second

    def test_runs_validation(self):
        with pytest.raises(ParameterDomainError):
            simulate_fixation(DEFAULT_VALUES, 3, 1, DEFAULT_PARAMS, runs=0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_smallest_populations(self, n, beta):
        """N = 2 has one moving count and N = 3 two; at beta = 0 every
        mutant fixes with probability 1/N."""
        params = EvolutionParams(n, beta)
        runs = 20_000
        for mutant, resident in ((3, 1), (1, 0), (0, 1), (4, 2)):
            rho = fixation_probability(DEFAULT_VALUES, mutant, resident, params)
            if beta == 0.0:
                assert rho == 1.0 / n
            freq = simulate_fixation(
                DEFAULT_VALUES, mutant, resident, params, runs=runs, seed=n
            )
            sigma = math.sqrt(rho * (1 - rho) / runs)
            assert abs(freq - rho) < 4 * sigma, (mutant, resident, freq, rho)
