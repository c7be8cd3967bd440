import dataclasses
import decimal
import functools
import itertools
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import trustevo.evolution as evolution
from trustevo.errors import InputError, NumericalError, ParameterDomainError
from trustevo.evolution import (
    EvolutionParams,
    fermi_probability,
    fixation_probability,
    group_payoffs,
    markov_transition_matrix,
    simulate_fixation,
    stationary_distribution,
)
from trustevo.game_model import GameSpec, make_prisoners_dilemma
from trustevo.metrics import cooperation_report, pool_cooperation, strategy_pool
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud
from trustevo.sweep import PRESETS

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


def exact_advantages(values, mutant, resident, n):
    """Cumulative advantages ``sum_{k<=j} (pi_m(k) - pi_r(k))`` for j < N, and
    ``sum_k (|pi_m(k)| + |pi_r(k)|)``, exact: the float table is read as
    fractions.  Stdlib only, sharing no code with the kernel."""
    a = [[Fraction(x) for x in row] for row in values]
    m, r = mutant, resident
    cumulative, payoffs, sums = Fraction(0), Fraction(0), []
    for k in range(1, n):
        pi_m = ((k - 1) * a[m][m] + (n - k) * a[m][r]) / (n - 1)
        pi_r = (k * a[r][m] + (n - k - 1) * a[r][r]) / (n - 1)
        cumulative += pi_m - pi_r
        payoffs += abs(pi_m) + abs(pi_r)
        sums.append(cumulative)
    return sums, payoffs


def exact_fixation(sums, beta):
    """``1 / (1 + sum_j exp(-beta * sums_j))`` from exact exponents; only
    ``exp``, the sum and the division round, in decimal at 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
        exponents = (-Fraction(beta) * s for s in sums)
        total = sum((decimal.Decimal(x.numerator) / x.denominator).exp() for x in exponents)
        return float(1 / (1 + total))


def assert_within_summation_bound(values, n, beta):
    """Each off-diagonal entry of ``fixation_matrix`` lies within
    ``8 eps (N + beta sum_k (|pi_m(k)| + |pi_r(k)|))`` of the exact value,
    relative, or absolute at the smallest normal float below it (the
    summation bound's form, Higham 2002, sec. 4); a value below the float
    range comes out as 0 or subnormal, never NaN."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    got = evolution.fixation_matrix(np.array(values), EvolutionParams(n, beta))
    for resident, mutant in itertools.permutations(range(len(values)), 2):
        sums, payoffs = exact_advantages(values, mutant, resident, n)
        exact = exact_fixation(sums, beta)
        bound = 8 * eps * (n + beta * float(payoffs))
        value = got[resident, mutant]
        assert abs(value - exact) <= bound * max(exact, tiny), (resident, mutant, value, exact)
        if exact < tiny:
            assert 0.0 <= value < tiny, (resident, mutant, value, exact)


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

    def test_selection_accepts_ints_and_numpy_floats(self):
        assert EvolutionParams(10, 1).selection_strength == 1
        assert EvolutionParams(10, np.float64(0.1)).selection_strength == 0.1

    def test_bool_selection_is_refused(self):
        with pytest.raises(
            ParameterDomainError, match="selection_strength must be a real number, got True$"
        ):
            EvolutionParams(10, True)

    def test_string_selection_is_refused(self):
        with pytest.raises(
            ParameterDomainError, match="selection_strength must be a real number, got '0.1'$"
        ):
            EvolutionParams(10, "0.1")

    def test_array_selection_is_refused(self):
        with pytest.raises(
            ParameterDomainError, match=r"selection_strength must be a real number, got array\("
        ):
            EvolutionParams(10, np.array([0.1, 0.2]))

    def test_population_is_bounded(self):
        """N = 10^6 is the largest population taken; nothing is computed here."""
        assert EvolutionParams(10**6, 0.1).population_size == 10**6
        with pytest.raises(ParameterDomainError, match="at most 1000000, got 1000001$"):
            EvolutionParams(10**6 + 1, 0.1)

    def test_non_finite_selection_is_rejected(self):
        for beta in (math.nan, math.inf, 10**400):  # an int no float holds
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

    def test_both_branches_return_a_float(self):
        assert type(fermi_probability(1.0, 0.5)) is float
        assert type(fermi_probability(-1.0, 0.5)) is float

    @pytest.mark.parametrize(
        "diff, beta",
        [(math.nan, 0.1), (math.inf, 0.0), (-math.inf, 0.1), (1.0, -1.0), (1.0, math.nan),
         (1.0, math.inf), (1.0, 10**400), (10**400, 0.1), (-(10**400), 0.1)],
    )
    def test_a_non_finite_difference_or_a_bad_beta_is_refused(self, diff, beta):
        with pytest.raises(ParameterDomainError, match="finite diff and beta >= 0"):
            fermi_probability(diff, beta)

    @pytest.mark.parametrize(
        "diff, beta", [("x", 0.1), (1.0, "0.1"), (None, 0.1), (1.0, True), (True, 0.1)]
    )
    def test_a_non_number_or_a_bool_is_refused(self, diff, beta):
        """As by ``EvolutionParams``: a bool is not taken for 0 or 1."""
        with pytest.raises(ParameterDomainError, match="must be a real number, got"):
            fermi_probability(diff, beta)

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

    @pytest.mark.parametrize(
        "k, n, message",
        [
            (1.5, 10, "k must be an integer >= 1, got 1.5"),
            (1.0, 10, "k must be an integer >= 1, got 1.0"),
            (True, 10, "k must be an integer >= 1, got True"),
            (1, 2.5, "n must be an integer >= 2, got 2.5"),
            (1, True, "n must be an integer >= 2, got True"),
            (1, 10**400, "n must be at most 1000000, got 1000"),
        ],
    )
    def test_a_count_that_is_not_a_whole_int_is_refused(self, k, n, message):
        with pytest.raises(ParameterDomainError, match=message):
            group_payoffs(self.VALUES, 0, 1, k=k, n=n)

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, 2), (0, 5), (True, 0), (0, 1.0)])
    def test_an_index_outside_the_table_is_refused(self, a, b):
        with pytest.raises(ParameterDomainError, match="must be"):
            group_payoffs(self.VALUES, a, b, k=1, n=100)

    @pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_a_non_finite_entry_read_is_refused(self, row, col):
        values = self.VALUES.copy()
        values[row, col] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            group_payoffs(values, 0, 1, k=1, n=100)

    @pytest.mark.parametrize("values", [[[3.0, 0.0], [5.0, 1.0]], [[3, 0], [5, 1]]])
    def test_a_nested_list_gives_the_array_payoffs(self, values):
        expected = group_payoffs(np.array(values, dtype=float), 0, 1, k=3, n=10)
        assert group_payoffs(values, 0, 1, k=3, n=10) == expected

    @pytest.mark.parametrize(
        "values",
        [
            [[1e308, 1e308], [1e308, 1e308]],  # a finite table whose payoffs overflow to inf
            [[1e308, -1e308], [1e308, -1e308]],  # or to NaN
            [[1.0, -1.0, math.nan], [2.0, 0.0, math.inf], [math.nan] * 3],  # entries not read
            [[1.0, 1e307], [2.0, 0.0]],  # beyond the overflow bound at N = 10
            [[1.0, -1.0, 0.0], [2.0, 0.0, 1.0]],
            [[1.0]],
        ],
    )
    def test_it_refuses_every_table_the_fixation_routes_refuse(self, values):
        with pytest.raises((NumericalError, ParameterDomainError)) as refused:
            fixation_probability(np.array(values), 0, 1, EvolutionParams(10, 0.1))
        with pytest.raises(refused.type, match=f"^{re.escape(str(refused.value))}$"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                group_payoffs(values, 0, 1, k=3, n=10)


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


# Payoff tables of two or three strategies with entries in [-10, 10].
SMALL_TABLES = st.integers(2, 3).flatmap(
    lambda size: st.lists(
        st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size),
        min_size=size, max_size=size,
    )
)


class TestExactFixationOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        values=SMALL_TABLES,
        n=st.integers(2, 100),
        beta=st.floats(-3.0, math.log10(300.0)).map(lambda e: 10.0**e),
    )
    def test_direct_sums_within_the_summation_bound(self, values, n, beta):
        assert_within_summation_bound(values, n, beta)

    @settings(max_examples=15, deadline=None)
    @given(values=SMALL_TABLES, n=st.integers(2, 100), peak=st.floats(701.0, 740.0))
    def test_log_space_sums_within_the_summation_bound(self, values, n, peak):
        """beta puts the peak exponent of 1 invading 0 at ``peak``, past the
        kernel's ``_EXP_GUARD``; the result is near or below the smallest
        normal float."""
        sums, _ = exact_advantages(values, 1, 0, n)
        unit = max(-s for s in sums)
        assume(unit >= 1)
        assert_within_summation_bound(values, n, peak / float(unit))


def _simulated(values, mutant, resident, params):
    return simulate_fixation(values, mutant, resident, params, runs=2000, seed=1)


@pytest.mark.parametrize("fixation", [fixation_probability, _simulated])
class TestFixationInputs:
    """Both single-pair routes refuse a bad index or table before any work."""

    PARAMS = EvolutionParams(20, 0.1)

    @pytest.mark.parametrize("index", [-1, 5, 7, 1.0, True, None])
    def test_indices_outside_the_table_are_refused(self, fixation, index):
        for mutant, resident in ((index, 0), (0, index)):
            with pytest.raises(ParameterDomainError, match="mutant|resident"):
                fixation(DEFAULT_VALUES, mutant, resident, self.PARAMS)

    def test_a_mutant_of_the_resident_kind_is_neutral(self, fixation):
        rho = fixation(DEFAULT_VALUES, 2, 2, self.PARAMS)
        if fixation is fixation_probability:
            assert rho == 1.0 / 20
        else:
            assert abs(rho - 1.0 / 20) < 4 * math.sqrt(0.05 * 0.95 / 2000)

    @pytest.mark.parametrize(
        "bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"), (1e308, "overflow")]
    )
    def test_a_table_fixation_sums_cannot_take_is_refused(self, fixation, bad, message):
        values = DEFAULT_VALUES.copy()
        values[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                fixation(values, 4, 0, self.PARAMS)

    def test_a_table_that_is_not_square_is_refused(self, fixation):
        with pytest.raises(ParameterDomainError, match="square"):
            fixation(DEFAULT_VALUES[:, :4], 1, 0, self.PARAMS)

    @pytest.mark.parametrize(
        "values", [[[3.0, 0.0], [5.0, 1.0]], [[3, 0], [5, 1]], DEFAULT_VALUES.tolist()]
    )
    def test_a_nested_list_gives_the_array_result(self, fixation, values):
        expected = fixation(np.array(values, dtype=float), 1, 0, self.PARAMS)
        assert fixation(values, 1, 0, self.PARAMS) == expected


# Every entry point that takes a payoff table or a chain, called on ``table``.
TABLE_ENTRY_POINTS = {
    "fixation_matrix": lambda table: evolution.fixation_matrix(table, DEFAULT_PARAMS),
    "fixation_probability": lambda table: fixation_probability(table, 1, 0, DEFAULT_PARAMS),
    "simulate_fixation": lambda table: simulate_fixation(table, 1, 0, DEFAULT_PARAMS, runs=10),
    "group_payoffs": lambda table: group_payoffs(table, 1, 0, 1, 10),
    "markov_transition_matrix": lambda table: markov_transition_matrix(table, DEFAULT_PARAMS),
    "stationary_distribution": stationary_distribution,
    "pool_cooperation": lambda table: pool_cooperation(table, np.ones(5), DEFAULT_PARAMS),
}
SINGLE_TABLE_READERS = ("fixation_probability", "simulate_fixation", "group_payoffs")
UNIFORM_CHAIN = np.full((5, 5), 0.2)


@pytest.mark.parametrize(
    "entry, table",
    [
        *((entry, np.empty((0, 5, 5))) for entry in TABLE_ENTRY_POINTS),
        *(
            (entry, (UNIFORM_CHAIN if entry == "stationary_distribution" else DEFAULT_VALUES) + 1j)
            for entry in TABLE_ENTRY_POINTS
        ),
        *((entry, np.stack([DEFAULT_VALUES] * 2)) for entry in SINGLE_TABLE_READERS),
    ],
    ids=lambda v: v if isinstance(v, str) else f"{v.dtype}{v.shape}",
)
def test_a_table_entry_point_refuses_what_it_cannot_read_as_an_input_error(entry, table):
    """An empty stack, a complex table and, where one table is read, a stack are refused
    by the table's own checks, before numpy raises or warns on them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="square|real"):
            TABLE_ENTRY_POINTS[entry](table)


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
    @given(values=TABLES, n=POPULATIONS, unit=st.floats(1e-3, 1.0))
    def test_the_diagonal_is_exactly_one_over_n(self, values, n, unit):
        rho = evolution.fixation_matrix(values, EvolutionParams(n, capped_beta(unit, n, values)))
        assert (np.diagonal(rho) == 1 / n).all()

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
        tables=st.tuples(st.sampled_from(((4,), (2, 3))), st.integers(2, 5)).flatmap(
            lambda shape: arrays(
                np.float64, (*shape[0], shape[1], shape[1]), elements=st.floats(-3.0, 3.0)
            )
        ),
        n=POPULATIONS,
        unit=UNIT,
    )
    def test_stacked_chain_and_solve_equal_single_calls(self, tables, n, unit):
        params = EvolutionParams(n, capped_beta(unit, n, tables))
        fixation = evolution.fixation_matrix(tables, params)
        stacked = stationary_distribution(evolution.chain_from_fixation(fixation))
        for at in np.ndindex(tables.shape[:-2]):
            assert evolution.fixation_matrix(tables[at], params).tobytes() == fixation[at].tobytes()
            alone = stationary_distribution(markov_transition_matrix(tables[at], params))
            assert alone.probabilities.tobytes() == stacked.probabilities[at].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        tables=arrays(np.float64, (3, 4, 4), elements=st.sampled_from((0.0, -0.0, 1.0, -2.5))),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=8),
        n=POPULATIONS,
        unit=UNIT,
        chunk=st.integers(1, 400),
    )
    def test_a_stack_sums_each_distinct_pair_once(self, tables, picks, n, unit, chunk):
        """A stack that repeats tables and holds +0 and -0 sums each distinct
        sub-table (+0 and -0 apart) once, in slices of at most ``chunk`` terms,
        and equals the single-table calls byte for byte."""
        stack = tables[picks]
        params = EvolutionParams(n, capped_beta(unit, n, stack))
        with mock.patch.object(evolution, "_CHUNK_ELEMENTS", chunk), mock.patch.object(
            evolution, "pair_fixation", wraps=evolution.pair_fixation
        ) as kernel:
            fixation = evolution.fixation_matrix(stack, params)
        for table, got in zip(stack, fixation):
            assert got.tobytes() == evolution.fixation_matrix(table, params).tobytes()
        distinct = {
            table[np.ix_((r, m), (r, m))].tobytes()
            for table in stack for r, m in itertools.combinations(range(4), 2)
        }
        sizes = [len(call.args[0]) for call in kernel.call_args_list]
        assert sum(sizes) == len(distinct)
        assert max(sizes) <= max(1, chunk // (2 * (n - 1)))

    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_a_full_slice_peaks_under_450_kB(self, n):
        """One stack slice of ``_CHUNK_ELEMENTS`` terms keeps its temporaries
        near 340 kB: glibc then reuses them in place, where a 650 kB slice was
        freed at the heap top, trimmed and faulted back in on the next slice."""
        import tracemalloc

        slice_pairs = evolution._CHUNK_ELEMENTS // (2 * (n - 1))
        pairs = np.random.default_rng(n).uniform(-3.0, 3.0, (slice_pairs, 4))
        tracemalloc.start()
        try:
            rho = evolution.pair_fixation(pairs, EvolutionParams(n, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.shape == (slice_pairs, 2)
        assert peak < 450_000

    def test_a_table_is_one_kernel_call_and_a_stack_is_sliced(self):
        """At N = 1000 a 5x5 table's 10 pairs (19,980 terms, over the slice
        budget) are still summed in one call, so point queries pay no slices;
        a stack's distinct pairs go in slices of 8."""
        assert 10 * 2 * 999 > evolution._CHUNK_ELEMENTS
        params = EvolutionParams(1000, 0.1)
        stack = np.stack([DEFAULT_VALUES, DEFAULT_VALUES + 1.0, DEFAULT_VALUES * 2.0])
        with mock.patch.object(evolution, "pair_fixation", wraps=evolution.pair_fixation) as kernel:
            evolution.fixation_matrix(DEFAULT_VALUES, params)
            assert [call.args[0].shape for call in kernel.call_args_list] == [(10, 4)]
            kernel.reset_mock()
            evolution.fixation_matrix(stack, params)
        assert [len(call.args[0]) for call in kernel.call_args_list] == [8, 8, 8, 6]

    @pytest.mark.parametrize(
        "convert", [np.ndarray.tolist, lambda a: a.astype(np.int64), lambda a: a.astype(np.float32)]
    )
    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_list_or_other_dtype_gives_the_float64_bytes(self, convert, stacked):
        table = np.array([[3.0, 0.0, 3.0], [5.0, 1.0, 1.0], [3.0, -1.0, 3.0]])
        values = np.stack([table, table.T, table]) if stacked else table
        expected = evolution.fixation_matrix(values, DEFAULT_PARAMS).tobytes()
        assert evolution.fixation_matrix(convert(values), DEFAULT_PARAMS).tobytes() == expected

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


def _frozen_fixation_sums(args: np.ndarray) -> np.ndarray:
    """``1 / (1 + sum(exp(args)))`` along the last axis; overwrites ``args``.
    A +inf peak is not shifted away (inf - inf is NaN): its entry is 0."""
    peak = args.max(axis=-1)
    logged = peak >= evolution._EXP_GUARD
    if logged.any():  # elsewhere the shift is 0.0, which changes nothing
        args -= np.where(logged & (peak < np.inf), peak, 0.0)[..., None]
    sums = np.exp(args, out=args).sum(axis=-1)
    rho = 1.0 / (1.0 + sums)
    rho[logged] = np.exp(-np.logaddexp(0.0, peak[logged] + np.log(sums[logged])))
    return rho


def _frozen_pair_fixation(pairs: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """The fixation kernel as it was before its advantage left the strided
    half of ``args`` and its sums gained the whole-stack guard test, kept
    verbatim as the byte reference of the kernel."""
    n = params.population_size
    k = np.arange(1, n, dtype=float)
    own_r, v_rm, v_mr, own_m = (pairs[..., i, None] for i in range(4))
    # Axis -2 holds m invading r, then r invading m; axis -1 the count k of m-mutants.
    args = np.empty((*pairs.shape[:-1], 2, n - 1))
    advantage = np.multiply(v_mr, n - k, out=args[..., 0, :])
    advantage += (k - 1) * own_m
    advantage /= n - 1
    resident = np.multiply(v_rm, k)
    resident += (n - k - 1) * own_r
    resident /= n - 1
    advantage -= resident
    np.negative(advantage[..., ::-1], out=args[..., 1, :])
    np.add.accumulate(args, axis=-1, out=args)
    # Beyond the float range beta * sum is +-inf, whose limits are exact.
    with np.errstate(over="ignore"):
        args *= -params.selection_strength
        return _frozen_fixation_sums(args)


def _unit_peak(pairs: np.ndarray, n: int) -> float:
    """Largest exponent of a stack of pair sub-tables at beta = 1, near enough
    to aim a stack's peak at the log-space guard."""
    k = np.arange(1, n)
    own_r, v_rm, v_mr, own_m = (pairs[..., i, None] for i in range(4))
    advantage = (v_mr * (n - k) + (k - 1) * own_m - v_rm * k - (n - k - 1) * own_r) / (n - 1)
    return float(max((-np.cumsum(advantage, -1)).max(), np.cumsum(advantage[..., ::-1], -1).max()))


# Exponents either side of the log-space guard, the float limit and the infinities.
EDGE_EXPONENTS = st.sampled_from(
    [699.0, np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, np.inf), 709.0, 750.0,
     1e308, np.inf, -np.inf, -1e308, 0.0]
)


class TestKernelBytes:
    """``pair_fixation`` and ``_fixation_sums`` equal their frozen copies byte
    for byte: the contiguous advantage and the whole-stack guard test change
    only the memory layout and which calls run, not one operation's bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.tuples(st.sampled_from(((), (2, 3))), st.integers(1, 6)).flatmap(
            lambda shape: arrays(
                np.float64, (*shape[0], shape[1], 4),
                elements=st.floats(-3.0, 3.0) | st.floats(-1e9, 1e9) | st.sampled_from([-1e9, 1e9]),
            )
        ),
        n=st.sampled_from([2, 3, 10, 100, 1000]),
        beta=st.sampled_from([0.0, 1e300]) | st.floats(-6.0, 300.0).map(lambda e: 10.0**e),
        aim=st.none() | st.floats(690.0, 710.0) | EDGE_EXPONENTS,
    )
    def test_pair_fixation_bytes_equal_the_frozen_kernel(self, pairs, n, beta, aim):
        """``aim`` sets beta so that the stack's largest exponent lands there:
        rows peak just below the guard, at it or beyond it; at +inf, beta is
        1e300 and entries of 1e9 overflow to +-inf."""
        peak = _unit_peak(pairs, n)
        if aim == np.inf:
            beta = 1e300
        elif aim is not None and 0.0 < peak and 0.0 < aim:
            beta = min(aim / peak, 1e300)
        params = EvolutionParams(n, beta)
        expected = _frozen_pair_fixation(pairs.copy(), params)
        got = evolution.pair_fixation(pairs.copy(), params)
        assert got.shape == expected.shape == (*pairs.shape[:-1], 2)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        args=st.tuples(st.sampled_from(((3,), (2, 3, 2))), st.integers(1, 12)).flatmap(
            lambda shape: arrays(
                np.float64, (*shape[0], shape[1]),
                elements=st.floats(-800.0, 699.0) | EDGE_EXPONENTS,
            )
        ),
    )
    def test_fixation_sums_bytes_equal_the_frozen_sums(self, args):
        """Stacks mixing rows that peak below the guard, at or above it, and
        at +-inf, straight into the sums."""
        with np.errstate(over="ignore"):  # as in pair_fixation: a +inf peak is not shifted
            expected = _frozen_fixation_sums(args.copy())
            got = evolution._fixation_sums(args.copy())
        assert got.tobytes() == expected.tobytes()


class TestStationaryDistribution:
    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
    def test_a_table_that_is_not_square_is_refused(self, shape):
        with pytest.raises(ParameterDomainError) as refused:
            stationary_distribution(np.zeros(shape))
        assert str(refused.value) == f"transition table must be square, got {shape}"

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

    def test_a_failed_solve_reports_the_solved_system_condition(self):
        """Both refusals report ``cond`` of the system the solve was given; a
        singular one reads inf, without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="; condition estimate inf; "):
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


@functools.cache
def exact_pair_fixation(pair, n, beta):
    """Probability that one mutant takes over residents, exact but for one rounding to a
    float: ``exact_fixation`` of ``exact_advantages`` on the pair's 2 x 2 table
    ``((resident, resident), (resident, mutant)), ((mutant, resident), (mutant, mutant))``."""
    sums, _ = exact_advantages(pair, 1, 0, n)
    return Fraction(exact_fixation(sums, beta))


def gth_stationary(chain):
    """Stationary vector of a row-stochastic chain of fractions, exact: GTH state
    reduction (Grassmann, Taksar & Heyman 1985) reads the off-diagonal entries alone."""
    a = [row[:] for row in chain]
    for k in range(len(a) - 1, 0, -1):
        out = sum(a[k][:k])
        for i in range(k):
            a[i][k] /= out
        for i, j in itertools.permutations(range(k), 2):
            a[i][j] += a[i][k] * a[k][j]
    pi = [Fraction(1)]
    for k in range(1, len(a)):
        pi.append(sum(pi[i] * a[i][k] for i in range(k)))
    total = sum(pi)
    return [x / total for x in pi]


def exact_stationary(values, n, beta):
    """Stationary vector of the small-mutation chain of a float payoff table, each
    fixation probability from ``exact_pair_fixation`` and the chain solved by GTH.
    Stdlib only, sharing no code with the kernel or the dense solve."""
    size = len(values)
    chain = [[Fraction(0)] * size for _ in range(size)]
    for i, j in itertools.permutations(range(size), 2):
        pair = ((values[i][i], values[i][j]), (values[j][i], values[j][j]))
        chain[i][j] = exact_pair_fixation(pair, n, beta) / (size - 1)
    return gth_stationary(chain)


def stationary_condition(values, params):
    """The condition number ``stationary_distribution`` reports when it refuses: that of
    its system, the chain's balance equations with the last replaced by normalisation."""
    system = markov_transition_matrix(values, params).T - np.eye(len(values))
    system[-1, :] = 1.0
    return float(np.linalg.cond(system))


def assert_within_stationary_bound(game, n, beta, theta=3, check_prob=0.25):
    """Both pools' stationary vectors in ``cooperation_report`` lie within
    ``c eps kappa`` of ``exact_stationary`` in the max norm, kappa from
    ``stationary_condition``, c = 1: a probe found c = 0.11 at most on fig3 and on
    fig4's rounds-20 points at stake 100 or more (kappa up to 5.4e8), and 0.14 on
    300 draws as in the test below."""
    params = EvolutionParams(n, beta)
    values = payoff_matrix(strategy_pool(theta, check_prob), game).values
    report = cooperation_report(game, params, theta, check_prob)
    for got in (report.stationary_with.probabilities, report.stationary_without.probabilities):
        table = values[: len(got), : len(got)]
        exact = exact_stationary(table.tolist(), n, beta)
        error = max(abs(Fraction(p) - e) for p, e in zip(got.tolist(), exact))
        bound = np.finfo(float).eps * stationary_condition(table, params)
        assert error <= bound, (len(got), float(error), bound)


class TestExactStationaryOracle:
    @pytest.mark.parametrize("check_cost", PRESETS["fig3"]["axes"][0][1])
    def test_fig3(self, check_cost):
        assert_within_stationary_bound(GameSpec(check_cost=check_cost), 100, 0.1)

    @pytest.mark.parametrize(
        "stake", [s for s in dict(PRESETS["fig4"]["axes"])["payoff_scale"] if s >= 100]
    )
    def test_fig4_stiff_points(self, stake):
        """Rounds 20 and stake 100 to 1000, where the solve's condition number
        grows to 5.4e8 and fewer printed digits hold."""
        game = GameSpec(payoff_scale=stake, expected_rounds=20.0)
        assert_within_stationary_bound(game, 100, 0.1)

    @settings(max_examples=5, deadline=None)
    @given(
        check_cost=st.floats(0.0, 1.0),
        stake=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        rounds=st.floats(5.0, 60.0),
        n=st.integers(2, 40),
        beta=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
        theta=st.integers(1, 4),
        check_prob=st.floats(0.0, 1.0),
    )
    def test_drawn_games(self, check_cost, stake, rounds, n, beta, theta, check_prob):
        game = GameSpec(payoff_scale=stake, check_cost=check_cost, expected_rounds=rounds)
        try:
            cooperation_report(game, EvolutionParams(n, beta), theta, check_prob)
        except NumericalError:
            assume(False)  # the dense solve refuses this chain
        assert_within_stationary_bound(game, n, beta, theta, check_prob)


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


def full_chain_frequencies(values, params, mu):
    """The compositions of the full chain and its stationary strategy
    frequencies, by a dense solve with one balance equation replaced by
    normalisation."""
    states, chain = composition_chain(values, params, mu)
    system = chain.T - np.eye(len(chain))
    system[-1] = 1.0
    rhs = np.zeros(len(chain))
    rhs[-1] = 1.0
    return states, np.linalg.solve(system, rhs) @ states / params.population_size


class TestSmallMutationReduction:
    def test_full_chain_approaches_the_homogeneous_chain(self):
        """The strategy frequencies of the full chain converge to the
        small-mutation stationary vector at first order in mu (Fudenberg &
        Imhof 2006): deviation / mu is the same at two rates, and small."""
        params = EvolutionParams(10, 0.1)
        limit = stationary_distribution(markov_transition_matrix(DEFAULT_VALUES, params))
        ratios = []
        for mu in (1e-4, 1e-5):
            states, frequencies = full_chain_frequencies(DEFAULT_VALUES, params, mu)
            assert len(states) == 1001
            ratios.append(np.max(np.abs(frequencies - limit.probabilities)) / mu)
        assert ratios[1] < 2.0
        assert ratios[0] == pytest.approx(ratios[1], rel=0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(2, 3).flatmap(
            lambda size: arrays(float, (size, size), elements=st.floats(-1.0, 1.0))
        ),
        n=st.integers(2, 8),
        beta=st.floats(0.0, 1.0),
    )
    @example(values=np.full((3, 3), 0.5), n=8, beta=1.0)
    @example(values=np.array([[0.0, -1.0], [1.0, 0.0]]), n=2, beta=1.0)
    def test_random_tables_converge_at_first_order(self, values, n, beta):
        """Random 2- and 3-strategy tables: deviation / mu at mu = 1e-5 is
        within 5% of its value at 1e-4, which checks the self-interaction
        convention and the 1/(S - 1) mutant split for every table shape.  A
        neutral draw deviates by solve roundoff alone (below 2e-6 mu at N <= 8)
        and passes under an absolute floor of 1e-4 mu."""
        params = EvolutionParams(n, beta)
        limit = stationary_distribution(markov_transition_matrix(values, params))
        ratios = []
        for mu in (1e-4, 1e-5):
            _, frequencies = full_chain_frequencies(values, params, mu)
            ratios.append(np.max(np.abs(frequencies - limit.probabilities)) / mu)
        if max(ratios) > 1e-4:
            assert ratios[1] == pytest.approx(ratios[0], rel=0.05)


def indexed_composition_chain(values, n, beta, mu):
    """``composition_chain`` built by array indexing: each ordered strategy
    pair moves one player in every composition at once.  A composition's code
    is its counts in base n + 1, so a move adds one place value and takes
    another.  The states come in the same lexicographic order."""
    size = len(values)
    grid = np.indices((n + 1,) * size).reshape(size, -1).T
    states = grid[grid.sum(axis=1) == n]
    radix = (n + 1) ** np.arange(size)
    index = np.zeros((n + 1) ** size, dtype=int)
    index[states @ radix] = np.arange(len(states))
    fitness = (states @ values.T - np.diag(values)) / (n - 1)
    chain = np.zeros((len(states), len(states)))
    for i, j in itertools.permutations(range(size), 2):
        live = np.flatnonzero(states[:, i])
        z = beta * (fitness[live, j] - fitness[live, i])
        e = np.exp(-np.abs(z))
        copy = states[live, j] / (n - 1) * np.where(z >= 0, 1.0, e) / (1.0 + e)
        target = index[states[live] @ radix - radix[i] + radix[j]]
        chain[live, target] = states[live, i] / n * (mu / (size - 1) + (1.0 - mu) * copy)
    np.fill_diagonal(chain, 1.0 - chain.sum(axis=1))
    return states, chain


def extrapolated_homogeneous_mass(values, n, beta):
    """The full chain's stationary mass on the homogeneous states,
    renormalised, at mu = 1e-4 and 1e-5, extrapolated to mu -> 0 by
    Richardson's rule for an error of first order: (10 pi(1e-5) - pi(1e-4)) / 9."""
    masses = []
    for mu in (1e-4, 1e-5):
        states, chain = indexed_composition_chain(values, n, beta, mu)
        system = chain.T - np.eye(len(chain))
        system[-1] = 1.0
        rhs = np.zeros(len(chain))
        rhs[-1] = 1.0
        mass = np.linalg.solve(system, rhs)[np.argmax(states == n, axis=0)]
        masses.append(mass / mass.sum())
    return (10.0 * masses[1] - masses[0]) / 9.0


def assert_report_matches_full_chain(game, n, beta, theta, check_prob):
    """``cooperation_report``'s five-strategy stationary vector lies within
    1e-6 of the extrapolated full chain on the same payoff table."""
    values = payoff_matrix(strategy_pool(theta, check_prob), game).values
    report = cooperation_report(game, EvolutionParams(n, beta), theta, check_prob)
    expected = extrapolated_homogeneous_mass(values, n, beta)
    np.testing.assert_allclose(report.stationary_with.probabilities, expected, atol=1e-6)


class TestFullChainOracle:
    """The small-mutation reduction (fixation probabilities between
    homogeneous states, divided among the S - 1 mutants) against the process
    it stands for: the full pairwise-comparison chain with mutation, whose
    homogeneous mass tends to the reduced chain's stationary vector as
    mu -> 0.  It shares only the payoff table with the library."""

    def test_the_indexed_chain_is_the_loop_built_chain(self):
        params = EvolutionParams(5, 0.3)
        states, chain = composition_chain(DEFAULT_VALUES, params, 1e-3)
        indexed_states, indexed = indexed_composition_chain(DEFAULT_VALUES, 5, 0.3, 1e-3)
        np.testing.assert_array_equal(indexed_states, states)
        np.testing.assert_allclose(indexed, chain, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "game, n, beta, theta, check_prob",
        [
            (GameSpec(), 10, 0.1, 3, 0.25),
            (GameSpec(check_cost=0.5, expected_rounds=20.0), 8, 2.0, 5, 0.1),
            (GameSpec(expected_rounds=4.0, payoff_scale=100.0), 10, 0.1, 3, 0.25),
        ],
        ids=["default", "theta5", "stiff"],
    )
    def test_reports_match_the_extrapolated_full_chain(self, game, n, beta, theta, check_prob):
        """Within 1e-6; a probe of these games found at most 3e-8, against
        some 1e-5 before extrapolation."""
        assert_report_matches_full_chain(game, n, beta, theta, check_prob)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(3, 8),
        beta=st.floats(0.01, 1.0),
        rounds=st.floats(5.0, 60.0),
        theta=st.integers(1, 4),
        check_prob=st.floats(0.01, 1.0),
        check_cost=st.floats(0.0, 1.0),
        scale=st.floats(0.1, 3.0),
    )
    def test_random_games_match_the_extrapolated_full_chain(
        self, n, beta, rounds, theta, check_prob, check_cost, scale
    ):
        """Draws where each homogeneous state is left at a rate well above
        mu = 1e-5 (beta * scale at most 3, N at most 8), so that the
        extrapolation is in its asymptotic regime: a probe of 150 draws and
        every corner of these ranges found at most 7e-8.  Near beta = 2 and
        stake 10 at N = 8 a state can be left at some 1e-5, and the full
        chain at mu = 1e-5 is then still far from its limit."""
        game = GameSpec(check_cost=check_cost, expected_rounds=rounds, payoff_scale=scale)
        assert_report_matches_full_chain(game, n, beta, theta, check_prob)


def _frozen_simulate_fixation(values, mutant, resident, params, runs, seed):
    """``simulate_fixation`` as it stood before its step loop built its views
    once and tested absorption by the absorbed counts."""
    n = params.population_size
    up = np.empty(n - 1)
    for k in range(1, n):
        pi_m, pi_r = group_payoffs(values, mutant, resident, k, n)
        up[k - 1] = fermi_probability(pi_m - pi_r, params.selection_strength)
    rng = np.random.Generator(np.random.PCG64(seed))
    runs_at = np.zeros(n + 1, dtype=np.int64)
    runs_at[1] = runs
    for _ in range(1000 * n * n + 100_000):
        moving = runs_at[1:n]
        if not moving.any():
            return float(runs_at[n] / runs)
        rising = rng.binomial(moving, up)
        falling = moving - rising
        moving[:] = 0
        runs_at[2:] += rising
        runs_at[:-2] += falling
    raise AssertionError("no absorption")


class TestSimulateFixation:
    @pytest.mark.parametrize("n", [2, 3, 20, 100])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 5.0])
    def test_bytes_equal_the_frozen_loop(self, n, beta):
        """The same draws in the same order: each seeded frequency is the
        frozen loop's, bit for bit."""
        params = EvolutionParams(n, beta)
        for (mutant, resident), seed in itertools.product(((3, 1), (1, 0), (4, 2)), (7, 2024)):
            got = simulate_fixation(DEFAULT_VALUES, mutant, resident, params, runs=300, seed=seed)
            expected = _frozen_simulate_fixation(DEFAULT_VALUES, mutant, resident, params, 300, seed)
            assert got.hex() == expected.hex(), (mutant, resident, seed)

    @pytest.mark.parametrize("n", [2, 3, 20, 100])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 5.0])
    def test_scalar_tail_bytes_equal_the_frozen_loop(self, n, beta):
        """At most ``_TAIL_RUNS`` live runs are moved by scalar draws: from
        the start (1 and 32 runs), from the second step (33 runs) and after
        hundreds of steps (the oracles workload's 10,000 runs), each seeded
        frequency is still the frozen loop's, bit for bit."""
        params = EvolutionParams(n, beta)
        for runs in (1, evolution._TAIL_RUNS, evolution._TAIL_RUNS + 1, 10_000):
            for (mutant, resident), seed in itertools.product(((1, 0), (3, 1), (4, 2)), (1, 7)):
                got = simulate_fixation(DEFAULT_VALUES, mutant, resident, params, runs=runs, seed=seed)
                expected = _frozen_simulate_fixation(DEFAULT_VALUES, mutant, resident, params, runs, seed)
                assert got.hex() == expected.hex(), (runs, mutant, resident, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        values=arrays(np.float64, (5, 5), elements=st.floats(-10.0, 10.0)),
        mutant=st.integers(0, 4),
        resident=st.integers(0, 4),
        n=st.integers(2, 400),
        beta=st.floats(-3.0, 1.0).map(lambda e: 10.0**e) | st.sampled_from([0.0, 1e300]),
    )
    def test_step_probabilities_equal_the_scalar_loop(self, values, mutant, resident, n, beta):
        """The step probabilities the draws read are ``fermi_probability`` of
        ``group_payoffs``' difference at every count, bit for bit; at beta =
        1e300 the exponents overflow to the exact limits without a warning.
        The generator is replaced by one that stops at the first draw: a game
        with a stable mixture can take very long to absorb at large N."""
        expected = np.empty(n - 1)
        for k in range(1, n):
            pi_m, pi_r = group_payoffs(values, mutant, resident, k, n)
            expected[k - 1] = fermi_probability(pi_m - pi_r, beta)
        drawn = []

        class Drawn(Exception):
            pass

        class FirstDraw:
            def __init__(self, bits):
                pass

            def binomial(self, count, up):
                drawn.append(up.copy())
                raise Drawn

        with mock.patch.object(np.random, "Generator", FirstDraw), pytest.raises(Drawn):
            simulate_fixation(
                values, mutant, resident, EvolutionParams(n, beta), runs=evolution._TAIL_RUNS + 1
            )
        assert drawn[0].tobytes() == expected.tobytes()

    def test_runs_are_bounded_by_the_int64_counts(self):
        """Counts of runs are int64: 2^63 - 1 runs are taken, one more are
        refused before any work.  The frequency is the frozen loop's int64
        division, bit for bit: at 10^18 runs and seed 2 Python's int / int of
        the same counts rounds one unit lower."""
        params = EvolutionParams(3, 0.1)
        for runs, seed in ((2**63 - 1, 0), (10**18, 2)):
            got = simulate_fixation(DEFAULT_VALUES, 3, 1, params, runs=runs, seed=seed)
            expected = _frozen_simulate_fixation(DEFAULT_VALUES, 3, 1, params, runs, seed)
            assert 0.0 < got < 1.0
            assert got.hex() == expected.hex(), runs
        for runs in (2**63, 2**70):
            with pytest.raises(ParameterDomainError, match=f"runs must be at most {2**63 - 1}, got {runs}$"):
                simulate_fixation(DEFAULT_VALUES, 3, 1, params, runs=runs)

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
