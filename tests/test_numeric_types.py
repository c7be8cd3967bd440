"""Every scalar entry point takes numpy and ``Fraction`` scalars as the Python
number they hold: no warning, and bit for bit the result of the same call with
``float(v)`` or ``int(v)``, through float64 payoff tables."""

import numbers
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trustevo.errors import ConfigError, ParameterDomainError
from trustevo.evolution import (
    EvolutionParams, fermi_probability, fixation_probability, group_payoffs, simulate_fixation,
)
from trustevo.game_model import GameSpec
from trustevo.match_sim import expected_outcomes, monte_carlo_payoffs
from trustevo.metrics import cooperation_report, strategy_pool
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLD, tuc, tud
from trustevo.sweep import SweepConfig, run_sweep

KINDS = [np.float16, np.float32, np.float64, np.longdouble, Fraction, np.int64]
PARAMS = EvolutionParams(100, 0.1)
# Each GameSpec field's value in a valid game, as a float and as an int.
GAME_VALUES = {
    "temptation": (1.7, 2), "reward": (1.3, 1), "punishment": (-0.3, 0), "sucker": (-1.7, -1),
    "payoff_scale": (0.7, 3), "check_cost": (0.3, 1), "expected_rounds": (30.7, 40),
}


def scalar(kind, pair):
    """A scalar of ``kind`` from a (float, int) pair: the int for an integer kind, and
    a ``Fraction`` or longdouble from the float's decimal text."""
    if issubclass(kind, numbers.Integral):
        return kind(pair[1])
    return kind(str(pair[0])) if kind in (Fraction, np.longdouble) else kind(pair[0])


def python(value):
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def typed(values):
    """Values with their types, so that 0.5 and np.float32(0.5) differ."""
    return [(type(v), v) for v in values]


def quietly(call, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args, **kwargs)


def report_bits(report):
    return (
        report.with_trust.hex(), report.without_trust.hex(), report.delta.hex(),
        report.stationary_with.probabilities.tobytes(),
        report.stationary_without.probabilities.tobytes(), report.selfplay_indices,
    )


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
class TestScalarKinds:
    @pytest.mark.parametrize("field", GAME_VALUES)
    def test_game_fields(self, kind, field):
        value = scalar(kind, GAME_VALUES[field])
        game = quietly(GameSpec, **{field: value})
        reference = GameSpec(**{field: python(value)})
        assert typed(vars(game).values()) == typed(vars(reference).values())
        pool = strategy_pool(3, 0.25)
        table = quietly(payoff_matrix, pool, game).values
        assert table.dtype == np.float64
        assert table.tobytes() == payoff_matrix(pool, reference).values.tobytes()
        assert report_bits(quietly(cooperation_report, game, PARAMS)) == report_bits(
            cooperation_report(reference, PARAMS)
        )

    def test_selection_strength(self, kind):
        value = scalar(kind, (0.1, 1))
        params = quietly(EvolutionParams, 100, value)
        assert typed([params.selection_strength]) == typed([python(value)])
        assert report_bits(quietly(cooperation_report, GameSpec(), params)) == report_bits(
            cooperation_report(GameSpec(), EvolutionParams(100, python(value)))
        )

    def test_check_prob(self, kind):
        value = scalar(kind, (0.3, 1))
        assert typed([quietly(tuc, 3, value).check_prob]) == typed([python(value)])
        pool = (*strategy_pool(3, 0.25)[:3], tuc(3, value))
        table = quietly(payoff_matrix, pool, GameSpec()).values
        assert table.dtype == np.float64
        reference = (*pool[:3], tuc(3, python(value)))
        assert table.tobytes() == payoff_matrix(reference, GameSpec()).values.tobytes()
        report = quietly(cooperation_report, GameSpec(), PARAMS, 3, value)
        assert report_bits(report) == report_bits(
            cooperation_report(GameSpec(), PARAMS, 3, python(value))
        )

    def test_fermi_probability(self, kind):
        diff, beta = scalar(kind, (0.7, 2)), scalar(kind, (0.1, 1))
        for args in ((diff, 0.1), (0.7, beta), (diff, beta)):
            got = quietly(fermi_probability, *args)
            assert got.hex() == fermi_probability(*map(python, args)).hex()

    def test_sweep_base_and_axis_values(self, kind):
        prob, cost = scalar(kind, (0.3, 1)), scalar(kind, (0.3, 1))
        config = quietly(SweepConfig, check_prob=prob, axes=(("check_cost", (cost, 0.5)),))
        reference = SweepConfig(
            check_prob=python(prob), axes=(("check_cost", (python(cost), 0.5)),)
        )
        assert typed([config.check_prob, *config.axes[0][1]]) == typed(
            [reference.check_prob, *reference.axes[0][1]]
        )
        assert quietly(run_sweep, config).values.tobytes() == run_sweep(reference).values.tobytes()


@pytest.mark.parametrize(
    "value",
    [Fraction(10**400), -Fraction(10**400), np.longdouble("1e400")],
    ids=["fraction", "negative-fraction", "longdouble"],
)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: GameSpec(check_cost=v), "check_cost"),
        (lambda v: EvolutionParams(100, v), "selection_strength"),
        (lambda v: tuc(3, v), "TUC check_prob"),
        (lambda v: fermi_probability(v, 0.1), "payoff_diff"),
        (lambda v: SweepConfig(check_prob=v), "check_prob"),
        (lambda v: SweepConfig(axes=(("check_cost", (v,)),)), "check_cost"),
    ],
)
def test_a_real_no_float_holds_is_refused_as_not_finite(call, name, value):
    with pytest.raises(ParameterDomainError, match=f"^{name} must be finite, got -?1"):
        quietly(call, value)


REAL = "must be a real number, got np.True_"
NOT_A_NUMBER = "holds {}, which is not a number"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda v: GameSpec(check_cost=v), ParameterDomainError, f"check_cost {REAL}"),
        (lambda v: EvolutionParams(100, v), ParameterDomainError, f"selection_strength {REAL}"),
        (lambda v: tuc(3, v), ParameterDomainError, f"TUC check_prob {REAL}"),
        (
            lambda v: cooperation_report(GameSpec(), PARAMS, 3, v),
            ParameterDomainError, f"TUC check_prob {REAL}",
        ),
        (lambda v: fermi_probability(v, 0.1), ParameterDomainError, f"payoff_diff {REAL}"),
        (lambda v: fermi_probability(1.0, v), ParameterDomainError, f"beta {REAL}"),
        (
            lambda v: SweepConfig(check_prob=v),
            ConfigError, "check_prob " + NOT_A_NUMBER.format("np.True_"),
        ),
        (
            lambda v: SweepConfig(axes=(("check_cost", (v,)),)),
            ConfigError, "sweep axis 'check_cost' " + NOT_A_NUMBER.format("True"),
        ),
    ],
)
def test_a_numpy_bool_is_refused(call, error, message):
    with pytest.raises(error) as refused:
        call(np.True_)
    assert type(refused.value) is error and str(refused.value) == message


INT_KINDS = [np.int64, np.int32, np.uint16]
TABLE = payoff_matrix(strategy_pool(3, 0.25), GameSpec()).values


@pytest.mark.parametrize("kind", INT_KINDS, ids=lambda kind: kind.__name__)
class TestIntKinds:
    """Counts and indices take any integral number but a bool, and keep it as an int."""

    def test_population_size(self, kind):
        params = quietly(EvolutionParams, kind(50), 0.1)
        assert typed([params.population_size]) == typed([50])
        assert report_bits(quietly(cooperation_report, GameSpec(), params)) == report_bits(
            cooperation_report(GameSpec(), EvolutionParams(50, 0.1))
        )

    def test_trust_threshold(self, kind):
        assert typed([quietly(tud, kind(4)).trust_threshold]) == typed([4])
        assert typed([quietly(tuc, kind(4), 0.25).trust_threshold]) == typed([4])
        report = quietly(cooperation_report, GameSpec(), PARAMS, kind(4))
        assert report_bits(report) == report_bits(cooperation_report(GameSpec(), PARAMS, 4))

    def test_group_payoffs(self, kind):
        got = quietly(group_payoffs, TABLE, kind(4), kind(3), kind(2), kind(10))
        assert [x.hex() for x in got] == [x.hex() for x in group_payoffs(TABLE, 4, 3, 2, 10)]

    def test_fixation_routes(self, kind):
        params = EvolutionParams(kind(20), 0.1)
        got = quietly(fixation_probability, TABLE, kind(4), kind(3), params)
        assert got.hex() == fixation_probability(TABLE, 4, 3, EvolutionParams(20, 0.1)).hex()
        got = quietly(simulate_fixation, TABLE, kind(4), kind(3), params, kind(500), kind(7))
        expected = simulate_fixation(TABLE, 4, 3, EvolutionParams(20, 0.1), 500, 7)
        assert got.hex() == expected.hex()

    def test_match_sim(self, kind):
        spec = tuc(3, 0.25)
        got = quietly(monte_carlo_payoffs, spec, ALLD, GameSpec(), samples=kind(5), seed=kind(2))
        assert typed([got.samples]) == typed([5])
        assert got == monte_carlo_payoffs(spec, ALLD, GameSpec(), samples=5, seed=2)
        counts = quietly(expected_outcomes, spec, ALLD, kind(7))
        assert counts.tobytes() == expected_outcomes(spec, ALLD, 7).tobytes()


@pytest.mark.parametrize(
    "call, name, minimum, value",
    [
        (lambda v: EvolutionParams(v, 0.1), "population_size", 2, 50),
        (lambda v: cooperation_report(GameSpec(), PARAMS, v), "TUC trust_threshold", 1, 4),
        (lambda v: group_payoffs(TABLE, 4, 3, v, 10), "k", 1, 2),
        (lambda v: fixation_probability(TABLE, v, 3, PARAMS), "mutant", 0, 4),
        (lambda v: simulate_fixation(TABLE, 4, 3, PARAMS, runs=v), "runs", 1, 10),
        (lambda v: monte_carlo_payoffs(tud(3), ALLD, GameSpec(), samples=v), "samples", 1, 5),
    ],
    ids=["population", "threshold", "k", "mutant", "runs", "samples"],
)
def test_a_count_takes_a_numpy_int_but_not_a_numpy_bool_or_a_fraction(call, name, minimum, value):
    quietly(call, np.int64(value))
    for refused in (np.True_, Fraction(value)):
        with pytest.raises(ParameterDomainError) as error:
            call(refused)
        assert str(error.value) == f"{name} must be an integer >= {minimum}, got {refused!r}"
