"""Evolutionary dynamics of trust-based strategies in the repeated prisoner's dilemma.

The package computes closed-form expected match payoffs between five
strategies (unconditional cooperation and defection, tit-for-tat with costly
observation, trust-until-caught, trust-then-defect), cross-validates them
against an exact round-by-round enumerator, and feeds them into pairwise
imitation dynamics in the small-mutation limit to obtain stationary strategy
abundances and population cooperation frequencies.
"""

from .errors import (
    AlternationDominanceError,
    ConfigError,
    DilemmaViolationError,
    InputError,
    NumericalError,
    ParameterDomainError,
    StateSpaceError,
)
from .evolution import (
    EvolutionParams,
    StationaryDistribution,
    fermi_probability,
    fixation_matrix,
    fixation_probability,
    group_payoffs,
    markov_transition_matrix,
    simulate_fixation,
    stationary_distribution,
)
from .game_model import GameSpec, make_prisoners_dilemma
from .match_sim import (
    CostConvention,
    MatchOutcome,
    MonteCarloPayoffs,
    exact_expected_payoffs,
    monte_carlo_payoffs,
    play_match,
)
from .metrics import (
    CooperationReport,
    cooperation_report,
    population_cooperation,
    selfplay_cooperation_index,
)
from .payoffs import PayoffMatrix, payoff_matrix
from .strategies import (
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
    strategy_from_label,
    tuc,
    tud,
)
from .sweep import SweepConfig, SweepTable, parse_config, preset_config, run_sweep
from .verification import run_oracle_verification

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AlternationDominanceError",
    "ConfigError",
    "CooperationReport",
    "CostConvention",
    "DilemmaViolationError",
    "EvolutionParams",
    "GameSpec",
    "InputError",
    "MatchOutcome",
    "MonteCarloPayoffs",
    "NumericalError",
    "ParameterDomainError",
    "PayoffMatrix",
    "StateSpaceError",
    "StationaryDistribution",
    "StrategyKind",
    "StrategySpec",
    "StrategyState",
    "SweepConfig",
    "SweepTable",
    "ALLC",
    "ALLD",
    "TFT",
    "check_probability",
    "cooperation_report",
    "exact_expected_payoffs",
    "fermi_probability",
    "fixation_matrix",
    "fixation_probability",
    "group_payoffs",
    "initial_state",
    "make_prisoners_dilemma",
    "markov_transition_matrix",
    "monte_carlo_payoffs",
    "next_action",
    "observe",
    "parse_config",
    "payoff_matrix",
    "play_match",
    "population_cooperation",
    "preset_config",
    "run_oracle_verification",
    "run_sweep",
    "selfplay_cooperation_index",
    "simulate_fixation",
    "stationary_distribution",
    "strategy_from_label",
    "tuc",
    "tud",
]
