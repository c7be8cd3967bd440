"""Command line interface.

Subcommands cover the full pipeline: ``payoff-matrix``, ``fixation``,
``stationary``, ``coop-report``, ``sweep``, ``simulate`` and ``verify``.
Options come from ``sweep.SECTIONS``; each subcommand returns rows, which
``sweep.write_rows`` writes as CSV to stdout or ``--out``, or, for ``sweep``,
a table, which ``sweep.write_csv`` writes.  Exit codes: 0 on
success, 1 for configuration or usage problems, 2 for numerical failures; a
NaN or infinite result is one, and leaves stdout empty.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AlternationDominanceError,
    ConfigError,
    DilemmaViolationError,
    NumericalError,
    ParameterDomainError,
    StateSpaceError,
)
from .evolution import (
    EvolutionParams,
    fixation_probability,
    markov_transition_matrix,
    stationary_distribution,
)
from .game_model import GameSpec
from .match_sim import CostConvention, monte_carlo_payoffs, play_match
from .metrics import cooperation_report, strategy_pool
from .payoffs import payoff_matrix
from .strategies import strategy_from_label
from .sweep import (
    PRESETS,
    SECTIONS,
    SweepConfig,
    SweepTable,
    parse_config,
    preset_config,
    run_sweep,
    write_csv,
    write_rows,
)
from .verification import run_oracle_verification


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _game_from_args(args) -> GameSpec:
    return GameSpec(**{name: getattr(args, name) for name in SECTIONS["game"]})


def _params_from_args(args) -> EvolutionParams:
    return EvolutionParams(args.population, args.selection_strength)


def _strategy_set(args, which: str = "five"):
    five = strategy_pool(args.trust_threshold, args.check_prob)
    return five[:3] if which == "three" else five


def _cmd_payoff_matrix(args):
    matrix = payoff_matrix(_strategy_set(args, args.set), _game_from_args(args))
    rows = zip(matrix.labels, matrix.values)
    return [["", *matrix.labels], *([label, *row] for label, row in rows)]


def _cmd_fixation(args):
    strategies = _strategy_set(args)
    mutant, resident = (
        strategies.index(strategy_from_label(label, args.trust_threshold, args.check_prob))
        for label in (args.mutant, args.resident)
    )
    values = payoff_matrix(strategies, _game_from_args(args)).values
    return [[fixation_probability(values, mutant, resident, _params_from_args(args))]]


def _cmd_stationary(args):
    matrix = payoff_matrix(_strategy_set(args, args.set), _game_from_args(args))
    chain = markov_transition_matrix(matrix.values, _params_from_args(args))
    stat = stationary_distribution(chain, matrix.labels)
    return [["strategy", "probability"], *zip(stat.labels, stat.probabilities)]


def _cmd_coop_report(args):
    report = cooperation_report(
        _game_from_args(args),
        _params_from_args(args),
        trust_threshold=args.trust_threshold,
        check_prob=args.check_prob,
    )
    return [
        ["metric", "value"],
        ["coop_with", report.with_trust],
        ["coop_without", report.without_trust],
        ["coop_delta", report.delta],
        *([f"freq_{label}", p] for label, p in report.stationary_with.as_dict().items()),
    ]


def _cmd_sweep(args):
    if args.preset is not None:
        return run_sweep(preset_config(args.preset))
    return run_sweep(parse_config(args.config))


def _cmd_simulate(args):
    game = _game_from_args(args)
    first = strategy_from_label(args.first, args.trust_threshold, args.check_prob)
    second = strategy_from_label(args.second, args.trust_threshold, args.check_prob)
    convention = CostConvention(args.convention)
    if args.samples == 1:
        outcome = play_match(first, second, game, convention=convention, seed=args.seed)
        trace = zip(
            outcome.actions_a, outcome.actions_b, outcome.checks_a, outcome.checks_b,
            outcome.payoffs_a, outcome.payoffs_b,
        )
        return [
            "round,action_a,action_b,checked_a,checked_b,payoff_a,payoff_b".split(","),
            *(
                [str(i), a.value, b.value, str(int(ca)), str(int(cb)), pa, pb]
                for i, (a, b, ca, cb, pa, pb) in enumerate(trace, 1)
            ),
        ]
    result = monte_carlo_payoffs(
        first, second, game, convention=convention, samples=args.samples, seed=args.seed
    )
    summary = ("mean_a", "stderr_a", "mean_b", "stderr_b")
    return [
        ["metric", "value"],
        *([name, getattr(result, name)] for name in summary),
        ["samples", str(result.samples)],
    ]


def _cmd_verify(args):
    report = run_oracle_verification()
    args.status = 0 if report.ok else 2
    return [[report.summary()]]


# Per subcommand: handler, help line, positionals and option sections.
_ALL, _PLAY = tuple(SECTIONS), ("game", "trust")
_SUBCOMMANDS = {
    "payoff-matrix": (_cmd_payoff_matrix, "closed-form payoff table", (), _PLAY),
    "fixation": (
        _cmd_fixation, "single-mutant fixation probability", ("mutant", "resident"), _ALL
    ),
    "stationary": (_cmd_stationary, "stationary distribution", (), _ALL),
    "coop-report": (_cmd_coop_report, "cooperation with and without trust", (), _ALL),
    "sweep": (_cmd_sweep, "evaluate a parameter grid to CSV", (), ()),
    "simulate": (
        _cmd_simulate, "roll out matches between two strategies", ("first", "second"), _PLAY
    ),
    "verify": (_cmd_verify, "cross-check closed forms against enumeration", (), ()),
}

_FLAGS = {"expected_rounds": "rounds", "selection_strength": "selection"}
_HELP = {
    "payoff_scale": "stake scale on the table",
    "check_cost": "cost of observing a round",
    "expected_rounds": "expected rounds per match",
    "selection_strength": "imitation selection strength",
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trustevo",
        description="Evolution of trust-based strategies in the repeated prisoner's dilemma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SweepConfig().base_parameters()
    for command, (_, help_text, positionals, sections) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name in positionals:
            cmd.add_argument(name)
        for name in (name for section in sections for name in SECTIONS[section]):
            flag = _FLAGS.get(name, name.replace("_", "-"))
            cmd.add_argument(
                f"--{flag}", dest=name, metavar=flag.replace("-", "_").upper(),
                type=type(defaults[name]), default=defaults[name], help=_HELP.get(name),
            )
        cmd.add_argument("--out", default=None, help="write output to this file")

    for command in ("payoff-matrix", "stationary"):
        sub.choices[command].add_argument("--set", choices=("three", "five"), default="five")
    source = sub.choices["sweep"].add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help=f"named grid: {', '.join(PRESETS)}")
    source.add_argument("--config", help="INI sweep configuration file")
    simulate = sub.choices["simulate"]
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--samples", type=int, default=1)
    simulate.add_argument(
        "--convention",
        choices=tuple(c.value for c in CostConvention),
        default=CostConvention.DETECTION_FREE.value,
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        output = _SUBCOMMANDS[args.command][0](args)
        (write_csv if isinstance(output, SweepTable) else write_rows)(output, args.out)
        return getattr(args, "status", 0)
    except (
        ConfigError,
        ParameterDomainError,
        DilemmaViolationError,
        AlternationDominanceError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, StateSpaceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
