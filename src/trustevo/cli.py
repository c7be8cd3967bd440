"""Command line interface.

Subcommands cover the full pipeline: ``payoff-matrix``, ``fixation``,
``stationary``, ``coop-report``, ``sweep``, ``simulate`` and ``verify``.
All tabular output is CSV on stdout or at ``--out``.  Exit codes: 0 on
success, 1 for configuration or usage problems, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager

from .errors import (
    AlternationDominanceError,
    ConfigError,
    ContractViolationError,
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
from .game_model import GameSpec, make_prisoners_dilemma
from .match_sim import CostConvention, monte_carlo_payoffs, play_match
from .metrics import cooperation_report
from .payoffs import payoff_matrix
from .strategies import ALLC, ALLD, TFT, strategy_from_label, tuc, tud
from .sweep import (
    DEFAULT_CHECK_PROB,
    DEFAULT_POPULATION,
    DEFAULT_SELECTION,
    DEFAULT_TRUST_THRESHOLD,
    format_value,
    parse_config,
    preset_config,
    run_sweep,
    write_csv,
)
from .verification import run_oracle_verification


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _add_io_options(parser):
    parser.add_argument("--out", default=None, help="write output to this file")


_GAME_HELP = {
    "payoff_scale": "stake scale on the table",
    "check_cost": "cost of observing a round",
    "expected_rounds": "expected rounds per match",
}


def _add_game_options(parser):
    for name, default in dataclasses.asdict(make_prisoners_dilemma()).items():
        flag = "rounds" if name == "expected_rounds" else name.replace("_", "-")
        parser.add_argument(
            f"--{flag}", dest=name, metavar=flag.replace("-", "_").upper(),
            type=float, default=default, help=_GAME_HELP.get(name),
        )


def _add_evolution_options(parser):
    parser.add_argument("--population", type=int, default=DEFAULT_POPULATION)
    parser.add_argument(
        "--selection", type=float, default=DEFAULT_SELECTION,
        help="imitation selection strength",
    )


def _add_trust_options(parser):
    parser.add_argument(
        "--trust-threshold", type=int, default=DEFAULT_TRUST_THRESHOLD
    )
    parser.add_argument("--check-prob", type=float, default=DEFAULT_CHECK_PROB)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trustevo",
        description="Evolution of trust-based strategies in the repeated prisoner's dilemma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("payoff-matrix", help="closed-form payoff table")
    _add_game_options(matrix)
    _add_trust_options(matrix)
    _add_io_options(matrix)
    matrix.add_argument("--set", choices=("three", "five"), default="five")

    fixation = sub.add_parser("fixation", help="single-mutant fixation probability")
    fixation.add_argument("mutant")
    fixation.add_argument("resident")
    _add_game_options(fixation)
    _add_evolution_options(fixation)
    _add_trust_options(fixation)
    _add_io_options(fixation)

    stationary = sub.add_parser("stationary", help="stationary distribution")
    _add_game_options(stationary)
    _add_evolution_options(stationary)
    _add_trust_options(stationary)
    _add_io_options(stationary)
    stationary.add_argument("--set", choices=("three", "five"), default="five")

    report = sub.add_parser("coop-report", help="cooperation with and without trust")
    _add_game_options(report)
    _add_evolution_options(report)
    _add_trust_options(report)
    _add_io_options(report)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="named grid: fig3, fig4, fig5, appendix_theta5, appendix_theta10")
    source.add_argument("--config", help="INI sweep configuration file")
    _add_io_options(sweep)

    simulate = sub.add_parser("simulate", help="roll out matches between two strategies")
    simulate.add_argument("first")
    simulate.add_argument("second")
    _add_game_options(simulate)
    _add_trust_options(simulate)
    _add_io_options(simulate)
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--samples", type=int, default=1)
    simulate.add_argument(
        "--convention",
        choices=tuple(c.value for c in CostConvention),
        default=CostConvention.DETECTION_FREE.value,
    )

    verify = sub.add_parser("verify", help="cross-check closed forms against enumeration")
    _add_io_options(verify)
    return parser


def _game_from_args(args) -> GameSpec:
    return GameSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GameSpec)})


def _strategy_set(args, which: str):
    base = (ALLC, ALLD, TFT)
    if which == "three":
        return base
    return base + (
        tuc(args.trust_threshold, args.check_prob),
        tud(args.trust_threshold),
    )


@contextmanager
def _output(args):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", newline="") as handle:
            yield handle


def _cmd_payoff_matrix(args) -> int:
    matrix = payoff_matrix(_strategy_set(args, args.set), _game_from_args(args))
    with _output(args) as out:
        out.write("," + ",".join(matrix.labels) + "\n")
        for label, row in zip(matrix.labels, matrix.values):
            out.write(label + "," + ",".join(format_value(v) for v in row) + "\n")
    return 0


def _cmd_fixation(args) -> int:
    strategies = _strategy_set(args, "five")
    labels = [s.label for s in strategies]
    mutant = strategy_from_label(args.mutant, args.trust_threshold, args.check_prob)
    resident = strategy_from_label(args.resident, args.trust_threshold, args.check_prob)
    matrix = payoff_matrix(strategies, _game_from_args(args))
    params = EvolutionParams(args.population, args.selection)
    rho = fixation_probability(
        matrix.values, labels.index(mutant.label), labels.index(resident.label), params
    )
    with _output(args) as out:
        out.write(format_value(rho) + "\n")
    return 0


def _cmd_stationary(args) -> int:
    matrix = payoff_matrix(_strategy_set(args, args.set), _game_from_args(args))
    params = EvolutionParams(args.population, args.selection)
    chain = markov_transition_matrix(matrix.values, params)
    stat = stationary_distribution(chain, matrix.labels)
    with _output(args) as out:
        out.write("strategy,probability\n")
        for label, prob in zip(stat.labels, stat.probabilities):
            out.write(f"{label},{format_value(prob)}\n")
    return 0


def _cmd_coop_report(args) -> int:
    params = EvolutionParams(args.population, args.selection)
    report = cooperation_report(
        _game_from_args(args),
        params,
        trust_threshold=args.trust_threshold,
        check_prob=args.check_prob,
    )
    with _output(args) as out:
        out.write("metric,value\n")
        out.write(f"coop_with,{format_value(report.with_trust)}\n")
        out.write(f"coop_without,{format_value(report.without_trust)}\n")
        out.write(f"coop_delta,{format_value(report.delta)}\n")
        for label, prob in report.stationary_with.as_dict().items():
            out.write(f"freq_{label},{format_value(prob)}\n")
    return 0


def _cmd_sweep(args) -> int:
    if args.preset is not None:
        config = preset_config(args.preset)
    else:
        config = parse_config(args.config)
    rows = run_sweep(config)
    with _output(args) as out:
        write_csv(rows, out)
    return 0


def _cmd_simulate(args) -> int:
    game = _game_from_args(args)
    first = strategy_from_label(args.first, args.trust_threshold, args.check_prob)
    second = strategy_from_label(args.second, args.trust_threshold, args.check_prob)
    convention = CostConvention(args.convention)
    if args.samples == 1:
        outcome = play_match(first, second, game, convention=convention, seed=args.seed)
        with _output(args) as out:
            out.write("round,action_a,action_b,checked_a,checked_b,payoff_a,payoff_b\n")
            for i in range(outcome.rounds):
                out.write(
                    f"{i + 1},{outcome.actions_a[i].value},{outcome.actions_b[i].value},"
                    f"{int(outcome.checks_a[i])},{int(outcome.checks_b[i])},"
                    f"{format_value(outcome.payoffs_a[i])},{format_value(outcome.payoffs_b[i])}\n"
                )
        return 0
    result = monte_carlo_payoffs(
        first, second, game, convention=convention, samples=args.samples, seed=args.seed
    )
    with _output(args) as out:
        out.write("metric,value\n")
        out.write(f"mean_a,{format_value(result.mean_a)}\n")
        out.write(f"stderr_a,{format_value(result.stderr_a)}\n")
        out.write(f"mean_b,{format_value(result.mean_b)}\n")
        out.write(f"stderr_b,{format_value(result.stderr_b)}\n")
        out.write(f"samples,{result.samples}\n")
    return 0


def _cmd_verify(args) -> int:
    report = run_oracle_verification()
    with _output(args) as out:
        out.write(report.summary() + "\n")
    return 0 if report.ok else 2


_COMMANDS = {
    "payoff-matrix": _cmd_payoff_matrix,
    "fixation": _cmd_fixation,
    "stationary": _cmd_stationary,
    "coop-report": _cmd_coop_report,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (
        ConfigError,
        ParameterDomainError,
        DilemmaViolationError,
        AlternationDominanceError,
        ContractViolationError,
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
