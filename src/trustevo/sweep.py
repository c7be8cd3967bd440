"""Deterministic parameter sweeps over the evolutionary pipeline.

A sweep takes a base parameter set, a list of named axes, and evaluates the
full pipeline (payoff table, fixation chain, stationary distribution,
cooperation report) at every grid point in turn.  Grid order is row-major in
the listed axis order with the last axis varying fastest; nothing is random,
so a sweep is byte-identical run to run.

Config files use INI syntax: ``[game]``, ``[evolution]`` and ``[trust]``
sections override base parameters and each key under ``[sweep]`` adds one
axis.  Axis values are either an explicit comma list,
``lin:start:stop:count`` or ``log:start:stop:count``.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .evolution import EvolutionParams
from .game_model import GameSpec, make_prisoners_dilemma
from .metrics import cooperation_report

DEFAULT_POPULATION = 100
DEFAULT_SELECTION = 0.1
DEFAULT_TRUST_THRESHOLD = 3
DEFAULT_CHECK_PROB = 0.25

_GAME_PARAMS = (
    "temptation",
    "reward",
    "punishment",
    "sucker",
    "payoff_scale",
    "check_cost",
    "expected_rounds",
)
_EVOLUTION_PARAMS = ("population", "selection_strength")
_TRUST_PARAMS = ("trust_threshold", "check_prob")
PARAM_NAMES = _GAME_PARAMS + _EVOLUTION_PARAMS + _TRUST_PARAMS

STRATEGY_ORDER = ("ALLC", "ALLD", "TFT", "TUC", "TUD")


@dataclass(frozen=True)
class SweepConfig:
    """Base parameters plus ordered sweep axes."""

    game: GameSpec
    population: int = DEFAULT_POPULATION
    selection_strength: float = DEFAULT_SELECTION
    trust_threshold: int = DEFAULT_TRUST_THRESHOLD
    check_prob: float = DEFAULT_CHECK_PROB
    axes: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name, values in self.axes:
            if name not in PARAM_NAMES:
                raise ConfigError(
                    f"unknown sweep axis {name!r}; valid names: {', '.join(PARAM_NAMES)}"
                )
            if name in seen:
                raise ConfigError(f"sweep axis {name!r} listed twice")
            if not values:
                raise ConfigError(f"sweep axis {name!r} has no values")
            seen.add(name)

    def base_parameters(self) -> dict[str, float]:
        g = self.game
        return {
            "temptation": g.temptation,
            "reward": g.reward,
            "punishment": g.punishment,
            "sucker": g.sucker,
            "payoff_scale": g.payoff_scale,
            "check_cost": g.check_cost,
            "expected_rounds": g.expected_rounds,
            "population": self.population,
            "selection_strength": self.selection_strength,
            "trust_threshold": self.trust_threshold,
            "check_prob": self.check_prob,
        }


def _epsilon_grid() -> tuple[float, ...]:
    return tuple(i / 20 for i in range(21))


def preset_config(name: str) -> SweepConfig:
    """Named sweep grids for the package's reference figures."""
    base = make_prisoners_dilemma()
    if name == "fig3":
        return SweepConfig(game=base, axes=(("check_cost", _epsilon_grid()),))
    if name == "fig4":
        scales = tuple(float(x) for x in np.logspace(-1.0, 3.0, 25))
        return SweepConfig(
            game=base,
            axes=(("expected_rounds", (20.0, 50.0)), ("payoff_scale", scales)),
        )
    if name == "fig5":
        probs = tuple(1.0 / v for v in (1, 2, 3, 4, 5, 8, 10, 15, 20, 25, 33, 50))
        return SweepConfig(
            game=base,
            axes=(("check_prob", probs), ("check_cost", _epsilon_grid())),
        )
    if name == "appendix_theta5":
        return SweepConfig(
            game=base, trust_threshold=5, axes=(("check_cost", _epsilon_grid()),)
        )
    if name == "appendix_theta10":
        return SweepConfig(
            game=base, trust_threshold=10, axes=(("check_cost", _epsilon_grid()),)
        )
    raise ConfigError(
        f"unknown preset {name!r}; valid presets: fig3, fig4, fig5, "
        "appendix_theta5, appendix_theta10"
    )


def _parse_values(text: str, key: str) -> tuple[float, ...]:
    text = text.strip()
    for prefix, spacer in (("lin:", np.linspace), ("log:", None)):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(":")
            if len(parts) != 3:
                raise ConfigError(
                    f"axis {key!r}: expected {prefix}start:stop:count, got {text!r}"
                )
            try:
                start, stop = float(parts[0]), float(parts[1])
                count = int(parts[2])
            except ValueError as exc:
                raise ConfigError(f"axis {key!r}: {exc}") from None
            if count < 1:
                raise ConfigError(f"axis {key!r}: count must be positive")
            if prefix == "log:":
                if start <= 0 or stop <= 0:
                    raise ConfigError(f"axis {key!r}: log spacing needs positive bounds")
                return tuple(
                    float(x) for x in np.logspace(np.log10(start), np.log10(stop), count)
                )
            return tuple(float(x) for x in np.linspace(start, stop, count))
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"axis {key!r}: {exc}") from None
    return values


def parse_config(path: str) -> SweepConfig:
    """Load a sweep configuration from an INI file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known = {"game", "evolution", "trust", "sweep"}
    stray = set(parser.sections()) - known
    if stray:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(stray))}")

    def _get(section, key, cast, default):
        if parser.has_option(section, key):
            try:
                return cast(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        return default

    for section, allowed in (
        ("game", set(_GAME_PARAMS)),
        ("evolution", set(_EVOLUTION_PARAMS)),
        ("trust", {"threshold", "check_prob"}),
    ):
        if parser.has_section(section):
            bad = set(parser.options(section)) - allowed
            if bad:
                raise ConfigError(
                    f"unknown keys in [{section}]: {', '.join(sorted(bad))}"
                )

    game = GameSpec(
        temptation=_get("game", "temptation", float, 2.0),
        reward=_get("game", "reward", float, 1.0),
        punishment=_get("game", "punishment", float, 0.0),
        sucker=_get("game", "sucker", float, -1.0),
        payoff_scale=_get("game", "payoff_scale", float, 1.0),
        check_cost=_get("game", "check_cost", float, 0.25),
        expected_rounds=_get("game", "expected_rounds", float, 50.0),
    )
    axes = []
    if parser.has_section("sweep"):
        for key in parser.options("sweep"):
            axes.append((key, _parse_values(parser.get("sweep", key), key)))
    return SweepConfig(
        game=game,
        population=_get("evolution", "population", int, DEFAULT_POPULATION),
        selection_strength=_get(
            "evolution", "selection_strength", float, DEFAULT_SELECTION
        ),
        trust_threshold=_get("trust", "threshold", int, DEFAULT_TRUST_THRESHOLD),
        check_prob=_get("trust", "check_prob", float, DEFAULT_CHECK_PROB),
        axes=tuple(axes),
    )


def _grid_points(config: SweepConfig):
    points = [()]
    for name, values in config.axes:
        points = [prior + ((name, v),) for prior in points for v in values]
    return points


def evaluate_point(config: SweepConfig, overrides: Sequence[tuple[str, float]]):
    """Run the full pipeline for one grid point and return its row dict."""
    settings = config.base_parameters()
    for name, value in overrides:
        settings[name] = value
    game = GameSpec(
        temptation=settings["temptation"],
        reward=settings["reward"],
        punishment=settings["punishment"],
        sucker=settings["sucker"],
        payoff_scale=settings["payoff_scale"],
        check_cost=settings["check_cost"],
        expected_rounds=settings["expected_rounds"],
    )
    params = EvolutionParams(
        population_size=int(settings["population"]),
        selection_strength=settings["selection_strength"],
    )
    report = cooperation_report(
        game,
        params,
        trust_threshold=int(settings["trust_threshold"]),
        check_prob=settings["check_prob"],
    )
    row = {f"param:{k}": v for k, v in settings.items()}
    masses = report.stationary_with.as_dict()
    for label in STRATEGY_ORDER:
        row[f"freq_{label}"] = masses[label]
    row["coop_with"] = report.with_trust
    row["coop_without"] = report.without_trust
    row["coop_delta"] = report.delta
    return row


def run_sweep(config: SweepConfig) -> list[dict]:
    """Evaluate every grid point, in deterministic grid order."""
    return [evaluate_point(config, point) for point in _grid_points(config)]


def sweep_columns(rows: Sequence[dict]) -> list[str]:
    params = sorted(k for k in rows[0] if k.startswith("param:"))
    outputs = [f"freq_{label}" for label in STRATEGY_ORDER]
    outputs += ["coop_with", "coop_without", "coop_delta"]
    return params + outputs


def format_value(value: float) -> str:
    """Shortest decimal string that round-trips the exact double."""
    return repr(float(value))


def write_csv(rows: Sequence[dict], stream: io.TextIOBase) -> None:
    columns = sweep_columns(rows)
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(format_value(row[c]) for c in columns) + "\n")
