import ast
import dataclasses
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trustevo.cli as cli
import trustevo.errors as errors
import trustevo.evolution as evolution
import trustevo.sweep as sweep
from trustevo.cli import _game_from_args, build_parser, main
from trustevo.errors import (
    ConfigError, DilemmaViolationError, NumericalError, ParameterDomainError,
)
from trustevo.evolution import EvolutionParams, fixation_probability
from trustevo.game_model import GameSpec, make_prisoners_dilemma
from trustevo.match_sim import monte_carlo_payoffs
from trustevo.metrics import cooperation_report
from trustevo.payoffs import payoff_matrix
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud
from trustevo.sweep import (
    SweepConfig,
    SweepTable,
    parse_config,
    preset_config,
    run_sweep,
    write_csv,
    write_rows,
)

GOLDEN = Path(__file__).parent / "data" / "fig3_golden.csv"
# sha256sum lines of the fig4, fig5 and appendix preset CSVs.
PRESET_HASHES = (Path(__file__).parent / "data" / "preset_sha256.txt").read_text().splitlines()
# Tab-separated lines: a command line, its exit code, the sha256 of its
# stdout and the repr of its stderr.
CLI_PINS = [
    line.split("\t")
    for line in (Path(__file__).parent / "data" / "cli_sha256.txt").read_text().splitlines()
]

# INI files that configparser itself refuses or misreads: a duplicate key, a
# duplicate section, no section header, a '%' in a value, a [DEFAULT]
# section, whose keys would otherwise leak into [sweep] as an axis, and a
# byte that is not UTF-8.
MALFORMED_INI = {
    "duplicate-key": b"[game]\ncheck_cost = 0.1\ncheck_cost = 0.2\n",
    "duplicate-section": b"[game]\nreward = 1.5\n[game]\nsucker = -0.5\n",
    "no-section-header": b"check_cost = 0.1\n",
    "percent": b"[game]\ncheck_cost = 5%\n",
    "default-section": b"[DEFAULT]\ncheck_cost = 0.3\n[sweep]\nreward = 1, 1.5\n",
    "not-utf8": b"[game]\ncheck_cost = 0.1\xff",
}


def rows_to_csv(rows):
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestPresets:
    def test_grid_sizes(self):
        assert len(run_sweep(preset_config("fig3"))) == 21
        for name, size in (("fig4", 50), ("fig5", 252)):
            config = preset_config(name)
            total = 1
            for _, values in config.axes:
                total *= len(values)
            assert total == size

    def test_appendix_presets_move_the_threshold(self):
        assert preset_config("appendix_theta5").trust_threshold == 5
        assert preset_config("appendix_theta10").trust_threshold == 10
        assert preset_config("fig3").trust_threshold == 3

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9")

    def test_fig4_grid_order_last_axis_fastest(self):
        config = preset_config("fig4")
        rows = run_sweep(config)
        assert [r["param:expected_rounds"] for r in rows[:3]] == [20.0, 20.0, 20.0]
        assert rows[0]["param:payoff_scale"] == pytest.approx(0.1)
        assert rows[24]["param:payoff_scale"] == pytest.approx(1000.0)
        assert rows[25]["param:expected_rounds"] == 50.0
        assert rows[25]["param:payoff_scale"] == pytest.approx(0.1)


class TestSweepConfigValidation:
    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            SweepConfig(game=make_prisoners_dilemma(), axes=(("stake", (1.0,)),))

    def test_duplicate_axis(self):
        with pytest.raises(ConfigError, match="listed twice"):
            SweepConfig(
                game=make_prisoners_dilemma(),
                axes=(("check_cost", (0.1,)), ("check_cost", (0.2,))),
            )

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="no values"):
            SweepConfig(game=make_prisoners_dilemma(), axes=(("check_cost", ()),))

    @pytest.mark.parametrize("name", ["population", "trust_threshold"])
    @pytest.mark.parametrize("value", [3.7, 10.5, float("nan"), float("inf")])
    def test_integer_axes_reject_fractions(self, name, value):
        """A fractional value would be truncated at evaluation but keep its
        unrounded label in the CSV."""
        with pytest.raises(ConfigError, match="takes integers"):
            SweepConfig(game=make_prisoners_dilemma(), axes=((name, (4.0, value)),))

    @pytest.mark.parametrize("name", ["population", "trust_threshold"])
    @pytest.mark.parametrize("value", [3.7, 10.5, float("nan"), float("inf")])
    def test_integer_base_values_reject_fractions(self, name, value):
        """A fractional base value would be truncated at evaluation but keep
        its unrounded label in the CSV."""
        with pytest.raises(ConfigError, match="takes integers"):
            SweepConfig(game=make_prisoners_dilemma(), **{name: value})

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"population": 10**400}, "population"),
            ({"trust_threshold": 10**400}, "trust_threshold"),
            ({"selection_strength": 10**400}, "selection_strength"),
            ({"check_prob": -(10**400)}, "check_prob"),
            ({"axes": (("check_cost", (0.1, 10**400)),)}, "check_cost"),
            ({"axes": (("population", (100, 10**400)),)}, "population"),
        ],
        ids=["population", "threshold", "selection", "check-prob", "cost-axis", "population-axis"],
    )
    def test_a_real_beyond_the_float_range_is_refused(self, kwargs, name):
        """Each value fills a float column, so an int no float can hold is
        refused by name before a conversion overflows on it."""
        message = f"^{name} must be within the float range, got -?1000"
        with pytest.raises(ConfigError, match=message):
            SweepConfig(**kwargs)

    def test_grid_size_is_bounded(self):
        """A grid is refused by its point count before any point runs."""
        axis = ("check_cost", tuple(np.linspace(0.0, 1.0, 400)))
        SweepConfig(axes=(axis, ("check_prob", tuple(np.linspace(0.1, 1.0, 250)))))
        with pytest.raises(ConfigError, match="120000 points"):
            SweepConfig(axes=(axis, ("check_prob", tuple(np.linspace(0.1, 1.0, 300)))))

    def test_an_array_or_list_axis_is_kept_as_a_tuple_of_its_values(self):
        """A numpy array axis is accepted, its values as Python floats, and a
        list axis leaves the config hashable; an int stays an int."""
        config = SweepConfig(axes=(("check_cost", np.linspace(0, 1, 5)), ("population", [10, 20])))
        assert config.axes == (
            ("check_cost", (0.0, 0.25, 0.5, 0.75, 1.0)), ("population", (10, 20))
        )
        assert [type(values[0]) for _, values in config.axes] == [float, int]
        hash(config)
        assert len(run_sweep(config)) == 10
        game = GameSpec(expected_rounds=4)
        with pytest.raises(DilemmaViolationError, match=r" \(sweep point temptation=0\.5\)$"):
            run_sweep(SweepConfig(game=game, axes=(("temptation", np.array([2.0, 0.5])),)))

    @pytest.mark.parametrize(
        "values, message",
        [
            (0.5, "takes a sequence of numbers, got 0.5"),
            (np.float64(0.5), "takes a sequence of numbers"),
            ("0.1, 0.2", "takes a sequence of numbers, got '0.1, 0.2'"),
            (((0.1, 0.2),), r"holds \(0\.1, 0\.2\), which is not a number"),
            (np.ones((2, 2)), "holds array"),
            ((0.1, "0.2"), "holds '0.2', which is not a number"),
            ((0.1, None), "holds None, which is not a number"),
        ],
        ids=["scalar", "numpy-scalar", "string", "nested", "2-d-array", "string-value", "none"],
    )
    def test_an_axis_that_is_not_a_flat_sequence_of_numbers_is_refused(self, values, message):
        with pytest.raises(ConfigError, match=f"sweep axis 'check_cost' {message}"):
            SweepConfig(axes=(("check_cost", values),))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("population", "100"),
            ("population", [100]),
            ("population", True),
            ("selection_strength", True),
            ("trust_threshold", True),
            ("check_prob", None),
            ("check_prob", np.bool_(False)),
        ],
    )
    def test_a_base_value_that_is_not_a_number_is_refused(self, name, value):
        """As on an axis: a bool is not swept as 0 or 1."""
        with pytest.raises(ConfigError, match=f"^{name} holds {re.escape(repr(value))}, which"):
            SweepConfig(**{name: value})

    def test_integer_axes_accept_whole_floats(self):
        config = SweepConfig(
            game=make_prisoners_dilemma(), axes=(("trust_threshold", (2.0, 5.0)),)
        )
        assert [row["param:trust_threshold"] for row in run_sweep(config)] == [2.0, 5.0]


class TestSweepEvaluation:
    def test_rows_match_direct_pipeline(self):
        """The check_cost=0.25 grid point reproduces the default stationary."""
        rows = run_sweep(preset_config("fig3"))
        row = next(r for r in rows if r["param:check_cost"] == 0.25)
        assert row["freq_TUC"] == pytest.approx(0.39952490999747303, abs=1e-12)
        assert row["coop_delta"] == pytest.approx(0.2470192353819018, abs=1e-12)

    def test_csv_is_byte_identical_between_runs(self):
        config = preset_config("fig3")
        first = rows_to_csv(run_sweep(config))
        second = rows_to_csv(run_sweep(config))
        assert first == second

    def test_golden_regression(self):
        """Current output agrees with the frozen reference grid."""
        produced = rows_to_csv(run_sweep(preset_config("fig3")))
        got_header, got_rows = parse_csv(produced)
        want_header, want_rows = parse_csv(GOLDEN.read_text())
        assert got_header == want_header
        assert len(got_rows) == len(want_rows)
        for got, want in zip(got_rows, want_rows):
            for column in got_header:
                assert float(got[column]) == pytest.approx(
                    float(want[column]), abs=1e-8
                ), column

    @pytest.mark.parametrize("preset", [line.split()[1][:-4] for line in PRESET_HASHES])
    def test_preset_csv_hashes(self, preset):
        """Every other preset's CSV is byte-identical to its pinned sha256."""
        pinned = dict(line.split()[::-1] for line in PRESET_HASHES)
        produced = rows_to_csv(run_sweep(preset_config(preset))).encode()
        assert hashlib.sha256(produced).hexdigest() == pinned[f"{preset}.csv"]

    @settings(max_examples=20, deadline=None)
    @given(
        populations=st.lists(
            st.sampled_from((2.0, 3.0, 10.0, 100.0, 1000.0)), min_size=2, max_size=3, unique=True
        ),
        betas=st.lists(st.floats(0.0, 0.1), min_size=1, max_size=2, unique=True),
        costs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True),
        probs=st.lists(st.sampled_from((0.0, 1e-9, 0.3, 1.0)), min_size=1, max_size=2, unique=True),
        order=st.permutations(range(4)),
        chunk=st.integers(1, 20_000),
    )
    def test_stacked_rows_equal_single_reports(
        self, populations, betas, costs, probs, order, chunk
    ):
        """Stacked sweep rows equal per-point ``cooperation_report`` bit for
        bit, over grids of mixed N whose sums span several kernel slices,
        each within the slice budget."""
        axes = (
            ("population", tuple(populations)),
            ("selection_strength", tuple(betas)),
            ("check_cost", tuple(costs)),
            ("check_prob", tuple(probs)),
        )
        config = SweepConfig(game=GameSpec(expected_rounds=7.5), axes=tuple(axes[i] for i in order))
        with mock.patch.object(evolution, "_CHUNK_ELEMENTS", chunk), mock.patch.object(
            evolution, "pair_fixation", wraps=evolution.pair_fixation
        ) as kernel:
            rows = run_sweep(config)
        assert kernel.call_count > 1
        for (pairs, params), _ in kernel.call_args_list:
            assert len(pairs) <= max(1, chunk // (2 * (params.population_size - 1)))
        for row in rows:
            game = dataclasses.replace(config.game, check_cost=row["param:check_cost"])
            params = EvolutionParams(
                int(row["param:population"]), row["param:selection_strength"]
            )
            report = cooperation_report(game, params, 3, row["param:check_prob"])
            expected = [
                *report.stationary_with.probabilities, report.with_trust,
                report.without_trust, report.delta,
            ]
            got = [row[column] for column in rows.columns if not column.startswith("param:")]
            assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]

    def test_each_distinct_game_and_pool_is_built_once(self):
        """fig5's 252 points, one stack, hold 21 games (one per check cost), each
        checked in one elementwise call over the stack's columns, and 12 pools
        (one per check probability), each built once."""
        config = preset_config("fig5")
        with mock.patch.object(
            sweep, "check_game", wraps=sweep.check_game
        ) as checks, mock.patch.object(sweep, "strategy_pool", wraps=sweep.strategy_pool) as pools:
            rows = run_sweep(config)
        (call,) = checks.call_args_list
        games = set(zip(*(column.tolist() for column in call.args)))
        assert (len(rows), len(call.args[0]), len(games), pools.call_count) == (252, 252, 21, 12)

    @pytest.mark.parametrize(
        "preset, distinct",
        [
            ("fig3", 186),
            ("fig4", 450),
            ("fig5", 1036),
            ("appendix_theta5", 186),
            ("appendix_theta10", 182),
        ],
    )
    def test_each_distinct_pair_is_summed_once(self, preset, distinct):
        """The fixation kernel sums each distinct 2 x 2 pair sub-table of a
        sweep once: fig5's 252 points hold 2,520 pairs but 1,036 sub-tables."""
        with mock.patch.object(evolution, "pair_fixation", wraps=evolution.pair_fixation) as kernel:
            run_sweep(preset_config(preset))
        assert sum(len(call.args[0]) for call in kernel.call_args_list) == distinct

    def test_a_refused_last_point_is_found_by_halving(self):
        """Of 2,000 points only the last, a stiff chain at stake 100, is
        refused: the sweep halves each refused stack, first half first, so it
        sums at most 3n points in at most 2 ceil(log2 n) + 1 stacks, the last
        of them that point alone."""
        scales = (*np.linspace(0.5, 1.5, 1999).tolist(), 100.0)
        config = SweepConfig(
            game=GameSpec(expected_rounds=4), population=100, selection_strength=0.1,
            axes=(("payoff_scale", scales),),
        )
        with mock.patch.object(sweep, "_evaluate", wraps=sweep._evaluate) as evaluate:
            with pytest.raises(NumericalError, match=r"\(sweep point payoff_scale=100\.0\)$"):
                run_sweep(config)
        stacks = [call.args[1:3] for call in evaluate.call_args_list]  # (start, stop) rows
        assert stacks[-1] == (1999, 2000) and scales[1999] == 100.0
        assert sum(stop - start for start, stop in stacks) <= 3 * len(scales)
        assert len(stacks) <= 2 * math.ceil(math.log2(len(scales))) + 1

    @pytest.mark.parametrize(
        "game, axes, error, point",
        [
            (
                GameSpec(expected_rounds=4),
                (("payoff_scale", (1.0, 100.0)), ("temptation", (2.0, 0.5))),
                DilemmaViolationError, "payoff_scale=1.0, temptation=0.5",
            ),
            # The whole stack stops at the bad game of its third point, while
            # its second point, the stiff chain, fails only at the solve.
            (
                GameSpec(expected_rounds=4),
                (("temptation", (2.0, 0.5)), ("payoff_scale", (1.0, 100.0))),
                NumericalError, "temptation=2.0, payoff_scale=100.0",
            ),
            (GameSpec(expected_rounds=4, payoff_scale=100.0), (), NumericalError, "without axes"),
            # The scaled table overflows to inf, which payoff_tables names.
            (GameSpec(payoff_scale=1e308), (), NumericalError, "without axes"),
            (GameSpec(), (("population", (100.0, 1e20)),), ParameterDomainError, "population=1e+20"),
        ],
    )
    def test_a_refusal_names_the_first_refused_point(self, game, axes, error, point):
        with pytest.raises(error, match=rf" \(sweep point {re.escape(point)}\)$"):
            run_sweep(SweepConfig(game=game, axes=axes))

    @settings(max_examples=25, deadline=None)
    @given(
        scales=st.lists(
            st.sampled_from(
                [1.0 + i / 64 for i in range(24)] + [102.0, 104.0]  # passing
                + [100.0, 101.0, 103.0, 107.0, 108.0]  # stiff chains at rounds 4
                + [-1.0, -2.0]  # games refused when built, before any chain
            ),
            min_size=1, max_size=32, unique=True,
        )
    )
    def test_a_refusal_names_the_point_a_scan_of_single_points_refuses_first(self, scales):
        game = GameSpec(expected_rounds=4)
        expected = None
        for scale in scales:
            try:
                run_sweep(SweepConfig(game=game, axes=(("payoff_scale", (scale,)),)))
            except (ValueError, NumericalError) as exc:
                expected = type(exc), str(exc)
                break
        with mock.patch.object(sweep, "_evaluate", wraps=sweep._evaluate) as evaluate:
            try:
                rows = run_sweep(SweepConfig(game=game, axes=(("payoff_scale", tuple(scales)),)))
            except (ValueError, NumericalError) as exc:
                assert (type(exc), str(exc)) == expected
            else:
                assert expected is None and len(rows) == len(scales)
        stacks = [call.args[1:3] for call in evaluate.call_args_list]  # (start, stop) rows
        assert sum(stop - start for start, stop in stacks) <= 3 * len(scales)
        assert len(stacks) <= 2 * math.ceil(math.log2(len(scales))) + 1

    @pytest.mark.parametrize(
        "axes, point", [((), "without axes"), ((("expected_rounds", (4, 5)),), "expected_rounds=4")]
    )
    def test_an_int_input_is_refused_as_an_int(self, axes, point):
        """A refusal prints the point's own values, not their float columns."""
        config = SweepConfig(game=GameSpec(expected_rounds=4), trust_threshold=5, axes=axes)
        message = f"trust threshold 5 must be below the expected rounds 4 (sweep point {point})"
        with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
            run_sweep(config)

    @settings(max_examples=60, deadline=None)
    @given(
        evolution=st.sampled_from(
            [{}, {"population": 1}, {"population": 0}, {"population": 2_000_000},
             {"selection_strength": -0.1}, {"selection_strength": math.nan},
             {"selection_strength": math.inf}]
        ),
        other=st.sampled_from(
            [{}, {"trust_threshold": 4}, {"trust_threshold": 60},
             {"check_prob": 1.5}, {"check_prob": math.nan}, {"expected_rounds": 3},
             {"expected_rounds": 2.5}, {"payoff_scale": 100.0}, {"payoff_scale": 1e308}]
        ),
    )
    def test_a_refused_point_raises_the_error_of_its_cooperation_report(self, evolution, other):
        """Up to two faults, a bad N or beta plus a bad theta, p, rounds or
        stake: the sweep raises what ``cooperation_report`` raises at the
        same values, N or beta first, as the command line does."""
        point = {"expected_rounds": 4, "payoff_scale": 1.0, "population": 100,
                 "selection_strength": 0.1, "trust_threshold": 3, "check_prob": 0.25,
                 **evolution, **other}
        game = GameSpec(expected_rounds=point.pop("expected_rounds"),
                        payoff_scale=point.pop("payoff_scale"))
        expected = None
        try:
            params = EvolutionParams(point["population"], point["selection_strength"])
            cooperation_report(game, params, point["trust_threshold"], point["check_prob"])
        except (ValueError, NumericalError) as exc:
            expected = type(exc), f"{exc} (sweep point without axes)"
        try:
            rows = run_sweep(SweepConfig(game=game, **point))
        except (ValueError, NumericalError) as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert expected is None and len(rows) == 1

    def test_a_long_run_is_stacked_in_bounded_blocks(self):
        """A 20,000-point run at one N and beta holds at most a block of
        points' tables, solves and byte match beside its rows: 36 MiB above
        the rows as one stack, about 6 MiB in blocks of 4,096 points."""
        import tracemalloc

        config = SweepConfig(axes=(("check_cost", tuple(i / 20_000 for i in range(20_000))),))
        tracemalloc.start()
        try:
            rows = run_sweep(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 20_000
        assert peak - kept < 8 * 2**20

    def test_the_table_is_one_array_and_its_csv_is_written_in_blocks(self):
        """A 10,000-point grid keeps one float64 array (1.5 MB under
        tracemalloc, against 6.7 MB of row dicts), and writing its CSV peaks
        at a block of rows, not the whole text."""
        import tracemalloc

        class Sink:
            def write(self, text):
                pass

        config = SweepConfig(axes=(("check_cost", tuple(i / 10_000 for i in range(10_000))),))
        tracemalloc.start()
        try:
            table = run_sweep(config)
            kept, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_csv(table, Sink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.values.shape == (10_000, 19) and table.values.dtype == np.float64
        assert kept < 2e6
        assert peak - kept < 5e6

    def test_a_non_finite_table_value_writes_nothing(self, tmp_path):
        table = run_sweep(preset_config("fig3"))
        values = table.values.copy()
        values[1, 14] = math.nan
        buffer, target = io.StringIO(), tmp_path / "out.csv"
        for out in (buffer, str(target)):
            with pytest.raises(
                NumericalError, match="^output line 3 holds the non-finite value nan$"
            ):
                write_csv(SweepTable(table.columns, values), out)
        assert buffer.getvalue() == ""
        assert not target.exists()

    def test_rows_are_mappings_read_from_the_array(self):
        table = run_sweep(preset_config("fig4"))
        assert len(table) == 50 and len(list(table)) == 50
        assert list(table[-1].values()) == table.values[49].tolist()
        assert table[25:27].values.tolist() == table.values[25:27].tolist()
        with pytest.raises(IndexError):
            table[50]

    def test_column_order_is_stable(self):
        columns = list(run_sweep(preset_config("fig3")).columns)
        params = [c for c in columns if c.startswith("param:")]
        assert params == sorted(params)
        assert columns[len(params):] == [
            "freq_ALLC",
            "freq_ALLD",
            "freq_TFT",
            "freq_TUC",
            "freq_TUD",
            "coop_with",
            "coop_without",
            "coop_delta",
        ]


def format_value(value):
    """One number's CSV cell, as ``write_rows`` writes it."""
    buffer = io.StringIO()
    write_rows([[value]], buffer)
    return buffer.getvalue().removesuffix("\n")


class TestRowWriter:
    def test_round_trip(self):
        for value in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -0.27):
            assert float(format_value(value)) == value

    def test_short_values_stay_short(self):
        assert format_value(0.25) == "0.25"
        assert format_value(50.0) == "50.0"

    @pytest.mark.parametrize("value", [7, np.float32(0.1), -0.0])
    def test_other_numbers_print_as_python_floats(self, value):
        assert format_value(value) == repr(float(value))

    def test_strings_as_they_are_and_numbers_formatted(self):
        buffer = io.StringIO()
        write_rows([["", "A"], ["A", 0.25], ["n", "7", np.float64(50)]], buffer)
        assert buffer.getvalue() == ",A\nA,0.25\nn,7,50.0\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_writes_nothing(self, bad, tmp_path, capsys):
        target = tmp_path / "out.csv"
        for out in (None, str(target)):
            with pytest.raises(NumericalError, match="output line 2"):
                write_rows([["metric", "value"], ["x", bad]], out)
        assert capsys.readouterr().out == ""
        assert not target.exists()

    def test_a_string_nan_is_text(self):
        buffer = io.StringIO()
        write_rows([["nan"]], buffer)
        assert buffer.getvalue() == "nan\n"


class TestConfigParsing:
    INI = """
[game]
check_cost = 0.1
expected_rounds = 20

[evolution]
population = 60
selection_strength = 0.2

[trust]
threshold = 5
check_prob = 0.5

[sweep]
check_cost = 0.0, 0.1, 0.2
payoff_scale = log:0.1:1000:25
"""

    def write(self, tmp_path, text=None):
        path = tmp_path / "sweep.ini"
        text = self.INI if text is None else text
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return str(path)

    def test_round_trip(self, tmp_path):
        config = parse_config(self.write(tmp_path))
        assert config.game.check_cost == 0.1
        assert config.game.expected_rounds == 20.0
        assert config.population == 60
        assert config.selection_strength == 0.2
        assert config.trust_threshold == 5
        assert config.check_prob == 0.5
        assert config.axes[0] == ("check_cost", (0.0, 0.1, 0.2))
        name, scales = config.axes[1]
        assert name == "payoff_scale"
        assert np.allclose(scales, np.logspace(-1, 3, 25))

    def test_whole_float_base_values_parse_to_ints(self, tmp_path):
        path = self.write(
            tmp_path, "[evolution]\npopulation = 100.0\n[trust]\nthreshold = 3.0\n"
        )
        config = parse_config(path)
        assert config.trust_threshold == 3 and type(config.trust_threshold) is int
        assert config.population == 100 and type(config.population) is int

    def test_every_base_parameter_once(self, tmp_path):
        """Each INI key lands on its own field, under its own section."""
        path = self.write(tmp_path, """
[game]
temptation = 3.5
reward = 2.5
punishment = 0.5
sucker = -0.5
payoff_scale = 4.0
check_cost = 0.3
expected_rounds = 30

[evolution]
population = 40
selection_strength = 0.05

[trust]
threshold = 6
check_prob = 0.6
""")
        game = GameSpec(
            temptation=3.5, reward=2.5, punishment=0.5, sucker=-0.5,
            payoff_scale=4.0, check_cost=0.3, expected_rounds=30.0,
        )
        assert parse_config(path) == SweepConfig(
            game=game, population=40, selection_strength=0.05,
            trust_threshold=6, check_prob=0.6,
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = self.write(tmp_path, b"\xef\xbb\xbf[game]\ncheck_cost = 0.1\n")
        assert parse_config(path).game.check_cost == 0.1

    def test_linear_spacing(self, tmp_path):
        path = self.write(tmp_path, "[sweep]\nreward = lin:1:2:5\n")
        config = parse_config(path)
        assert config.axes == (("reward", (1.0, 1.25, 1.5, 1.75, 2.0)),)

    def test_axis_count_limit_is_inclusive(self, tmp_path):
        path = self.write(tmp_path, "[sweep]\ncheck_cost = lin:0:1:100000\n")
        assert len(parse_config(path).axes[0][1]) == 100_000

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/sweep.ini")

    def test_unknown_section(self, tmp_path):
        for body in ("[grid]\nx = 1\n", "[output]\nseed = 9\n"):
            path = self.write(tmp_path, body)
            with pytest.raises(ConfigError, match="unknown config sections"):
                parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "[game]\nstake = 2\n")
        with pytest.raises(ConfigError, match=r"unknown keys in \[game\]"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = self.write(tmp_path, "[game]\nreward = high\n")
        with pytest.raises(ConfigError, match=r"\[game\] reward"):
            parse_config(path)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("lin:a:1:3", "could not convert string to float: 'a'"),
            ("log:1:10:x", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_spaced_axis_bounds_and_count_must_be_numbers(self, spec, message, tmp_path):
        path = self.write(tmp_path, f"[sweep]\ncheck_cost = {spec}\n")
        with pytest.raises(ConfigError) as refused:
            parse_config(path)
        assert str(refused.value) == f"axis 'check_cost': {message}"
        assert main(["sweep", "--config", path]) == 1

    def test_bad_axis_specs(self, tmp_path):
        for body in (
            "[sweep]\ncheck_cost = lin:0:1\n",
            "[sweep]\ncheck_cost = log:0:1:5\n",
            "[sweep]\ncheck_cost = lin:0:1:0\n",
            "[sweep]\ncheck_cost = lin:0:1:100001\n",
            "[sweep]\ncheck_cost = log:1:2:100001\n",
            "[sweep]\ncheck_cost = 0.1, x\n",
            "[sweep]\ntrust_threshold = 3.7\n",
            "[sweep]\npopulation = 10.5\n",
            "[trust]\nthreshold = 3.7\n",
            "[evolution]\npopulation = 10.5\n",
            *MALFORMED_INI.values(),
        ):
            with pytest.raises(ConfigError):
                parse_config(self.write(tmp_path, body))


@pytest.mark.parametrize("command, code, digest, stderr", CLI_PINS, ids=[p[0] for p in CLI_PINS])
def test_cli_bytes_are_pinned(command, code, digest, stderr, capsys):
    """Each pinned command keeps its stdout bytes, stderr and exit code."""
    assert main(shlex.split(command)) == int(code)
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ast.literal_eval(stderr)


@pytest.mark.parametrize("command", ["payoff-matrix", "coop-report --rounds 4 --payoff-scale 100"])
def test_the_module_runs_as_a_process(command):
    """``python -m trustevo`` in a child process: the exit code that reaches
    the shell, the stdout bytes and the stderr are the pinned ones."""
    code, digest, stderr = next(pin[1:] for pin in CLI_PINS if pin[0] == command)
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, "-m", "trustevo", *shlex.split(command)], capture_output=True, env=env
    )
    assert child.returncode == int(code)
    assert hashlib.sha256(child.stdout).hexdigest() == digest
    assert child.stderr.decode() == ast.literal_eval(stderr)


class TestCliTables:
    def test_payoff_matrix_default(self, capsys):
        assert main(["payoff-matrix"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",ALLC,ALLD,TFT,TUC,TUD"
        assert len(lines) == 6
        tft_row = lines[3].split(",")
        assert tft_row[0] == "TFT"
        assert float(tft_row[2]) == pytest.approx(-0.27, abs=1e-15)

    def test_payoff_matrix_three_strategy_set(self, capsys):
        assert main(["payoff-matrix", "--set", "three"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",ALLC,ALLD,TFT"
        assert len(lines) == 4

    def test_fixation(self, capsys):
        assert main(["fixation", "tuc", "alld"]) == 0
        out = capsys.readouterr().out.strip()
        values = payoff_matrix(
            (ALLC, ALLD, TFT, tuc(3, 0.25), tud(3)), make_prisoners_dilemma()
        ).values
        expected = fixation_probability(values, 3, 1, EvolutionParams(100, 0.1))
        assert float(out) == expected

    def test_stationary_frozen_defaults(self, capsys):
        assert main(["stationary"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "strategy,probability"
        got = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert got["TUC"] == pytest.approx(0.39952490999747303, abs=1e-12)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_three_strategy_set(self, capsys):
        assert main(["stationary", "--set", "three"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_coop_report(self, capsys):
        assert main(["coop-report"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {l.split(",")[0]: l.split(",")[1] for l in lines[1:]}
        assert float(got["coop_delta"]) == pytest.approx(
            0.2470192353819018, abs=1e-12
        )
        assert set(got) == {
            "coop_with", "coop_without", "coop_delta",
            "freq_ALLC", "freq_ALLD", "freq_TFT", "freq_TUC", "freq_TUD",
        }

    def test_out_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "matrix.csv"
        assert main(["payoff-matrix", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith(",ALLC")


GAME_COMMANDS = {
    "payoff-matrix": [],
    "fixation": ["TUC", "ALLD"],
    "stationary": [],
    "coop-report": [],
    "simulate": ["TUC", "TUD"],
}


class TestCliOptions:
    @pytest.mark.parametrize("command", GAME_COMMANDS)
    def test_defaults_come_from_the_library(self, command):
        args = build_parser().parse_args([command, *GAME_COMMANDS[command]])
        game = make_prisoners_dilemma()
        assert _game_from_args(args) == game
        for name, value in dataclasses.asdict(game).items():
            assert getattr(args, name) == value, name
        config = SweepConfig()
        assert (args.trust_threshold, args.check_prob) == (
            config.trust_threshold, config.check_prob,
        )
        if command not in ("payoff-matrix", "simulate"):
            assert (args.population, args.selection_strength) == (
                config.population, config.selection_strength,
            )

    @pytest.mark.parametrize("command", GAME_COMMANDS)
    def test_help_names_the_game_options(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for text in (
            "--rounds ROUNDS",
            "--payoff-scale PAYOFF_SCALE",
            "stake scale on the table",
            "cost of observing a round",
            "expected rounds per match",
        ):
            assert text in out

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_help_without_game_options(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--rounds" not in capsys.readouterr().out


class TestCliSweep:
    def test_preset_to_file_matches_golden(self, tmp_path):
        target = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(target)]) == 0
        assert target.read_bytes() == GOLDEN.read_bytes()

    def test_config_file_sweep(self, tmp_path, capsys):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\ncheck_cost = 0.0, 0.25\n")
        assert main(["sweep", "--config", str(path)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2
        assert float(rows[1]["freq_TUC"]) == pytest.approx(
            0.39952490999747303, abs=1e-12
        )

    def test_preset_and_config_are_mutually_exclusive(self, capsys):
        assert main(["sweep", "--preset", "fig3", "--config", "x.ini"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliSimulate:
    def test_single_match_trace(self, capsys):
        assert main(["simulate", "ALLC", "ALLD", "--rounds", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "round,action_a,action_b,checked_a,checked_b,payoff_a,payoff_b"
        assert len(lines) == 6
        assert lines[1] == "1,C,D,0,0,-1.0,2.0"

    def test_monte_carlo_summary_matches_library_call(self, capsys):
        assert main(["simulate", "TUC", "TUD", "--samples", "200", "--seed", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {l.split(",")[0]: l.split(",")[1] for l in lines[1:]}
        direct = monte_carlo_payoffs(
            tuc(3, 0.25), tud(3), make_prisoners_dilemma(), samples=200, seed=4
        )
        assert float(got["mean_a"]) == direct.mean_a
        assert float(got["stderr_b"]) == direct.stderr_b
        assert got["samples"] == "200"

    def test_convention_flag(self, capsys):
        assert main([
            "simulate", "TUC", "TUD",
            "--check-prob", "1.0", "--convention", "every_check",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        catch_round = lines[4].split(",")
        assert catch_round[5] == "-1.25"

    def test_bad_sample_count(self, capsys):
        assert main(["simulate", "ALLC", "ALLD", "--samples", "0"]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seed", "-1"],
            ["--seed", "-1", "--samples", "5"],
            ["--samples", "-3"],
        ],
    )
    def test_bad_seed_or_count_is_an_error_line(self, extra, capsys):
        assert main(["simulate", "TUC", "TUD", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--rounds", "1e12"], "rounds must be at most 1000000, got 1000000000000"),
            (["--rounds", "1000001", "--samples", "3"], "rounds must be at most 1000000, got 1000001"),
            (["--samples", "1000000000000"], "samples must be at most 10000000, got 1000000000000"),
        ],
    )
    def test_sizes_past_their_bounds_are_an_error_line(self, extra, message, capsys):
        """Refused before any draw: nothing near the bounds is played."""
        assert main(["simulate", "ALLC", "ALLD", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestCliErrors:
    def test_unknown_command(self, capsys):
        assert main(["nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_command(self, capsys):
        assert main([]) == 1

    def test_invalid_game_table(self, capsys):
        assert main(["payoff-matrix", "--reward", "5"]) == 1
        assert "temptation > reward" in capsys.readouterr().err

    def test_invalid_selection_strength(self, capsys):
        assert main(["stationary", "--selection", "-1"]) == 1

    def test_unknown_strategy_label(self, capsys):
        assert main(["fixation", "GRIM", "ALLD"]) == 1
        assert "unknown strategy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["payoff-matrix", "--check-cost", "nan"],
            ["payoff-matrix", "--payoff-scale", "inf"],
            ["payoff-matrix", "--rounds", "inf"],
            ["payoff-matrix", "--temptation", "nan"],
            ["fixation", "TUC", "ALLD", "--check-cost", "nan"],
            ["stationary", "--sucker=-inf"],
            ["simulate", "TUC", "TUD", "--rounds", "inf"],
            ["coop-report", "--check-cost", "nan"],
        ],
    )
    def test_non_finite_game_inputs(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_non_finite_sweep_value(self, tmp_path, capsys):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\ncheck_cost = 0.1, nan\n")
        assert main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("body", MALFORMED_INI.values(), ids=MALFORMED_INI)
    def test_malformed_config_is_an_error_line(self, body, tmp_path, capsys):
        path = tmp_path / "sweep.ini"
        path.write_bytes(body)
        assert main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, ini",
        [
            (["coop-report", "--population", str(10**20)], None),
            (["fixation", "TUC", "ALLD", "--population", str(10**20)], None),
            (["sweep", "--config"], "[evolution]\npopulation = 1e20\n"),
        ],
    )
    def test_a_population_too_large_to_sum_is_an_error_line(self, argv, ini, tmp_path, capsys):
        if ini is not None:
            (tmp_path / "sweep.ini").write_text(ini)
            argv = [*argv, str(tmp_path / "sweep.ini")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: population_size must be at most 1000000, got 10{20}"
            r"( \(sweep point without axes\))?\n",
            captured.err,
        )

    def test_unwritable_output_path(self, capsys):
        assert main(["payoff-matrix", "--out", "/nonexistent/dir/x.csv"]) == 1

    def test_numerical_failures_exit_two(self, capsys, monkeypatch):
        import trustevo.cli as cli
        from trustevo.errors import NumericalError

        def boom():
            raise NumericalError("stationary solve untrustworthy")

        monkeypatch.setattr(cli, "run_oracle_verification", boom)
        assert main(["verify"]) == 2
        assert "numerical error:" in capsys.readouterr().err


class TestCliNonFinite:
    """A NaN or infinite result exits 2 with nothing on stdout."""

    def test_overflowing_selection_gives_the_limit(self, capsys):
        assert main(["fixation", "TUC", "ALLD", "--selection", "1e308"]) == 0
        assert capsys.readouterr() == ("0.0\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["payoff-matrix", "--payoff-scale", "1e308"], r"\(ALLC, TUD\) overflowed to nan"),
            (["coop-report", "--payoff-scale", "1e308"], r"\(ALLC, TUD\) overflowed to nan"),
            (
                ["payoff-matrix", "--payoff-scale", "1e300", "--rounds", "1e10"],
                r"entry \(ALLC, TUD\) overflowed to -inf",
            ),
            (
                ["coop-report", "--payoff-scale", "1e300", "--rounds", "1e10"],
                r"entry \(ALLC, TUD\) overflowed to -inf",
            ),
            (
                ["simulate", "TUC", "TUD", "--payoff-scale", "1e308", "--samples", "10"],
                "Monte Carlo payoff totals are not finite",
            ),
            (["simulate", "TUC", "TUD", "--payoff-scale", "1e308"], "non-finite value inf"),
            (["stationary", "--selection", "1e308"], "stationary solve failed"),
            *(
                (
                    [*command, "--payoff-scale", "1e306"],
                    r"payoff entries beyond 8\.99e\+305 overflow fixation sums at N=100",
                )
                for command in (["coop-report"], ["stationary"], ["fixation", "TUC", "ALLD"])
            ),
        ],
    )
    def test_exit_two_with_empty_stdout(self, argv, message, capsys, tmp_path):
        target = tmp_path / "out.csv"
        for out in ([], ["--out", str(target)]):
            assert main([*argv, *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("numerical error:")
            assert re.search(message, captured.err)
        assert not target.exists()


ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


class TestExitCodes:
    def test_every_error_class_is_an_input_or_a_numerical_error(self):
        assert len(ERROR_CLASSES) >= 7
        for cls in ERROR_CLASSES:
            assert issubclass(cls, (errors.InputError, errors.NumericalError)), cls.__name__

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_code(self, error, capsys, monkeypatch):
        def boom():
            raise error("refused")

        monkeypatch.setattr(cli, "run_oracle_verification", boom)
        code = main(["verify"])
        if issubclass(error, errors.InputError):
            assert (code, capsys.readouterr()) == (1, ("", "error: refused\n"))
        else:
            assert (code, capsys.readouterr()) == (2, ("", "numerical error: refused\n"))

    def test_a_value_error_in_a_sweep_is_not_a_refused_point(self, monkeypatch):
        """Only the package's errors name a sweep point; a plain ValueError is
        a fault, and escapes as raised."""
        def fault(rows):
            raise ValueError("fault")

        monkeypatch.setattr(sweep, "_fill", fault)
        with pytest.raises(ValueError, match="^fault$"):
            run_sweep(preset_config("fig3"))


class TestCliRefusedSweepPoint:
    def test_a_sweep_point_is_refused_as_coop_report_refuses_it(self, tmp_path, capsys):
        """Population 1 and threshold 60 break two rules; both commands name
        the population, with one exit code."""
        code = main(["coop-report", "--population", "1", "--trust-threshold", "60"])
        report = capsys.readouterr()
        path = tmp_path / "sweep.ini"
        path.write_text("[evolution]\npopulation = 1\n[trust]\nthreshold = 60\n")
        assert main(["sweep", "--config", str(path)]) == code == 1
        swept = capsys.readouterr()
        assert report.out == swept.out == ""
        assert report.err == "error: population_size must be an integer >= 2, got 1\n"
        assert swept.err == report.err.replace("\n", " (sweep point without axes)\n")

    def test_an_overflowed_stake_is_one_line(self, tmp_path, capsys):
        """The error line alone, with no RuntimeWarning written before it."""
        path = tmp_path / "stake.ini"
        path.write_text("[game]\npayoff_scale = 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", str(path)]) == 2
        assert caught == []
        assert capsys.readouterr() == (
            "",
            "numerical error: payoff entry (ALLC, TUD) overflowed to nan (sweep point without axes)\n",
        )

    def test_the_first_refused_point_is_named(self, tmp_path, capsys):
        """A stiff chain at stake 100 is refused; the error names that point."""
        path = tmp_path / "stiff.ini"
        path.write_text(
            "[game]\nexpected_rounds = 4\n[evolution]\npopulation = 100\n"
            "selection_strength = 0.1\n[trust]\nthreshold = 3\n"
            "[sweep]\npayoff_scale = 1, 100\n"
        )
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: stationary solve untrustworthy")
        assert captured.err.rstrip().endswith("(sweep point payoff_scale=100.0)")

    def test_a_refused_game_is_named(self, tmp_path, capsys):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\ncheck_cost = 0.1, 0.2\ntemptation = 2, 0.5\n")
        assert main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(
            "(sweep point check_cost=0.1, temptation=0.5)"
        )


class TestCliVerify:
    def test_verify_reports_ok(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: ")
        assert "17550/17550" in out

    def test_verify_failure_exits_two(self, capsys, monkeypatch):
        import trustevo.cli as cli
        from trustevo.verification import OracleReport

        monkeypatch.setattr(
            cli,
            "run_oracle_verification",
            lambda: OracleReport(comparisons=10, failures=1, worst_tolerance_ratio=2.0),
        )
        assert main(["verify"]) == 2
        assert capsys.readouterr().out.startswith("FAIL")

    def test_summary_appends_the_location(self):
        from trustevo.verification import OracleReport

        report = OracleReport(comparisons=10, failures=1, worst_tolerance_ratio=2.0)
        line = (
            "FAIL: 9/10 oracle comparisons within 1e-10 relative tolerance "
            "(worst deviation at 2.000e+00 of tolerance)"
        )
        assert report.summary() == line
        where = "TUC v TUD, theta=3, p=0.1, rounds=20, cost=0.25, scale=1.0"
        located = dataclasses.replace(report, worst_at=where)
        assert located.summary() == f"{line} in {where}"

    def test_a_nan_entry_fails_verify(self, capsys, monkeypatch):
        """NaN compares false with everything, so it must not pass as in band."""
        import math

        import trustevo.verification as verification

        payoff_tables = verification.payoff_tables
        game = make_prisoners_dilemma(expected_rounds=20.0)
        point = (*game.scaled_payoffs(), game.expected_rounds, game.check_cost)

        def nan_at_one_entry(kinds, t, r, p, s, n, eps, theta, check):
            values = payoff_tables(kinds, t, r, p, s, n, eps, theta, check)
            rows = np.transpose([t, r, p, s, n, eps, theta, check])
            at = np.all(rows == (*point, 3, 0.1), axis=1)  # theta=3, p=0.1
            values[at, kinds.index(tuc(3, 0.1).kind), kinds.index(tud(3).kind)] = math.nan
            return values

        monkeypatch.setattr(verification, "payoff_tables", nan_at_one_entry)
        report = verification.run_oracle_verification()
        assert not report.ok
        assert report.failures == 1
        assert math.isnan(report.worst_tolerance_ratio)
        assert main(["verify"]) == 2
        assert capsys.readouterr().out.startswith("FAIL: 17549/17550")
