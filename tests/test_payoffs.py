import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustevo.errors import NumericalError, ParameterDomainError
from trustevo.game_model import make_prisoners_dilemma
from trustevo.payoffs import analytic_entry, payoff_matrix, payoff_tables
from trustevo.strategies import ALLC, ALLD, TFT, tuc, tud

DEFAULT_GAME = make_prisoners_dilemma()
DEFAULT_SET = (ALLC, ALLD, TFT, tuc(3, 0.25), tud(3))


class TestClassicEntries:
    """Entries that follow directly from the one-shot table."""

    def test_mutual_cooperation(self):
        assert analytic_entry(ALLC, ALLC, DEFAULT_GAME) == 1.0

    def test_mutual_defection(self):
        assert analytic_entry(ALLD, ALLD, DEFAULT_GAME) == 0.0

    def test_exploitation_pair(self):
        assert analytic_entry(ALLD, ALLC, DEFAULT_GAME) == 2.0
        assert analytic_entry(ALLC, ALLD, DEFAULT_GAME) == -1.0

    def test_tft_pays_to_watch_a_cooperator(self):
        assert analytic_entry(TFT, ALLC, DEFAULT_GAME) == 1.0 - 0.25
        assert analytic_entry(TFT, TFT, DEFAULT_GAME) == 0.75

    def test_tft_against_alld(self):
        """One suckered round, 49 punishments, checks every round: -0.27."""
        assert analytic_entry(TFT, ALLD, DEFAULT_GAME) == pytest.approx(
            -0.27, abs=1e-15
        )
        assert analytic_entry(ALLD, TFT, DEFAULT_GAME) == pytest.approx(
            (2.0 + 49 * 0.0) / 50, abs=1e-15
        )


class TestTrustEntries:
    def test_allc_is_milked_by_tud(self):
        """Three mutual cooperations, then 47 suckered rounds: -0.88."""
        assert analytic_entry(ALLC, tud(3), DEFAULT_GAME) == pytest.approx(
            -0.88, abs=1e-15
        )
        assert analytic_entry(tud(3), ALLC, DEFAULT_GAME) == pytest.approx(
            (3 * 1.0 + 47 * 2.0 - 3 * 0.25) / 50, abs=1e-15
        )

    def test_tft_catches_tud_immediately(self):
        assert analytic_entry(TFT, tud(3), DEFAULT_GAME) == pytest.approx(
            (3 * 1.0 - 1.0 + 46 * 0.0) / 50 - 0.25, abs=1e-15
        )
        assert analytic_entry(tud(3), TFT, DEFAULT_GAME) == pytest.approx(
            (3 * 1.0 + 2.0 + 46 * 0.0 - 3 * 0.25) / 50, abs=1e-15
        )

    def test_tuc_against_tud_detection_lottery(self):
        """Expected detection delay 1/p shifts both sides of the pair."""
        row = analytic_entry(tuc(3, 0.25), tud(3), DEFAULT_GAME)
        col = analytic_entry(tud(3), tuc(3, 0.25), DEFAULT_GAME)
        assert row == pytest.approx(-0.24999991945647554, abs=1e-15)
        assert col == pytest.approx(0.2049997852172681, abs=1e-15)
        # Rounded views as commonly quoted.
        assert row == pytest.approx(-0.2500, abs=1e-4)
        assert col == pytest.approx(0.2050, abs=1e-4)

    def test_tuc_saves_checks_against_cooperators(self):
        """TUC pays full cost for theta rounds and p*cost afterwards."""
        expected = 1.0 - (3 + 0.25 * 47) * 0.25 / 50
        for col in (ALLC, TFT, tuc(3, 0.25)):
            assert analytic_entry(tuc(3, 0.25), col, DEFAULT_GAME) == pytest.approx(
                expected, abs=1e-15
            )

    def test_tuc_never_trusts_alld(self):
        assert analytic_entry(tuc(3, 0.25), ALLD, DEFAULT_GAME) == analytic_entry(
            TFT, ALLD, DEFAULT_GAME
        )

    def test_mutual_tud_defects_after_trust(self):
        assert analytic_entry(tud(3), tud(3), DEFAULT_GAME) == pytest.approx(
            (3 * 1.0 + 47 * 0.0 - 3 * 0.25) / 50, abs=1e-15
        )


class TestDetectionLimits:
    def test_zero_check_prob_is_never_caught(self):
        """At p=0 TUC against TUD is suckered for the whole post-trust phase."""
        entry = analytic_entry(tuc(3, 0.0), tud(3), DEFAULT_GAME)
        assert entry == pytest.approx((3 * 0.75 + 47 * -1.0) / 50, abs=1e-15)

    def test_certain_check_catches_in_one_round(self):
        entry = analytic_entry(tuc(3, 1.0), tud(3), DEFAULT_GAME)
        assert entry == pytest.approx(
            (3 * 0.75 - 1.0 + 46 * (0.0 - 0.25)) / 50, abs=1e-15
        )

    def test_continuity_as_check_prob_vanishes(self):
        """The p -> 0 limit branch joins the general formula smoothly."""
        at_limit = analytic_entry(tuc(3, 0.0), tud(3), DEFAULT_GAME)
        nearby = analytic_entry(tuc(3, 1e-13), tud(3), DEFAULT_GAME)
        almost = analytic_entry(tuc(3, 1e-9), tud(3), DEFAULT_GAME)
        assert nearby == pytest.approx(at_limit, rel=1e-10, abs=0.0)
        assert almost == pytest.approx(at_limit, abs=1e-6)

    @pytest.mark.parametrize("rounds", [3.3, 4.5, 50.5])
    def test_subnormal_check_probabilities_equal_the_limit(self, rounds):
        """p * phase is subnormal here, so it rounds coarsely, yet the
        entries must match p = 0 to double precision for fractional phases."""
        game = make_prisoners_dilemma(expected_rounds=rounds)
        watcher = analytic_entry(tuc(3, 0.0), tud(3), game)
        exploiter = analytic_entry(tud(3), tuc(3, 0.0), game)
        for p in (5e-324, 1e-323, 1e-320, 1e-310):
            got = (
                analytic_entry(tuc(3, p), tud(3), game),
                analytic_entry(tud(3), tuc(3, p), game),
            )
            assert got == pytest.approx((watcher, exploiter), rel=1e-15, abs=0.0), p


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_entries_scale_linearly_when_checks_are_free(scale):
    """With zero check cost every entry is homogeneous in the payoff scale."""
    base = make_prisoners_dilemma(check_cost=0.0)
    scaled = make_prisoners_dilemma(check_cost=0.0, payoff_scale=scale)
    for row, col in itertools.product(DEFAULT_SET, repeat=2):
        lhs = analytic_entry(row, col, scaled)
        rhs = scale * analytic_entry(row, col, base)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMatrixConstruction:
    def test_shape_and_labels(self):
        matrix = payoff_matrix(DEFAULT_SET, DEFAULT_GAME)
        assert matrix.values.shape == (5, 5)
        assert matrix.labels == ("ALLC", "ALLD", "TFT", "TUC", "TUD")

    def test_entry_lookup_matches_direct_evaluation(self):
        matrix = payoff_matrix(DEFAULT_SET, DEFAULT_GAME)
        assert matrix.values[2, 1] == analytic_entry(TFT, ALLD, DEFAULT_GAME)
        assert matrix.values[4, 3] == analytic_entry(
            tud(3), tuc(3, 0.25), DEFAULT_GAME
        )

    def test_rejects_duplicate_kinds(self):
        with pytest.raises(ParameterDomainError, match="distinct"):
            payoff_matrix((ALLC, ALLC), DEFAULT_GAME)

    def test_rejects_empty_set(self):
        with pytest.raises(ParameterDomainError):
            payoff_matrix((), DEFAULT_GAME)

    @pytest.mark.parametrize(
        "scale, rounds, value",
        [(1e308, 50.0, "nan"), (1e300, 1e10, "-inf")],
    )
    def test_non_finite_entry_is_named(self, scale, rounds, value):
        """At stake 1e308, ALLC v TUD adds theta * R = inf to (r - theta) * S =
        -inf; at 1e300 over 1e10 rounds its S term alone overflows to -inf."""
        game = make_prisoners_dilemma(payoff_scale=scale, expected_rounds=rounds)
        message = rf"entry \(ALLC, TUD\) overflowed to {value}"
        with pytest.raises(NumericalError, match=message):
            payoff_matrix(DEFAULT_SET, game)

    def test_subset_matrix(self):
        matrix = payoff_matrix((ALLC, ALLD, TFT), DEFAULT_GAME)
        assert matrix.values.shape == (3, 3)
        assert matrix.values[0, 1] == -1.0


class TestThresholdGuards:
    def test_threshold_must_be_below_rounds(self):
        short = make_prisoners_dilemma(expected_rounds=3.0)
        with pytest.raises(ParameterDomainError, match="below the expected rounds"):
            analytic_entry(tuc(3, 0.25), ALLC, short)

    def test_mixed_thresholds_are_rejected(self):
        with pytest.raises(ParameterDomainError, match="share one threshold"):
            analytic_entry(tuc(3, 0.25), tud(5), DEFAULT_GAME)

    def test_trust_entries_depend_on_rounds(self):
        """Longer matches dilute the fixed pre-trust phase."""
        long_game = make_prisoners_dilemma(expected_rounds=500.0)
        short = analytic_entry(ALLC, tud(3), DEFAULT_GAME)
        long = analytic_entry(ALLC, tud(3), long_game)
        assert long < short < 0


# Dilemma tables R, P = R - a, S = P - b, T = R + c with c < a + b, so that
# 2R > T + S, and a match long enough for thresholds up to 10.
GAMES = st.builds(
    lambda r, a, b, u, scale, cost, rounds: make_prisoners_dilemma(
        temptation=r + u * (a + b), reward=r, punishment=r - a, sucker=r - a - b,
        payoff_scale=scale, check_cost=cost, expected_rounds=rounds,
    ),
    st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.01, 0.99),
    st.floats(0.01, 100.0), st.floats(0.0, 2.0), st.floats(11.0, 200.0),
)


def stacked_tables(points):
    """``payoff_tables`` over the five-strategy pool at (game, theta, p) points."""
    games = [game for game, _, _ in points]

    def column(values):
        return np.array(values, dtype=float)

    scaled = column([game.scaled_payoffs() for game in games]).T
    return payoff_tables(
        [spec.kind for spec in DEFAULT_SET], *scaled,
        column([g.expected_rounds for g in games]), column([g.check_cost for g in games]),
        column([theta for _, theta, _ in points]), column([p for _, _, p in points]),
    )


class TestStackedTables:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                GAMES, st.integers(1, 10), st.sampled_from((0.0, 1e-9, 1.0)) | st.floats(0.0, 1.0)
            ),
            min_size=1, max_size=6,
        )
    )
    def test_equal_the_float_tables_bit_for_bit(self, points):
        stacked = stacked_tables(points)
        for (game, theta, p), table in zip(points, stacked):
            pool = (ALLC, ALLD, TFT, tuc(theta, p), tud(theta))
            assert payoff_matrix(pool, game).values.tobytes() == table.tobytes()
            entries = [analytic_entry(a, b, game) for a in pool for b in pool]
            assert np.array(entries).tobytes() == table.tobytes()

    def test_an_overflow_is_named_by_its_point(self):
        huge = make_prisoners_dilemma(payoff_scale=1e308)
        message = r"\(ALLC, TUD\) overflowed to nan at stack index 2$"
        with pytest.raises(NumericalError, match=message):
            stacked_tables([(DEFAULT_GAME, 3, 0.25)] * 2 + [(huge, 3, 0.25)])
