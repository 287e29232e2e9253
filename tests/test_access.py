"""Channel layer: uploading draws, polling/ALOHA rounds, closed forms."""

import importlib
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdas.access import (
    aloha_round,
    crossover_check,
    delivered_law,
    expected_successes,
    mean_rounds_bound,
    optimal_q,
    polling_round,
    request_count,
    stop_round_moments,
    uploading_probability,
)


class TestUploadingProbability:
    def test_threshold_at_average_snr(self):
        assert uploading_probability(2.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_no_measurement_means_no_upload(self):
        assert uploading_probability(1.0, 3.0, 0.0) == 0.0

    def test_zero_threshold_reduces_to_availability(self):
        assert uploading_probability(0.0, 5.0, 0.37) == pytest.approx(0.37)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uploading_probability(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            uploading_probability(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            uploading_probability(1.0, 1.0, 1.5)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.nan)]
    )
    def test_nan_rejected(self, args):
        with pytest.raises(ValueError):
            uploading_probability(*args)

    def test_physical_sampling_matches_closed_form(self, rng):
        snr_threshold, snr_avg, availability = 1.5, 2.5, 0.8
        # The physical model: an exponential channel gain clears the
        # threshold and the node has a measurement, independently.
        gain = rng.exponential(scale=snr_avg, size=200_000)
        hits = (gain >= snr_threshold) & (rng.random(gain.size) < availability)
        want = uploading_probability(snr_threshold, snr_avg, availability)
        se = math.sqrt(want * (1 - want) / hits.size)
        assert abs(hits.mean() - want) < 4 * se


class TestPollingRound:
    def test_certain_upload_delivers_everything(self, rng):
        out = polling_round([3, 1, 7], 4, 1.0, rng)
        assert out.delivered == out.responders == (3, 1, 7)
        assert out.collided_channels == ()

    def test_impossible_upload_delivers_nothing(self, rng):
        out = polling_round([3, 1, 7], 4, 0.0, rng)
        assert out.delivered == ()
        assert out.requested == (3, 1, 7)

    def test_too_many_requests_rejected(self, rng):
        with pytest.raises(ValueError, match="at most 2"):
            polling_round([1, 2, 3], 2, 0.5, rng)

    def test_duplicate_requests_rejected(self, rng):
        with pytest.raises(ValueError, match="duplicate"):
            polling_round([1, 1], 4, 0.5, rng)

    def test_mean_deliveries_match_formula(self, rng):
        total = sum(len(polling_round([1, 2, 3, 4], 4, 0.2, rng).delivered) for _ in range(100_000))
        mean = total / 100_000
        assert mean == pytest.approx(0.8, rel=0.02)


class TestAlohaRound:
    def test_two_responders_one_channel_always_collide(self, rng):
        out = aloha_round([5, 9], 1, 1.0, rng)
        assert out.delivered == ()
        assert out.collided_channels == (1,)
        assert set(out.responders) == {5, 9}

    def test_single_responder_always_delivers(self, rng):
        for _ in range(50):
            out = aloha_round([4], 3, 1.0, rng)
            assert out.delivered == (4,)

    def test_outcome_containments(self, rng):
        for _ in range(200):
            out = aloha_round(list(range(1, 13)), 3, 0.4, rng)
            assert set(out.delivered) <= set(out.responders) <= set(out.requested)
            assert len(set(out.delivered)) == len(out.delivered)
            for node in out.delivered:
                ch = out.channel_choice[node]
                sharers = [r for r, c in out.channel_choice.items() if c == ch]
                assert sharers == [node]

    def test_mean_deliveries_match_formula(self, rng):
        requested = list(range(1, 21))
        total = sum(len(aloha_round(requested, 4, 0.2, rng).delivered) for _ in range(100_000))
        mean = total / 100_000
        assert mean == pytest.approx(20 * 0.2 * (1 - 0.05) ** 19, rel=0.02)

    @pytest.mark.parametrize("q", [1, 5, 20])
    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.5])
    def test_formula_within_three_standard_errors(self, q, n, p, rng):
        rounds = 30_000
        requested = list(range(1, q + 1))
        counts = np.array(
            [len(aloha_round(requested, n, p, rng).delivered) for _ in range(rounds)],
            dtype=float,
        )
        want = expected_successes("aloha", n, p, q)
        # Poisson floor keeps the band meaningful when successes are rare.
        se = max(counts.std(ddof=1), math.sqrt(want)) / math.sqrt(rounds)
        assert abs(counts.mean() - want) <= 3 * max(se, 1e-12)


class TestRoundProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        requested=st.lists(st.integers(1, 500), min_size=1, max_size=12, unique=True),
        n=st.integers(1, 5),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcomes_are_consistent(self, requested, n, p, seed):
        out = aloha_round(requested, n, p, np.random.default_rng(seed))
        assert out.requested == tuple(requested)
        assert set(out.delivered) <= set(out.responders) <= set(requested)
        assert len(set(out.responders)) == len(out.responders)
        assert set(out.channel_choice) == set(out.responders)
        load = Counter(out.channel_choice.values())
        assert all(1 <= ch <= n and load[ch] >= 2 for ch in out.collided_channels)
        assert set(out.collided_channels) == {ch for ch, k in load.items() if k >= 2}
        sole = tuple(r for r in out.responders if load[out.channel_choice[r]] == 1)
        assert out.delivered == sole

        rng = np.random.default_rng(seed)
        if len(requested) > n:
            with pytest.raises(ValueError, match="at most"):
                polling_round(requested, n, p, rng)
            return
        out = polling_round(requested, n, p, rng)
        assert set(out.responders) <= set(requested)
        assert len(set(out.responders)) == len(out.responders)
        assert out.delivered == out.responders
        assert out.collided_channels == () and out.channel_choice == {}


def _aloha_delivered_law(q: int, n: int, p: float) -> np.ndarray:
    """P(d deliveries), d = 0..q: binomial responders, each assignment of
    them to the n channels equally likely, sole occupants delivered."""
    law = np.zeros(q + 1)
    for r in range(q + 1):
        weight = math.comb(q, r) * p**r * (1 - p) ** (q - r) / n**r
        for channels in itertools.product(range(n), repeat=r):
            law[sum(k == 1 for k in Counter(channels).values())] += weight
    return law


# Each case compares every delivered count's frequency over 20,000 rounds
# with its exact probability P, within 4 binomial standard errors.  For each
# comparison with 0 < P < 1 the exact binomial chance of leaving that band
# is at most 7.2e-5; over the 18 such comparisons below, a correct
# aloha_round fails at an arbitrary seed with chance at most 1.2e-3 (union
# bound).  Counts with P = 0 must not occur at all.
@pytest.mark.parametrize(
    "q, n, p", [(1, 1, 0.5), (2, 1, 0.7), (3, 2, 0.4), (4, 3, 0.6), (6, 2, 0.3), (6, 3, 0.8)]
)
def test_aloha_delivered_count_follows_the_exact_law(q, n, p):
    rounds = 20_000
    rng = np.random.default_rng(7)
    requested = list(range(1, q + 1))
    counts = [len(aloha_round(requested, n, p, rng).delivered) for _ in range(rounds)]
    freq = np.bincount(counts, minlength=q + 1) / rounds
    law = _aloha_delivered_law(q, n, p)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    exact = np.zeros(max(q, n) + 1)
    exact[: n + 1] = delivered_law("aloha", n, p, q)
    np.testing.assert_allclose(exact[: q + 1], law, rtol=0, atol=1e-12)
    assert not exact[q + 1 :].any()
    se = np.sqrt(law * (1 - law) / rounds)
    assert np.all(np.abs(freq - law) <= 4 * se), (freq, law)


class TestExpectedSuccesses:
    def test_polling_formula(self):
        assert expected_successes("polling", 4, 0.2, 4) == pytest.approx(0.8)
        # Requests beyond the channel count cannot add deliveries.
        assert expected_successes("polling", 4, 0.2, 10) == pytest.approx(0.8)
        assert expected_successes("polling", 4, 0.2, 2) == pytest.approx(0.4)

    def test_aloha_single_request(self):
        assert expected_successes("aloha", 7, 0.31, 1) == pytest.approx(0.31)

    def test_aloha_optimal_load_approaches_n_over_e(self):
        exact = expected_successes("aloha", 4, 0.2, 20)
        assert exact == pytest.approx(1.5094, abs=1e-4)
        assert abs(exact - 4 * math.exp(-1.0)) / exact < 0.03

    def test_maximum_attained_at_n_over_p(self):
        # When N/p is an integer the ratio test gives an exact tie with the
        # neighbor below, so assert on the attained value, not the argmax.
        for n in (2, 4, 8):
            for p in (0.1, 0.2, 0.4):
                qs = range(1, int(3 * n / p) + 1)
                best = max(expected_successes("aloha", n, p, q) for q in qs)
                at_rounding = max(
                    expected_successes("aloha", n, p, math.floor(n / p)),
                    expected_successes("aloha", n, p, math.ceil(n / p)),
                )
                assert at_rounding == pytest.approx(best, rel=1e-12)


class TestOptimalQ:
    def test_paper_operating_point(self):
        assert optimal_q(4, 0.2, 100) == 20

    def test_capped_by_remaining(self):
        assert optimal_q(4, 0.2, 3) == 3

    def test_certain_upload(self):
        assert optimal_q(4, 1.0, 100) == 4

    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            optimal_q(4, 0.0, 10)

    def test_subnormal_p_caps_at_remaining(self):
        # N/p overflows to inf here; the cap applies before the int conversion.
        assert optimal_q(2, 1e-310, 12) == 12


class TestMeanRoundsBound:
    def test_reference_values(self):
        assert mean_rounds_bound("polling", 75, 4, 0.2) == pytest.approx(93.75)
        assert mean_rounds_bound("aloha-approx", 75, 4, 0.2) == pytest.approx(50.968, abs=1e-3)
        assert mean_rounds_bound("aloha", 75, 4, 0.2, q=20) == pytest.approx(49.68, abs=0.02)

    def test_zero_target_needs_zero_rounds(self):
        assert mean_rounds_bound("polling", 0, 4, 0.2) == 0.0
        assert mean_rounds_bound("aloha", 0, 4, 0.2, q=20) == 0.0

    def test_aloha_that_always_collides_never_finishes(self):
        # N = 1 and p = 1: every round with q >= 2 requests is one collision.
        assert mean_rounds_bound("aloha", 5, 1, 1.0, q=3) == math.inf

    def test_aloha_needs_q(self):
        with pytest.raises(ValueError, match="needs q"):
            mean_rounds_bound("aloha", 10, 4, 0.2)


class TestRequestCount:
    # N = 4 channels, p = 0.2, so optimal_q is 20 with enough unknowns.
    @pytest.mark.parametrize(
        "mode, remaining, fixed, q",
        [
            ("polling", 100, None, 4),
            ("polling", 100, 1, 1),
            ("polling", 100, 9, 4),
            ("polling", 3, None, 3),
            ("polling", 3, 9, 3),
            ("aloha", 100, None, 20),
            ("aloha", 100, 1, 1),
            ("aloha", 100, 9, 9),
            ("aloha", 3, None, 3),
            ("aloha", 3, 9, 3),
            ("bandit", 100, None, 20),
            ("bandit", 100, 9, 9),
        ],
    )
    def test_table(self, mode, remaining, fixed, q):
        assert request_count(mode, 4, 0.2, remaining, fixed) == q


class TestStopRoundMoments:
    def test_rounds_preset_values(self):
        # Check 1's exact references: K=100, N=4, p=0.2, kbar=75.
        aloha = stop_round_moments("aloha", 100, 4, 0.2, 75)
        polling = stop_round_moments("polling", 100, 4, 0.2, 75)
        assert aloha == pytest.approx((50.0637, 4.5416), abs=5e-5)
        assert polling == pytest.approx((94.1250, 9.6865), abs=5e-5)

    def test_matches_the_benchmark_gate(self):
        # perfbench/gate.py keeps its own copy of the mean recursion.
        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            gate = importlib.import_module("gate")
        finally:
            sys.path.remove(perfbench)
        for mode in ("aloha", "polling"):
            for K, N, p, kbar in ((100, 4, 0.2, 75), (400, 16, 0.2, 300), (12, 2, 0.4, 9)):
                mean, _ = stop_round_moments(mode, K, N, p, kbar)
                assert mean == gate.expected_stop_round(mode, K, N, p, kbar)
                assert delivered_law(mode, N, p, 5) == gate.delivered_law(mode, N, p, 5)

    def test_geometric_rounds(self):
        # One node, one channel: the stop round is geometric in p.
        for mode in ("aloha", "polling"):
            mean, sd = stop_round_moments(mode, 1, 1, 0.3, 1)
            assert mean == pytest.approx(1 / 0.3, rel=1e-12)
            assert sd == pytest.approx(math.sqrt(0.7) / 0.3, rel=1e-12)
        # Certain polling of N nodes a round: deterministic.
        assert stop_round_moments("polling", 12, 4, 1.0, 10) == (3.0, 0.0)


class TestCrossover:
    def test_below_threshold_favors_aloha(self):
        assert crossover_check(0.2) is True

    def test_above_threshold_favors_polling(self):
        assert crossover_check(0.5) is False

    def test_boundary_resolves_to_polling(self):
        assert crossover_check(math.exp(-1.0)) is False
