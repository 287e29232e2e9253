"""Scenario orchestration: determinism, stop rules, summaries, CSV output."""

import math
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdas.cli as cli
import gdas.experiments as experiments
from gdas.access import (
    aloha_round,
    expected_successes,
    optimal_q,
    polling_round,
    request_count,
)
from gdas.bandit import new_bandit_state, prediction_error_terms, select_model, update
from gdas.config import load_scenario, parse_scenario_text, scenario_to_text
from gdas.engine import ingest, initial_state, select_nodes
from gdas.errors import NumericalDegeneracyError
from gdas.experiments import (
    Scenario,
    _run_rng,
    _sampler,
    run_bandit_scenario,
    run_scenario,
    sweep,
    write_rounds_csv,
    write_summary_csv,
    write_sweep_csv,
)
from gdas.models import GaussianModel, build_ar1_model, build_model_family


def tiny(**overrides):
    base = dict(K=12, rho=0.9, N=2, mode="aloha", p=0.4, kbar=9, T=40, runs=6, seed=99)
    base.update(overrides)
    return Scenario(**base)


def run_rows(table, run):
    """The rows of ``run`` in round order, as dicts keyed by column name."""
    return [dict(zip(table.columns, row)) for row in table.data[table["run"] == run]]


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        s = Scenario()
        assert s.rounds_limit == 120 and s.run_count == 100 and s.stop_threshold == s.K

    def test_bandit_defaults(self):
        s = Scenario(mode="bandit")
        assert s.rounds_limit == 50 and s.run_count == 200

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            Scenario(mode="csma")

    def test_q_policy_forms(self):
        assert Scenario(q_policy="fixed:7").q_policy == "fixed:7"
        Scenario(q_policy="topq")
        with pytest.raises(ValueError):
            Scenario(q_policy="fixed:0")
        with pytest.raises(ValueError):
            Scenario(q_policy="most")

    def test_kbar_range(self):
        with pytest.raises(ValueError):
            Scenario(K=10, kbar=11)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(p=0.0), "p must"),
            (dict(p=-0.2), "p must"),
            (dict(p=1.5), "p must"),
            (dict(p=math.nan), "p must"),
            (dict(p=math.inf), "p must"),
            (dict(tau=math.nan), "tau"),
            (dict(tau=math.inf), "tau"),
            (dict(family_noise=math.nan), "family_noise"),
            (dict(family_noise=math.inf), "family_noise"),
            # Values of the wrong type: seed=1.5 ran as seed 1 and N=True as
            # N=1 under a header that printed the given value.
            (dict(seed=1.5), "seed must be of type int"),
            (dict(N=True), "N must be of type int"),
            (dict(K=12.5), "K must be of type int"),
            (dict(kbar=5.0), "kbar must be of type int"),
            (dict(p=None), "p must be of type float"),
            (dict(rho=None), "rho must be of type float"),
            (dict(tau=True), "tau must be of type float"),
            (dict(q_policy=1), "q_policy must be of type str"),
        ],
    )
    def test_rejects_inputs_a_run_cannot_use(self, overrides, field):
        # Each of these used to pass construction and fail mid-run, or (tau=nan
        # with T <= M) never fail and write tau=nan into the CSV header.
        with pytest.raises(ValueError, match=field):
            Scenario(mode="bandit", **overrides)

    def test_numpy_numbers_and_none_where_annotated(self):
        s = Scenario(K=np.int64(12), p=np.float64(0.5), rho=0, kbar=None)
        assert s.K == 12 and s.stop_threshold == 12
        with pytest.raises(ValueError, match="K must be of type int"):
            Scenario(K=None)


class TestRunScenario:
    def test_certain_polling_takes_exactly_k_rounds(self):
        s = tiny(mode="polling", p=1.0, N=1, kbar=12, T=30, runs=3)
        res = run_scenario(s)
        assert res.stop_rounds == [12, 12, 12]
        finals = res.final_mse_by_run()
        np.testing.assert_allclose(finals, 0.0, atol=1e-10)

    def test_stop_round_matches_cumulative_deliveries(self):
        res = run_scenario(tiny())
        for run in range(res.scenario.run_count):
            cum = np.cumsum(res.records["delivered"][res.records["run"] == run])
            reached = np.flatnonzero(cum >= 9)
            want = int(reached[0]) + 1 if reached.size else None
            assert res.stop_rounds[run] == want

    @pytest.mark.parametrize("T, stop", [(5, 5), (4, None)])
    def test_kbar_in_the_last_allowed_round_is_a_stop(self, T, stop):
        # One certain delivery a round: the fifth round brings kbar = 5.
        res = run_scenario(tiny(mode="polling", p=1.0, N=1, kbar=5, T=T, runs=3))
        assert res.stop_rounds == [stop] * 3
        assert res.censored_runs == (3 if stop is None else 0)

    def test_a_result_is_its_scenario_and_round_table(self):
        assert [f.name for f in fields(experiments.RunResult)] == ["scenario", "records"]
        assert fields(experiments.BanditResult) == fields(experiments.RunResult)
        # The per-mode summary timer wraps the class's own entry.
        assert "summary_rows" in vars(experiments.BanditResult)

    def test_known_count_is_monotone(self):
        res = run_scenario(tiny())
        for run in range(res.scenario.run_count):
            counts = res.records["K_t"][res.records["run"] == run]
            assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_seed_determinism(self):
        a = run_scenario(tiny())
        b = run_scenario(tiny())
        assert a.stop_rounds == b.stop_rounds
        for name in ("run", "t", "mse_theory", "delivered"):
            np.testing.assert_array_equal(a.records[name], b.records[name])

    def test_seed_changes_the_draws(self):
        a = run_scenario(tiny())
        b = run_scenario(tiny(seed=100))
        assert not np.array_equal(a.records["delivered"], b.records["delivered"])

    def test_fixed_q_policy_caps_requests(self):
        # With q_policy=fixed:1 every ALOHA round requests one node, so no
        # round can deliver more than one measurement.
        res = run_scenario(tiny(q_policy="fixed:1", T=60, kbar=None))
        assert res.records["delivered"].max() <= 1

    def test_polling_honours_fixed_q_policy(self):
        # Three channels that never fail, but fixed:1 requests one node a
        # round: every round delivers exactly one measurement.
        s = tiny(mode="polling", p=1.0, N=3, q_policy="fixed:1", kbar=None, T=20, runs=3)
        res = run_scenario(s)
        assert set(res.records["delivered"]) == {1}
        assert res.stop_rounds == [12, 12, 12]

    def test_bounds_use_the_fixed_q_policy(self, tmp_path):
        # Polling fixed:1 polls one node a round: 12 / (1 * 1.0), not 12 / (3 * 1.0).
        s = tiny(mode="polling", p=1.0, N=3, q_policy="fixed:1", kbar=None, T=20, runs=3)
        res = run_scenario(s)
        bounds = res.bounds()
        assert bounds["expected_polling"] == 1.0
        assert bounds["rounds_polling"] == res.mean_stop_round == 12.0
        write_summary_csv(tmp_path / "summary.csv", res)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert " rounds_polling=12 " in header
        # ALOHA fixed:2 at N=3, p=0.5: the Wald bound is 12 / (2 p (1 - p/N)) = 14.4,
        # not the 9.95 of the optimal Q = N/p = 6.
        s = tiny(p=0.5, N=3, q_policy="fixed:2", kbar=None, T=80, runs=3)
        bounds = run_scenario(s).bounds()
        assert bounds["expected_aloha"] == pytest.approx(2 * 0.5 * (1 - 0.5 / 3))
        assert bounds["rounds_aloha"] == pytest.approx(14.4)

    def test_bounds_of_the_optimal_policy(self):
        s = tiny(mode="polling", p=0.5, N=3, kbar=None, T=80, runs=2)
        bounds = run_scenario(s).bounds()
        assert bounds["rounds_polling"] == 12 / (3 * 0.5)
        q = optimal_q(3, 0.5, 12)
        assert bounds["rounds_aloha"] == 12 / expected_successes("aloha", 3, 0.5, q)

    def test_topq_policy_runs(self):
        res = run_scenario(tiny(q_policy="topq"))
        assert res.records.data.size

    def test_greedy_first_round_is_deterministic_across_runs(self):
        s = tiny(mode="polling", p=1.0, N=3, first_round="greedy", kbar=None, T=4, runs=4)
        res = run_scenario(s)
        first = res.records["mse_theory"][res.records["t"] == 0]
        assert len(first) == 4 and len(set(first)) == 1

    def test_bandit_mode_rejected(self):
        with pytest.raises(ValueError, match="bandit"):
            run_scenario(tiny(mode="bandit", p=0.2))

    def test_summary_rows_are_plain_means(self):
        res = run_scenario(tiny())
        summary = res.summary_rows()
        t0 = res.records["t"] == 0
        assert summary["t"][0] == 0
        assert summary["n_active"][0] == t0.sum()
        assert summary["mean_mse_theory"][0] == pytest.approx(
            np.mean(res.records["mse_theory"][t0])
        )
        assert summary["mean_delivered"][0] == pytest.approx(
            np.mean(res.records["delivered"][t0])
        )

    def test_sampler_draws_from_a_rank_deficient_model(self):
        model = GaussianModel(mean=np.zeros(4), cov=np.ones((4, 4)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(model.cov)
        x = _sampler(model)(np.random.default_rng(0))
        assert x.shape == (4,) and np.all(np.isfinite(x))
        np.testing.assert_allclose(x, x[0], atol=1e-4)


def replay_run(s: Scenario, run: int):
    """One run alone through the public single-state calls: its rows
    (K_t, delivered, collided, mse_theory, m, Y) and its stop round.  Bandit
    runs keep one state per model and play the bandit; other runs have
    m = 1 and Y = nan."""
    bandit = s.mode == "bandit"
    if bandit:
        models = build_model_family(s.K, s.family_J, s.family_noise, s.rho)[: s.M]
    else:
        models = [build_ar1_model(s.K, s.rho)]
    true = s.true_model - 1 if bandit else 0
    rng = _run_rng(s.seed, run)
    x = models[true].mean + np.linalg.cholesky(models[true].cov) @ rng.standard_normal(s.K)
    states = [initial_state(model, x) for model in models]
    bst = new_bandit_state(len(models), s.tau) if bandit else None
    fixed = int(s.q_policy[6:]) if s.q_policy.startswith("fixed:") else None
    p = s.p
    rows = []
    for t in range(s.rounds_limit):
        st = states[true]
        remaining = st.unknown_count
        if remaining == 0:
            break
        known_before = st.known_count
        m = 1
        if bandit:
            m = s.fixed_model or select_model(bst, t, rng)
        if s.mode == "polling":
            q = min(s.N, remaining, fixed or s.N)
        elif fixed is not None:
            q = min(fixed, remaining)
        else:
            q = optimal_q(s.N, p, remaining)
        if t == 0 and s.first_round == "random":
            requested = sorted(int(v) + 1 for v in rng.choice(s.K, size=q, replace=False))
        else:
            rule = "topq" if s.q_policy == "topq" else "greedy"
            requested = select_nodes(states[m - 1], q, rule=rule)
        access = polling_round if s.mode == "polling" else aloha_round
        outcome = access(requested, s.N, p, rng)
        delivered = list(outcome.delivered)
        vals = [float(x[n - 1]) for n in delivered]
        cost = math.nan
        if bandit and delivered:
            sqerr, expected = prediction_error_terms(states[m - 1].cond, delivered, vals)
            cost = sqerr / expected
            if s.fixed_model is None:
                bst = update(bst, m, cost)
        states = [ingest(state, dict(zip(delivered, vals))) for state in states]
        rows.append(
            (known_before, len(delivered), len(outcome.collided_channels),
             states[true].mse_theory, m, cost)
        )
        if states[true].known_count >= s.stop_threshold:
            return rows, t + 1
    return rows, None


class TestBlockLoop:
    """run_scenario advances runs in lockstep blocks; each run must come out as
    if it had run alone."""

    @pytest.mark.parametrize("block_runs", [None, 3])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mode="polling"),
            dict(mode="polling", q_policy="fixed:1", T=25),
            dict(mode="aloha"),
            dict(mode="aloha", q_policy="topq"),
            dict(mode="aloha", q_policy="fixed:1", T=25),
            # kbar = K: the runs' widths diverge and the block's posterior
            # stack compacts several times mid-run.
            dict(mode="polling", kbar=12, T=19),
            dict(mode="aloha", kbar=12, T=19),
            dict(mode="bandit", kbar=12, T=18),
            # Near rank-3 models: the low-rank arms absorb degenerate nodes
            # inside the stack while the AR(1) arm downdates.  One pick per
            # round: greedy re-scoring past a model's rank ranks rounding
            # noise, which no two stack layouts share.
            dict(mode="bandit", family_noise=1e-11, q_policy="fixed:1", kbar=12, T=35),
            # Greedy selection from round 0.
            dict(mode="aloha", first_round="greedy"),
            dict(mode="bandit", first_round="greedy", kbar=12, T=18),
        ],
    )
    def test_matches_per_run_replay(self, overrides, block_runs, monkeypatch):
        s = tiny(**{"runs": 8, "T": 11, **overrides})
        if block_runs is not None:
            monkeypatch.setattr(experiments, "_block_size", lambda K, arms=1: block_runs)
        widths = []

        def ingest_and_record(post, delivered):
            out = ingest(post, delivered)
            widths.append(post.cov.shape[-1])
            return out

        monkeypatch.setattr(experiments, "ingest", ingest_and_record)
        res = (run_bandit_scenario if s.mode == "bandit" else run_scenario)(s)
        stops = res.stop_rounds
        # Runs stop at different rounds and some never reach kbar.
        assert None in stops and len(set(stops)) > 2
        if s.kbar == s.K:
            assert len(set(widths)) > 2
        pairs = list(zip(res.records["run"], res.records["t"]))
        assert pairs == sorted(pairs)
        for run in range(s.run_count):
            rows, stop = replay_run(s, run)
            got = run_rows(res.records, run)
            assert stops[run] == stop
            assert [(r["K_t"], r["delivered"], r["collided"]) for r in got] == [
                row[:3] for row in rows
            ]
            np.testing.assert_allclose(
                [r["mse_theory"] for r in got], [row[3] for row in rows], rtol=1e-12, atol=0.0
            )
            if s.mode == "bandit":
                assert [r["m"] for r in got] == [row[4] for row in rows]
                np.testing.assert_allclose(
                    [r["Y"] for r in got], [row[5] for row in rows], rtol=1e-12, atol=0.0
                )

    @pytest.mark.parametrize("first_round", ["random", "greedy"])
    @pytest.mark.parametrize("mode", ["polling", "aloha", "bandit"])
    def test_a_round_selects_only_what_it_delivers(self, mode, first_round, monkeypatch):
        # Each run's access round draws on positions 1..q; select_nodes then
        # gets only the runs that received something, each with its last
        # delivered position as its count.  One block: run ids are positions.
        s = tiny(mode=mode, first_round=first_round, runs=8, T=11)
        rng_run, outcomes, calls = {}, {}, []

        def tagged_rng(seed, run):
            rng = _run_rng(seed, run)
            rng_run[id(rng)] = run
            return rng

        def logged(access):
            def round_(requested, n_channels, p, rng):
                out = access(requested, n_channels, p, rng)
                assert out.requested == tuple(range(1, len(out.requested) + 1))
                run = rng_run[id(rng)]
                if run in outcomes:  # a new round
                    outcomes.clear()
                outcomes[run] = out
                return out

            return round_

        def select_and_check(post, q, rule, *, runs, arms):
            last = {r: out.delivered[-1] for r, out in outcomes.items() if out.delivered}
            assert dict(zip(runs, q)) == last
            calls.append(len(outcomes) - len(runs))
            return select_nodes(post, q, rule, runs=runs, arms=arms)

        monkeypatch.setattr(experiments, "_run_rng", tagged_rng)
        monkeypatch.setattr(experiments, "aloha_round", logged(aloha_round))
        monkeypatch.setattr(experiments, "polling_round", logged(polling_round))
        monkeypatch.setattr(experiments, "select_nodes", select_and_check)
        (run_bandit_scenario if mode == "bandit" else run_scenario)(s)
        # Some rounds left out a run that received nothing.
        assert calls and max(calls) > 0

    @pytest.mark.parametrize("block_runs", [None, 2])
    def test_bandit_matches_per_run_replay(self, block_runs, monkeypatch):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=12, kbar=10, runs=5, seed=5)
        if block_runs is not None:
            monkeypatch.setattr(experiments, "_block_size", lambda K, arms=1: block_runs)
        res = run_bandit_scenario(s)
        assert None in res.stop_rounds and len(set(res.stop_rounds)) > 1
        for run in range(s.run_count):
            rows, stop = replay_run(s, run)
            got = run_rows(res.records, run)
            assert res.stop_rounds[run] == stop
            # Bit for bit: the stack and the single-state posteriors do the
            # same arithmetic, and sum in the same order.
            columns = ("K_t", "delivered", "collided", "mse_theory", "m", "Y")
            written = np.array([[r[c] for c in columns] for r in got])
            assert np.array_equal(written, np.array(rows, dtype=float), equal_nan=True)

    def test_a_large_k_batch_holds_its_posteriors(self):
        # At K = 400 one posterior fills a block.  A one-run ALOHA batch then
        # holds the model's covariance, the sampler's Cholesky factor, the
        # run's posterior and the q - 1 factor rows of the one-run greedy
        # kernel.  Building the model, folding and compacting work in row
        # panels, so the batch's peak stays below one more K x K array.
        s = Scenario(mode="aloha", K=400, N=16, p=0.2, kbar=100, T=150, runs=1, seed=7)
        run_scenario(tiny(runs=1))  # lazy imports and caches stay out of the peak
        tracemalloc.start()
        try:
            res = run_scenario(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The run learned kbar = 100 nodes, so its stack compacted on the way.
        assert res.stop_rounds[0] is not None
        square = 8 * s.K * s.K
        q = request_count(s.mode, s.N, s.p, s.K)
        held = 3 * square + 8 * (q - 1) * s.K
        assert peak < held + square / 2, f"peak {peak / square:.2f} K x K arrays"


@st.composite
def small_scenarios(draw):
    K = draw(st.integers(8, 14))
    q_policy = draw(st.sampled_from(["optimal", "topq", "fixed:1", "fixed:3"]))
    # Near rank-3 bandit models absorb degenerate nodes; only rules that
    # never re-score see them (re-scoring past a model's rank ranks noise).
    noises = [0.1, 1e-11] if q_policy in ("topq", "fixed:1") else [0.1]
    return Scenario(
        mode=draw(st.sampled_from(["polling", "aloha", "bandit"])),
        q_policy=q_policy,
        first_round=draw(st.sampled_from(["random", "greedy"])),
        K=K,
        rho=draw(st.sampled_from([0.5, 0.9, 0.99])),
        N=draw(st.integers(1, 3)),
        p=draw(st.sampled_from([0.3, 0.6, 1.0])),
        kbar=draw(st.integers(1, K)),
        T=draw(st.integers(1, 10)),
        runs=draw(st.integers(1, 5)),
        family_noise=draw(st.sampled_from(noises)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestLoopProperties:
    """The one run loop serves all modes: its round table does not depend on
    how runs are grouped into blocks, and every run obeys the round invariants."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(s=small_scenarios())
    def test_blocks_of_one_match_the_default(self, s):
        run = run_bandit_scenario if s.mode == "bandit" else run_scenario
        res = run(s)
        with patch.object(experiments, "_block_size", lambda K, arms=1: 1):
            alone = run(s)
        assert alone.records.columns == res.records.columns
        assert np.array_equal(alone.records.data, res.records.data, equal_nan=True)
        assert alone.stop_rounds == res.stop_rounds
        for run_id in range(s.run_count):
            recs = run_rows(res.records, run_id)
            assert [r["t"] for r in recs] == list(range(len(recs)))
            assert recs[0]["K_t"] == 0
            for rec in recs:
                assert rec["delivered"] + rec["collided"] <= s.N
            for a, b in zip(recs, recs[1:]):
                assert b["K_t"] == a["K_t"] + a["delivered"]
                assert b["mse_theory"] <= a["mse_theory"] + 1e-9


def _nanmean(values):
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) else float("nan")


def _to_9_digits(value):
    return pytest.approx(value, rel=1e-8, nan_ok=True)


class TestRoundTableProperties:
    """The rounds CSV, the per-round summary and the final values all read
    the one round table."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(s=small_scenarios())
    def test_csv_summary_and_finals_agree_with_the_table(self, s):
        bandit = s.mode == "bandit"
        res = (run_bandit_scenario if bandit else run_scenario)(s)
        table = res.records
        summary = res.summary_rows()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rounds.csv"
            write_rounds_csv(path, res)
            header = path.read_text().splitlines()[1]
            back = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
            path = Path(tmp) / "summary.csv"
            write_summary_csv(path, res)
            summary_header = path.read_text().splitlines()[1]
            summary_back = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        # Each file holds its table to 9 significant digits.
        assert header == ",".join(table.columns)
        np.testing.assert_allclose(back, table.data, rtol=1e-8, atol=0.0)
        assert summary_header == ",".join(summary.columns)
        np.testing.assert_allclose(summary_back, summary.data, rtol=1e-8, atol=0.0)

        col = dict(zip(table.columns, back.T))
        assert summary["t"].tolist() == sorted(set(col["t"]))
        for values in summary.data:
            row = dict(zip(summary.columns, values))
            at = col["t"] == row["t"]
            assert row["n_active"] == at.sum()
            for name in ("mse_theory", "sqerr_actual", "delivered", "collided"):
                assert row[f"mean_{name}"] == _to_9_digits(np.mean(col[name][at]))
            if bandit:
                for m in range(1, s.M + 1):
                    assert row[f"freq_{m}"] == np.mean(col["m"][at] == m)
                assert row["mean_cost"] == _to_9_digits(_nanmean(col["Y"][at]))
                for name in ("sqerr_delivered", "mse_delivered_true"):
                    assert row[f"mean_{name}"] == _to_9_digits(_nanmean(col[name][at]))

        if not bandit:
            last = {}
            for run, mse in zip(table["run"], table["mse_theory"]):
                last[int(run)] = mse
            assert res.final_mse_by_run().tolist() == [last[r] for r in range(s.run_count)]


class TestSweep:
    def test_single_value_matches_run_scenario(self):
        base = tiny(kbar=None, T=25)
        table = sweep(base, "p", [0.4])
        direct = run_scenario(replace(base, mode="aloha", kbar=12, T=25))
        point = table.points[0]
        assert point.aloha_mse == pytest.approx(np.mean(direct.final_mse_by_run()))

    def test_crossover_marker_follows_p(self):
        table = sweep(tiny(T=5, runs=2), "p", [0.2, 0.5])
        assert table.points[0].aloha_favored_predicted is True
        assert table.points[1].aloha_favored_predicted is False

    def test_n_sweep_changes_channel_count(self):
        table = sweep(tiny(T=10, runs=3), "N", [1, 4])
        assert [pt.value for pt in table.points] == [1.0, 4.0]

    def test_bad_param_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny(), "rho", [0.1])

    def test_non_integer_n_rejected(self):
        # int(2.5) would run N=2 under the label 2.5.
        with pytest.raises(ValueError, match="N values must be integers"):
            sweep(tiny(T=5, runs=2), "N", [1, 2.5])


class TestBanditScenario:
    def test_smoke_and_record_shape(self):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=12, runs=4, seed=5, M=5)
        res = run_bandit_scenario(s)
        assert res.records.data.size
        probs = [c for c in res.records.columns if c.startswith("P_")]
        assert len(probs) == 5
        for run in range(s.run_count):
            for rec in run_rows(res.records, run):
                assert 1 <= rec["m"] <= 5
                assert sum(rec[c] for c in probs) == pytest.approx(1.0, abs=1e-9)
                # round-robin start: rounds 0..4 play arms 1..5 in order
                if rec["t"] < 5:
                    assert rec["m"] == rec["t"] + 1

    def test_probabilities_are_one_hot_exactly_on_forced_rounds(self):
        # A round records one-hot P_* exactly when some arm has no cost
        # sample yet.  At p = 0.15 some round-robin rounds deliver nothing,
        # so some runs also force an arm after round M - 1.
        s = Scenario(mode="bandit", K=12, N=2, p=0.15, T=20, runs=8, seed=5)
        res = run_bandit_scenario(s)
        probs = [c for c in res.records.columns if c.startswith("P_")]
        late = 0
        for run in range(s.run_count):
            samples = np.zeros(len(probs), dtype=int)
            for rec in run_rows(res.records, run):
                p = np.array([rec[c] for c in probs])
                one_hot = np.count_nonzero(p) == 1 and p.max() == 1.0
                assert one_hot == (samples == 0).any()
                late += one_hot and rec["t"] >= len(probs)
                if not np.isnan(rec["Y"]):
                    samples[int(rec["m"]) - 1] += 1
        assert late > 0

    def test_fixed_model_baseline_plays_one_arm(self):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=10, runs=3, seed=5, fixed_model=2)
        res = run_bandit_scenario(s)
        assert set(res.records["m"]) == {2}

    def test_selection_frequencies_sum_to_one(self):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=15, runs=8, seed=3)
        res = run_bandit_scenario(s)
        summary = res.summary_rows()
        totals = sum(summary[f"freq_{m}"] for m in range(1, 6))
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)

    def test_q_policy_sets_the_request_count(self):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=12, runs=8, seed=5, q_policy="fixed:1")
        res = run_bandit_scenario(s)
        assert res.records["delivered"].max() <= 1

    def test_degenerate_cost_raises(self):
        # At this family noise some arms give delivered nodes a conditional
        # variance below DEGENERATE_COST_EPS; the ratio (up to ~1e13 here)
        # must not reach the bandit.
        s = Scenario(mode="bandit", K=100, family_noise=1e-14, runs=8, seed=3)
        with pytest.raises(NumericalDegeneracyError, match="zero conditional variance"):
            run_bandit_scenario(s)

    def test_requires_bandit_mode(self):
        with pytest.raises(ValueError, match="bandit"):
            run_bandit_scenario(tiny())


# One value off ``tiny``'s for every field the CSV header prints but mode.
HEADER_MOVES = dict(
    K=13, rho=0.5, N=3, p=0.7, q_policy="fixed:1", kbar=6, T=3, runs=7,
    first_round="greedy", seed=100, tau=20.0, M=3, true_model=2, fixed_model=2,
    family_J=2, family_noise=0.5,
)


def _header_fields(mode):
    tag = experiments._scenario_tag(tiny(mode=mode))
    return [item.split("=")[0] for item in tag.split()[1:]]


def _round_table(s):
    return (run_bandit_scenario if s.mode == "bandit" else run_scenario)(s).records


class TestCsvOutput:
    @pytest.mark.parametrize(
        "mode, field",
        [(mode, field) for mode in ("polling", "aloha", "bandit") for field in _header_fields(mode)],
    )
    def test_every_header_field_changes_the_run(self, mode, field):
        # A header that reports a field the run ignores misdescribes the table.
        base = _round_table(tiny(mode=mode))
        moved = _round_table(tiny(mode=mode, **{field: HEADER_MOVES[field]}))
        assert not (
            base.columns == moved.columns
            and np.array_equal(base.data, moved.data, equal_nan=True)
        )

    def test_rounds_csv_is_bit_identical_across_invocations(self, tmp_path):
        s = tiny()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_rounds_csv(path, run_scenario(s))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_rounds_csv_layout(self, tmp_path):
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, run_scenario(tiny(runs=2)))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# gdas.rounds.v1 mode=aloha")
        assert lines[1] == "run,t,K_t,mse_theory,sqerr_actual,delivered,collided"
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"

    def test_summary_csv_carries_bounds(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(path, run_scenario(tiny(runs=2)))
        head = path.read_text().splitlines()[0]
        assert "rounds_polling=" in head and "mean_stop_round=" in head

    def test_bandit_csv_has_probability_columns(self, tmp_path):
        s = Scenario(mode="bandit", K=12, N=2, p=0.4, T=8, runs=2, seed=5)
        path = tmp_path / "bandit.csv"
        write_rounds_csv(path, run_bandit_scenario(s))
        header = path.read_text().splitlines()[1]
        assert header.endswith("m,Y,sqerr_delivered,mse_delivered_true,P_1,P_2,P_3,P_4,P_5")

    def test_sweep_header_states_the_run_scenario(self, tmp_path):
        # sweep runs to a fixed horizon: kbar = K, and T = 75 when unset.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mode = aloha\nK = 12\nN = 2\np = 0.4\nkbar = 5\nruns = 2\nseed = 3\n")
        out = tmp_path / "out"
        assert cli.main(
            ["sweep", "--config", str(cfg), "--param", "N", "--values", "1,2", "--out", str(out)]
        ) == 0
        head = (out / "sweep_N.csv").read_text().splitlines()[0]
        assert " K=12 " in head and " kbar=12 T=75 runs=2 " in head

    def test_sweep_header_leaves_out_mode_and_the_swept_field(self, tmp_path):
        # Every point runs both modes, each at its own value of the swept field.
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep(tiny(T=5, runs=2), "p", [0.2, 0.5]))
        head = path.read_text().splitlines()[0]
        assert head.startswith("# gdas.sweep.v1 param=p K=12 rho=0.9 N=2 q_policy=optimal ")
        assert "mode=" not in head and " p=" not in head

    def test_sweep_csv(self, tmp_path):
        table = sweep(tiny(T=5, runs=2), "p", [0.2, 0.5])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# gdas.sweep.v1 param=p")
        assert len(lines) == 4


class TestConfigFiles:
    def test_parse_and_roundtrip(self):
        text = """
        # comment line
        mode = polling
        K = 30
        rho = 0.8
        N = 3
        p = 0.5
        kbar = 20
        T = 50
        runs = 7
        seed = 11
        """
        s = parse_scenario_text(text)
        assert s.mode == "polling" and s.K == 30 and s.runs == 7
        again = parse_scenario_text(scenario_to_text(s))
        assert again == s

    @pytest.mark.parametrize("key", ["snr_threshold", "snr_avg", "availability"])
    def test_physical_triple_keys_rejected(self, key):
        # The upload probability is given only as p.
        with pytest.raises(ValueError, match=f"unknown scenario key '{key}'"):
            parse_scenario_text(f"p = 0.2\n{key} = 1.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            parse_scenario_text("channels = 4")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_scenario_text("K = 3\nK = 4")

    def test_none_values(self):
        s = parse_scenario_text("mode = polling\nkbar = none")
        assert s.kbar is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("K = 1.5", "line 1: K must be an int, got '1.5'"),
            ("mode = polling\nseed = 1e3", "line 2: seed must be an int, got '1e3'"),
            ("rho = abc", "line 1: rho must be a float, got 'abc'"),
        ],
    )
    def test_type_errors_name_the_key_and_the_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text)
        assert str(exc.value) == message

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("mode = aloha\nK = 15\nseed = 4\n")
        s = replace(load_scenario(path), seed=77, runs=3)
        assert s.K == 15 and s.seed == 77 and s.runs == 3
