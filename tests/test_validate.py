"""Check reports state the comparison that actually holds."""

import math
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np

import gdas.engine as engine
import gdas.experiments as experiments
import gdas.models as models
import gdas.validate as validate
from gdas.access import delivered_law, stop_round_moments
from gdas.experiments import (
    BANDIT_COLUMNS,
    ROUNDS_COLUMNS,
    BanditResult,
    Rounds,
    RunResult,
    Scenario,
    SweepPoint,
    SweepResult,
)
from gdas.presets import RUN_PRESETS
from gdas.validate import ROUNDS_ALOHA_WINDOW, ROUNDS_WINDOWS, _bound, _window


def test_failed_budget_prints_the_negated_operator():
    assert _bound("41.4s", 41.4, "<", 30.0, "s") == (False, "41.4s >= 30s")
    assert _bound("12.0s", 12.0, "<", 30.0, "s") == (True, "12.0s < 30s")
    assert _bound("rel 0.0500", 0.05, "<=", 0.03) == (False, "rel 0.0500 > 0.03")


def test_bound_at_the_limit_fails_strict_and_holds_inclusive():
    assert _bound("5.0s", 5.0, "<", 5.0, "s") == (False, "5.0s >= 5s")
    assert _bound("err 1.0e-08", 1e-8, "<=", 1e-8) == (True, "err 1.0e-08 <= 1e-8")


def test_checks_are_registered_in_order():
    assert [key for key, _ in validate.ALL_CHECKS] == [str(n) for n in range(1, 10)]
    check = validate.check_softmax_units
    assert check.__name__ == "check_softmax_units" and "two-arm closed form" in check.__doc__
    res = check()
    assert res.name == "9 softmax-units" and res.passed and res.elapsed > 0


def test_window_report_says_in_or_outside():
    assert _window("aloha mean stop", 49.84, ROUNDS_ALOHA_WINDOW) == (
        True,
        "aloha mean stop 49.84 in [49.7, 56.0]",
    )
    assert _window("aloha mean stop", 49.5, ROUNDS_ALOHA_WINDOW) == (
        False,
        "aloha mean stop 49.50 outside [49.7, 56.0]",
    )
    # Both edges are inside; a run with no stop round (nan mean) is outside.
    assert _window("w", 56.0, ROUNDS_ALOHA_WINDOW)[0] and _window("w", 49.7, ROUNDS_ALOHA_WINDOW)[0]
    assert _window("w", math.nan, ROUNDS_ALOHA_WINDOW) == (False, "w nan outside [49.7, 56.0]")


def test_conditioning_report_on_a_biased_update():
    # Check 4 folds through ``ingest``, which calls ``engine.rank_one_condition``.
    real = engine.rank_one_condition

    def biased(post, node, value, *, run=0, **kwargs):
        out = real(post, node, value, run=run, **kwargs)
        out.mean[run][:, out.columns(run)] += 1e-6
        return out

    with patch.object(engine, "rank_one_condition", biased):
        res = validate.check_conditioning_equivalence()
    assert not res.passed
    assert "> 1e-8 over 200 models" in res.detail


def test_conditioning_check_folds_blocks_and_compacts_as_the_round_loop_does():
    # Check 4 tests the fold that ``ingest`` runs: blocked downdates of more
    # than one node, and a stack that compacts as its run narrows.
    real_fold, real_compact = models._fold, models.PosteriorStack.compact
    nodes, narrowed = [], []

    def fold(cov, mean, pos, *args):
        nodes.append(pos.shape[0])
        return real_fold(cov, mean, pos, *args)

    def compact(post):
        width = post.cov.shape[-1]
        real_compact(post)
        narrowed.append(post.cov.shape[-1] < width)

    with patch.object(models, "_fold", fold), patch.object(models.PosteriorStack, "compact", compact):
        res = validate.check_conditioning_equivalence()
    assert res.passed
    assert max(nodes) > 1 and any(narrowed)


def test_greedy_report_when_picks_ignore_the_cost():
    def lowest_labels(state, q):
        return [int(n) for n in state.cond.unknown_idx[:q]]

    with patch.object(validate, "select_nodes", lowest_labels):
        res = validate.check_greedy_oracle()
    assert not res.passed
    assert "aggregate pair trace ratio" in res.detail and "> 1.05" in res.detail


def test_polling_order_check_picks_through_the_block_kernel():
    # Check 7 runs its 100 realizations as one block: each step is one
    # ``_greedy`` call over all 100 runs.
    real = engine._greedy
    runs = []

    def counted(S, labels, *args, **kwargs):
        runs.append(labels.shape[0])
        return real(S, labels, *args, **kwargs)

    with patch.object(engine, "_greedy", counted):
        res = validate.check_polling_order()
    assert res.passed
    assert runs == [100] * 100


def test_polling_order_fails_when_the_first_pick_follows_the_target():
    # Check 7's power against an order that depends on the realization: in
    # the first step, each run whose target at node 50 lies above its prior
    # mean takes its second greedy pick instead of its first.
    real = validate.select_nodes

    def peeking(post, q):
        picks = real(post, q)
        if not post.observed[0]:
            # The first step: nothing is observed, so column 49 holds node 50.
            seconds = real(post, 2)
            above = (post.targets[:, 49] > post.mean[:, 0, 49]).tolist()
            picks = [[two[1]] if up else one for one, two, up in zip(picks, seconds, above)]
        return picks

    with patch.object(validate, "select_nodes", peeking):
        res = validate.check_polling_order()
    assert not res.passed
    assert res.detail == "request order varied with the realization"


def test_calibration_report_with_too_few_runs():
    real = validate.run_scenario
    with patch.object(validate, "run_scenario", lambda s: real(replace(s, runs=2))):
        res = validate.check_mse_calibration()
    assert not res.passed
    assert "> 0.15" in res.detail


def test_calibration_report_names_the_run_whose_mse_rose():
    real = validate.run_scenario

    def rising(s):
        res = real(replace(s, runs=3))
        data = res.records.data.copy()
        rows = np.flatnonzero(res.records["run"] == 2)
        col = res.records.columns.index("mse_theory")
        data[rows[2], col] = data[rows[1], col] + 1.0
        return replace(res, records=replace(res.records, data=data))

    with patch.object(validate, "run_scenario", rising):
        res = validate.check_mse_calibration()
    assert not res.passed
    assert res.detail == "polling run 2: mse_theory increased"


def test_softmax_report_names_the_failing_part():
    real = validate.new_bandit_state
    with patch.object(validate, "new_bandit_state", lambda arms, tau: real(arms, 2 * tau)):
        res = validate.check_softmax_units()
    assert not res.passed
    assert "shift invariance err" in res.detail and "<= 1e-12" in res.detail
    assert "> 1e-9" in res.detail


def test_crossover_rule_is_check_3s():
    points = [
        SweepPoint("p", p, 2.0, 2.0, 1.0, 1.0, True, favored)
        for p, favored in ((0.2, True), (0.6, False))
    ]
    table = SweepResult(Scenario(), "p", points)
    assert validate.sweep_problems(table) == [
        "p=0.6: winner differs from the 1/e crossover prediction"
    ]
    with patch.object(validate, "sweep", lambda base, param, values: table):
        res = validate.check_crossover()
    assert not res.passed
    assert res.detail == (
        "p=0.2: aloha 1 vs polling 2 [ok]; p=0.6: aloha 1 vs polling 2 [WRONG ORDER]"
    )


def test_a_tie_breaks_no_crossover_rule():
    # Both modes at MSE 0: aloha_better is false, yet polling did not win.
    points = [
        SweepPoint("p", p, 0.0, 0.0, 0.0, 0.0, False, favored)
        for p, favored in ((0.2, True), (0.6, False))
    ]
    table = SweepResult(Scenario(), "p", points)
    assert [pt.tie for pt in points] == [True, True]
    assert validate.sweep_problems(table) == []
    with patch.object(validate, "sweep", lambda base, param, values: table):
        res = validate.check_crossover()
    assert res.passed
    assert res.detail == (
        "p=0.2: aloha 0 vs polling 0 [untested: tie]; p=0.6: aloha 0 vs polling 0 [untested: tie]"
    )


def test_crossover_fails_when_sweep_swaps_the_modes():
    # Check 3's power against a sweep that runs each point's polling
    # scenario as ALOHA and its ALOHA scenario as polling: every p is then
    # scored in the wrong order.
    real = experiments.run_scenario
    swapped = {"polling": "aloha", "aloha": "polling"}
    with patch.object(experiments, "run_scenario", lambda s: real(replace(s, mode=swapped[s.mode]))):
        res = validate.check_crossover()
    assert not res.passed
    assert res.detail.count("[WRONG ORDER]") == 5, res.detail


def test_n_sweep_rule_wants_a_strict_decrease_in_each_mode():
    mses = ((1, 3.0, 2.0), (2, 3.0, 1.0), (4, 1.0, 1.0))
    points = [SweepPoint("N", n, pm, pm, am, am, am < pm, True) for n, pm, am in mses]
    assert validate.sweep_problems(SweepResult(Scenario(), "N", points)) == [
        "aloha MSE not decreasing in N",
        "polling MSE not decreasing in N",
    ]
    assert validate.sweep_problems(SweepResult(Scenario(), "N", points[:1])) == []


def test_n_sweep_step_at_zero_on_both_sides_is_untested():
    # Each mode reaches MSE 0 from N=2 on: those steps cannot fall and break
    # nothing.  A rise from 0 still breaks the rule.
    def problems(mses):
        points = [SweepPoint("N", n, pm, pm, am, am, am < pm, True) for n, pm, am in mses]
        return validate.sweep_problems(SweepResult(Scenario(), "N", points))

    assert problems(((1, 3.0, 2.0), (2, 0.0, 0.0), (4, 0.0, 0.0))) == []
    assert problems(((1, 0.0, 0.0), (2, 0.0, 0.0), (4, 0.0, 1e-3))) == [
        "aloha MSE not decreasing in N"
    ]


def test_rounds_rule_names_windows_and_censored_runs():
    def result(stops):
        # One row per run, its last: a run that stops at round s reaches
        # kbar = K = 100 in row t = s - 1; a censored run ends short of it.
        rows = [
            (run, 119 if s is None else s - 1, 99, 1.0, 1.0, s is not None, 0)
            for run, s in enumerate(stops)
        ]
        return RunResult(Scenario(), Rounds(ROUNDS_COLUMNS, np.array(rows, dtype=float)))

    assert validate.rounds_problems({"polling": result([93, 94]), "aloha": result([50])}) == []
    assert validate.rounds_problems({"polling": result([80, 81]), "aloha": result([49, 50])}) == [
        "polling mean stop 80.50 outside [89.1, 98.4]",
        "aloha mean stop 49.50 outside [49.7, 56.0]",
    ]
    assert validate.rounds_problems({"aloha": result([50, None, None])}) == ["censored runs 2"]


def test_round_counts_fail_with_the_rounds_rule_text():
    real = validate.run_scenario
    with patch.object(validate, "rounds_problems", lambda results: ["injected problem"]), \
            patch.object(validate, "run_scenario", lambda s: real(replace(s, runs=2))):
        res = validate.check_round_counts()
    assert not res.passed
    assert res.detail.endswith("s < 30s; injected problem")


def test_check_1_catches_a_stop_one_round_early_but_not_one_late():
    # Check 1's power against an off-by-one stop round: under the exact law
    # of the stop round (``stop_round_moments``) and a normal approximation
    # of the mean of the preset's 500 runs, the chance that each mode's
    # mean stop round falls outside its window when the program stops at
    # kbar instead of 75.
    def outside(kbar):
        rates, edges = {}, {}
        for label, scenario in RUN_PRESETS["rounds"]:
            assert scenario.runs == 500 and scenario.kbar == 75
            mean, sd = stop_round_moments(scenario.mode, scenario.K, scenario.N, scenario.p, kbar)
            se = sd / math.sqrt(scenario.runs)
            lo, hi = ROUNDS_WINDOWS[label]
            below = 0.5 * math.erfc((mean - lo) / se / math.sqrt(2))
            above = 0.5 * math.erfc((hi - mean) / se / math.sqrt(2))
            rates[label], edges[label] = below + above, (lo - mean) / se
        return rates, edges

    # The correct program: ALOHA's lower edge is 1.79 SEs below its mean,
    # so 3.7% of seeds fail; polling almost never does.
    rates, edges = outside(75)
    assert round(edges["aloha"], 2) == -1.79 and round(rates["aloha"], 3) == 0.037
    assert rates["polling"] < 1e-9
    # One round early: ALOHA fails 93.1% of seeds.
    rates, _ = outside(74)
    assert round(rates["aloha"], 3) == 0.931 and rates["polling"] < 1e-9
    # One round late passes almost surely: ALOHA's lower edge sits 5.02
    # SEs below its mean, polling's upper edge 6.9 SEs above.
    rates, edges = outside(76)
    assert round(edges["aloha"], 2) == -5.02
    assert rates["aloha"] < 1e-6 and rates["polling"] < 1e-9


def test_throughput_fails_when_collisions_count_as_deliveries():
    # Check 2's power against an ALOHA round that delivers every responder,
    # collided or not: the mean rises from ~1.6 to q p = 4 per round.
    real = validate.aloha_round

    def no_collisions(requested, n_channels, p, rng):
        out = real(requested, n_channels, p, rng)
        return replace(out, delivered=out.responders)

    with patch.object(validate, "aloha_round", no_collisions):
        res = validate.check_throughput()
    assert not res.passed
    assert "> 0.03" in res.detail


def test_throughput_target_is_the_formula():
    with patch.object(validate, "expected_successes", lambda *args: 1.6):
        res = validate.check_throughput()
    assert not res.passed
    assert "vs formula 1.6000" in res.detail and "> 0.03" in res.detail
    # Beside the window: the exact law's moments and the z-score of the mean.
    law = delivered_law("aloha", 4, 0.2, 20)
    mean = sum(j * pr for j, pr in enumerate(law))
    var = sum(j * j * pr for j, pr in enumerate(law)) - mean * mean
    printed = re.search(r"law mean ([\d.]+), SD ([\d.]+), z ([-+][\d.]+) over (\d+) rounds", res.detail)
    assert printed, res.detail
    assert printed.group(1) == f"{mean:.4f}" and printed.group(2) == f"{math.sqrt(var):.4f}"
    empirical = float(re.search(r"empirical ([\d.]+)", res.detail).group(1))
    # The empirical mean is printed to 4 decimals, 0.016 standard errors.
    se = math.sqrt(var / int(printed.group(4)))
    assert abs(float(printed.group(3)) - (empirical - mean) / se) < 0.03


def test_bandit_rules_read_the_summary_columns():
    # Two runs of six rounds over two models; the true model is 1, so the
    # frequency rules start at round 2·M = 4.
    played = {0: [1, 2, 1, 1, 1, 2], 1: [2, 1, 1, 2, 1, 1]}
    rows = []
    for run, arms in played.items():
        for t, m in enumerate(arms):
            wrong = 0.5 if t == 3 else 2.0
            rows.append((run, t, 2 * t, 1.0, 1.0, 1, 0, m, np.nan, wrong, 1.0, 0.5, 0.5))
    table = Rounds(ROUNDS_COLUMNS + BANDIT_COLUMNS + ("P_1", "P_2"), np.array(rows, dtype=float))
    res = BanditResult(Scenario(mode="bandit", M=2, true_model=1), table)
    assert validate.true_model_leads(res) == {4: 1.0, 5: 0.0}
    assert validate.true_model_freqs(res) == {4: 1.0, 5: 0.5}
    assert validate.lead_problems(res) == ["round 5: true model not leading (lead 0.000)"]
    assert validate.mismatch_problems(res) == [
        "round 3: wrong-model error 0.5 below true-model MSE 1"
    ]


def test_bandit_behavior_fails_when_arms_are_drawn_uniformly():
    # Check 8's power against a bandit that ignores its costs: after the
    # round-robin sweep it draws every arm with probability 1/M, so the true
    # model does not lead through rounds 10..39 at tau = 1.
    def uniform(state, t, rng):
        return t + 1 if t < state.arms else int(rng.integers(state.arms)) + 1

    with patch.object(experiments, "select_model", uniform):
        res = validate.check_bandit_behavior()
    assert not res.passed
    assert "does not lead" in res.detail
