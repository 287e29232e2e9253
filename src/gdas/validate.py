"""Self-validating checks behind ``gdas validate`` and the acceptance tests.

Each check runs a frozen-seed experiment and compares the outcome against
its pinned tolerance; the CLI turns any failure into a nonzero exit code.
The rules that ``gdas run|sweep|bandit --preset P --check`` applies live here
too (``preset_rule``), and checks 1, 3 and 8 run those presets' scenarios
under the same rules.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .access import aloha_round, delivered_law, expected_successes, stop_round_moments
from .bandit import cost_ratio, new_bandit_state, prediction_error_terms, softmax_probs, update
from .engine import TIE_TOLERANCE, ingest, initial_state, polling_order, select_nodes
from .experiments import BanditResult, RunResult, SweepPoint, SweepResult
from .experiments import _sampler, run_bandit_scenario, run_scenario, sweep
from .models import GaussianModel, build_ar1_model, condition, rank_one_condition
from .presets import BANDIT_PRESETS, RUN_PRESETS, SWEEP_PRESETS

DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


# (key, check) for every check, in definition order; ``_check`` fills it.
ALL_CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = []


def _check(name: str):
    """Register ``body(seed) -> (passed, detail)`` as the check ``name``.

    The registered function keeps the body's name and docstring, is called
    as ``check(seed=DEFAULT_SEED)``, times the body and returns its
    ``CheckResult``; its key in ``ALL_CHECKS`` is the number leading ``name``.
    """

    def register(body):
        @functools.wraps(body)
        def check(seed: int = DEFAULT_SEED) -> CheckResult:
            started = time.perf_counter()
            passed, detail = body(seed)
            return CheckResult(name, bool(passed), detail, time.perf_counter() - started)

        ALL_CHECKS.append((name.split()[0], check))
        return check

    return register


_OPS = {"<": (operator.lt, ">="), "<=": (operator.le, ">")}


def _bound(text: str, value: float, op: str, limit: float, unit: str = "") -> tuple[bool, str]:
    """Whether ``value op limit`` holds, and ``text`` followed by the comparison
    that does: ``op`` if it holds, else its negation, then ``limit`` and ``unit``."""
    test, negated = _OPS[op]
    holds = bool(test(value, limit))
    shown = f"{limit:g}".replace("e-0", "e-")
    return holds, f"{text} {op if holds else negated} {shown}{unit}"


def _window(text: str, value: float, window: tuple[float, float]) -> tuple[bool, str]:
    """Whether ``value`` lies in ``window``, and ``text`` stating the value in or outside it."""
    lo, hi = window
    holds = bool(lo <= value <= hi)
    return holds, f"{text} {value:.2f} {'in' if holds else 'outside'} [{lo}, {hi}]"


def _stating(detail: str, problems: list[str]) -> str:
    """``detail`` and the first of ``problems`` that it does not state already."""
    extra = [p for p in problems if p not in detail]
    more = f" (+{len(extra) - 1} more)" if len(extra) > 1 else ""
    return f"{detail}; {extra[0]}{more}" if extra else detail


# Check 1's windows on the mean stop round: 5% around the 93.75 polling
# closed form; the 49.7 closed form is a lower bound for ALOHA.
ROUNDS_POLLING_WINDOW = (89.1, 98.4)
ROUNDS_ALOHA_WINDOW = (49.7, 56.0)
ROUNDS_WINDOWS = {"polling": ROUNDS_POLLING_WINDOW, "aloha": ROUNDS_ALOHA_WINDOW}
ROUNDS_BUDGET_S = 30.0


def rounds_problems(results: dict[str, RunResult]) -> list[str]:
    """The ``rounds`` rule: each mode's mean stop round in its window, no run censored."""
    problems = []
    for label, res in results.items():
        holds, text = _window(f"{label} mean stop", res.mean_stop_round, ROUNDS_WINDOWS[label])
        if not holds:
            problems.append(text)
    censored = sum(res.censored_runs for res in results.values())
    if censored:
        problems.append(f"censored runs {censored}")
    return problems


def _exact_stop_round(res: RunResult) -> str:
    """The exact mean stop round of ``res``'s scenario and the z-score of its
    sample mean, in standard errors of the mean over the runs that stopped."""
    s = res.scenario
    mean, sd = stop_round_moments(s.mode, s.K, s.N, s.p, s.stop_threshold)
    reached = [r for r in res.stop_rounds if r is not None]
    se = sd / math.sqrt(len(reached)) if reached else math.nan
    return f" (exact {mean:.4f}, z {(res.mean_stop_round - mean) / se:+.2f})"


@_check("1 round-counts")
def check_round_counts(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The ``rounds`` preset (polling at ``seed``, ALOHA at ``seed + 1``) under
    its rule: each mode's mean stop round in its ``ROUNDS_WINDOWS`` window,
    within ``ROUNDS_BUDGET_S`` seconds.
    """
    started = time.perf_counter()
    results = {
        label: run_scenario(replace(scenario, seed=seed + i))
        for i, (label, scenario) in enumerate(RUN_PRESETS["rounds"])
    }
    elapsed = time.perf_counter() - started
    problems = rounds_problems(results)
    in_time, budget = _bound(f"{elapsed:.1f}s", elapsed, "<", ROUNDS_BUDGET_S, "s")
    parts = [
        _window(f"{label} mean stop", res.mean_stop_round, ROUNDS_WINDOWS[label])[1]
        + _exact_stop_round(res)
        for label, res in results.items()
    ]
    parts += [f"censored runs {sum(res.censored_runs for res in results.values())}", budget]
    return not problems and in_time, _stating("; ".join(parts), problems)


@_check("2 throughput-formula")
def check_throughput(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """ALOHA per-round deliveries vs the closed form: Q=20, N=4, p=0.2, 1e5 rounds.

    Beside the window, the z-score of the empirical mean under the exact law
    of a round's deliveries (``delivered_law``), in standard errors of the
    mean over the rounds.
    """
    q, n_channels, p, rounds = 20, 4, 0.2, 100_000
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    requested = list(range(1, q + 1))
    total = sum(len(aloha_round(requested, n_channels, p, rng).delivered) for _ in range(rounds))
    elapsed = time.perf_counter() - started
    mean = total / rounds
    target = expected_successes("aloha", n_channels, p, q)
    rel = abs(mean - target) / target
    close, rel_text = _bound(f"rel {rel:.4f}", rel, "<=", 0.03)
    in_time, time_text = _bound(f"{elapsed:.1f}s", elapsed, "<", 5.0, "s")
    law = delivered_law("aloha", n_channels, p, q)
    law_mean = sum(j * pr for j, pr in enumerate(law))
    law_sd = math.sqrt(sum((j - law_mean) ** 2 * pr for j, pr in enumerate(law)))
    z = (mean - law_mean) / (law_sd / math.sqrt(rounds))
    detail = (
        f"empirical {mean:.4f} vs formula {target:.4f} ({rel_text}); "
        f"law mean {law_mean:.4f}, SD {law_sd:.4f}, z {z:+.2f} over {rounds} rounds; {time_text}"
    )
    return close and in_time, detail


def crossover_holds(pt: SweepPoint) -> bool:
    """p-sweep rule: ALOHA wins where the 1/e crossover predicts it, polling
    elsewhere; a tie tests neither, so it breaks nothing."""
    return pt.tie or pt.aloha_better == pt.aloha_favored_predicted


# What ``sweep_problems`` tests, by swept parameter, as a passing check states it.
SWEEP_RULES = {
    "p": "sweep ordering matches the closed-form prediction",
    "N": "each mode's final MSE falls strictly in N (untested at MSE 0 on both sides)",
}


def sweep_problems(result: SweepResult) -> list[str]:
    """Breaks of the ordering rule: ``crossover_holds`` at every p; in N, a strict
    fall of each mode's final MSE.  A step where a mode is at MSE 0 on both
    sides cannot fall, so, like a tie in p, it tests nothing; a rise from 0
    still breaks the rule."""
    if result.param == "p":
        return [
            f"p={pt.value:g}: winner differs from the 1/e crossover prediction"
            for pt in result.points
            if not crossover_holds(pt)
        ]
    bad = []
    for mode in ("aloha", "polling"):
        mses = [getattr(pt, f"{mode}_mse") for pt in result.points]
        if any(b >= a and b != 0.0 for a, b in zip(mses, mses[1:])):
            bad.append(f"{mode} MSE not decreasing in N")
    return bad


@_check("3 crossover")
def check_crossover(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Fixed-horizon p-sweep: ALOHA wins below 1/e, polling wins above."""
    base, param, values = SWEEP_PRESETS["p-sweep"]
    table = sweep(replace(base, seed=seed), param, values)
    holds = [crossover_holds(pt) for pt in table.points]
    parts = [
        f"p={pt.value:g}: aloha {pt.aloha_mse:.3g} vs polling {pt.polling_mse:.3g}"
        f" [{'untested: tie' if pt.tie else 'ok' if good else 'WRONG ORDER'}]"
        for pt, good in zip(table.points, holds)
    ]
    return all(holds), "; ".join(parts)


def _random_psd_model(rng: np.random.Generator, k: int) -> GaussianModel:
    a = rng.standard_normal((k, 2 * k))
    cov = a @ a.T / (2 * k) + 0.05 * np.eye(k)
    mean = rng.normal(0.0, 1.0, size=k)
    return GaussianModel(mean=mean, cov=cov)


@_check("4 conditioning-equivalence")
def check_conditioning_equivalence(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Incremental rank-one conditioning vs the batch solve: 200 random models, K<=50."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 51))
        model = _random_psd_model(rng, k)
        n_obs = int(rng.integers(1, k))
        order = rng.permutation(k)[:n_obs] + 1
        vals = rng.normal(0.0, 1.0, size=n_obs)
        state = condition(model, [], [])
        for node, value in zip(order, vals):
            state = rank_one_condition(state, int(node), float(value))
        batch = condition(model, order, vals)
        worst = max(
            worst,
            float(np.abs(state.cond_mean - batch.cond_mean).max(initial=0.0)),
            float(np.abs(state.cond_cov - batch.cond_cov).max(initial=0.0)),
        )
        if not np.array_equal(state.unknown_idx, batch.unknown_idx):
            return False, "unknown sets differ"
    ok, detail = _bound(f"max entrywise |incremental - batch| = {worst:.2e}", worst, "<=", 1e-8)
    return ok, detail + " over 200 models"


def _brute_force_best(model: GaussianModel, known: list[int], vals: list[float]) -> int:
    """Exhaustive argmin of the post-conditioning residual trace (tie: lowest node)."""
    state = condition(model, known, vals)
    candidates = [int(n) for n in state.unknown_idx]
    traces = []
    for node in candidates:
        after = condition(model, known + [node], vals + [0.0])
        traces.append(float(np.trace(after.cond_cov)))
    traces = np.asarray(traces)
    tol = TIE_TOLERANCE * max(1.0, float(np.trace(state.cond_cov)))
    return candidates[int(np.flatnonzero(traces <= traces.min() + tol)[0])]


@_check("5 greedy-oracle")
def check_greedy_oracle(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Greedy single pick equals the exhaustive argmin in 1000/1000 trials;
    over the pair trials, greedy's residual trace stays within 5% of the
    exhaustive-pair optimum in aggregate.

    The pair clause is an aggregate statement by necessity: greedy is
    sequential, and on strongly correlated lines its forced first pick can
    exclude the best pair (K=5 AR(1) at rho 0.95 has a 43% per-instance gap),
    so no per-trial 5% bound can hold.
    """
    rng = np.random.default_rng(seed)
    single_hits = 0
    single_trials = 1000
    for trial in range(single_trials):
        k = int(rng.integers(2, 11))
        if trial % 2 == 0:
            model = build_ar1_model(k, float(rng.uniform(0.3, 0.98)))
        else:
            model = _random_psd_model(rng, k)
        n_obs = int(rng.integers(0, k - 1))
        known = [int(n) for n in rng.permutation(k)[:n_obs] + 1]
        vals = [float(v) for v in rng.normal(0.0, 1.0, size=n_obs)]
        st = initial_state(model)
        if known:
            st = ingest(st, dict(zip(known, vals)))
        if _brute_force_best(model, known, vals) == select_nodes(st, 1)[0]:
            single_hits += 1

    achieved_sum = 0.0
    optimum_sum = 0.0
    worst_ratio = 1.0
    pair_trials = 300
    for trial in range(pair_trials):
        k = int(rng.integers(3, 11))
        if trial % 2 == 0:
            model = build_ar1_model(k, float(rng.uniform(0.3, 0.98)))
        else:
            model = _random_psd_model(rng, k)
        st = initial_state(model)
        pair = select_nodes(st, 2)
        achieved = float(np.trace(condition(model, pair, [0.0, 0.0]).cond_cov))
        best = min(
            float(np.trace(condition(model, [i, j], [0.0, 0.0]).cond_cov))
            for i in range(1, k + 1)
            for j in range(i + 1, k + 1)
        )
        achieved_sum += achieved
        optimum_sum += best
        if best > 1e-12:
            worst_ratio = max(worst_ratio, achieved / best)

    pair_ratio = achieved_sum / optimum_sum
    pair_ok, pair_text = _bound(
        f"aggregate pair trace ratio {pair_ratio:.4f}", pair_ratio, "<=", 1.05
    )
    detail = (
        f"single-pick agreement {single_hits}/{single_trials}; {pair_text}"
        f" over {pair_trials} trials (worst single instance {worst_ratio:.2f})"
    )
    return single_hits == single_trials and pair_ok, detail


@_check("6 mse-calibration")
def check_mse_calibration(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Monotone conditional MSE plus 100-run empirical tracking within 15%.

    The per-round 15% band is asserted on the failure-free single-channel
    configuration (deterministic deliveries, so the only noise is the
    realization of x); the random-access configuration is held to the same
    band on rounds where the residual MSE is large enough for a 100-run
    average to resolve it (mean MSE >= 0.5).
    """
    polling = run_scenario(replace(RUN_PRESETS["mse-curve"][0][1], T=75, seed=seed))
    aloha = run_scenario(replace(SWEEP_PRESETS["p-sweep"][0], kbar=100, seed=seed + 1))
    bounds = []
    for label, res, floor in (("polling", polling, 0.0), ("aloha", aloha, 0.5)):
        run = res.records["run"]
        rose = (np.diff(res.records["mse_theory"]) > 1e-9) & (run[1:] == run[:-1])
        if rose.any():
            return False, f"{label} run {int(run[1:][rose][0])}: mse_theory increased"
        summary = res.summary_rows()
        resolved = summary["mean_mse_theory"] > floor
        theory = summary["mean_mse_theory"][resolved]
        worst = float((np.abs(summary["mean_sqerr_actual"][resolved] - theory) / theory).max())
        bounds.append(_bound(f"{label} {worst:.3f}", worst, "<=", 0.15))
    runs = polling.scenario.run_count + aloha.scenario.run_count
    detail = f"mse_theory nonincreasing in all {runs} runs; worst |empirical-theory|/theory: "
    return all(ok for ok, _ in bounds), detail + ", ".join(text for _, text in bounds)


@_check("7 polling-order")
def check_polling_order(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The failure-free request order is one permutation, whatever x turns out to be."""
    model = build_ar1_model(100, 0.95)
    base = polling_order(model)
    if sorted(base) != list(range(1, 101)):
        return False, "order is not a permutation"
    rng = np.random.default_rng(seed)
    draw = _sampler(model)
    for _ in range(100):
        x = draw(rng)
        st = initial_state(model, x)
        seq = []
        for _ in range(100):
            node = select_nodes(st, 1)[0]
            seq.append(node)
            st = ingest(st, {node: float(x[node - 1])})
        if seq != base:
            return False, "request order varied with the realization"
    scaled = GaussianModel(mean=5.0 * model.mean, cov=model.cov)
    return polling_order(scaled) == base, "identical order across 100 realizations and under mean scaling"


# Check 8's selection-frequency windows, which ``gdas bandit --check``
# applies too.  They hold from round 2·M on, after the round-robin sweep and
# one more pass: at tau=1 the true model is played strictly more often than
# any other model, and at tau=20 its frequency stays within
# UNIFORM_FREQ +- UNIFORM_TOL.
UNIFORM_FREQ = 0.2
UNIFORM_TOL = 0.07


def true_model_leads(result: BanditResult) -> dict[int, float]:
    """Per round from 2·M on: the true model's frequency minus the best other model's."""
    summary = result.summary_rows()
    s = result.scenario
    others = [summary[f"freq_{m}"] for m in range(1, s.M + 1) if m != s.true_model]
    lead = summary[f"freq_{s.true_model}"] - np.max(others, axis=0)
    return {int(t): float(v) for t, v in zip(summary["t"], lead) if t >= 2 * s.M}


def true_model_freqs(result: BanditResult) -> dict[int, float]:
    """Per round from 2·M on: the true model's selection frequency."""
    summary = result.summary_rows()
    s = result.scenario
    freq = summary[f"freq_{s.true_model}"]
    return {int(t): float(f) for t, f in zip(summary["t"], freq) if t >= 2 * s.M}


def lead_problems(result: BanditResult) -> list[str]:
    """The ``bandit-tau1`` rule: the true model strictly leads from round 2·M on."""
    return [
        f"round {t}: true model not leading (lead {lead:.3f})"
        for t, lead in true_model_leads(result).items()
        if lead <= 0
    ]


def band_problems(result: BanditResult) -> list[str]:
    """The ``bandit-tau20`` rule: the true model's frequency stays in
    UNIFORM_FREQ +- UNIFORM_TOL from round 2·M on."""
    return [
        f"round {t}: frequency {freq:.3f} outside {UNIFORM_FREQ}+-{UNIFORM_TOL}"
        for t, freq in true_model_freqs(result).items()
        if not abs(freq - UNIFORM_FREQ) <= UNIFORM_TOL
    ]


def mismatch_problems(result: BanditResult) -> list[str]:
    """The ``mismatch`` rule: the wrong model's per-round squared error is never
    below the true model's conditional MSE of the same deliveries."""
    summary = result.summary_rows()
    return [
        f"round {int(t)}: wrong-model error {wrong:.3g} below true-model MSE {true:.3g}"
        for t, wrong, true in zip(
            summary["t"], summary["mean_sqerr_delivered"], summary["mean_mse_delivered_true"]
        )
        if wrong < true
    ]


def preset_rule(preset: str | None):
    """The rule ``--check`` applies to ``preset``'s result (a list of problems), or None.

    Checks 1 and 8 decide through the same functions, and check 3 through
    ``crossover_holds``; the table is built per call.
    """
    return {
        "rounds": rounds_problems,
        "p-sweep": sweep_problems,
        "n-sweep": sweep_problems,
        "bandit-tau1": lead_problems,
        "bandit-tau20": band_problems,
        "mismatch": mismatch_problems,
    }.get(preset)


@_check("8 bandit-behavior")
def check_bandit_behavior(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Softmax model selection: tau=1 locks onto the true model (the first 40
    rounds of ``bandit-tau1``), tau=20 stays near uniform (``bandit-tau20``),
    and the true-model cost averages 1."""
    res1 = run_bandit_scenario(replace(BANDIT_PRESETS["bandit-tau1"], T=40, seed=seed))
    leads = true_model_leads(res1)
    lead_bad = lead_problems(res1)

    res20 = run_bandit_scenario(replace(BANDIT_PRESETS["bandit-tau20"], seed=seed + 1))
    band = list(true_model_freqs(res20).values())
    band_bad = band_problems(res20)

    # Mean normalized true-model cost over 1e4 simulated delivery rounds.
    rng = np.random.default_rng(seed + 2)
    model = build_ar1_model(100, 0.95)
    draw = _sampler(model)
    total = 0.0
    n_samples = 0
    for _ in range(1000):
        n_known = int(rng.integers(0, 61))
        perm = rng.permutation(100) + 1
        known = [int(n) for n in perm[:n_known]]
        n_del = int(rng.integers(1, 4))
        delivered = [int(n) for n in perm[n_known : n_known + n_del]]
        for _ in range(10):
            x = draw(rng)
            cond = condition(model, known, [float(x[n - 1]) for n in known])
            vals = [float(x[n - 1]) for n in delivered]
            total += cost_ratio(*prediction_error_terms(cond, delivered, vals))
            n_samples += 1
    mean_cost = total / n_samples
    gap = abs(mean_cost - 1)
    cost_ok, cost_text = _bound(
        f"true-model mean cost {mean_cost:.4f}, |cost - 1| {gap:.4f}", gap, "<=", 0.05
    )

    detail = (
        f"tau=1: true model {'does not lead' if lead_bad else 'strictly leads'} rounds "
        f"{min(leads)}..{max(leads)} (min gap {min(leads.values()):.3f}); tau=20: selection "
        f"frequency {'outside' if band_bad else 'in'} {UNIFORM_FREQ}+-{UNIFORM_TOL} "
        f"(range {min(band):.3f}..{max(band):.3f}); {cost_text} over {n_samples} samples"
    )
    return not lead_bad and not band_bad and cost_ok, _stating(detail, lead_bad + band_bad)


@_check("9 softmax-units")
def check_softmax_units(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Shift invariance, the high-temperature limit, and the two-arm closed form."""
    rng = np.random.default_rng(seed)

    def state_with(psi: np.ndarray, tau: float):
        st = new_bandit_state(psi.shape[0], tau)
        for m, value in enumerate(psi, start=1):
            st = update(st, m, float(value))
        return st

    psi = rng.uniform(0.5, 4.0, size=5)
    base = softmax_probs(state_with(psi, 1.0))
    shifted = softmax_probs(state_with(psi + 7.25, 1.0))
    shift_err = float(np.abs(base - shifted).max())

    hot = softmax_probs(state_with(psi, 1e9))
    uniform_err = float(np.abs(hot - 0.2).max())

    two = softmax_probs(state_with(np.array([1.0, 2.0]), 1.0))
    closed = 1.0 / (1.0 + math.exp(-1.0))
    closed_err = abs(float(two[0]) - closed)

    bounds = [
        _bound(f"shift invariance err {shift_err:.1e}", shift_err, "<=", 1e-12),
        _bound(f"tau=1e9 uniformity err {uniform_err:.1e}", uniform_err, "<=", 1e-6),
        _bound(f"two-arm closed form err {closed_err:.1e}", closed_err, "<=", 1e-9),
    ]
    detail = "; ".join(text for _, text in bounds) + f" (P_1 = {closed:.5f})"
    return all(ok for ok, _ in bounds), detail


def run_all(seed: int = DEFAULT_SEED, only: set[str] | None = None) -> list[CheckResult]:
    return [check(seed) for key, check in ALL_CHECKS if only is None or key in only]
