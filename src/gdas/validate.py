"""Self-validating checks behind ``gdas validate`` and the acceptance tests.

Each check runs a frozen-seed experiment and compares the outcome against
its pinned tolerance; the CLI turns any failure into a nonzero exit code.
The rules that ``gdas run|sweep|bandit --preset P --check`` applies live here
too (``preset_rule``), and checks 1, 3 and 8 run those presets' scenarios
under the same rules.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .access import aloha_round, expected_successes
from .bandit import round_cost_from_state, softmax_probs, new_bandit_state, update
from .engine import ingest, initial_state, polling_order, select_nodes
from .experiments import BanditResult, RunResult, SweepPoint, SweepResult
from .experiments import run_bandit_scenario, run_scenario, sweep
from .models import GaussianModel, build_ar1_model, condition, rank_one_condition
from .presets import BANDIT_PRESETS, RUN_PRESETS, SWEEP_PRESETS

DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name: str, started: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail, elapsed=time.perf_counter() - started)


_NEGATED = {"<": ">=", "<=": ">"}


def _compare(text: str, holds: bool, op: str, limit: str) -> str:
    """``text op limit`` if the comparison holds, else with the negated operator."""
    return f"{text} {op if holds else _NEGATED[op]} {limit}"


def _window(text: str, value: float, window: tuple[float, float]) -> str:
    lo, hi = window
    where = "in" if lo <= value <= hi else "outside"
    return f"{text} {value:.2f} {where} [{lo}, {hi}]"


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
        lo, hi = ROUNDS_WINDOWS[label]
        if not lo <= res.mean_stop_round <= hi:
            problems.append(_window(f"{label} mean stop", res.mean_stop_round, (lo, hi)))
    censored = sum(res.censored_runs for res in results.values())
    if censored:
        problems.append(f"censored runs {censored}")
    return problems


def check_round_counts(seed: int = DEFAULT_SEED) -> CheckResult:
    """The ``rounds`` preset (polling at ``seed``, ALOHA at ``seed + 1``) under
    its rule: polling within 5% of the 93.75 closed form, ALOHA within
    [49.7, 56.0] (its 49.7 closed form is a lower bound).  Budget: 30 s.
    """
    started = time.perf_counter()
    results = {
        label: run_scenario(replace(scenario, seed=seed + i))
        for i, (label, scenario) in enumerate(RUN_PRESETS["rounds"])
    }
    elapsed = time.perf_counter() - started
    problems = rounds_problems(results)
    in_time = elapsed < ROUNDS_BUDGET_S
    parts = [
        _window(f"{label} mean stop", res.mean_stop_round, ROUNDS_WINDOWS[label])
        for label, res in results.items()
    ]
    parts.append(f"censored runs {sum(res.censored_runs for res in results.values())}")
    parts.append(_compare(f"{elapsed:.1f}s", in_time, "<", f"{ROUNDS_BUDGET_S:g}s"))
    detail = _stating("; ".join(parts), problems)
    return _result("1 round-counts", started, not problems and in_time, detail)


def check_throughput(seed: int = DEFAULT_SEED) -> CheckResult:
    """ALOHA per-round deliveries vs the closed form: Q=20, N=4, p=0.2, 1e5 rounds."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    requested = list(range(1, 21))
    total = 0
    rounds = 100_000
    for _ in range(rounds):
        total += len(aloha_round(requested, 4, 0.2, rng).delivered)
    elapsed = time.perf_counter() - started
    mean = total / rounds
    target = expected_successes("aloha", 4, 0.2, 20)
    rel = abs(mean - target) / target
    close = rel <= 0.03
    in_time = elapsed < 5.0
    ok = close and in_time
    detail = (
        f"empirical {mean:.4f} vs formula {target:.4f} ("
        + _compare(f"rel {rel:.4f}", close, "<=", "0.03")
        + "); "
        + _compare(f"{elapsed:.1f}s", in_time, "<", "5s")
    )
    return _result("2 throughput-formula", started, ok, detail)


def crossover_holds(pt: SweepPoint) -> bool:
    """p-sweep rule: ALOHA wins where the 1/e crossover predicts it, polling elsewhere."""
    return pt.aloha_better == pt.aloha_favored_predicted


def sweep_problems(result: SweepResult) -> list[str]:
    """Breaks of the ordering rule: ``crossover_holds`` at every p; in N, a strict
    fall of each mode's final MSE."""
    if result.param == "p":
        return [
            f"p={pt.value:g}: winner differs from the 1/e crossover prediction"
            for pt in result.points
            if not crossover_holds(pt)
        ]
    bad = []
    for mode in ("aloha", "polling"):
        mses = [getattr(pt, f"{mode}_mse") for pt in result.points]
        if any(b >= a for a, b in zip(mses, mses[1:])):
            bad.append(f"{mode} MSE not decreasing in N")
    return bad


def check_crossover(seed: int = DEFAULT_SEED) -> CheckResult:
    """Fixed-horizon p-sweep: ALOHA wins below 1/e, polling wins above."""
    started = time.perf_counter()
    base, param, values = SWEEP_PRESETS["p-sweep"]
    table = sweep(replace(base, seed=seed), param, values)
    parts = []
    ok = True
    for pt in table.points:
        good = crossover_holds(pt)
        ok = ok and good
        parts.append(
            f"p={pt.value:g}: aloha {pt.aloha_mse:.3g} vs polling {pt.polling_mse:.3g}"
            f" [{'ok' if good else 'WRONG ORDER'}]"
        )
    return _result("3 crossover", started, ok, "; ".join(parts))


def _random_psd_model(rng: np.random.Generator, k: int) -> GaussianModel:
    a = rng.standard_normal((k, 2 * k))
    cov = a @ a.T / (2 * k) + 0.05 * np.eye(k)
    mean = rng.normal(0.0, 1.0, size=k)
    return GaussianModel(mean=mean, cov=cov)


def check_conditioning_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Incremental rank-one conditioning vs the batch solve: 200 random models, K<=50."""
    started = time.perf_counter()
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
            return _result("4 conditioning-equivalence", started, False, "unknown sets differ")
    ok = worst <= 1e-8
    detail = _compare(f"max entrywise |incremental - batch| = {worst:.2e}", ok, "<=", "1e-8")
    return _result("4 conditioning-equivalence", started, ok, detail + " over 200 models")


def _brute_force_best(model: GaussianModel, known: list[int], vals: list[float]) -> int:
    """Exhaustive argmin of the post-conditioning residual trace (tie: lowest node)."""
    state = condition(model, known, vals)
    candidates = [int(n) for n in state.unknown_idx]
    traces = []
    for node in candidates:
        after = condition(model, known + [node], vals + [0.0])
        traces.append(float(np.trace(after.cond_cov)))
    traces = np.asarray(traces)
    tol = 1e-9 * max(1.0, float(np.trace(state.cond_cov)))
    return candidates[int(np.flatnonzero(traces <= traces.min() + tol)[0])]


def check_greedy_oracle(seed: int = DEFAULT_SEED) -> CheckResult:
    """Greedy single pick equals the exhaustive argmin in 1000/1000 trials;
    over the pair trials, greedy's residual trace stays within 5% of the
    exhaustive-pair optimum in aggregate.

    The pair clause is an aggregate statement by necessity: greedy is
    sequential, and on strongly correlated lines its forced first pick can
    exclude the best pair (K=5 AR(1) at rho 0.95 has a 43% per-instance gap),
    so no per-trial 5% bound can hold.
    """
    started = time.perf_counter()
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
    pair_ok = pair_ratio <= 1.05
    ok = single_hits == single_trials and pair_ok
    detail = (
        f"single-pick agreement {single_hits}/{single_trials}; "
        + _compare(f"aggregate pair trace ratio {pair_ratio:.4f}", pair_ok, "<=", "1.05")
        + f" over {pair_trials} trials (worst single instance {worst_ratio:.2f})"
    )
    return _result("5 greedy-oracle", started, ok, detail)


def check_mse_calibration(seed: int = DEFAULT_SEED) -> CheckResult:
    """Monotone conditional MSE plus 100-run empirical tracking within 15%.

    The per-round 15% band is asserted on the failure-free single-channel
    configuration (deterministic deliveries, so the only noise is the
    realization of x); the random-access configuration is held to the same
    band on rounds where the residual MSE is large enough for a 100-run
    average to resolve it (mean MSE >= 0.5).
    """
    started = time.perf_counter()
    polling = run_scenario(replace(RUN_PRESETS["mse-curve"][0][1], T=75, seed=seed))
    aloha = run_scenario(replace(SWEEP_PRESETS["p-sweep"][0], kbar=100, seed=seed + 1))
    for label, res in (("polling", polling), ("aloha", aloha)):
        run = res.records["run"]
        rose = (np.diff(res.records["mse_theory"]) > 1e-9) & (run[1:] == run[:-1])
        if rose.any():
            return _result(
                "6 mse-calibration", started, False,
                f"{label} run {int(run[1:][rose][0])}: mse_theory increased",
            )

    worst = {}
    for label, res, floor in (("polling", polling, 0.0), ("aloha", aloha, 0.5)):
        summary = res.summary_rows()
        resolved = summary["mean_mse_theory"] > floor
        theory = summary["mean_mse_theory"][resolved]
        rel = np.abs(summary["mean_sqerr_actual"][resolved] - theory) / theory
        worst[label] = float(rel.max())
    within = {label: value <= 0.15 for label, value in worst.items()}
    ok = all(within.values())
    runs = polling.scenario.run_count + aloha.scenario.run_count
    detail = f"mse_theory nonincreasing in all {runs} runs; worst |empirical-theory|/theory: "
    detail += ", ".join(
        _compare(f"{label} {worst[label]:.3f}", within[label], "<=", "0.15") for label in worst
    )
    return _result("6 mse-calibration", started, ok, detail)


def check_polling_order(seed: int = DEFAULT_SEED) -> CheckResult:
    """The failure-free request order is one permutation, whatever x turns out to be."""
    started = time.perf_counter()
    model = build_ar1_model(100, 0.95)
    base = polling_order(model)
    if sorted(base) != list(range(1, 101)):
        return _result("7 polling-order", started, False, "order is not a permutation")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(model.cov)
    for _ in range(100):
        x = model.mean + chol @ rng.standard_normal(100)
        st = initial_state(model, x)
        seq = []
        for _ in range(100):
            node = select_nodes(st, 1)[0]
            seq.append(node)
            st = ingest(st, {node: float(x[node - 1])})
        if seq != base:
            return _result(
                "7 polling-order", started, False, "request order varied with the realization"
            )
    scaled = GaussianModel(mean=5.0 * model.mean, cov=model.cov)
    ok = polling_order(scaled) == base
    detail = "identical order across 100 realizations and under mean scaling"
    return _result("7 polling-order", started, ok, detail)


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


def check_bandit_behavior(seed: int = DEFAULT_SEED) -> CheckResult:
    """Softmax model selection: tau=1 locks onto the true model (the first 40
    rounds of ``bandit-tau1``), tau=20 stays near uniform (``bandit-tau20``),
    and the true-model cost averages 1."""
    started = time.perf_counter()
    res1 = run_bandit_scenario(replace(BANDIT_PRESETS["bandit-tau1"], T=40, seed=seed))
    leads = true_model_leads(res1)
    min_gap = min(leads.values())
    lead_bad = lead_problems(res1)
    lead_ok = not lead_bad

    res20 = run_bandit_scenario(replace(BANDIT_PRESETS["bandit-tau20"], seed=seed + 1))
    band = list(true_model_freqs(res20).values())
    band_bad = band_problems(res20)
    band_ok = not band_bad

    # Mean normalized true-model cost over 1e4 simulated delivery rounds.
    rng = np.random.default_rng(seed + 2)
    model = build_ar1_model(100, 0.95)
    chol = np.linalg.cholesky(model.cov)
    total = 0.0
    n_samples = 0
    for _ in range(1000):
        n_known = int(rng.integers(0, 61))
        perm = rng.permutation(100) + 1
        known = [int(n) for n in perm[:n_known]]
        n_del = int(rng.integers(1, 4))
        delivered = [int(n) for n in perm[n_known : n_known + n_del]]
        for _ in range(10):
            x = model.mean + chol @ rng.standard_normal(100)
            cond = condition(model, known, [float(x[n - 1]) for n in known])
            total += round_cost_from_state(cond, delivered, [float(x[n - 1]) for n in delivered])
            n_samples += 1
    mean_cost = total / n_samples
    cost_ok = abs(mean_cost - 1.0) <= 0.05

    ok = lead_ok and band_ok and cost_ok
    detail = (
        f"tau=1: true model {'strictly leads' if lead_ok else 'does not lead'} rounds "
        f"{min(leads)}..{max(leads)} (min gap {min_gap:.3f}); tau=20: selection frequency "
        f"{'in' if band_ok else 'outside'} {UNIFORM_FREQ}+-{UNIFORM_TOL} "
        f"(range {min(band):.3f}..{max(band):.3f}); "
        f"true-model mean cost {mean_cost:.4f} {'in' if cost_ok else 'outside'} 1+-0.05 "
        f"over {n_samples} samples"
    )
    return _result("8 bandit-behavior", started, ok, _stating(detail, lead_bad + band_bad))


def check_softmax_units(seed: int = DEFAULT_SEED) -> CheckResult:
    """Shift invariance, the high-temperature limit, and the two-arm closed form."""
    started = time.perf_counter()
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

    parts = [
        ("shift invariance err", shift_err, "1e-12"),
        ("tau=1e9 uniformity err", uniform_err, "1e-6"),
        ("two-arm closed form err", closed_err, "1e-9"),
    ]
    within = [err <= float(limit) for _, err, limit in parts]
    ok = all(within)
    detail = "; ".join(
        _compare(f"{text} {err:.1e}", good, "<=", limit)
        for (text, err, limit), good in zip(parts, within)
    )
    detail += f" (P_1 = {closed:.5f})"
    return _result("9 softmax-units", started, ok, detail)


ALL_CHECKS = (
    ("1", check_round_counts),
    ("2", check_throughput),
    ("3", check_crossover),
    ("4", check_conditioning_equivalence),
    ("5", check_greedy_oracle),
    ("6", check_mse_calibration),
    ("7", check_polling_order),
    ("8", check_bandit_behavior),
    ("9", check_softmax_units),
)


def run_all(seed: int = DEFAULT_SEED, only: set[str] | None = None) -> list[CheckResult]:
    results = []
    for key, fn in ALL_CHECKS:
        if only is not None and key not in only:
            continue
        results.append(fn(seed))
    return results
