"""Monte-Carlo orchestration: scenarios, the round table, summaries, CSV output.

A scenario fully determines its output: run r of a scenario draws everything
from ``default_rng(SeedSequence((seed, r)))``, so repeated invocations are
bit-identical.  The first round requests uniformly random nodes by default
(``first_round="greedy"`` switches that off); later rounds always go through
the selection engine.  A round draws its access outcome on request positions
1..q first, since the draws depend on q alone; greedy picks are a prefix, so
a run selects only up to its last delivered position.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .access import (
    aloha_round,
    crossover_check,
    expected_successes,
    mean_rounds_bound,
    polling_round,
    request_count,
)
from .bandit import (
    BanditState,
    cost_ratio,
    new_bandit_state,
    prediction_error_terms,
    select_model,
    softmax_probs,
    update,
)
from .engine import ingest, initial_state, select_nodes
from .models import (
    FAMILY_SIZE,
    GaussianModel,
    _spd_cholesky,
    build_ar1_model,
    build_model_family,
)

ROUNDS_SCHEMA = "gdas.rounds.v1"
SUMMARY_SCHEMA = "gdas.summary.v1"
SWEEP_SCHEMA = "gdas.sweep.v1"

_MODES = ("polling", "aloha", "bandit")
_FIRST_ROUND = ("random", "greedy")

# Runs advance in lockstep blocks that share one posterior stack: a K x K
# float64 posterior per run and arm, plus the copy of one per run that
# ``select_nodes`` gathers for the arm each run selects with when two or
# more runs select.  ``_greedy`` only reads that copy, and a determined
# pick is always handled by ``_greedy_one``.  Together they take at most
# this many bytes.  At K=100 that is 19 runs, or 6 bandit runs of 5 arms;
# K=400 gets blocks of one, which select in place.  The cap bounds the
# memory blocking adds: with the stack at this cap, the peak RSS of the four
# benchmark workloads measured 0.2-2.2 MB below that of per-run posteriors
# in 2 MB blocks (2-vCPU Xeon), and bandit runs got 6 runs per block
# instead of 4.
BLOCK_BYTES = 3 << 20


@dataclass(frozen=True)
class Scenario:
    """Everything a simulation needs, in CSV-header order; the seed pins the output.

    ``p`` is the probability that a requested node uploads in a round, the
    one number the channel model reduces fading and missing data to;
    ``access.uploading_probability`` computes it from a fading model.
    """

    mode: str = "aloha"
    K: int = 100
    rho: float = 0.95
    N: int = 4
    p: float = 0.2
    q_policy: str = "optimal"
    kbar: int | None = None
    T: int | None = None
    runs: int | None = None
    first_round: str = "random"
    seed: int = 12345
    tau: float = 1.0
    M: int = FAMILY_SIZE
    true_model: int = 1
    fixed_model: int | None = None
    family_J: int = 3
    family_noise: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _KINDS[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.K < 1 or self.N < 1:
            raise ValueError("K and N must be >= 1")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not (self.q_policy in ("optimal", "topq") or _fixed_q(self.q_policy) is not None):
            raise ValueError("q_policy must be 'optimal', 'topq' or 'fixed:<n>'")
        if self.kbar is not None and not 1 <= self.kbar <= self.K:
            raise ValueError("kbar must lie in 1..K")
        if self.T is not None and self.T < 1:
            raise ValueError("T must be >= 1")
        if self.runs is not None and self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 2 <= self.M <= FAMILY_SIZE:
            raise ValueError(f"M must lie in 2..{FAMILY_SIZE}")
        if not 1 <= self.true_model <= self.M:
            raise ValueError("true_model must lie in 1..M")
        if self.fixed_model is not None and not 1 <= self.fixed_model <= self.M:
            raise ValueError("fixed_model must lie in 1..M")
        if self.family_J < 1:
            raise ValueError("family_J must be >= 1")
        if not (np.isfinite(self.family_noise) and self.family_noise > 0.0):
            raise ValueError(f"family_noise must be finite and > 0, got {self.family_noise}")
        if self.first_round not in _FIRST_ROUND:
            raise ValueError(f"first_round must be one of {_FIRST_ROUND}")
        if self.mode == "bandit" and self.K < self.family_J + FAMILY_SIZE - 1:
            raise ValueError("K is too small for the model family")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def rounds_limit(self) -> int:
        if self.T is not None:
            return self.T
        return 50 if self.mode == "bandit" else 120

    @property
    def run_count(self) -> int:
        if self.runs is not None:
            return self.runs
        return 200 if self.mode == "bandit" else 100

    @property
    def stop_threshold(self) -> int:
        return self.kbar if self.kbar is not None else self.K


# The values each ``Scenario`` annotation admits; ``bool`` passes both number tests.
_KINDS = {
    "int": numbers.Integral,
    "int | None": (numbers.Integral, type(None)),
    "float": numbers.Real,
    "str": str,
}
# The fields only bandit runs read; CSV headers print them for bandit runs only.
_BANDIT_FIELDS = frozenset({"tau", "M", "true_model", "fixed_model", "family_J", "family_noise"})
# Header fields printed as the property that resolves their default.
_RESOLVED = {"kbar": "stop_threshold", "T": "rounds_limit", "runs": "run_count"}


def _fixed_q(policy: str) -> int | None:
    if policy.startswith("fixed:"):
        try:
            q = int(policy.split(":", 1)[1])
        except ValueError:
            return None
        return q if q >= 1 else None
    return None


# The rounds-CSV columns, which are also the columns of the ``Rounds`` table;
# bandit runs add the played model, its cost, the delivered-node error terms
# and one selection probability per model.
ROUNDS_COLUMNS = ("run", "t", "K_t", "mse_theory", "sqerr_actual", "delivered", "collided")
BANDIT_COLUMNS = ("m", "Y", "sqerr_delivered", "mse_delivered_true")


@dataclass(frozen=True)
class Rounds:
    """Named float64 columns: the round table, one row per (run, round) in
    (run, t) order, or its per-round summary."""

    columns: tuple[str, ...]
    data: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def last_rows(self) -> np.ndarray:
        """Index of each run's last row."""
        return np.flatnonzero(np.diff(self["run"], append=np.inf))


def _run_rng(seed: int, run: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(run))))


def _sampler(model: GaussianModel) -> Callable[[np.random.Generator], np.ndarray]:
    chol = _spd_cholesky(model.cov, labels=np.arange(1, model.K + 1))

    def draw(rng: np.random.Generator) -> np.ndarray:
        return model.mean + chol @ rng.standard_normal(model.K)

    return draw


def _first_request(scenario: Scenario, q: int, rng: np.random.Generator) -> list[int]:
    picked = rng.choice(scenario.K, size=q, replace=False)
    return sorted(int(v) + 1 for v in picked)


@dataclass
class RunResult:
    """The scenario that ran and its round table; all else is read off the two."""

    scenario: Scenario
    records: Rounds

    @property
    def stop_rounds(self) -> list[int | None]:
        """Each run's stop round: ``t + 1`` of its last row when that round
        brought it to ``kbar`` measurements, else None (censored at ``T``)."""
        last = self.records.last_rows()
        known = self.records["K_t"][last] + self.records["delivered"][last]
        reached = known >= self.scenario.stop_threshold
        return [int(t) + 1 if r else None for t, r in zip(self.records["t"][last], reached)]

    @property
    def censored_runs(self) -> int:
        return sum(1 for s in self.stop_rounds if s is None)

    @property
    def mean_stop_round(self) -> float:
        reached = [s for s in self.stop_rounds if s is not None]
        return float(np.mean(reached)) if reached else float("nan")

    def final_mse_by_run(self) -> np.ndarray:
        """Last recorded conditional MSE of each run (its value at any later round)."""
        return self.records["mse_theory"][self.records.last_rows()]

    def final_sqerr_by_run(self) -> np.ndarray:
        return self.records["sqerr_actual"][self.records.last_rows()]

    def summary_rows(self) -> Rounds:
        return _per_round_summary(self.records)

    def bounds(self) -> dict[str, float | bool]:
        """Closed forms at the first round's request count under ``q_policy``."""
        s = self.scenario
        fixed = _fixed_q(s.q_policy)
        polled = request_count("polling", s.N, s.p, s.K, fixed)
        q = request_count("aloha", s.N, s.p, s.K, fixed)
        return {
            "expected_polling": expected_successes("polling", s.N, s.p, polled),
            "expected_aloha": expected_successes("aloha", s.N, s.p, q),
            "rounds_polling": mean_rounds_bound("polling", s.stop_threshold, s.N, s.p, polled),
            "rounds_aloha": mean_rounds_bound("aloha", s.stop_threshold, s.N, s.p, q),
            "rounds_aloha_approx": mean_rounds_bound("aloha-approx", s.stop_threshold, s.N, s.p),
            "aloha_favored": crossover_check(s.p),
        }


def _block_size(K: int, arms: int) -> int:
    """Runs per lockstep block: ``arms + 1`` K x K posteriors per run fit ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (8 * K * K * (arms + 1)))


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a polling or ALOHA scenario over all Monte-Carlo runs.

    Every run stops once ``kbar`` measurements have accumulated (or at the
    round limit); its stop round is the number of rounds executed.
    """
    if scenario.mode not in ("polling", "aloha"):
        raise ValueError("run_scenario handles polling/aloha; use run_bandit_scenario")
    model = build_ar1_model(scenario.K, scenario.rho)
    return RunResult(scenario, _run_all(scenario, [model], 0))


def _run_all(scenario: Scenario, models: list[GaussianModel], true_idx: int) -> Rounds:
    """Round table of every run of ``scenario``.

    Runs advance in lockstep blocks of ``_block_size(K, arms)`` so that one
    ``select_nodes`` call picks for the whole block each round and one
    ``ingest`` call folds its deliveries.  Each run still draws from its own
    generator in its own order, so the output is the same as running the
    runs one after another.
    """
    draw = _sampler(models[true_idx])
    runs = scenario.run_count
    block = _block_size(scenario.K, len(models))
    columns = ROUNDS_COLUMNS
    if scenario.mode == "bandit":
        columns += BANDIT_COLUMNS + tuple(f"P_{m}" for m in range(1, len(models) + 1))
    tables: list[np.ndarray] = []
    for first in range(0, runs, block):
        rows = _run_block(scenario, models, true_idx, draw, range(first, min(first + block, runs)))
        tables.append(np.array(rows, dtype=float).reshape(-1, len(columns)))
    return Rounds(columns, np.concatenate(tables))


def _one_hot(arms: int, m: int) -> tuple[float, ...]:
    probs = [0.0] * arms
    probs[m - 1] = 1.0
    return tuple(probs)


def _choose_arm(
    scenario: Scenario, bst: BanditState, t: int, rng: np.random.Generator
) -> tuple[int, tuple[float, ...]]:
    """The model a bandit run plays at round ``t`` and the probabilities it records."""
    if scenario.fixed_model is not None:
        return scenario.fixed_model, _one_hot(bst.arms, scenario.fixed_model)
    m = select_model(bst, t, rng)
    return m, tuple(softmax_probs(bst)) if bst.count.all() else _one_hot(bst.arms, m)


def _run_block(
    scenario: Scenario,
    models: list[GaussianModel],
    true_idx: int,
    draw: Callable[[np.random.Generator], np.ndarray],
    run_ids: Sequence[int],
) -> list[tuple]:
    """Round-table rows of the runs ``run_ids``, in (run, t) order.

    The block's runs share one posterior stack that holds each run's
    posterior under every arm, all fed the same deliveries: polling and
    ALOHA runs have one arm, bandit runs one per model, and rows report the
    posterior of arm ``true_idx``.  Which runs are in play is decided here
    alone: ``ingest`` gets the runs that received something, and a run that
    has stopped stays in the stack as it was.  A run draws its access round
    on positions first and selects only up to its last delivered position.
    """
    p = scenario.p
    N = scenario.N
    fixed = _fixed_q(scenario.q_policy)
    kbar = scenario.stop_threshold
    rule = "topq" if scenario.q_policy == "topq" else "greedy"
    access = polling_round if scenario.mode == "polling" else aloha_round
    bandit = scenario.mode == "bandit"
    random_start = scenario.first_round == "random"

    rngs = [_run_rng(scenario.seed, run) for run in run_ids]
    post = initial_state(models, np.array([draw(rng) for rng in rngs]))
    bsts = [new_bandit_state(len(models), scenario.tau) for _ in run_ids] if bandit else None
    arm = [1] * len(run_ids)
    probs: list[tuple[float, ...] | None] = [None] * len(run_ids)
    run_rows: list[list[tuple]] = [[] for _ in run_ids]
    active = list(range(len(run_ids)))
    for t in range(scenario.rounds_limit):
        if not active:
            break
        if bandit:
            for i in active:
                arm[i], probs[i] = _choose_arm(scenario, bsts[i], t, rngs[i])
        picks: dict[int, list[int]] = {}
        outcomes = {}
        for i in active:
            q = request_count(scenario.mode, N, p, post.unknown[i], fixed)
            if t == 0 and random_start:
                picks[i] = _first_request(scenario, q, rngs[i])
            outcomes[i] = access(range(1, q + 1), N, p, rngs[i])
        sent = [i for i in active if outcomes[i].delivered and i not in picks]
        if sent:
            needs = [outcomes[i].delivered[-1] for i in sent]
            arms = [arm[i] - 1 for i in sent]
            picks.update(zip(sent, select_nodes(post, needs, rule, runs=sent, arms=arms)))
        payloads = {}
        rounds = []
        for i in active:
            m = arm[i]
            outcome = outcomes[i]
            x = post.targets[i]
            delivered = [picks[i][pos - 1] for pos in outcome.delivered]
            vals = [float(x[n - 1]) for n in delivered]
            if delivered:
                payloads[i] = dict(zip(delivered, vals))
            extra = ()
            if bandit:
                if delivered:
                    (sqerr_d, _), (expected_d, expected_true) = prediction_error_terms(
                        post, delivered, vals, run=i, arm=(m - 1, true_idx)
                    )
                    cost = cost_ratio(sqerr_d, expected_d)
                    if scenario.fixed_model is None:
                        bsts[i] = update(bsts[i], m, cost)
                else:
                    sqerr_d = expected_true = cost = float("nan")
                extra = (m, cost, sqerr_d, expected_true, *probs[i])
            rounds.append(
                (i, post.K - post.unknown[i], len(delivered), len(outcome.collided_channels), extra)
            )
        ingest(post, payloads)
        theory = post.mse_theory(active, true_idx).tolist()
        actual = post.sqerr_actual(active, true_idx).tolist()
        still = []
        for (i, known_before, n_delivered, n_collided, extra), mse, sqerr in zip(
            rounds, theory, actual
        ):
            run_rows[i].append(
                (run_ids[i], t, known_before, mse, sqerr, n_delivered, n_collided, *extra)
            )
            if post.K - post.unknown[i] < kbar:
                still.append(i)
        active = still
    return [row for rows in run_rows for row in rows]


@dataclass(frozen=True)
class SweepPoint:
    param: str
    value: float
    polling_mse: float
    polling_sqerr: float
    aloha_mse: float
    aloha_sqerr: float
    aloha_better: bool
    aloha_favored_predicted: bool

    @property
    def tie(self) -> bool:
        """Both modes reached the same final MSE: the point tests no ordering."""
        return self.aloha_mse == self.polling_mse


@dataclass
class SweepResult:
    scenario: Scenario
    param: str
    points: list[SweepPoint]


def sweep(scenario: Scenario, param: str, values: Sequence[float]) -> SweepResult:
    """Final MSE after a fixed horizon, for both access modes, per value.

    Runs never stop early on a measurement count here (kbar is forced to K),
    matching the fixed-horizon reading of the comparison figures; ``T``
    defaults to 75.  The result holds the scenario the runs used.  A bandit
    scenario is rejected: every point runs polling and ALOHA.
    """
    if scenario.mode == "bandit":
        raise ValueError("sweep compares polling and ALOHA; give a polling or aloha scenario")
    if param not in ("p", "N"):
        raise ValueError("param must be 'p' or 'N'")
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    if param == "N" and any(float(v) != int(v) for v in values):
        raise ValueError(f"N values must be integers, got {list(values)}")
    ran = replace(scenario, kbar=scenario.K, T=scenario.T if scenario.T is not None else 75)
    kind = float if param == "p" else int

    points: list[SweepPoint] = []
    for value in values:
        base = replace(ran, **{param: kind(value)})
        finals: dict[str, tuple[float, float]] = {}
        for mode in ("polling", "aloha"):
            res = run_scenario(replace(base, mode=mode))
            finals[mode] = (
                float(np.mean(res.final_mse_by_run())),
                float(np.mean(res.final_sqerr_by_run())),
            )
        points.append(
            SweepPoint(
                param=param,
                value=float(value),
                polling_mse=finals["polling"][0],
                polling_sqerr=finals["polling"][1],
                aloha_mse=finals["aloha"][0],
                aloha_sqerr=finals["aloha"][1],
                aloha_better=finals["aloha"][0] < finals["polling"][0],
                aloha_favored_predicted=crossover_check(base.p),
            )
        )
    return SweepResult(ran, param, points)


class BanditResult(RunResult):
    """A model-selection scenario and its round table."""

    # Its own entry, so that wrapping ``vars(BanditResult)`` times bandit summaries apart.
    summary_rows = RunResult.summary_rows


def run_bandit_scenario(scenario: Scenario) -> BanditResult:
    """Model selection over ALOHA uploading.

    Per round: pick an arm (round-robin sweep first, softmax afterwards),
    select nodes under that arm's posterior, run the access round, pay the
    arm the normalized prediction error of what arrived, then fold the
    deliveries into every arm's posterior (the observation pool is shared).
    With ``fixed_model`` set, that arm is played every round and no costs
    accumulate: this is the mismatched-model baseline.  ``q_policy`` sets
    the request count as in ALOHA mode.
    """
    if scenario.mode != "bandit":
        raise ValueError("run_bandit_scenario needs mode='bandit'")
    family = build_model_family(
        scenario.K, scenario.family_J, scenario.family_noise, scenario.rho
    )
    models = family[: scenario.M]
    return BanditResult(scenario, _run_all(scenario, models, scenario.true_model - 1))


def _nanmean(values: np.ndarray) -> float:
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) else float("nan")


def _per_round_summary(table: Rounds) -> Rounds:
    """Arithmetic per-round means over the runs still active at each round,
    plus each model's selection frequency in bandit tables (an ``m`` column).

    A stable sort on ``t`` keeps each round's values in run order, so every
    mean adds the same values in the same order as a loop over the rows.
    """
    order = np.argsort(table["t"], kind="stable")
    ts, starts = np.unique(table["t"][order], return_index=True)

    def per_round(mean, values: np.ndarray) -> list[float]:
        return [mean(group) for group in np.split(values[order], starts[1:])]

    summary = {"t": ts, "n_active": np.diff(starts, append=len(order))}
    for name in ROUNDS_COLUMNS[3:]:
        summary[f"mean_{name}"] = per_round(np.mean, table[name])
    if "m" in table.columns:
        arms = sum(name.startswith("P_") for name in table.columns)
        for m in range(1, arms + 1):
            summary[f"freq_{m}"] = per_round(np.mean, table["m"] == m)
        summary["mean_cost"] = per_round(_nanmean, table["Y"])
        for name in BANDIT_COLUMNS[2:]:
            summary[f"mean_{name}"] = per_round(_nanmean, table[name])
    return Rounds(tuple(summary), np.column_stack(list(summary.values())))


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.9g" % float(value)


def _scenario_tag(s: Scenario, omit: Sequence[str] = ()) -> str:
    """``Scenario``'s fields in declaration order, as the runs use them: ``kbar``,
    ``T`` and ``runs`` resolved, the bandit-only fields for bandit runs only,
    and none of the fields ``omit``."""
    items = []
    for f in fields(Scenario):
        if f.name in omit or (f.name in _BANDIT_FIELDS and s.mode != "bandit"):
            continue
        value = getattr(s, _RESOLVED.get(f.name, f.name))
        if value is None:
            value = "none"
        elif f.type == "float":
            value = _fmt(value)
        items.append(f"{f.name}={value}")
    return " ".join(items)


def _write_table(path, comment: str, table: Rounds) -> None:
    """``table`` under a comment line and its column names; counts print as integers."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(table.columns) + "\n")
        np.savetxt(fh, table.data, fmt="%.9g", delimiter=",")


def write_rounds_csv(path, result: RunResult) -> None:
    """The round table under its column names."""
    _write_table(path, f"{ROUNDS_SCHEMA} {_scenario_tag(result.scenario)}", result.records)


def write_summary_csv(path, result: RunResult) -> None:
    """The per-round summary; polling/ALOHA headers add bounds and stop rounds."""
    comment = f"{SUMMARY_SCHEMA} {_scenario_tag(result.scenario)}"
    if result.scenario.mode != "bandit":
        parts = [f"{k}={_fmt(v)}" for k, v in result.bounds().items()]
        parts.append(f"mean_stop_round={_fmt(result.mean_stop_round)}")
        parts.append(f"censored_runs={result.censored_runs}")
        comment += " " + " ".join(parts)
    _write_table(path, comment, result.summary_rows())


def write_sweep_csv(path, result: SweepResult) -> None:
    """One row per sweep point; the columns are the ``SweepPoint`` fields.  The
    header leaves out ``mode`` (both modes ran) and the swept field."""
    columns = [f.name for f in fields(SweepPoint)]
    tag = _scenario_tag(result.scenario, omit=("mode", result.param))
    lines = [
        f"# {SWEEP_SCHEMA} param={result.param} {tag}",
        ",".join(columns),
    ]
    for pt in result.points:
        lines.append(",".join([pt.param] + [_fmt(getattr(pt, c)) for c in columns[1:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
