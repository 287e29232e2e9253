"""Correctness gate: what each benchmark run checks about the program's output.

Three kinds of check, all on data the program writes or on its public API:

* ``check_batch``: invariants of every Monte-Carlo run, read back from the
  rounds CSV that ``gdas run`` / ``gdas bandit`` wrote.
* ``replay``: a few runs re-executed through ``initial_state`` /
  ``select_nodes`` / the access round / ``ingest`` with the run's own random
  stream; every posterior is compared with the batch ``condition`` oracle and
  every round with the CSV row the program wrote.
* ``check_statistic``: the workload statistic against its exact value in
  Monte-Carlo standard-error units.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

import gdas

# Failure is declared beyond this many standard errors: the chance that a
# correct program trips it in one run is below 1e-6.
Z_LIMIT = 5.0
# Incremental posterior vs the batch oracle, relative to the prior scale.
ORACLE_TOL = 1e-8
# CSV floats carry 9 significant digits.
CSV_RTOL = 1e-8


def read_rounds_csv(path) -> tuple[list[str], np.ndarray]:
    """Columns and float rows of a rounds CSV (first line is the schema comment)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    columns = lines[1].split(",")
    rows = np.array(
        [[float(c) if c else math.nan for c in line.split(",")] for line in lines[2:]],
        dtype=float,
    ).reshape(len(lines) - 2, len(columns))
    return columns, rows


def _split_runs(columns, rows) -> dict[int, np.ndarray]:
    run = rows[:, columns.index("run")].astype(int)
    return {int(r): rows[run == r] for r in np.unique(run)}


def check_batch(sc: dict, runs: int, columns, rows) -> tuple[dict[int, str], list[float]]:
    """Invariants of every run in one batch.

    Returns the failed runs with the first broken invariant of each, and the
    stop rounds of the runs that reached ``kbar``.
    """
    K, N, T = sc["K"], sc["N"], sc["T"]
    kbar = sc.get("kbar", K)
    col = {name: i for i, name in enumerate(columns)}
    by_run = _split_runs(columns, rows)
    failed: dict[int, str] = {}
    stops: list[float] = []
    for r in range(runs):
        d = by_run.get(r)
        if d is None:
            failed[r] = "no rows"
            continue
        t, k_t = d[:, col["t"]], d[:, col["K_t"]]
        mse, sq = d[:, col["mse_theory"]], d[:, col["sqerr_actual"]]
        deliv, coll = d[:, col["delivered"]], d[:, col["collided"]]
        n = len(d)
        final = k_t[-1] + deliv[-1]
        problem = None
        if not np.array_equal(t, np.arange(n)):
            problem = "round indices are not 0..n-1"
        elif k_t[0] != 0 or not np.array_equal(k_t[1:], k_t[:-1] + deliv[:-1]):
            problem = "K_t does not advance by delivered"
        elif not (np.all(np.isfinite(mse)) and np.all(np.isfinite(sq)) and np.all(sq >= 0)):
            problem = "mse_theory or sqerr_actual not finite"
        elif np.any(np.diff(np.concatenate(([float(K)], mse))) > CSV_RTOL * K):
            problem = "mse_theory increased"
        elif sc["mode"] == "polling" and (
            np.any(deliv > np.minimum(N, K - k_t)) or np.any(coll != 0)
        ):
            problem = "polling delivered more than min(q, N) or reported collisions"
        elif sc["mode"] != "polling" and np.any(deliv + coll > N):
            problem = "delivered + collided channels exceed N"
        elif final >= kbar:
            if final - deliv[-1] >= kbar:
                problem = "run continued after reaching kbar"
            else:
                stops.append(float(n))
        elif n != T:
            problem = f"run stopped after {n} rounds without reaching kbar={kbar} or T={T}"
        if problem is None and sc["mode"] == "bandit":
            problem = _bandit_row_problem(d, col, deliv)
        if problem is not None:
            failed[r] = problem
    return failed, stops


def _bandit_row_problem(d, col, deliv) -> str | None:
    probs = d[:, [i for name, i in col.items() if name.startswith("P_")]]
    cost = d[:, col["Y"]]
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        return "arm probabilities do not sum to 1"
    m = d[:, col["m"]]
    if np.any((m < 1) | (m > probs.shape[1])):
        return "played model outside 1..M"
    if not np.array_equal(np.isnan(cost), deliv == 0) or np.any(cost[deliv > 0] < 0):
        return "cost must be >= 0 exactly when something was delivered"
    return None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def _round_q(mode: str, N: int, p: float, remaining: int) -> int:
    """Requests per round: N under polling, round(N/p) under ALOHA, capped."""
    q = N if mode == "polling" else int(math.floor(N / p + 0.5))
    return max(1, min(q, remaining))


@lru_cache(maxsize=None)
def delivered_law(mode: str, N: int, p: float, q: int) -> tuple[float, ...]:
    """Exact distribution of deliveries in one round with q requests.

    Each requested node responds with probability p.  Polling delivers every
    responder; ALOHA delivers the responders alone on their uniformly chosen
    channel, computed ball by ball over (empty, singly occupied) channel counts.
    """
    resp = [math.comb(q, r) * p**r * (1 - p) ** (q - r) for r in range(q + 1)]
    if mode == "polling":
        return tuple(resp)
    law = [0.0] * (N + 1)
    occupancy = {(N, 0): 1.0}
    for r in range(q + 1):
        for (_, single), pr in occupancy.items():
            law[single] += resp[r] * pr
        nxt: dict[tuple[int, int], float] = {}
        for (empty, single), pr in occupancy.items():
            for key, w in (
                ((empty - 1, single + 1), empty / N),
                ((empty, single - 1), single / N),
                ((empty, single), (N - empty - single) / N),
            ):
                if w > 0:
                    nxt[key] = nxt.get(key, 0.0) + pr * w
        occupancy = nxt
    return tuple(law)


def expected_stop_round(mode: str, K: int, N: int, p: float, kbar: int) -> float:
    """Exact mean number of rounds until kbar deliveries (no round limit).

    Deliveries per round depend only on how many nodes are requested, so the
    known count is a Markov chain; m[k] is the mean remaining rounds from k.
    """
    m = [0.0] * (kbar + 1)
    for k in range(kbar - 1, -1, -1):
        law = delivered_law(mode, N, p, _round_q(mode, N, p, K - k))
        ahead = sum(law[j] * m[min(k + j, kbar)] for j in range(1, len(law)))
        m[k] = (1.0 + ahead) / (1.0 - law[0])
    return m[0]


def wald_bound(mode: str, K: int, N: int, p: float, kbar: int) -> float:
    """kbar over the mean deliveries per round: a lower bound on the mean stop round."""
    q = _round_q(mode, N, p, K)
    law = delivered_law(mode, N, p, q)
    return kbar / sum(j * w for j, w in enumerate(law))


def _z_check(label: str, values: list[float], target: float, lower_bound: bool = False):
    """(passed, description): the sample mean against ``target`` in standard errors.

    With ``lower_bound`` the target is only a lower bound on the true mean.
    """
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(n)
    if se > 0:
        z = (mean - target) / se
    else:
        z = 0.0 if mean == target else math.copysign(math.inf, mean - target)
    ok = z >= -Z_LIMIT if lower_bound else abs(z) <= Z_LIMIT
    rule = f"z >= -{Z_LIMIT}" if lower_bound else f"|z| <= {Z_LIMIT}"
    return ok, f"{label} {mean:.4f} vs {target:.4f} over n={n}: z={z:+.2f} ({rule})"


def check_statistic(sc: dict, stops: list[float], true_costs: list[float]) -> list[tuple[bool, str]]:
    """(passed, description) per statistical check of the workload."""
    if sc["mode"] == "bandit":
        if len(true_costs) < 2:
            return [(False, "too few true-model cost samples")]
        # Under the data-generating model the normalized prediction error has
        # mean exactly 1 whatever was selected.
        return [_z_check("true-model cost", true_costs, 1.0)]
    if len(stops) < 2:
        return [(False, "too few runs reached kbar")]
    args = (sc["mode"], sc["K"], sc["N"], sc["p"], sc["kbar"])
    return [
        _z_check("mean stop round vs exact", stops, expected_stop_round(*args)),
        _z_check("mean stop round vs Wald bound", stops, wald_bound(*args), lower_bound=True),
    ]


# ----------------------------------------------------------------------
# Replay against the conditioning oracle
# ----------------------------------------------------------------------


def replay(sc: dict, seed: int, run: int, columns, rows) -> str | None:
    """Re-execute one run through the public API; return the first mismatch."""
    K, N, p, T = sc["K"], sc["N"], sc["p"], sc["T"]
    kbar = sc.get("kbar", K)
    bandit = sc["mode"] == "bandit"
    # Model 1 generates the data in both cases.
    models = gdas.build_model_family(K) if bandit else [gdas.build_ar1_model(K, sc["rho"])]
    truth = models[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
    x = truth.mean + np.linalg.cholesky(truth.cov) @ rng.standard_normal(K)
    states = [gdas.initial_state(model, x) for model in models]
    bst = gdas.new_bandit_state(len(models), sc["tau"]) if bandit else None
    col = {name: i for i, name in enumerate(columns)}
    written = _split_runs(columns, rows).get(run)
    if written is None:
        return f"run {run}: no rows written"
    for t in range(T):
        st = states[0]
        if st.unknown_count == 0:
            break
        known_before = st.known_count
        m = 1
        if bandit:
            m = gdas.select_model(bst, t, rng)
        q = _round_q("polling" if sc["mode"] == "polling" else "aloha", N, p, st.unknown_count)
        if t == 0:
            requested = sorted(int(v) + 1 for v in rng.choice(K, size=q, replace=False))
        else:
            requested = gdas.select_nodes(states[m - 1], q)
        access = gdas.polling_round if sc["mode"] == "polling" else gdas.aloha_round
        outcome = access(requested, N, p, rng)
        delivered = list(outcome.delivered)
        vals = [float(x[n - 1]) for n in delivered]
        cost = math.nan
        if bandit and delivered:
            sqerr, expected = gdas.bandit.prediction_error_terms(states[m - 1].cond, delivered, vals)
            cost = sqerr / expected
            bst = gdas.bandit.update(bst, m, cost)
        states = [gdas.ingest(s, dict(zip(delivered, vals))) for s in states]
        for model, s in zip(models, states):
            problem = _oracle_problem(model, s.cond)
            if problem:
                return f"run {run} round {t}: {problem}"
        if t >= len(written):
            return f"run {run}: replay runs past the {len(written)} written rounds"
        row = written[t]
        got = {"K_t": known_before, "delivered": len(delivered),
               "collided": len(outcome.collided_channels), "mse_theory": states[0].mse_theory}
        if bandit:
            got.update(m=m, Y=cost)
        for name, value in got.items():
            if not _close(row[col[name]], value):
                return f"run {run} round {t}: {name} written {row[col[name]]!r}, replay {value!r}"
        if states[0].known_count >= kbar:
            t += 1
            break
    else:
        t = T
    if len(written) != t:
        return f"run {run}: {len(written)} rounds written, replay stopped after {t}"
    return None


def _close(written: float, value: float) -> bool:
    if math.isnan(written) or math.isnan(value):
        return math.isnan(written) and math.isnan(value)
    return abs(written - value) <= CSV_RTOL * max(1.0, abs(value))


def _oracle_problem(model, cond) -> str | None:
    oracle = gdas.condition(model, cond.known_idx, cond.known_vals)
    if not np.array_equal(oracle.unknown_idx, cond.unknown_idx):
        return "unknown set differs from the oracle"
    scale = max(1.0, float(np.abs(model.cov).max()))
    err = max(
        float(np.abs(oracle.cond_mean - cond.cond_mean).max(initial=0.0)),
        float(np.abs(oracle.cond_cov - cond.cond_cov).max(initial=0.0)),
    )
    if err > ORACLE_TOL * scale:
        return f"posterior differs from the condition oracle by {err:.2e}"
    return None
