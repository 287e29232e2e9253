"""Round-loop state and greedy minimum-MSE node selection.

Each round the base station scores every unknown node by the total MSE that
would remain over the *other* unknowns if that node's value arrived:

    C_l = beta_l - ||r_l||^2 / nu_l

with beta_l the residual trace excluding node l, nu_l node l's conditional
variance and r_l its covariance column.  All three come straight from the
current conditional covariance, so selection never looks at observed values
(or at the hidden ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .models import (
    DEGENERATE_VARIANCE_EPS,
    ConditionalState,
    GaussianModel,
    condition,
    rank_one_condition,
)

# Costs within this relative band of the minimum count as tied; ties resolve
# to the lowest node label so runs are reproducible across platforms.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SelectionCost:
    """Score of one candidate node: cost = beta - r_norm_sq / nu."""

    node: int
    cost: float
    beta: float
    nu: float
    r_norm_sq: float


@dataclass(frozen=True)
class SensingState:
    """One run's view of the collection process.

    ``target`` is the hidden realization used only to score the estimate;
    selection logic reads nothing but ``cond``.
    """

    cond: ConditionalState
    target: np.ndarray | None
    mse_theory: float
    sqerr_actual: float

    @property
    def known_nodes(self) -> tuple[int, ...]:
        return self.cond.known_idx

    @property
    def known_count(self) -> int:
        return len(self.cond.known_idx)

    @property
    def unknown_count(self) -> int:
        return self.cond.num_unknown


def _squared_error(cond: ConditionalState, target: np.ndarray | None) -> float:
    if target is None:
        return float("nan")
    u = target[cond.unknown_idx - 1]
    return float(np.sum((u - cond.cond_mean) ** 2))


def initial_state(model: GaussianModel, target: np.ndarray | None = None) -> SensingState:
    """Round-zero state: nothing observed yet."""
    if target is not None:
        target = np.asarray(target, dtype=float)
        if target.shape != (model.K,):
            raise ValueError(f"target must have shape ({model.K},)")
    cond = condition(model, [], [])
    return SensingState(
        cond=cond,
        target=target,
        mse_theory=float(np.trace(cond.cond_cov)),
        sqerr_actual=_squared_error(cond, target),
    )


def _cost_terms(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(beta, nu, r_norm_sq, cost) of every candidate, straight from the covariance."""
    d = np.diagonal(cov)
    beta = d.sum() - d
    r_norm_sq = np.maximum(np.einsum("ij,ij->j", cov, cov) - d * d, 0.0)
    gain = np.zeros_like(beta)
    np.divide(r_norm_sq, d, out=gain, where=d > DEGENERATE_VARIANCE_EPS)
    return beta, d, r_norm_sq, np.maximum(beta - gain, 0.0)


def selection_costs(state: SensingState) -> list[SelectionCost]:
    """Score every unknown node.  A single remaining node gets cost 0."""
    cond = state.cond
    beta, nu, r_norm_sq, costs = _cost_terms(cond.cond_cov)
    return [
        SelectionCost(
            node=int(node),
            cost=float(costs[l]),
            beta=float(beta[l]),
            nu=float(nu[l]),
            r_norm_sq=float(r_norm_sq[l]),
        )
        for l, node in enumerate(cond.unknown_idx)
    ]


def _topq(cond: ConditionalState, count: int) -> list[int]:
    """The ``count`` smallest one-shot costs; exact ties go to the lowest label."""
    costs = _cost_terms(cond.cond_cov)[3]
    order = np.lexsort((cond.unknown_idx, costs))
    return [int(cond.unknown_idx[i]) for i in order[:count]]


def _greedy(
    covs: Sequence[np.ndarray], labels: Sequence[np.ndarray], counts: Sequence[int]
) -> list[list[int]]:
    """Greedy picks for a stack of posteriors, one pivoted-Cholesky step per pick.

    Run b picks ``counts[b]`` of its ``labels[b]``.  Each pick maximizes
    ``colsq_l / nu_l`` (the trace reduction of conditioning on l), which is
    the same as minimizing ``cost_l`` since the candidates share the trace
    term.  Ties within ``TIE_TOLERANCE`` of the maximum, on the cost scale,
    resolve to the lowest label.

    The covariances are zero-padded into one (B, n, n) stack ``S``.  After
    k picks the Schur complement is ``S - L^T L``, the rows of ``L`` being
    the scaled pivot columns, so ``S`` is never downdated: the squared
    column norms ``colsq`` and the variances ``diag`` follow each pick by a
    rank-one update that costs one matrix-vector product per run (pivoted
    Cholesky; Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 2012).
    Picked and padded nodes carry ``colsq = -inf``.  A pick whose variance
    is at most ``DEGENERATE_VARIANCE_EPS`` updates nothing; its row and
    column are just dropped.  The last pick needs no update.
    """
    B = len(covs)
    steps = max(counts, default=0)
    if steps == 0:
        return [[] for _ in range(B)]
    n = max(c.shape[0] for c in covs)
    S = np.zeros((B, n, n))
    for b, c in enumerate(covs):
        S[b, : c.shape[0], : c.shape[0]] = c
    diag = np.diagonal(S, axis1=1, axis2=2).copy()
    colsq = np.einsum("bij,bij->bj", S, S)
    for b, c in enumerate(covs):
        colsq[b, c.shape[0] :] = -np.inf
    total = diag.sum(axis=1)
    L = np.zeros((B, steps - 1, n))
    rows = np.arange(B)
    score = np.empty((B, n))
    picked = []
    for k in range(steps):
        np.maximum(diag, DEGENERATE_VARIANCE_EPS, out=score)
        np.divide(colsq, score, out=score)
        cut = score.max(axis=1)
        cut -= TIE_TOLERANCE * np.maximum(total, 1.0)
        l = (score >= cut[:, None]).argmax(axis=1)
        picked.append(l)
        if k == steps - 1:
            break
        nu = diag[rows, l]
        good = nu > DEGENERATE_VARIANCE_EPS
        Lk = L[:, :k]
        c = S[rows, :, l]
        c -= (Lk[rows, :, l][:, None, :] @ Lk)[:, 0]
        u = c / np.sqrt(np.where(good, nu, np.inf))[:, None]
        # Column norms of the complement minus u u^T, with v = (S - Lk^T Lk) u:
        # colsq_j -= u_j (2 v_j - u_j |u|^2).
        w = u[:, :, None]
        v = (S @ w)[:, :, 0]
        v -= ((Lk @ w).transpose(0, 2, 1) @ Lk)[:, 0]
        v *= 2.0
        v -= u * np.einsum("bi,bi->b", u, u)[:, None]
        colsq -= u * v
        colsq[rows, l] = -np.inf
        diag -= u * u
        total -= np.where(good, score[rows, l], nu)
        L[:, k] = u
        if not good.all():
            for b in np.flatnonzero(~good):
                colsq[b] -= c[b] * c[b]
                S[b, l[b], :] = S[b, :, l[b]] = L[b, :, l[b]] = 0.0
    picks = np.stack(picked, axis=1)
    return [[int(lab[i]) for i in picks[b, : counts[b]]] for b, lab in enumerate(labels)]


def select_nodes(
    state: SensingState | Sequence[SensingState],
    q: int | Sequence[int],
    rule: str = "greedy",
) -> list[int] | list[list[int]]:
    """Choose the next ``q`` nodes to request.

    ``greedy`` (default) re-scores after hypothetically conditioning on each
    pick, which accounts for redundancy between the picks; ``topq`` simply
    takes the q smallest one-shot costs and is kept as a comparison switch.

    ``state`` may also be a sequence of states, one per run of a block that
    advances in lockstep; ``q`` is then a shared count or one count per
    state, and the result holds one pick list per state.  Each state gets
    the picks it would get alone: the block shares numpy calls, not data
    (scores may differ in the last bits, which can only matter for a
    near-tie at the edge of ``TIE_TOLERANCE``).
    """
    block = not isinstance(state, SensingState)
    states = list(state) if block else [state]
    qs = [int(v) for v in np.broadcast_to(q, (len(states),))]
    if any(v < 1 for v in qs):
        raise ValueError("q must be >= 1")
    if rule not in ("greedy", "topq"):
        raise ValueError(f"unknown selection rule: {rule!r}")
    conds = [st.cond for st in states]
    counts = [min(v, c.num_unknown) for v, c in zip(qs, conds)]
    if rule == "topq":
        picks = [_topq(c, count) for c, count in zip(conds, counts)]
    else:
        picks = _greedy([c.cond_cov for c in conds], [c.unknown_idx for c in conds], counts)
    return picks if block else picks[0]


def ingest(state: SensingState, delivered: Mapping[int, float]) -> SensingState:
    """Fold a round's delivered measurements into the state.

    Nodes are conditioned one at a time (ascending label) through the
    rank-one update; near-deterministic nodes are absorbed without a
    covariance update.  An empty delivery returns ``state`` itself.
    """
    if not delivered:
        return state
    nodes = sorted(delivered)
    cond = rank_one_condition(
        state.cond, nodes, [float(delivered[n]) for n in nodes], absorb_degenerate=True
    )
    return SensingState(
        cond=cond,
        target=state.target,
        mse_theory=float(np.trace(cond.cond_cov)),
        sqerr_actual=_squared_error(cond, state.target),
    )


def polling_order(model: GaussianModel) -> list[int]:
    """Failure-free request order: repeated single-node greedy selection.

    Depends only on the covariance, so it can be fixed before any value is
    seen and is identical for every realization.
    """
    return _greedy([model.cov], [np.arange(1, model.K + 1)], [model.K])[0]
