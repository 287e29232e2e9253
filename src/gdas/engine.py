"""Round-loop state and greedy minimum-MSE node selection.

Each round the base station scores every unknown node by how much the total
conditional MSE of the unknowns would drop if that node's value arrived,

    score_l = ||c_l||^2 / nu_l,

with c_l node l's column of the current conditional covariance and nu_l its
conditional variance.  The largest score gives the smallest next-round MSE.
Scores come straight from the covariance, so selection never looks at
observed values (or at the hidden ground truth).
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

# Scores within TIE_TOLERANCE * max(1, current MSE) of the best count as tied;
# ties resolve to the lowest node label so runs are reproducible across platforms.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SensingState:
    """One run's view of the collection process.

    ``target`` is the hidden realization used only to score the estimate;
    selection logic reads nothing but ``cond``.
    """

    cond: ConditionalState
    target: np.ndarray | None

    @property
    def mse_theory(self) -> float:
        return float(np.trace(self.cond.cond_cov))

    @property
    def sqerr_actual(self) -> float:
        """Squared error of the conditional mean against ``target`` (nan without one)."""
        if self.target is None:
            return float("nan")
        u = self.target[self.cond.unknown_idx - 1]
        return float(np.sum((u - self.cond.cond_mean) ** 2))

    @property
    def known_count(self) -> int:
        return len(self.cond.known_idx)

    @property
    def unknown_count(self) -> int:
        return self.cond.num_unknown


def initial_state(model: GaussianModel, target: np.ndarray | None = None) -> SensingState:
    """Round-zero state: nothing observed yet."""
    if target is not None:
        target = np.asarray(target, dtype=float)
        if target.shape != (model.K,):
            raise ValueError(f"target must have shape ({model.K},)")
    return SensingState(condition(model, [], []), target)


def _greedy(
    covs: Sequence[np.ndarray], labels: Sequence[np.ndarray], counts: Sequence[int], rescore=True
) -> list[list[int]]:
    """Greedy picks for a stack of posteriors, one pivoted-Cholesky step per pick.

    Run b picks ``counts[b]`` of its ``labels[b]``.  Each pick takes the
    largest score ``colsq_l / nu_l``; scores within ``TIE_TOLERANCE`` of it
    resolve to the lowest label.  With ``rescore`` false (the ``topq`` rule)
    a pick only masks its node, so the picks rank the first-step scores.

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
        if not rescore:
            colsq[rows, l] = -np.inf
            continue
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

    Both rules rank nodes by the score of the module docstring.  ``greedy``
    (default) re-scores after hypothetically conditioning on each pick,
    which accounts for redundancy between the picks; ``topq`` takes the q
    best first-step scores (its first pick is greedy's) and is kept as a
    comparison switch.

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
    covs, labels = [c.cond_cov for c in conds], [c.unknown_idx for c in conds]
    picks = _greedy(covs, labels, counts, rescore=rule == "greedy")
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
    return SensingState(cond, state.target)


def polling_order(model: GaussianModel) -> list[int]:
    """Failure-free request order: repeated single-node greedy selection.

    Depends only on the covariance, so it can be fixed before any value is
    seen and is identical for every realization.
    """
    return _greedy([model.cov], [np.arange(1, model.K + 1)], [model.K])[0]
