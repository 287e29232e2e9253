"""Round-loop state and greedy minimum-MSE node selection.

Each round the base station scores every unknown node by how much the total
conditional MSE of the unknowns would drop if that node's value arrived,

    score_l = ||c_l||^2 / nu_l,

with c_l node l's column of the current conditional covariance and nu_l its
conditional variance.  The largest score gives the smallest next-round MSE.
Scores come straight from the covariance, so selection never looks at
observed values (or at the hidden ground truth).

The runs of a lockstep block share one ``PosteriorStack`` that holds every
run's posterior under every model: selection reads the chosen model's
posterior of each run in place, and ingest folds each run's deliveries into
all of its models at once.  One run on its own is a ``SensingState``, a view
of run 0 of a one-model stack; ``select_nodes`` and ``ingest`` unwrap it on
entry and run the same body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .models import (
    DEGENERATE_VARIANCE_EPS,
    ConditionalState,
    GaussianModel,
    PosteriorStack,
    as_integers,
    condition,
    rank_one_condition,
)

# Scores within TIE_TOLERANCE * max(1, current MSE) of the best count as tied;
# ties resolve to the lowest node label so runs are reproducible across platforms.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SensingState:
    """One run's view of the collection process: run 0 of the one-model
    ``post``, whose target (if any) only scores the estimate; selection
    reads nothing but the posterior."""

    post: PosteriorStack

    @property
    def cond(self) -> ConditionalState:
        return self.post.cond(0)

    @property
    def mse_theory(self) -> float:
        return self.post.mse_theory(0)

    @property
    def sqerr_actual(self) -> float:
        """Squared error of the conditional mean against the target (nan without one)."""
        return self.post.sqerr_actual(0)

    @property
    def known_count(self) -> int:
        return self.post.K - self.post.unknown[0]

    @property
    def unknown_count(self) -> int:
        return self.post.unknown[0]


def initial_state(
    model: GaussianModel | Sequence[GaussianModel], target: np.ndarray | None = None
) -> SensingState | PosteriorStack:
    """Round-zero state: nothing observed yet.

    Given one model and an optional (K,) ``target``, one run's
    ``SensingState``.  Given a sequence of models and a (B, K) ``target``
    (one realization per run), the state of a block of B runs: a
    ``PosteriorStack`` holding every run's prior under every model.
    """
    single = isinstance(model, GaussianModel)
    models = [model] if single else model
    if target is not None:
        target = np.asarray(target, dtype=float)
        if single and target.shape != (model.K,):
            raise ValueError(f"target must have shape ({model.K},)")
        target = target[None] if single else target
    post = PosteriorStack([condition(m, [], []) for m in models], target)
    return SensingState(post) if single else post


def _greedy(
    S: np.ndarray, labels: np.ndarray, counts: Sequence[int], rescore=True
) -> list[list[int]]:
    """Greedy picks for a stack of posteriors, one pivoted-Cholesky step per pick.

    Run b picks ``counts[b]`` nodes from the columns of its covariance
    ``S[b]``; ``labels[b]`` names the node of each column, 0 marking a
    column to skip (an observed node or padding, whose row and column are
    zero).  Each pick takes the largest score ``colsq_l / nu_l``; scores
    within ``TIE_TOLERANCE`` of it resolve to the lowest label.  With
    ``rescore`` false (the ``topq`` rule) a pick only masks its node, so the
    picks rank the first-step scores.

    After k picks the Schur complement is ``S - L^T L``, the rows of ``L``
    being the scaled pivot columns, so ``S`` is never downdated: the squared
    column norms ``colsq`` and the variances ``diag`` follow each pick by a
    rank-one update that costs one matrix-vector product per run (pivoted
    Cholesky; Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 2012).
    Picked and skipped nodes carry ``colsq = -inf``.  A pick whose variance
    is at most ``DEGENERATE_VARIANCE_EPS`` updates nothing; its row and
    column are just dropped (from a copy: ``S`` may be a caller's array).
    The last pick needs no update.
    """
    B, n = labels.shape
    steps = max(counts, default=0)
    if steps == 0:
        return [[] for _ in range(B)]
    diag = np.diagonal(S, axis1=1, axis2=2).copy()
    colsq = np.einsum("bij,bij->bj", S, S)
    colsq[labels == 0] = -np.inf
    total = diag.sum(axis=1)
    L = np.zeros((B, steps - 1, n))
    rows = np.arange(B)
    score = np.empty((B, n))
    picked = []
    copied = False
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
            if not copied:
                S, copied = S.copy(), True
            for b in np.flatnonzero(~good):
                colsq[b] -= c[b] * c[b]
                S[b, l[b], :] = S[b, :, l[b]] = L[b, :, l[b]] = 0.0
    picks = np.stack(picked, axis=1)
    return [labels[b, picks[b, : counts[b]]].tolist() for b in range(B)]


def select_nodes(
    state: SensingState | PosteriorStack,
    q: int | Sequence[int],
    rule: str = "greedy",
    *,
    runs: Sequence[int] | None = None,
    arms: Sequence[int] | None = None,
) -> list[int] | list[list[int]]:
    """Choose the next ``q`` nodes to request.

    Both rules rank nodes by the score of the module docstring.  ``greedy``
    (default) re-scores after hypothetically conditioning on each pick,
    which accounts for redundancy between the picks; ``topq`` takes the q
    best first-step scores (its first pick is greedy's) and is kept as a
    comparison switch.

    A ``SensingState`` gets one pick list.  On a ``PosteriorStack`` the
    runs ``runs`` (default: all) pick under their models ``arms`` (positions
    in the stack's model list, default 0); ``q`` is then a shared count or
    one count per run, and the result holds one pick list per run.  Each run
    gets the picks it would get alone: a stack shares numpy calls, not
    data.  Scores may differ in the last bits, which matters only for a
    near-tie at the edge of ``TIE_TOLERANCE``, or once ``greedy`` has
    re-scored past the rank of a near-singular model, where the scores left
    are rounding noise.
    """
    if rule not in ("greedy", "topq"):
        raise ValueError(f"unknown selection rule: {rule!r}")
    post = state.post if isinstance(state, SensingState) else state
    rows = np.arange(len(post.unknown)) if runs is None else np.asarray(runs, dtype=np.int64)
    arms = np.zeros_like(rows) if arms is None else np.asarray(arms, dtype=np.int64)
    qs = _counts(q, rows.shape[0])
    counts = [min(v, post.unknown[b]) for v, b in zip(qs, rows.tolist())]
    picks = _greedy(post.cov[rows, arms], post.labels[rows], counts, rescore=rule == "greedy")
    return picks if post is state else picks[0]


def _counts(q: int | Sequence[int], n: int) -> list[int]:
    """``q`` as ``n`` request counts; each must be an integer >= 1."""
    qs = as_integers(np.broadcast_to(q, (n,)), "q").tolist()
    if any(v < 1 for v in qs):
        raise ValueError("q must be >= 1")
    return qs


def ingest(
    state: SensingState | PosteriorStack,
    delivered: Mapping[int, float] | Mapping[int, Mapping[int, float]],
) -> SensingState | PosteriorStack:
    """Fold a round's delivered measurements into the state.

    Nodes are conditioned one at a time (ascending label) through the
    rank-one update; near-deterministic nodes are absorbed without a
    covariance update.  The state is updated in place and returned.

    For a ``SensingState``, ``delivered`` maps node labels to values.  On a
    ``PosteriorStack`` it maps each run still in play to its deliveries
    (possibly none), which are folded into all of the run's models; runs
    left out have finished and are dropped when the stack is next compacted.
    """
    post = state
    if isinstance(state, SensingState):
        post, delivered = state.post, {0: delivered}
    for run, payload in delivered.items():
        if payload:
            nodes = sorted(payload)
            rank_one_condition(
                post,
                nodes,
                [float(payload[n]) for n in nodes],
                absorb_degenerate=True,
                run=run,
            )
    post.compact(list(delivered))
    return state


def polling_order(model: GaussianModel) -> list[int]:
    """Failure-free request order: repeated single-node greedy selection.

    Depends only on the covariance, so it can be fixed before any value is
    seen and is identical for every realization.
    """
    return _greedy(model.cov[None], np.arange(1, model.K + 1)[None], [model.K])[0]
