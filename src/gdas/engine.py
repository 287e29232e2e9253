"""Round-loop state and greedy minimum-MSE node selection.

Each round the base station scores every unknown node by how much the total
conditional MSE of the unknowns would drop if that node's value arrived,

    score_l = ||c_l||^2 / nu_l,

with c_l node l's column of the current conditional covariance and nu_l its
conditional variance.  The largest score gives the smallest next-round MSE.
Scores come straight from the covariance, so selection never looks at
observed values (or at the hidden ground truth).

The runs of a lockstep block share one ``PosteriorStack`` that holds every
run's posterior under every model.  Selection for two or more runs gathers
each run's chosen posterior into a block that ``_greedy`` only reads.  One
run selecting on its own, and each run that makes a determined pick
(variance at most ``DEGENERATE_VARIANCE_EPS``), is picked in place by
``_greedy_one``.  Ingest folds each run's deliveries into all of its models
at once.  One run on its own is a
``SensingState``, a view of run 0 of a one-model stack; ``select_nodes`` and
``ingest`` unwrap it on entry and run the same body.
"""

from __future__ import annotations

import math
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

    After k picks the Schur complement is ``S - L^T L``, the rows of the
    (B, k, n) factor ``L`` being the scaled pivot columns, so ``S`` is never
    downdated: the squared column norms ``colsq`` and the variances ``diag``
    follow each pick by a rank-one update that costs one matrix-vector
    product per run (pivoted Cholesky; Harbrecht, Peters and Schneider,
    Appl. Numer. Math. 62, 2012).  ``L`` is pick-major, so each product with
    it runs over rows of length n.  The pivot's column of the complement is
    its row of ``S``, one gather from a flat (B * n)-row view at
    ``b * n + l``, minus ``L^T`` times column l of ``L``.  Reading the row is
    exact: every ``S`` here is exactly symmetric (``PosteriorStack``
    symmetrizes its priors, and its downdates and compaction keep that).
    Picked and skipped nodes carry ``colsq = -inf``.

    A run whose count is used up stops updating: its pivot variance reads
    as infinite, so its update is zero, and its later picks are discarded.
    A run whose pivot variance is at most ``DEGENERATE_VARIANCE_EPS`` stops
    the same way, and its picks come from ``_greedy_one`` on ``S[b]``, the
    one implementation of the determined-pick rule.  ``S`` is only read.
    The last pick needs no update.
    """
    B, n = labels.shape
    steps = max(counts, default=0)
    if steps == 0:
        return [[] for _ in range(B)]
    S = np.ascontiguousarray(S)
    S_rows = S.reshape(B * n, n)
    # D = (colsq, diag) and VU = (v, u) below, so that D -= VU u updates both.
    D = np.empty((2, B, n))
    colsq, diag = D
    np.einsum("bij,bij->bj", S, S, out=colsq)
    diag[...] = np.diagonal(S, axis1=1, axis2=2)
    colsq[labels == 0] = -np.inf
    colsq_flat, diag_flat = colsq.reshape(-1), diag.reshape(-1)
    total = diag.sum(axis=1)
    VU = np.empty((2, B, n))
    v, u = VU
    v_col, u_col = v[:, :, None], u[:, :, None]
    L = np.zeros((B, steps - 1, n))
    rows = np.arange(B)
    base = rows * n
    idx = np.empty(B, dtype=np.intp)
    picks = np.empty((steps, B), dtype=np.intp)
    score = np.empty((B, n))
    score_flat = score.reshape(-1)
    best = np.empty((B, n), dtype=bool)
    cut = np.empty((B, 1))
    tol = np.empty(B)
    nu = np.empty((B, 1))
    c = np.empty((B, n))
    corr = np.empty((B, 1, n))
    step = np.empty((2, B, n))
    cut_, nu_, corr_ = cut[:, 0], nu[:, 0], corr[:, 0]
    last = np.asarray(counts) - 1
    ragged = bool((last < steps - 1).any())
    for k in range(steps):
        np.maximum(diag, DEGENERATE_VARIANCE_EPS, out=score)
        np.divide(colsq, score, out=score)
        score.max(axis=1, out=cut_)
        np.maximum(total, 1.0, out=tol)
        tol *= TIE_TOLERANCE
        cut_ -= tol
        np.greater_equal(score, cut, out=best)
        l = best.argmax(axis=1, out=picks[k])
        if k == steps - 1:
            break
        # idx is always in range; mode="clip" lets take fill out= directly,
        # where the default mode first copies into a temporary.
        np.add(base, l, out=idx)
        if not rescore:
            colsq_flat[idx] = -np.inf
            continue
        diag_flat.take(idx, out=nu_, mode="clip")
        if ragged:
            nu[last <= k] = np.inf
        if not nu.min() > DEGENERATE_VARIANCE_EPS:
            handed = ~(nu_ > DEGENERATE_VARIANCE_EPS)
            last[handed] = k
            nu[handed] = np.inf
            ragged = True
        total -= score_flat.take(idx, mode="clip")
        np.sqrt(nu, out=nu)
        S_rows.take(idx, axis=0, out=c, mode="clip")
        if k:
            np.matmul(L[rows, None, :k, l], L[:, :k], out=corr)
            c -= corr_
        np.divide(c, nu, out=u)
        L[:, k] = u
        # Column norms of the complement minus u u^T: colsq_j -= u_j v_j with
        # v = 2 (S - L^T L) u - u |u|^2.  Row k of L is now u, so the last
        # entry of t = L[:k+1] u is |u|^2; halving it folds the u |u|^2 term
        # into the one product L[:k+1]^T t.
        Lu = L[:, : k + 1]
        np.matmul(S, u_col, out=v_col)
        t = Lu @ u_col
        t[:, k] *= 0.5
        np.matmul(t.transpose(0, 2, 1), Lu, out=corr)
        v -= corr_
        v *= 2.0
        np.multiply(VU, u, out=step)
        D -= step
        colsq_flat[idx] = -np.inf
    chosen = np.take_along_axis(labels, picks.T, axis=1)
    out = [chosen[b, : counts[b]].tolist() for b in range(B)]
    for b in np.flatnonzero(last < np.asarray(counts) - 1).tolist():
        out[b] = _greedy_one(S[b], labels[b], counts[b], rescore)
    return out


def _greedy_one(S: np.ndarray, labels: np.ndarray, count: int, rescore=True) -> list[int]:
    """``_greedy`` for one run, reading its covariance ``S`` in place.

    Takes the same steps, scores and tie band as ``_greedy`` on ``S[None]``
    and picks the same nodes, without a block's bookkeeping: the pivot, its
    variance and gain, and the MSE total are Python floats, and the pivot
    row of ``S`` is read as a view.  This is the one implementation of the
    determined-pick rule, which ``_greedy`` hands over: a pick whose variance
    is at most ``DEGENERATE_VARIANCE_EPS`` updates nothing, and its column is
    zeroed in each later pivot row, never in ``S``.  Its row and column left
    in ``S`` meet only zero entries of ``u``, or its own ``colsq`` and
    ``diag``, which no longer score.
    """
    if count == 0:
        return []
    n = labels.shape[0]
    colsq = np.einsum("ij,ij->j", S, S)
    diag = S.diagonal().copy()
    colsq[labels == 0] = -np.inf
    total = float(diag.sum())
    L = np.zeros((count - 1, n))
    score = np.empty(n)
    best = np.empty(n, dtype=bool)
    step = np.empty(n)
    dead: list[int] = []
    picks = []
    for k in range(count):
        np.maximum(diag, DEGENERATE_VARIANCE_EPS, out=score)
        np.divide(colsq, score, out=score)
        cut = float(score.max()) - max(total, 1.0) * TIE_TOLERANCE
        np.greater_equal(score, cut, out=best)
        l = int(best.argmax())
        picks.append(l)
        if k == count - 1:
            break
        if not rescore:
            colsq[l] = -np.inf
            continue
        c = S[l]
        if k:
            # A contiguous column takes the BLAS product that ``_greedy``'s
            # gathered column takes; numpy sums a strided one in its own
            # loop, whose rounding differs.
            c = c - L[:k, l].copy() @ L[:k]
            if dead:
                c[dead] = 0.0
        colsq[l] = -np.inf
        nu = float(diag[l])
        if not nu > DEGENERATE_VARIANCE_EPS:
            total -= nu
            colsq -= np.multiply(c, c, out=step)
            L[:k, l] = 0.0
            dead.append(l)
            continue
        total -= float(score[l])
        u = np.divide(c, math.sqrt(nu), out=L[k])
        # The column-norm update of ``_greedy``, on one run.
        Lu = L[: k + 1]
        t = Lu @ u
        t[k] *= 0.5
        v = S @ u
        v -= t @ Lu
        v *= 2.0
        colsq -= np.multiply(v, u, out=step)
        diag -= np.multiply(u, u, out=step)
    return labels[picks].tolist()


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
    one count per run, and the result holds one pick list per run.  Two or
    more runs are gathered into a block that ``_greedy`` only reads; one run
    is read in place by ``_greedy_one``, which picks what ``_greedy`` picks
    for it and writes nothing.  A run that makes a determined pick (variance
    at most ``DEGENERATE_VARIANCE_EPS``) always gets its picks from
    ``_greedy_one``.  Each run gets the picks it would get alone: a stack
    shares numpy calls, not data.  Scores may differ in the last bits
    between stacks of other widths, which matters only for a near-tie at the
    edge of ``TIE_TOLERANCE``, or once ``greedy`` has re-scored past the rank
    of a near-singular model, where the scores left are rounding noise.
    """
    if rule not in ("greedy", "topq"):
        raise ValueError(f"unknown selection rule: {rule!r}")
    post = state.post if isinstance(state, SensingState) else state
    rows = np.arange(len(post.unknown)) if runs is None else np.asarray(runs, dtype=np.int64)
    arms = np.zeros_like(rows) if arms is None else np.asarray(arms, dtype=np.int64)
    qs = _counts(q, rows.shape[0])
    counts = [min(v, post.unknown[b]) for v, b in zip(qs, rows.tolist())]
    rescore = rule == "greedy"
    if rows.shape[0] == 1:
        run, arm = int(rows[0]), int(arms[0])
        picks = [_greedy_one(post.cov[run, arm], post.labels[run], counts[0], rescore)]
    else:
        picks = _greedy(post.cov[rows, arms], post.labels[rows], counts, rescore=rescore)
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

    A run's nodes, in ascending label order, are one blocked downdate
    (``rank_one_condition``); a node that is near-deterministic given the
    earlier ones is absorbed without a covariance update.  The state is
    updated in place and returned.

    For a ``SensingState``, ``delivered`` maps node labels to values.  On a
    ``PosteriorStack`` it maps runs to their deliveries, which are folded
    into all of the run's models; every other run is left as it was.  The
    stack is then compacted (``PosteriorStack.compact``).

    Every label and value of the round is checked before the first fold,
    the labels in one ``PosteriorStack.positions`` pass, so a bad one in any
    run raises ``ValueError`` and leaves every run as it was.
    """
    post = state
    if isinstance(state, SensingState):
        post, delivered = state.post, {0: delivered}
    folds = []
    for run, payload in delivered.items():
        if payload:
            nodes = sorted(payload)
            folds.append((run, nodes, [float(payload[n]) for n in nodes]))
    if folds:
        runs = [run for run, nodes, _ in folds for _ in nodes]
        cols = post.positions(runs, [n for _, nodes, _ in folds for n in nodes])
        start = 0
        for run, nodes, vals in folds:
            stop = start + len(nodes)
            rank_one_condition(post, nodes, vals, run=run, cols=cols[start:stop])
            start = stop
    post.compact()
    return state


def polling_order(model: GaussianModel) -> list[int]:
    """Failure-free request order: repeated single-node greedy selection.

    Depends only on the covariance, so it can be fixed before any value is
    seen and is identical for every realization.
    """
    return select_nodes(initial_state(model), model.K)
