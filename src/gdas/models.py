"""Gaussian signal models and exact conditional statistics.

Nodes carry global labels 1..K everywhere in the public API.  A
``GaussianModel`` holds the joint mean vector and covariance matrix of the K
scalar node measurements.  A ``PosteriorStack`` holds the working posteriors
of a block of runs under several models at once, updated in place, and logs
each run's observations; a ``ConditionalState`` is one exact posterior of
the still-unknown nodes given the observations made so far, as
``condition`` returns it and ``PosteriorStack.cond`` reads it off a stack.

Two conditioning paths are provided and must agree:

* ``condition`` forms the Schur complement of the observed block from one
  Cholesky factorization and is the reference implementation,
* ``rank_one_condition`` folds a round's observations into an existing
  posterior with one O(d L^2) covariance downdate of rank d.  It is one
  kernel over a stack of posteriors: the round loop folds each run's
  deliveries into all of its models in place, and a ``ConditionalState`` is
  copied into a stack of one on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateVarianceError, NumericalDegeneracyError

# Below this conditional variance a node is considered already determined.
DEGENERATE_VARIANCE_EPS = 1e-10

# A stack compacts once its widest run fills less than this share of its
# width: every fold and pick costs the width squared.
COMPACT_FILL = 0.9

FAMILY_SIZE = 5

# Passes over a K x K matrix (the model checks, ``_fold``'s downdate and
# ``compact``'s gather) go through row panels of at most this many bytes, so
# that none of them allocates a temporary the size of a posterior.
PANEL_BYTES = 256 << 10


def _panel_rows(row: int) -> int:
    """Rows of ``row`` float64 entries that fit one ``PANEL_BYTES`` panel."""
    return max(1, PANEL_BYTES // (8 * max(row, 1)))


def _readout(run: int | Sequence[int], terms: np.ndarray) -> float | np.ndarray:
    """Sums of ``terms`` over its last axis, taken left to right: a float for
    one ``run``, an array for a sequence of runs.  A zero term then adds
    exactly nothing, so a readout does not depend on the stack's width or on
    where its zero columns (observed nodes, padding) sit."""
    if terms.shape[-1] == 0:
        out = np.zeros(terms.shape[:-1])
    else:
        out = np.cumsum(terms, axis=-1)[..., -1]
    return out if np.ndim(run) else float(out)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def as_integers(values, what: str = "a node label") -> np.ndarray:
    """``values`` as an int64 array; raises ``ValueError`` for any value that
    is not an integer (2.0 passes, 2.5 and nan do not) instead of truncating."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = np.asarray(arr, dtype=float)
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            raise ValueError(f"{what} must be an integer, got {arr[~whole].flat[0]:g}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class GaussianModel:
    """Joint Gaussian law of the K node measurements.

    Parameters
    ----------
    mean : (K,) array_like
        Prior mean of each node's measurement.
    cov : (K, K) array_like
        Prior covariance; must be symmetric positive semidefinite.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = _readonly(np.atleast_1d(np.asarray(self.mean, dtype=float)))
        cov = _readonly(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("cov must be a square matrix")
        if mean.shape[0] != cov.shape[0]:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match cov dimension {cov.shape[0]}"
            )
        if mean.shape[0] == 0:
            raise ValueError("a model needs at least one node")
        if not np.isfinite(mean).all():
            raise ValueError("mean has a non-finite entry")
        # No check below makes a K x K temporary.  max and min propagate
        # nan, so both are finite only if every entry is.
        high, low = float(cov.max()), float(cov.min())
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValueError("cov has a non-finite entry")
        scale = max(1.0, high, -low)
        k = cov.shape[0]
        rows = _panel_rows(k)
        diff = np.empty((min(rows, k), k))
        for i in range(0, k, rows):
            part = np.subtract(cov[i : i + rows], cov[:, i : i + rows].T, out=diff[: k - i])
            if max(float(part.max()), -float(part.min())) > 1e-12 * scale:
                raise ValueError("cov is not symmetric")
        trace = float(np.trace(cov))
        floor = -1e-10 * max(trace, 0.0) / k
        if float(np.linalg.eigvalsh(cov)[0]) < floor:
            raise ValueError("cov is not positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def K(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class ConditionalState:
    """Posterior of the unknown nodes given the observations made so far.

    ``known_idx`` keeps the order in which nodes were observed;
    ``unknown_idx`` is always the ascending complement.  Arrays are treated
    as immutable by every operation in this package.
    """

    known_idx: tuple[int, ...]
    known_vals: np.ndarray
    unknown_idx: np.ndarray
    cond_mean: np.ndarray
    cond_cov: np.ndarray

    def __post_init__(self) -> None:
        known_vals = np.asarray(self.known_vals, dtype=float)
        unknown_idx = np.asarray(self.unknown_idx, dtype=np.int64)
        cond_mean = np.asarray(self.cond_mean, dtype=float)
        cond_cov = np.asarray(self.cond_cov, dtype=float)
        if known_vals.shape[0] != len(self.known_idx):
            raise ValueError("known_vals length does not match known_idx")
        if cond_mean.shape[0] != unknown_idx.shape[0]:
            raise ValueError("cond_mean length does not match unknown_idx")
        if cond_cov.shape != (unknown_idx.shape[0], unknown_idx.shape[0]):
            raise ValueError("cond_cov shape does not match unknown_idx")
        object.__setattr__(self, "known_vals", known_vals)
        object.__setattr__(self, "unknown_idx", unknown_idx)
        object.__setattr__(self, "cond_mean", cond_mean)
        object.__setattr__(self, "cond_cov", cond_cov)


def _first_nonpd_order(a: np.ndarray) -> int:
    """Order of the first leading minor that fails a Cholesky factorization."""
    for k in range(1, a.shape[0] + 1):
        try:
            np.linalg.cholesky(a[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return a.shape[0]


def _spd_cholesky(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, retrying once with a trace-scaled jitter.

    ``labels`` are the global node labels of the rows, used to name the
    offending node when the matrix is singular beyond the jitter tolerance.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    n = a.shape[0]
    jitter = 1e-10 * max(float(np.trace(a)), 0.0) / n
    try:
        return np.linalg.cholesky(a + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        order = _first_nonpd_order(a + jitter * np.eye(n))
        raise NumericalDegeneracyError(
            "observed-node covariance is singular beyond jitter tolerance "
            f"near node {int(labels[order - 1])}"
        ) from None


def condition(
    model: GaussianModel, idx: Iterable[int], vals: Iterable[float]
) -> ConditionalState:
    """Condition the model on observing nodes ``idx`` at values ``vals``.

    Returns the exact posterior mean and covariance of the complement nodes
    (in ascending label order):

        E[u | z]   = u_bar + R_uz R_z^{-1} (z - z_bar)
        Cov(u | z) = R_u - R_uz R_z^{-1} R_uz^T

    With R_z = L L^T, one solve against the factor whitens the observed
    block, W = [W_u | w_z] = L^{-1} [R_zu | z - z_bar], so that
    R_uz R_z^{-1} R_zu = W_u^T W_u and R_uz R_z^{-1} (z - z_bar) = W_u^T w_z;
    R_z is never inverted.
    """
    idx_arr = as_integers(list(idx))
    vals_arr = np.asarray(list(vals), dtype=float)
    k = model.K
    if idx_arr.shape[0] != vals_arr.shape[0]:
        raise ValueError("idx and vals must have the same length")
    if idx_arr.shape[0] == 0:
        return ConditionalState(
            (), np.zeros(0), np.arange(1, k + 1, dtype=np.int64), model.mean, model.cov
        )
    if int(idx_arr.min()) < 1 or int(idx_arr.max()) > k:
        raise ValueError(f"node labels must lie in 1..{k}")
    if np.unique(idx_arr).shape[0] != idx_arr.shape[0]:
        raise ValueError("duplicate node labels in idx")

    zpos = idx_arr - 1
    mask = np.ones(k, dtype=bool)
    mask[zpos] = False
    upos = np.flatnonzero(mask)

    chol = _spd_cholesky(model.cov[np.ix_(zpos, zpos)], labels=idx_arr)
    rhs = np.column_stack((model.cov[np.ix_(zpos, upos)], vals_arr - model.mean[zpos]))
    w = np.linalg.solve(chol, rhs)
    w_u, w_z = w[:, :-1], w[:, -1]
    cond_mean = model.mean[upos] + w_u.T @ w_z
    cond_cov = model.cov[np.ix_(upos, upos)] - w_u.T @ w_u
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return ConditionalState(
        tuple(int(i) for i in idx_arr),
        vals_arr.copy(),
        (upos + 1).astype(np.int64),
        cond_mean,
        cond_cov,
    )


def _fold(
    cov: np.ndarray,
    mean: np.ndarray,
    pos: np.ndarray,
    values: Sequence[float],
    labels: Sequence[int],
    absorb_degenerate: bool,
) -> None:
    """Fold observations into one run's posteriors under M models, in place.

    ``cov`` is (M, n, n) and ``mean`` (M, n); column ``pos[i]`` holds node
    ``labels[i]``, observed at ``values[i]``.  The d observations are one
    rank-d downdate of every model.  As in ``condition``, with the observed
    block C[P, P] = L L^T, the whitened rows
    W = [W_u | w_z] = L^{-1} [C[P, :] | values - mean[P]] give

        mean += W_u^T w_z,    cov -= W_u^T W_u,

    after which the observed rows, columns and mean entries are zero.  W is
    built one row at a time (left-looking): row k is node k's row of
    ``cov`` given the earlier nodes, over the square root of its variance
    nu_k given them (reading the row as the column needs ``cov`` exactly
    symmetric, which a ``PosteriorStack`` keeps).  Where nu_k is at most
    ``DEGENERATE_VARIANCE_EPS`` under a model, the row is zero there, so
    the node is absorbed, or ``DegenerateVarianceError`` is raised.

    One einsum per row panel of ``PANEL_BYTES`` gives that panel's rows of
    W_u^T W = [W_u^T W_u | W_u^T w_z], so the update is two passes over each
    covariance and needs no (M, n, n + 1) temporary.  Its sums over the d
    rows run in row order, so every entry's arithmetic is the same whatever
    the width n, the panel, the padding or the columns the nodes sit in;
    that of a BLAS ``W_u^T W_u`` is not.
    """
    M, n = mean.shape
    W = np.empty((M, pos.shape[0], n + 1))
    for k, (l, v, label) in enumerate(zip(pos.tolist(), values, labels)):
        row = W[:, k]
        row[:, :n] = cov[:, l]
        np.subtract(v, mean[:, l], out=row[:, n])
        if k:
            row -= np.einsum("mj,mjn->mn", W[:, :k, l], W[:, :k])
        nu = row[:, l : l + 1].copy()
        if not all(x > DEGENERATE_VARIANCE_EPS for x in row[:, l].tolist()):
            bad = ~(nu[:, 0] > DEGENERATE_VARIANCE_EPS)
            if not absorb_degenerate:
                raise DegenerateVarianceError(
                    f"conditional variance of node {label} is {nu[bad][0, 0]:.3e}; "
                    "the value is already determined by the data"
                )
            # A zero row leaves that model's posterior as it is.
            row[bad] = 0.0
            nu[bad] = 1.0
        row /= np.sqrt(nu)
    rows = _panel_rows(M * (n + 1))
    step = np.empty((M, min(rows, n), n + 1))
    for i in range(0, n, rows):
        j = min(i + rows, n)
        part = step[:, : j - i]
        np.einsum("mki,mkj->mij", W[:, :, i:j], W, out=part)
        cov[:, i:j] -= part[:, :, :n]
        mean[:, i:j] += part[:, :, n]
    for l in pos.tolist():
        cov[:, l] = 0.0
        cov[:, :, l] = 0.0
        mean[:, l] = 0.0


class PosteriorStack:
    """Posteriors of B runs under M models each, updated in place.

    ``cov`` is (B, M, n, n) and ``mean`` (B, M, n).  Column j of run b holds
    node ``labels[b, j]`` under every model (the models of a run share one
    unknown set); an observed node, or a column past a run's width, has label
    0 and zero rows, columns and means.  A run's nonzero labels ascend, so its
    unknown set reads off in label order.  ``where[b, k]`` is the column of
    node k in run b (-1 once observed), ``unknown[b]`` the run's unknown
    count, ``observed[b]`` and ``observed_vals[b]`` the labels and values it
    has observed, in order, and ``targets`` (B, K) the hidden realizations
    that ``sqerr_actual`` scores against.  Runs never leave the stack: a
    run that receives nothing more keeps its posterior as it is.

    Every run starts from the priors, which must share one unknown set; its
    log starts with the first prior's observations.  Without ``targets`` the
    stack holds one run and ``sqerr_actual`` is nan.  Each prior covariance C
    is stored as ``0.5 * (C + C^T)`` (a bitwise no-op when C is exactly
    symmetric), and the downdates and compaction keep every posterior
    exactly symmetric, which greedy selection relies on.
    """

    def __init__(self, priors: Sequence[ConditionalState], targets: np.ndarray | None = None):
        first = priors[0]
        labels = first.unknown_idx
        if any(not np.array_equal(p.unknown_idx, labels) for p in priors[1:]):
            raise ValueError("the priors of a stack must share one unknown set")
        n = labels.shape[0]
        self.K = n + len(first.known_idx)
        if targets is not None and (targets.shape[1:] != (self.K,) or len(targets) < 1):
            raise ValueError(f"targets must have shape (runs >= 1, {self.K}), got {targets.shape}")
        runs = 1 if targets is None else targets.shape[0]
        self.cov = np.empty((runs, len(priors), n, n))
        self.mean = np.empty((runs, len(priors), n))
        for m, p in enumerate(priors):
            np.add(p.cond_cov, p.cond_cov.T, out=self.cov[0, m])
            self.cov[0, m] *= 0.5
            self.cov[1:, m] = self.cov[0, m]
            self.mean[:, m] = p.cond_mean
        self.labels = labels[None].repeat(runs, axis=0)
        self.where = np.full((runs, self.K + 2), -1, dtype=np.int64)
        self.where[:, labels] = np.arange(n)
        self.unknown = [n] * runs
        self.observed = [list(first.known_idx) for _ in range(runs)]
        self.observed_vals = [first.known_vals.tolist() for _ in range(runs)]
        self.targets = targets
        # Run b's target at node k is _truth[b, k]; the zero labels gather
        # the zero in column 0.
        if targets is not None:
            self._truth = np.concatenate((np.zeros((runs, 1)), targets), axis=1)

    def positions(self, run: int | Sequence[int], nodes: Sequence[int]) -> np.ndarray:
        """Columns of ``nodes`` in ``run``: one run, or one run per node.

        Raises ``ValueError`` when a label is not an integer, is already
        observed in its run or outside 1..K, or appears twice in one run.
        """
        nodes = as_integers(nodes)
        # Flat indices into ``where``, one per (run, label) pair: labels
        # outside 1..K clip onto the run's -1 sentinels in columns 0 and K+1.
        flat = np.arange(self.K + 2).take(nodes, mode="clip")
        flat += np.multiply(run, self.K + 2)
        pos = self.where.take(flat)
        if -1 in pos.ravel().tolist():
            raise ValueError(
                f"node {int(nodes[pos < 0][0])} is not in the unknown set "
                "(already observed or not a valid label)"
            )
        keys = flat.ravel().tolist()
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate node labels")
        return pos

    def columns(self, run: int) -> np.ndarray:
        """The columns of ``run``'s unknown nodes, in ascending label order."""
        return self.labels[run].nonzero()[0]

    def cond(self, run: int = 0, arm: int = 0) -> ConditionalState:
        """``run``'s posterior under its model ``arm``, copied out compact."""
        cols = self.columns(run)
        return ConditionalState(
            tuple(self.observed[run]),
            np.array(self.observed_vals[run], dtype=float),
            self.labels[run, cols],
            self.mean[run, arm, cols],
            self.cov[run, arm].take(cols, axis=0).take(cols, axis=1),
        )

    def mse_theory(self, run: int | Sequence[int], arm: int = 0) -> float | np.ndarray:
        """Trace of ``run``'s posterior covariance under its model ``arm``.

        ``run`` is one run (a float is returned) or a sequence of runs (an
        array, one trace per run).  Each trace sums the run's diagonal left
        to right over the stack's columns, so it is the same whatever the
        stack's width and layout, and the same in both forms.
        """
        return _readout(run, self.cov.diagonal(axis1=-2, axis2=-1)[run, arm])

    def sqerr_actual(self, run: int | Sequence[int], arm: int = 0) -> float | np.ndarray:
        """Squared error of ``run``'s posterior mean under its model ``arm``
        against the run's target (nan without targets).

        ``run`` and the summation are as in ``mse_theory``.
        """
        if self.targets is None:
            return _readout(run, np.full(np.shape(run) + (1,), np.nan))
        runs = np.asarray(run)
        err = self._truth[runs[..., None], self.labels[runs]] - self.mean[runs, arm]
        return _readout(run, err * err)

    def _observe(self, run: int, pos: np.ndarray, labels: list[int], values: list[float]) -> None:
        self.where[run][labels] = -1
        self.labels[run][pos] = 0
        self.unknown[run] -= pos.shape[0]
        self.observed[run] += labels
        self.observed_vals[run] += values

    def compact(self) -> None:
        """Gather every run to the widest run's width, once that fills less
        than ``COMPACT_FILL`` of the stack's width.

        No run is dropped.  The new stack is the front of the old one's
        buffer, and each model's rows are gathered in panels of
        ``PANEL_BYTES``, so the peak memory is the old stack and one panel.
        """
        width = max(self.unknown)
        if width >= COMPACT_FILL * self.cov.shape[-1]:
            return
        B, M = self.mean.shape[:2]
        # Run b's new block for model m ends no later than its old block
        # starts, and a row's new place ends no later than any later row's
        # old place starts, so taking the runs, their models and the rows in
        # order reads each old row before a write reaches it.
        cov = self.cov.reshape(-1)[: B * M * width * width].reshape(B, M, width, width)
        mean = np.zeros((B, M, width))
        labels = np.zeros((B, width), dtype=np.int64)
        for b in range(B):
            cols = self.columns(b)
            u = cols.shape[0]
            rows = _panel_rows(u)
            for m in range(M):
                for i in range(0, u, rows):
                    j = min(i + rows, u)
                    cov[b, m, i:j, :u] = self.cov[b, m][cols[i:j, None], cols]
            cov[b, :, u:] = 0.0
            cov[b, :, :u, u:] = 0.0
            mean[b, :, :u] = self.mean[b].take(cols, axis=1)
            labels[b, :u] = self.labels[b, cols]
            self.where[b, labels[b, :u]] = np.arange(u)
        self.cov, self.mean, self.labels = cov, mean, labels


def rank_one_condition(
    state: ConditionalState | PosteriorStack,
    node: int | Sequence[int],
    value: float | Sequence[float],
    *,
    absorb_degenerate: bool = False,
    run: int = 0,
    cols: np.ndarray | None = None,
) -> ConditionalState | PosteriorStack:
    """Fold the observations ``node = value`` into an existing posterior.

    ``node`` and ``value`` are one label and value, or equal-length
    sequences.  One call is one blocked downdate: the nodes, taken in that
    order, whiten against each other and the posterior takes a single
    rank-d update.  Node l's conditional variance nu_l and covariance column
    r_l are given the earlier nodes of the call; for one node the update is
    the rank-one Schur downdate

        mean' = mean_{-l} + r_l (value - mean_l) / nu_l
        cov'  = cov_{-l}  - r_l r_l^T / nu_l

    with l the node's position in the unknown set.  The result agrees with
    ``condition`` on the union of the observed sets, and with folding the
    nodes one call at a time, to within rounding.  It does not depend on
    the width or column layout of the stack it runs on.

    A ``PosteriorStack`` is updated in place: the observations are folded
    into every model of its run ``run``, and the stack is returned.  A
    ``ConditionalState`` is copied into a stack of one, and the result is
    that stack's new, compact ``ConditionalState``.  The labels are checked
    and resolved by ``PosteriorStack.positions``; ``cols``, when given, are
    the columns it returned for ``node`` in ``run``, which are then not
    looked up again (``ingest`` checks a whole round's labels at once).

    Raises ``DegenerateVarianceError`` when nu_l is at most
    ``DEGENERATE_VARIANCE_EPS`` under any of the run's models: the node is
    already determined.  With ``absorb_degenerate`` such a node is instead
    removed from the unknown set without a covariance update under that
    model: with a vanishing conditional variance it carries no new
    information about the others, so this equals conditioning it at its
    conditional mean.
    """
    post = PosteriorStack([state]) if isinstance(state, ConditionalState) else state
    pos = post.positions(run, np.atleast_1d(node)) if cols is None else cols
    values = np.atleast_1d(np.asarray(value, dtype=float))
    if pos.shape != values.shape or pos.ndim != 1:
        raise ValueError("node and value must have the same length")
    labels = post.labels[run][pos].tolist()
    vals = values.tolist()
    _fold(post.cov[run], post.mean[run], pos, vals, labels, absorb_degenerate)
    post._observe(run, pos, labels, vals)
    return post if post is state else post.cond(run)


def build_ar1_model(K: int, rho: float) -> GaussianModel:
    """First-order autoregressive model over the node line.

    mean_k = cos(pi (k - 1) / 5) and cov[k, k'] = rho^|k - k'|.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    k = np.arange(1, K + 1)
    mean = np.cos(np.pi * (k - 1) / 5.0)
    # Row i is the window of rho^|l|, l = 1 - K .. K - 1, that starts at
    # l = -i: a view, so the model's copy is the one K x K array made.
    powers = np.power(float(rho), np.abs(np.arange(1 - K, K)))
    cov = np.lib.stride_tricks.sliding_window_view(powers, K)[::-1]
    return GaussianModel(mean=mean, cov=cov)


def dct_matrix(K: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix of size K x K.

    Entry (r, c), zero-based: w(r) cos(pi r (2c + 1) / (2K)) with
    w(0) = sqrt(1/K) and w(r) = sqrt(2/K) otherwise, so rows and columns are
    both orthonormal.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n = np.arange(K)
    mat = np.cos(np.pi * np.outer(n, 2 * n + 1) / (2.0 * K)) * np.sqrt(2.0 / K)
    mat[0, :] /= np.sqrt(2.0)
    return mat


def build_model_family(
    K: int, J: int = 3, noise: float = 0.1, rho: float = 0.95
) -> list[GaussianModel]:
    """The five candidate models used throughout the experiments.

    Model 1 is ``build_ar1_model(K, rho)``.  Models 2..5 keep sinusoidal or
    zero means and use low-rank covariances built from J consecutive columns
    of the orthonormal DCT basis (columns m-1 .. J+m-2, 1-based, for model m)
    plus a ``noise``-level identity floor, scaled so that every covariance
    has trace K.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if noise <= 0.0:
        raise ValueError("noise must be > 0")
    if K < J + FAMILY_SIZE - 1:
        raise ValueError(f"K must be >= {J + FAMILY_SIZE - 1} for a family of {FAMILY_SIZE}")

    models = [build_ar1_model(K, rho)]
    k = np.arange(1, K + 1)
    phase = np.pi * (k - 1) / 5.0
    means = [np.sin(phase), -np.cos(phase), -np.sin(phase), np.zeros(K)]
    psi = dct_matrix(K)
    scale = K / (J + noise * K)
    eye = np.eye(K)
    for m, mean in zip(range(2, FAMILY_SIZE + 1), means):
        cols = psi[:, m - 2 : m - 2 + J]
        cov = scale * (cols @ cols.T + noise * eye)
        models.append(GaussianModel(mean=mean, cov=cov))
    return models
