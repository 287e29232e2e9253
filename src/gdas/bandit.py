"""Softmax multi-armed bandit over candidate signal models.

Each candidate model is an arm.  After a round that delivered measurements,
the arm that was played pays the normalized prediction error of those
measurements under its own model; the running sample means feed a softmax
(temperature tau) that picks the next arm.  All arms share the observation
pool: every model conditions on all data gathered so far, whichever arm
gathered it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalDegeneracyError
from .models import ConditionalState, PosteriorStack

# A normalization below this means the model declares the delivered nodes
# (conditionally) deterministic and the cost ratio is meaningless.
DEGENERATE_COST_EPS = 1e-12


@dataclass
class BanditState:
    """Per-arm cost accumulators; ``update`` adds to them in place."""

    arms: int
    cost_sum: np.ndarray
    count: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        # Copies: ``update`` adds to them in place.
        cost_sum = np.array(self.cost_sum, dtype=float)
        count = np.array(self.count, dtype=np.int64)
        if cost_sum.shape != (self.arms,) or count.shape != (self.arms,):
            raise ValueError("cost_sum and count must have one entry per arm")
        self.cost_sum = cost_sum
        self.count = count


def new_bandit_state(arms: int, tau: float) -> BanditState:
    if arms < 2:
        raise ValueError("arms must be >= 2")
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    return BanditState(
        arms=int(arms),
        cost_sum=np.zeros(arms),
        count=np.zeros(arms, dtype=np.int64),
        tau=float(tau),
    )


def prediction_error_terms(
    post: ConditionalState | PosteriorStack,
    delivered_idx: Sequence[int],
    delivered_vals: Sequence[float],
    *,
    run: int = 0,
    arm: int | Sequence[int] = 0,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(squared prediction error, its model expectation) for delivered nodes,
    read from the posterior of ``post``'s run ``run`` under its model ``arm``
    (a ``ConditionalState`` is copied into a stack of one).

    The expectation term is the trace of the conditional covariance
    restricted to the delivered nodes, exact for a Gaussian model.  Their
    ratio is the round cost of ``cost_ratio``.  ``arm`` is one model (two
    floats are returned) or a sequence of models (two arrays, one entry per
    model); the nodes are looked up once either way.
    """
    post = PosteriorStack([post]) if isinstance(post, ConditionalState) else post
    idx = np.asarray(list(delivered_idx))
    vals = np.asarray(list(delivered_vals), dtype=float)
    if idx.shape[0] == 0:
        raise ValueError("delivered_idx must contain at least one node")
    if idx.shape[0] != vals.shape[0]:
        raise ValueError("delivered_idx and delivered_vals must have the same length")
    pos = post.positions(run, idx)
    arms = np.asarray(arm)
    err = vals - post.mean[run][:, pos][arms]
    sqerr = np.add.reduce(err * err, -1)
    expected = np.add.reduce(post.cov[run][:, pos, pos][arms], -1)
    if arms.ndim:
        return sqerr, expected
    return float(sqerr), float(expected)


def cost_ratio(sqerr: float, expected: float) -> float:
    """The cost Y = sqerr / expected from ``prediction_error_terms``' two terms.

    Y = ||x_D - E[x_D | z]||^2 / Tr(Cov(x_D | z)), both evaluated under the
    candidate model.  Under the data-generating model E[Y] = 1; a mismatched
    model inflates it.  Raises ``NumericalDegeneracyError`` when ``expected``
    is below ``DEGENERATE_COST_EPS``.
    """
    if expected < DEGENERATE_COST_EPS:
        raise NumericalDegeneracyError(
            "model assigns (near-)zero conditional variance to the delivered nodes"
        )
    return sqerr / expected


def softmax_probs(state: BanditState) -> np.ndarray:
    """Arm-selection probabilities, exp(-mean_cost / tau) renormalized.

    Computed with a min-shift so large costs cannot underflow everything,
    and valid only once every arm has at least one sample.
    """
    if np.any(state.count < 1):
        raise ValueError("softmax_probs needs at least one cost sample per arm")
    psi = state.cost_sum / state.count
    weights = np.exp(-(psi - psi.min()) / state.tau)
    return weights / weights.sum()


def select_model(state: BanditState, t: int, rng: np.random.Generator) -> int:
    """Arm to play at round ``t`` (1-based model label).

    Rounds 0..arms-1 sweep the arms in order.  Afterwards, any arm still
    without a cost sample (its initialization round delivered nothing) is
    forced first; otherwise the softmax distribution is sampled.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t < state.arms:
        return t + 1
    unseen = np.flatnonzero(state.count == 0)
    if unseen.shape[0] > 0:
        return int(unseen[0]) + 1
    # The draw of ``rng.choice(arms, p=probs)``: one uniform, located in the
    # normalized cdf, so the stream advances exactly as it would there.
    cdf = softmax_probs(state).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right")) + 1


def update(state: BanditState, m: int, cost: float) -> BanditState:
    """Add one cost sample to arm ``m`` in place and return ``state``; all
    other arms are untouched."""
    if not 1 <= m <= state.arms:
        raise ValueError(f"model label must lie in 1..{state.arms}")
    cost = float(cost)
    if not cost >= 0.0:
        raise ValueError("cost must be >= 0")
    state.cost_sum[m - 1] += cost
    state.count[m - 1] += 1
    return state
