"""Channel layer: uploading probabilities, sequential polling, multichannel ALOHA.

Fading and measurement availability are collapsed into a single per-round
Bernoulli "uploading" draw per requested node, with the closed-form success
probability of an exponentially distributed channel gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RoundOutcome:
    """What happened in a single access round.

    delivered is a subset of responders, which is a subset of requested; in
    polling mode delivered equals responders (dedicated channels), in ALOHA
    mode only sole occupants of a channel get through.
    """

    requested: tuple[int, ...]
    responders: tuple[int, ...]
    delivered: tuple[int, ...]
    collided_channels: tuple[int, ...]


def uploading_probability(snr_threshold: float, snr_avg: float, availability: float) -> float:
    """Chance a requested node clears the fading threshold and has data.

    exp(-snr_threshold / snr_avg) * availability, the standard outage
    complement for an exponentially distributed channel gain.
    """
    if not snr_threshold >= 0:
        raise ValueError(f"snr_threshold must be >= 0, got {snr_threshold}")
    if not snr_avg > 0:
        raise ValueError(f"snr_avg must be > 0, got {snr_avg}")
    if not 0.0 <= availability <= 1.0:
        raise ValueError(f"availability must lie in [0, 1], got {availability}")
    return math.exp(-snr_threshold / snr_avg) * availability


def _check_requested(requested: Sequence[int]) -> tuple[int, ...]:
    req = tuple(map(int, requested))
    if not req:
        raise ValueError("requested must contain at least one node")
    if len(set(req)) != len(req):
        raise ValueError("requested contains duplicate nodes")
    return req


def _responders(req: tuple[int, ...], p: float, rng: np.random.Generator) -> tuple[int, ...]:
    """Requested nodes whose upload succeeds: one uniform draw per node, in order."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    return tuple(compress(req, (rng.random(len(req)) < p).tolist()))


def polling_round(
    requested: Sequence[int],
    n_channels: int,
    p: float,
    rng: np.random.Generator,
) -> RoundOutcome:
    """One round of dedicated-channel polling: every responder gets through."""
    req = _check_requested(requested)
    if len(req) > n_channels:
        raise ValueError(
            f"polling can serve at most {n_channels} nodes per round, got {len(req)}"
        )
    responders = _responders(req, p, rng)
    return RoundOutcome(
        requested=req,
        responders=responders,
        delivered=responders,
        collided_channels=(),
    )


def aloha_round(
    requested: Sequence[int],
    n_channels: int,
    p: float,
    rng: np.random.Generator,
) -> RoundOutcome:
    """One slotted multichannel ALOHA round.

    Each responder picks a channel uniformly at random; a packet is decoded
    only when its channel has exactly one occupant (no capture).
    """
    req = _check_requested(requested)
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    responders = _responders(req, p, rng)
    channels = rng.integers(1, n_channels + 1, size=len(responders)).tolist()
    load = [0] * (n_channels + 1)
    for ch in channels:
        load[ch] += 1
    return RoundOutcome(
        requested=req,
        responders=responders,
        delivered=tuple(r for r, ch in zip(responders, channels) if load[ch] == 1),
        collided_channels=tuple(ch for ch, n in enumerate(load) if n >= 2),
    )


def expected_successes(mode: str, n_channels: int, p: float, q: int) -> float:
    """Mean number of deliveries per round.

    polling: min(q, N) * p.  aloha: q p (1 - p/N)^(q-1).
    """
    if n_channels < 1 or q < 1:
        raise ValueError("n_channels and q must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if mode == "polling":
        return min(q, n_channels) * p
    if mode == "aloha":
        return q * p * (1.0 - p / n_channels) ** (q - 1)
    raise ValueError(f"mode must be 'polling' or 'aloha', got {mode!r}")


@lru_cache(maxsize=None)
def delivered_law(mode: str, n_channels: int, p: float, q: int) -> tuple[float, ...]:
    """Exact distribution of the deliveries in one round with ``q`` requests.

    Each requested node responds with probability p.  Polling delivers every
    responder; ALOHA delivers the responders alone on their uniformly chosen
    channel, computed ball by ball over (empty, singly occupied) channel counts.
    Entry j is the probability of j deliveries.
    """
    expected_successes(mode, n_channels, p, q)  # raises for the same bad arguments
    N = n_channels
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


def stop_round_moments(
    mode: str, K: int, n_channels: int, p: float, kbar: int
) -> tuple[float, float]:
    """Exact mean and standard deviation of the round in which ``kbar`` of
    the K measurements have arrived, without a round limit.

    Each round requests ``request_count`` nodes (a random first round
    requests as many), so the deliveries of a round depend only on the
    known count k, a Markov chain.  With R_k the rounds still to go from k
    and J a round's deliveries, R_k = 1 + R_{k+J}; first-step analysis
    gives its mean m_k and second moment s_k from the larger counts.
    """
    if not 0 <= kbar <= K:
        raise ValueError(f"kbar must lie in 0..{K}")
    m = [0.0] * (kbar + 1)
    s = [0.0] * (kbar + 1)
    for k in range(kbar - 1, -1, -1):
        law = delivered_law(mode, n_channels, p, request_count(mode, n_channels, p, K - k))
        ahead = sum(law[j] * m[min(k + j, kbar)] for j in range(1, len(law)))
        m[k] = (1.0 + ahead) / (1.0 - law[0])
        ahead_sq = sum(law[j] * s[min(k + j, kbar)] for j in range(1, len(law)))
        s[k] = (1.0 + 2.0 * (law[0] * m[k] + ahead) + ahead_sq) / (1.0 - law[0])
    return m[0], math.sqrt(max(s[0] - m[0] ** 2, 0.0))


def optimal_q(n_channels: int, p: float, remaining: int) -> int:
    """Throughput-maximizing ALOHA request count: N/p rounded, capped at ``remaining``."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    # Capped before the int conversion: N/p overflows to inf for subnormal p.
    return max(1, int(math.floor(min(n_channels / p + 0.5, remaining))))


def request_count(
    mode: str, n_channels: int, p: float, remaining: int, fixed: int | None = None
) -> int:
    """Nodes a round requests with ``remaining`` unknowns (never more): under
    polling ``fixed`` or N, at most N; otherwise ``fixed``, else ``optimal_q``."""
    if mode == "polling":
        return min(fixed or n_channels, n_channels, remaining)
    if fixed is not None:
        return min(fixed, remaining)
    return optimal_q(n_channels, p, remaining)


def mean_rounds_bound(
    scheme: str, kbar: float, n_channels: int, p: float, q: int | None = None
) -> float:
    """Closed-form mean rounds to collect ``kbar`` measurements.

    polling: kbar / (min(Q, N) p), Q defaulting to N.  aloha:
    kbar / (Q p (1 - p/N)^(Q-1)), a lower bound by Wald's identity.
    aloha-approx: kbar / (N e^{-1}), the large-N form at Q = N/p.
    """
    if kbar < 0:
        raise ValueError("kbar must be >= 0")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if kbar == 0:
        return 0.0
    if scheme == "polling":
        polled = n_channels if q is None else q
        return kbar / expected_successes("polling", n_channels, p, polled)
    if scheme == "aloha":
        if q is None:
            raise ValueError("the exact aloha bound needs q")
        rate = expected_successes("aloha", n_channels, p, q)
        return kbar / rate if rate > 0 else math.inf
    if scheme == "aloha-approx":
        return kbar / (n_channels * math.exp(-1.0))
    raise ValueError(f"scheme must be 'polling', 'aloha' or 'aloha-approx', got {scheme!r}")


def crossover_check(p: float) -> bool:
    """True when throughput-optimal ALOHA beats dedicated-channel polling (p < 1/e)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return p < math.exp(-1.0)
