"""Canonical experiment configurations, named by what they show.

``run`` presets return labeled scenario lists (the round-curve preset pairs
polling against ALOHA); ``sweep`` presets carry the swept parameter and its
values; ``bandit`` presets cover low/high temperature and the fixed
wrong-model baseline.
"""

from __future__ import annotations

from .experiments import Scenario

RUN_PRESETS: dict[str, list[tuple[str, Scenario]]] = {
    # MSE-per-round curve with a failure-free single channel: the request
    # order is fully pre-determined by the covariance.
    "mse-curve": [
        (
            "polling",
            Scenario(
                mode="polling", p=1.0, N=1, K=100, rho=0.95, kbar=100, T=100,
                runs=100, first_round="greedy",
            ),
        )
    ],
    # Rounds needed to collect 75 of 100 measurements, both access modes.
    "rounds": [
        ("polling", Scenario(mode="polling", p=0.2, N=4, K=100, kbar=75, T=250, runs=500)),
        ("aloha", Scenario(mode="aloha", p=0.2, N=4, K=100, kbar=75, T=150, runs=500)),
    ],
}

SWEEP_PRESETS: dict[str, tuple[Scenario, str, list[float]]] = {
    "p-sweep": (
        Scenario(mode="aloha", K=100, N=4, p=0.2, T=75, runs=100),
        "p",
        [0.1, 0.2, 0.3, 0.45, 0.6],
    ),
    "n-sweep": (
        Scenario(mode="aloha", K=100, N=4, p=0.2, T=75, runs=100),
        "N",
        [1, 2, 4, 8],
    ),
}

BANDIT_PRESETS: dict[str, Scenario] = {
    "bandit-tau1": Scenario(mode="bandit", K=100, p=0.2, N=4, tau=1.0, runs=200, T=50),
    "bandit-tau20": Scenario(mode="bandit", K=100, p=0.2, N=4, tau=20.0, runs=500, T=30),
    "mismatch": Scenario(
        mode="bandit", K=100, p=0.2, N=4, tau=1.0, runs=200, T=50, fixed_model=2
    ),
}

