"""Selection scores, greedy and top-q node choice, ingestion, and the fixed request order."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from gdas.engine import (
    TIE_TOLERANCE,
    _greedy,
    _greedy_one,
    ingest,
    initial_state,
    polling_order,
    select_nodes,
)
from gdas.models import (
    DEGENERATE_VARIANCE_EPS,
    PANEL_BYTES,
    GaussianModel,
    build_ar1_model,
    build_model_family,
    condition,
    rank_one_condition,
)

from conftest import random_psd_model


def brute_force_costs(model, known, vals):
    """Residual trace after additionally conditioning on each candidate.

    Independent of the engine: evaluates the batch conditioning formula per
    candidate and sums the surviving conditional variances.
    """
    state = condition(model, known, vals)
    out = {}
    for node in state.unknown_idx:
        after = condition(model, list(known) + [int(node)], list(vals) + [0.0])
        out[int(node)] = float(np.trace(after.cond_cov))
    return out


def band_ranking(costs, mse):
    """Labels by ascending cost; costs within TIE_TOLERANCE * max(1, mse) of
    the smallest left count as tied and go lowest label first."""
    left = dict(costs)
    tol = TIE_TOLERANCE * max(1.0, mse)
    order = []
    while left:
        best = min(left.values())
        node = min(n for n, c in left.items() if c <= best + tol)
        order.append(node)
        del left[node]
    return order


def brute_force_pick(model, known, vals):
    mse = float(np.trace(condition(model, known, vals).cond_cov))
    return band_ranking(brute_force_costs(model, known, vals), mse)[0]


def reference_picks(cov, labels, q):
    """Greedy picks from an explicit Schur complement, downdated per pick.

    Each pick scores every node still free by ``||C_l||^2 / max(C_ll, eps)``
    on the current complement C, takes the lowest label within
    ``TIE_TOLERANCE * max(1, trace C)`` of the best, then conditions C on it
    (a degenerate pivot's row and column are dropped instead).
    """
    C = np.array(cov, dtype=float)
    free = np.ones(len(labels), dtype=bool)
    picks = []
    for _ in range(q):
        d = np.diag(C)
        score = np.where(free, (C * C).sum(axis=0) / np.maximum(d, DEGENERATE_VARIANCE_EPS), -np.inf)
        cut = score.max() - TIE_TOLERANCE * max(1.0, float(np.trace(C)))
        l = int(np.flatnonzero(score >= cut)[0])
        picks.append(int(labels[l]))
        free[l] = False
        c = C[:, l].copy()
        if c[l] > DEGENERATE_VARIANCE_EPS:
            C -= np.outer(c, c) / c[l]
        else:
            C[l, :] = C[:, l] = 0.0
    return picks


def lifted_model(base):
    """``base`` plus a last node that is a tiny multiple of its leading
    eigenvector, with variance 0.99 * DEGENERATE_VARIANCE_EPS: a pick of it
    is degenerate."""
    lam, vec = np.linalg.eigh(base.cov)
    K = base.K
    lift = np.vstack([np.eye(K), vec[:, -1] * np.sqrt(0.99 * DEGENERATE_VARIANCE_EPS / lam[-1])])
    return GaussianModel(mean=np.zeros(K + 1), cov=lift @ base.cov @ lift.T)


def played_stack(models, runs, rng, rounds, stopped=()):
    """A block of ``runs`` runs after ``rounds`` rounds of 9-12 random
    deliveries each; the runs in ``stopped`` receive none from round 3, the
    first whose ingest compacts a K=100 stack, and stay in the block."""
    K = models[0].K
    x = rng.normal(size=(runs, K))
    post = initial_state(models, x)
    for r in range(rounds):
        slots = {}
        for b in range(runs):
            if r >= 2 and b in stopped:
                continue
            free = post.labels[b][post.labels[b] > 0]
            nodes = rng.choice(free, size=int(rng.integers(9, 13)), replace=False)
            slots[b] = {int(v): float(x[b, v - 1]) for v in nodes}
        ingest(post, slots)
    return post


class TestSelectionCosts:
    """A node's selection cost is the residual trace after conditioning on it
    (``brute_force_costs``); ``topq`` requests nodes in ``band_ranking`` order."""

    def test_two_node_symmetric_costs(self):
        model = build_ar1_model(2, 0.95)
        assert brute_force_costs(model, [], []) == pytest.approx(
            {1: 1 - 0.95**2, 2: 1 - 0.95**2}, abs=1e-12
        )
        assert select_nodes(initial_state(model), 2, rule="topq") == [1, 2]

    def test_three_node_costs_single_out_the_middle(self):
        model = build_ar1_model(3, 0.95)
        costs = brute_force_costs(model, [], [])
        assert costs[2] == pytest.approx(0.1950, abs=1e-4)
        assert costs[1] == pytest.approx(0.2830, abs=1e-4)
        assert costs[3] == pytest.approx(costs[1], abs=1e-12)
        assert select_nodes(initial_state(model), 3, rule="topq") == [2, 1, 3]

    def test_independent_nodes_offer_no_reduction(self):
        sigma_sq = 2.5
        model = GaussianModel(mean=np.zeros(4), cov=sigma_sq * np.eye(4))
        assert brute_force_costs(model, [], []) == pytest.approx(
            dict.fromkeys(range(1, 5), 3 * sigma_sq), abs=1e-12
        )
        assert select_nodes(initial_state(model), 4, rule="topq") == [1, 2, 3, 4]

    def test_single_unknown_gets_zero_cost(self):
        model = build_ar1_model(2, 0.5)
        st = ingest(initial_state(model), {1: 0.0})
        assert brute_force_costs(model, [1], [0.0]) == {2: 0.0}
        assert select_nodes(st, 3, rule="topq") == [2]

    def test_matches_brute_force_values(self, rng):
        for trial in range(40):
            k = int(rng.integers(2, 12))
            if trial % 2 == 0:
                model = build_ar1_model(k, float(rng.uniform(0.3, 0.98)))
            else:
                model = random_psd_model(rng, k)
            known = [int(n) for n in rng.permutation(k)[: int(rng.integers(0, k - 1))] + 1]
            vals = [float(v) for v in rng.normal(size=len(known))]
            st = initial_state(model)
            if known:
                st = ingest(st, dict(zip(known, vals)))
            expected = band_ranking(brute_force_costs(model, known, vals), st.mse_theory)
            assert select_nodes(st, k, rule="topq") == expected


class TestTopq:
    def test_mirror_images_tie_to_the_lower_label(self):
        # Nodes 1 and 4 (and 2 and 3) are mirror images on the AR(1) line.
        st = initial_state(build_ar1_model(4, 0.9))
        assert select_nodes(st, 4, rule="topq") == [2, 3, 1, 4]

    def test_first_pick_is_greedys_on_the_ar1_grid(self):
        grid = [(k, rho) for k in range(2, 40) for rho in (0.3, 0.5, 0.7, 0.9, 0.95, 0.99)]
        states = [initial_state(build_ar1_model(k, rho)) for k, rho in grid]
        topq = [select_nodes(st, 1, rule="topq") for st in states]
        assert topq == [select_nodes(st, 1) for st in states]

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=strategies.data())
    def test_first_pick_is_greedys_on_random_models(self, data):
        # A mirrored model (swapping nodes l and K+1-l leaves it unchanged)
        # observed on a mirrored set has exact ties, which both rules must
        # break the same way.
        k = data.draw(strategies.integers(2, 30), label="K")
        seed = data.draw(strategies.integers(0, 2**32 - 1), label="seed")
        mirror = data.draw(strategies.booleans(), label="mirror")
        known = data.draw(
            strategies.lists(strategies.integers(1, k), unique=True, max_size=k - 1),
            label="known",
        )
        rng = np.random.default_rng(seed)
        model = random_psd_model(rng, k)
        if mirror:
            cov = 0.5 * (model.cov + model.cov[::-1, ::-1])
            model = GaussianModel(mean=model.mean, cov=cov)
            known = sorted(set(known) | {k + 1 - n for n in known})[: k - 1]
        state = initial_state(model)
        if known:
            state = ingest(state, {n: float(v) for n, v in zip(known, rng.normal(size=k))})
        assert select_nodes(state, 1, rule="topq") == select_nodes(state, 1)


class TestSelectNodes:
    def test_three_node_pick_is_the_middle(self):
        st = initial_state(build_ar1_model(3, 0.95))
        assert select_nodes(st, 1) == [2]

    def test_request_everything_when_q_large(self):
        st = initial_state(build_ar1_model(4, 0.9))
        assert sorted(select_nodes(st, 10)) == [1, 2, 3, 4]

    def test_empty_when_nothing_unknown(self):
        model = build_ar1_model(2, 0.5)
        st = ingest(initial_state(model), {1: 0.0, 2: 0.0})
        assert select_nodes(st, 3) == []

    def test_q_must_be_positive(self):
        st = initial_state(build_ar1_model(3, 0.5))
        with pytest.raises(ValueError):
            select_nodes(st, 0)
        with pytest.raises(ValueError, match="q must be an integer, got 2.9"):
            select_nodes(st, 2.9)

    def test_ties_resolve_to_lowest_label(self):
        st = initial_state(GaussianModel(mean=np.zeros(4), cov=np.eye(4)))
        assert select_nodes(st, 2) == [1, 2]

    def test_greedy_single_pick_matches_oracle(self, rng):
        for trial in range(200):
            k = int(rng.integers(2, 11))
            if trial % 2 == 0:
                model = build_ar1_model(k, float(rng.uniform(0.3, 0.98)))
            else:
                model = random_psd_model(rng, k)
            n_obs = int(rng.integers(0, k - 1))
            known = [int(n) for n in rng.permutation(k)[:n_obs] + 1]
            vals = [float(v) for v in rng.normal(size=n_obs)]
            st = initial_state(model)
            if known:
                st = ingest(st, dict(zip(known, vals)))
            assert select_nodes(st, 1)[0] == brute_force_pick(model, known, vals)

    def test_each_greedy_pick_is_conditionally_optimal(self, rng):
        # Greedy guarantees every pick is the exact argmin given the picks
        # before it (not that the final set beats every same-size subset).
        for trial in range(50):
            k = int(rng.integers(3, 11))
            if trial % 2 == 0:
                model = build_ar1_model(k, float(rng.uniform(0.3, 0.98)))
            else:
                model = random_psd_model(rng, k)
            picks = select_nodes(initial_state(model), 3)
            for i, node in enumerate(picks):
                prefix = picks[:i]
                assert node == brute_force_pick(model, prefix, [0.0] * len(prefix))

    def test_greedy_pair_on_strongly_correlated_line(self):
        # The middle node is the forced first pick; the best pair containing
        # it is (3, 1).  The unconstrained pair optimum (1, 4) is better on
        # this instance, which is the structural price of sequential picking.
        model = build_ar1_model(5, 0.95)
        st = initial_state(model)
        pair = select_nodes(st, 2)
        assert pair == [3, 1]
        achieved = float(np.trace(condition(model, pair, [0.0, 0.0]).cond_cov))
        best_with_3 = min(
            float(np.trace(condition(model, [3, j], [0.0, 0.0]).cond_cov))
            for j in (1, 2, 4, 5)
        )
        assert achieved == pytest.approx(best_with_3, abs=1e-12)

    def test_topq_rule_takes_smallest_one_shot_costs(self):
        model = build_ar1_model(5, 0.95)
        st = initial_state(model)
        expected = band_ranking(brute_force_costs(model, [], []), st.mse_theory)[:2]
        assert select_nodes(st, 2, rule="topq") == expected == [3, 2]

    def test_asymmetry_within_tolerance_picks_as_the_symmetrized_twin(self, rng):
        # GaussianModel accepts an asymmetry of up to 1e-12; the stack stores
        # the symmetric part, so selection, which reads a pivot's column as
        # its row, sees the twin's covariance bit for bit.
        base = random_psd_model(rng, 30)
        skew = rng.normal(size=(30, 30))
        cov = base.cov + 2e-14 * (skew - skew.T)
        assert 5e-14 < np.abs(cov - cov.T).max() < 1e-12
        asym = GaussianModel(mean=base.mean, cov=cov)
        twin = GaussianModel(mean=base.mean, cov=0.5 * (cov + cov.T))
        states = [initial_state(asym), initial_state(twin)]
        np.testing.assert_array_equal(states[0].post.cov, states[1].post.cov)
        assert select_nodes(states[0], 30) == select_nodes(states[1], 30)
        assert polling_order(asym) == polling_order(twin)

    def test_unknown_rule_rejected(self):
        st = initial_state(build_ar1_model(3, 0.5))
        with pytest.raises(ValueError, match="selection rule"):
            select_nodes(st, 1, rule="best")


class TestKernelAtBenchmarkShapes:
    """``select_nodes`` on played blocks of the benchmark's sizes (masked
    columns, a compacted stack, ragged counts, runs that stopped receiving
    deliveries) picks what an explicit Schur-complement downdate picks."""

    @pytest.mark.parametrize("q", [4, 20])
    def test_k100_block_of_19(self, q):
        rng = np.random.default_rng(100 + q)
        models = build_model_family(100)
        post = played_stack(models, 19, rng, rounds=4, stopped=(3, 11))
        assert post.cov.shape[-1] < 100 and (post.labels[0] == 0).any()
        qs = [q if b % 3 else int(rng.integers(1, q + 1)) for b in range(19)]
        arms = rng.integers(0, len(models), size=19)
        picks = select_nodes(post, qs, arms=arms)
        assert [len(p) for p in picks] == [min(v, post.unknown[b]) for b, v in enumerate(qs)]
        assert picks[3] and picks[11]
        for b in range(19):
            cond = post.cond(b, arms[b])
            assert picks[b] == reference_picks(cond.cond_cov, cond.unknown_idx, len(picks[b]))

    @pytest.mark.parametrize("rule", ["greedy", "topq"])
    def test_fewer_picks_are_a_prefix(self, rule):
        # A round selects each run's picks only up to its last delivered
        # position, for the runs that received something: the picks must be
        # the first k_b of those the full count q gives.
        rng = np.random.default_rng(7)
        models = build_model_family(100)
        post = played_stack(models, 19, rng, rounds=4, stopped=(3, 11))
        q = 20
        arms = rng.integers(0, len(models), size=19)
        full = select_nodes(post, q, rule, arms=arms)
        runs = [b for b in range(19) if b % 4]
        ks = [q, 1] + rng.integers(1, q + 1, size=len(runs) - 2).tolist()
        assert len(set(ks)) > 2
        picks = select_nodes(post, ks, rule, runs=runs, arms=arms[runs])
        assert picks == [full[b][:k] for b, k in zip(runs, ks)]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_k400_q80(self, runs):
        rng = np.random.default_rng(400 + runs)
        post = played_stack([build_ar1_model(400, 0.95)], runs, rng, rounds=3)
        qs = [80, 57][:runs]
        picks = select_nodes(post, qs)
        for b in range(runs):
            cond = post.cond(b)
            assert picks[b] == reference_picks(cond.cond_cov, cond.unknown_idx, qs[b])


class TestKernelEdges:
    def test_used_up_runs_stop_updating(self):
        # Run 2 has 3 unknowns left and run 1 wants 4 picks: neither takes
        # part in the later steps of run 0's 12, and nothing copies S.
        post = initial_state([build_ar1_model(60, 0.95)], np.zeros((3, 60)))
        ingest(post, {0: {5: 0.0, 30: 0.0}, 1: {}, 2: {n: 0.0 for n in range(4, 61)}})
        counts = [12, 4, 3]
        S = post.cov[:, 0].copy()
        tracemalloc.start()
        try:
            picks = _greedy(S, post.labels, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S.nbytes
        assert picks == [select_nodes(post, [v], runs=[b])[0] for b, v in enumerate(counts)]
        assert sorted(picks[2]) == [1, 2, 3]

    def test_degenerate_pick_hands_its_run_to_the_one_run_kernel(self):
        # Node 7 is a tiny multiple of the leading eigenvector of nodes 1-6,
        # with variance 0.99 * DEGENERATE_VARIANCE_EPS: its score is the
        # highest, so run 0 picks it first, as a degenerate pick.  The block
        # kernel stops updating run 0 and takes its picks from
        # ``_greedy_one``, so the block is only read.  Run 1 has node 7
        # observed; both then pick the six-node order.
        ar1 = build_ar1_model(6, 0.8)
        post = initial_state([lifted_model(ar1)], np.zeros((2, 7)))
        ingest(post, {0: {}, 1: {7: 0.0}})
        S = post.cov[:, 0].copy()
        before = S.tobytes()
        assert S[0, 6].any()
        picks = _greedy(S, post.labels, [7, 6])
        order = select_nodes(initial_state(ar1), 6)
        assert picks == [[7] + order, order]
        assert S.tobytes() == before
        assert picks[0] == _greedy_one(S[0], post.labels[0], 7)
        for b in range(2):
            cond = post.cond(b)
            assert picks[b] == reference_picks(cond.cond_cov, cond.unknown_idx, len(picks[b]))

    def test_one_run_selection_reads_the_stack_in_place(self):
        # The same degenerate first pick, made by one run on its own: the
        # stack's covariances and means are read, never written.
        ar1 = build_ar1_model(6, 0.8)
        post = initial_state([lifted_model(ar1)], np.zeros((2, 7)))
        cov, mean = post.cov.tobytes(), post.mean.tobytes()
        order = select_nodes(initial_state(ar1), 6)
        assert select_nodes(post, [7], runs=[0]) == [[7] + order]
        assert post.cov.tobytes() == cov and post.mean.tobytes() == mean

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        k=strategies.integers(2, 60),
        kind=strategies.sampled_from(["ar1", "psd", "degenerate", "near-singular"]),
        rule=strategies.sampled_from(["greedy", "topq"]),
        runs=strategies.integers(2, 3),
        seed=strategies.integers(0, 2**32 - 1),
    )
    @example(k=9, kind="degenerate", rule="greedy", runs=2, seed=2)
    @example(k=12, kind="near-singular", rule="greedy", runs=2, seed=14)
    def test_one_run_picks_what_the_block_picks(self, k, kind, rule, runs, seed):
        # Each run of a block of 2-3, selected on its own (the one-run
        # kernel, in place), picks what ``_greedy`` picks for it in the
        # block, and leaves the stack byte-identical.  Observed nodes and a
        # compacted stack give the runs masked columns.  In the first
        # explicit example a run picks the degenerate node before its last
        # pick.  A near-singular family member's later picks rank rounding
        # noise, so they match only if both kernels round alike; the second
        # example is one where other rounding moves a pick.
        rng = np.random.default_rng(seed)
        if kind == "ar1":
            model = build_ar1_model(k, float(rng.uniform(0.3, 0.999)))
        elif kind == "psd":
            model = random_psd_model(rng, k)
        elif kind == "degenerate":
            model = lifted_model(build_ar1_model(k - 1, float(rng.uniform(0.3, 0.9))))
        else:
            k = max(k, 7)
            family = build_model_family(k, noise=10.0 ** -float(rng.uniform(10, 12)))
            model = family[int(rng.integers(1, len(family)))]
        post = initial_state([model], rng.normal(size=(runs, k)))
        labels = np.arange(1, k + 1)
        observed = [rng.choice(labels, size=int(rng.integers(0, k)), replace=False) for _ in range(runs)]
        ingest(post, {b: {int(n): float(rng.normal()) for n in observed[b]} for b in range(runs)})
        counts = [int(rng.integers(1, post.unknown[b] + 1)) for b in range(runs)]
        block = _greedy(post.cov[:, 0].copy(), post.labels, counts, rescore=rule == "greedy")
        cov, mean = post.cov.tobytes(), post.mean.tobytes()
        for b in range(runs):
            assert select_nodes(post, [counts[b]], rule, runs=[b]) == [block[b]]
        assert post.cov.tobytes() == cov and post.mean.tobytes() == mean


class TestInitialState:
    def test_target_must_have_one_entry_per_node(self):
        model = build_ar1_model(5, 0.9)
        for target in (np.zeros((2, 7)), np.zeros(5), np.zeros((1, 5, 1)), np.zeros((0, 5))):
            with pytest.raises(ValueError, match="targets must have shape"):
                initial_state([model], target)
        for target in (np.zeros(7), np.zeros((1, 5)), np.float64(0.0)):
            with pytest.raises(ValueError, match="targets must have shape"):
                initial_state(model, target)


class TestIngest:
    def test_empty_delivery_advances_round_only(self):
        st = initial_state(build_ar1_model(4, 0.9))
        nxt = ingest(st, {})
        assert nxt is st
        assert nxt.mse_theory == st.mse_theory
        np.testing.assert_array_equal(nxt.cond.cond_cov, st.cond.cond_cov)

    def test_full_delivery_zeroes_both_errors(self, rng):
        model = build_ar1_model(6, 0.9)
        x = rng.normal(size=6)
        st = initial_state(model, x)
        st = ingest(st, {n: x[n - 1] for n in range(1, 7)})
        assert st.mse_theory == pytest.approx(0.0, abs=1e-12)
        assert st.sqerr_actual == pytest.approx(0.0, abs=1e-12)
        assert st.unknown_count == 0
        # Without a target there is nothing to score, also once all is known.
        blind = initial_state(model)
        ingest(blind, {n: x[n - 1] for n in range(1, 7)})
        assert blind.unknown_count == 0
        assert np.isnan(blind.sqerr_actual)

    def test_updates_the_state_in_place(self, rng):
        model = random_psd_model(rng, 7)
        x = rng.normal(size=7)
        st = initial_state(model, x)
        for batch in ({4: x[3], 1: x[0]}, {}, {6: x[5]}):
            assert ingest(st, batch) is st
        cond = st.cond
        assert cond.known_idx == (1, 4, 6)
        assert (st.known_count, st.unknown_count) == (3, 4)
        oracle = condition(model, cond.known_idx, cond.known_vals)
        np.testing.assert_array_equal(cond.unknown_idx, oracle.unknown_idx)
        np.testing.assert_allclose(cond.cond_mean, oracle.cond_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(cond.cond_cov, oracle.cond_cov, rtol=0, atol=1e-10)
        assert st.mse_theory == pytest.approx(float(np.trace(oracle.cond_cov)), abs=1e-10)

    def test_compaction_gathers_without_an_intermediate(self):
        # A K=400 round's folds leave run 0 with 359 of 400 unknowns, below
        # 0.9 of the width, so the compaction that ends its ingest gathers.
        # The new stack reuses the old one's buffer: the gather peaks at the
        # old stack and one row panel, plus 0.5 MiB for numpy's fixed
        # indexing buffers (~0.13 MB).  A fresh new stack would add 4.1 MB,
        # an (M, u, 400) gather of rows 2.3 MB, and one (M, u, u) block 2.1 MB.
        K, M = 400, 2
        models = [build_ar1_model(K, 0.95), build_ar1_model(K, 0.8)]
        slots = {0: {n: 0.0 for n in range(1, 42)}, 1: {n: 0.0 for n in range(100, 150)}}
        tracemalloc.start()
        try:
            post = initial_state(models, np.zeros((2, K)))
            for run, payload in slots.items():
                rank_one_condition(post, list(payload), list(payload.values()), run=run)
            old = post.cov.nbytes
            tracemalloc.reset_peak()
            post.compact()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        u = post.cov.shape[-1]
        assert u == 359 and post.unknown == [359, 350]
        assert peak < old + PANEL_BYTES + (1 << 19)
        oracle = condition(models[1], range(100, 150), np.zeros(50))
        np.testing.assert_allclose(post.cond(1, 1).cond_cov, oracle.cond_cov, rtol=0, atol=1e-9)

    def test_a_run_left_out_keeps_its_posterior(self):
        # After every ingest, run 1 is what a run of its own fed only run 1's
        # deliveries is: also when it is left out of an ingest that gathers
        # the stack to a narrower width.
        model = build_ar1_model(10, 0.95)
        post = initial_state([model], np.zeros((2, 10)))
        alone = initial_state(model, np.zeros(10))

        def assert_run_1_is_alone():
            ours, theirs = post.cond(1), alone.cond
            assert ours.known_idx == theirs.known_idx
            np.testing.assert_array_equal(ours.unknown_idx, theirs.unknown_idx)
            np.testing.assert_array_equal(ours.cond_mean, theirs.cond_mean)
            np.testing.assert_array_equal(ours.cond_cov, theirs.cond_cov)
            assert post.mse_theory(1) == alone.mse_theory
            assert select_nodes(post, 3, runs=[1]) == [select_nodes(alone, 3)]

        ingest(post, {0: {1: 0.5, 2: 0.1}})
        assert post.unknown[1] == 10 and post.mse_theory(1) == 10.0
        assert_run_1_is_alone()
        ingest(post, {1: {n: 0.2 for n in range(4, 9)}})
        ingest(alone, {n: 0.2 for n in range(4, 9)})
        assert_run_1_is_alone()
        ingest(post, {0: {3: 0.0, 9: 0.3}})
        assert post.cov.shape[-1] == 6 and post.unknown == [6, 5]
        assert_run_1_is_alone()

    def test_single_delivery_two_node_example(self):
        model = build_ar1_model(2, 0.95)
        st = initial_state(model, np.array([0.5, 0.5]))
        assert st.mse_theory == pytest.approx(2.0)
        st = ingest(st, {1: 0.5})
        assert st.mse_theory == pytest.approx(0.0975, abs=1e-12)

    def test_a_bad_entry_in_any_run_leaves_every_run_as_it_was(self):
        # The whole round is checked before the first fold: a bad label or
        # value in a later run raises, and no run has been folded.
        post = initial_state([build_ar1_model(10, 0.95)], np.zeros((2, 10)))
        ingest(post, {1: {5: 0.2}})
        before = [a.copy() for a in (post.cov, post.mean, post.labels, post.where)]
        logs = [list(post.observed[0]), list(post.observed[1])]
        bad = [
            ({1: {99: 0.1}}, "not a valid label"),
            ({1: {5: 0.3}}, "already observed"),
            ({1: {2.5: 0.3}}, "must be an integer"),
            ({1: {3: "x"}}, "could not convert"),
        ]
        for later, match in bad:
            with pytest.raises(ValueError, match=match):
                ingest(post, {0: {1: 0.5, 2: 0.1}, **later})
            assert post.unknown == [10, 9]
            assert [post.observed[0], post.observed[1]] == logs
            for a, b in zip((post.cov, post.mean, post.labels, post.where), before):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_known_node_rejected(self):
        st = ingest(initial_state(build_ar1_model(3, 0.5)), {2: 0.0})
        with pytest.raises(ValueError, match="already observed"):
            ingest(st, {2: 1.0})
        # Labels just outside 1..K, where an off-by-one in the lookup lands.
        for label in (0, 4):
            with pytest.raises(ValueError, match="not a valid label"):
                ingest(st, {label: 1.0})
        # A non-integer label is not truncated to node 2.
        with pytest.raises(ValueError, match="must be an integer, got 2.5"):
            ingest(initial_state(build_ar1_model(4, 0.9)), {2.5: 1.0})

    def test_accumulated_set_grows_monotonically(self, rng):
        model = build_ar1_model(8, 0.9)
        x = rng.normal(size=8)
        st = initial_state(model, x)
        seen = set()
        for batch in ([3], [5, 1], [], [8, 2]):
            st = ingest(st, {n: x[n - 1] for n in batch})
            now = set(st.cond.known_idx)
            assert seen <= now
            seen = now
        assert seen == {1, 2, 3, 5, 8}

    def test_sqerr_matches_manual_computation(self, rng):
        model = random_psd_model(rng, 6)
        x = rng.normal(size=6)
        st = ingest(initial_state(model, x), {2: x[1], 5: x[4]})
        ref = condition(model, [2, 5], [x[1], x[4]])
        manual = float(np.sum((x[ref.unknown_idx - 1] - ref.cond_mean) ** 2))
        assert st.sqerr_actual == pytest.approx(manual, abs=1e-9)

    def test_mse_theory_nonincreasing_over_random_runs(self, rng):
        for _ in range(10):
            k = int(rng.integers(3, 12))
            model = random_psd_model(rng, k)
            x = rng.normal(size=k)
            st = initial_state(model, x)
            prev = st.mse_theory
            order = rng.permutation(k) + 1
            for node in order:
                st = ingest(st, {int(node): float(x[node - 1])})
                assert st.mse_theory <= prev + 1e-9
                prev = st.mse_theory


class TestPollingOrder:
    def test_single_node(self):
        assert polling_order(build_ar1_model(1, 0.5)) == [1]

    def test_starts_from_the_middle(self):
        assert polling_order(build_ar1_model(3, 0.95))[0] == 2

    def test_is_a_permutation(self):
        order = polling_order(build_ar1_model(30, 0.95))
        assert sorted(order) == list(range(1, 31))

    def test_invariant_to_mean_scaling(self):
        model = build_ar1_model(20, 0.95)
        scaled = GaussianModel(mean=100.0 * model.mean, cov=model.cov)
        assert polling_order(model) == polling_order(scaled)

    def test_matches_value_fed_round_loop(self, rng):
        model = build_ar1_model(12, 0.9)
        order = polling_order(model)
        for _ in range(5):
            x = model.mean + np.linalg.cholesky(model.cov) @ rng.standard_normal(12)
            st = initial_state(model, x)
            seq = []
            while st.unknown_count:
                node = select_nodes(st, 1)[0]
                seq.append(node)
                st = ingest(st, {node: float(x[node - 1])})
            assert seq == order
