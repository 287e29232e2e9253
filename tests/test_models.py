"""Gaussian models, conditioning, and the candidate-model family."""

import copy
import functools
import operator
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve

from gdas.engine import ingest, initial_state
from gdas.errors import DegenerateVarianceError, NumericalDegeneracyError
from gdas.models import (
    DEGENERATE_VARIANCE_EPS,
    GaussianModel,
    PosteriorStack,
    build_ar1_model,
    build_model_family,
    condition,
    dct_matrix,
    rank_one_condition,
    _spd_cholesky,
)

from conftest import random_psd_model


class TestGaussianModel:
    def test_dimensions_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            GaussianModel(mean=[0.0, 0.0, 0.0], cov=np.eye(2))

    def test_rejects_asymmetric_cov(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel(mean=[0.0, 0.0], cov=cov)

    def test_rejects_indefinite_cov(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(ValueError, match="positive semidefinite"):
            GaussianModel(mean=[0.0, 0.0], cov=cov)

    def test_accepts_psd_boundary(self):
        # Rank-one PSD matrix: smallest eigenvalue exactly zero.
        cov = np.ones((3, 3))
        model = GaussianModel(mean=np.zeros(3), cov=cov)
        assert model.K == 3

    def test_rejects_a_model_without_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            GaussianModel(mean=[], cov=np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "mean, cov, which",
        [
            ([np.nan, 0.0], np.eye(2), "mean"),
            ([0.0, -np.inf], np.eye(2), "mean"),
            ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "cov"),
            ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "cov"),
        ],
    )
    def test_rejects_non_finite_entries(self, mean, cov, which):
        with pytest.raises(ValueError, match=f"^{which} has a non-finite entry$"):
            GaussianModel(mean=mean, cov=cov)

    @pytest.mark.parametrize("where", [(1, 0), (150, 7), (298, 299)])
    def test_symmetry_is_checked_in_every_row_panel(self, where):
        # K = 300 spans several row panels; the tolerance is 1e-12 of the
        # largest entry (here 3), wherever the asymmetry sits.
        cov = 3.0 * build_ar1_model(300, 0.9).cov
        cov[where] += 2.9e-12
        GaussianModel(mean=np.zeros(300), cov=cov)
        cov[where] += 0.2e-12
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel(mean=np.zeros(300), cov=cov)

    def test_arrays_are_frozen(self):
        model = GaussianModel(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError):
            model.cov[0, 0] = 2.0


class TestCondition:
    def test_empty_conditioning_is_identity(self):
        model = build_ar1_model(6, 0.9)
        state = condition(model, [], [])
        assert state.known_idx == ()
        np.testing.assert_array_equal(state.unknown_idx, np.arange(1, 7))
        np.testing.assert_array_equal(state.cond_mean, model.mean)
        np.testing.assert_array_equal(state.cond_cov, model.cov)

    def test_independent_nodes_are_untouched(self):
        model = GaussianModel(mean=[0.3, 0.7], cov=np.eye(2))
        state = condition(model, [1], [5.0])
        assert state.cond_mean[0] == pytest.approx(0.7)
        assert state.cond_cov[0, 0] == pytest.approx(1.0)

    def test_scalar_conditioning_example(self):
        # Two correlated nodes: observing x_1 = 2 shifts and shrinks x_2.
        model = GaussianModel(mean=[1.0, 0.8090], cov=[[1.0, 0.95], [0.95, 1.0]])
        state = condition(model, [1], [2.0])
        assert state.cond_mean[0] == pytest.approx(1.7590, abs=1e-4)
        assert state.cond_cov[0, 0] == pytest.approx(0.0975, abs=1e-10)

    def test_complement_in_ascending_order(self, rng):
        model = random_psd_model(rng, 8)
        state = condition(model, [5, 2, 7], [0.0, 1.0, -1.0])
        np.testing.assert_array_equal(state.unknown_idx, [1, 3, 4, 6, 8])
        assert state.known_idx == (5, 2, 7)

    def test_rejects_bad_indices(self):
        model = build_ar1_model(4, 0.5)
        with pytest.raises(ValueError, match="1..4"):
            condition(model, [0], [1.0])
        with pytest.raises(ValueError, match="1..4"):
            condition(model, [5], [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            condition(model, [2, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="same length"):
            condition(model, [1, 2], [1.0])
        with pytest.raises(ValueError, match="must be an integer, got 1.7"):
            condition(model, [1.7], [0.0])

    def test_trace_never_increases_with_observations(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 12))
            model = random_psd_model(rng, k)
            order = rng.permutation(k) + 1
            prev = float(np.trace(model.cov))
            for n_obs in range(1, k):
                idx = order[:n_obs]
                vals = rng.normal(size=n_obs)
                tr = float(np.trace(condition(model, idx, vals).cond_cov))
                assert tr <= prev + 1e-9
                prev = tr

    def test_cond_cov_does_not_depend_on_values(self, rng):
        model = random_psd_model(rng, 7)
        a = condition(model, [2, 5], [0.0, 0.0])
        b = condition(model, [2, 5], [10.0, -3.0])
        np.testing.assert_array_equal(a.cond_cov, b.cond_cov)

    def test_singular_beyond_jitter_names_offending_node(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalDegeneracyError, match="node 9"):
            _spd_cholesky(indefinite, labels=np.array([3, 9]))


class TestRankOneCondition:
    def test_matches_scalar_example(self):
        model = build_ar1_model(3, 0.95)
        state = rank_one_condition(initial_state([model]), 2, 0.0).cond(0)
        np.testing.assert_allclose(np.diag(state.cond_cov), [0.0975, 0.0975], atol=1e-12)

    def test_last_unknown_leaves_empty_state(self):
        model = build_ar1_model(2, 0.5)
        post = PosteriorStack([condition(model, [1], [0.0])])
        state = rank_one_condition(post, 2, 1.0).cond(0)
        assert state.unknown_idx.shape == (0,)
        assert state.cond_cov.shape == (0, 0)
        assert state.known_idx == (1, 2)

    def test_sequential_equals_batch(self):
        model = build_ar1_model(5, 0.95)
        post = initial_state([model])
        rank_one_condition(post, 1, 0.4)
        seq = rank_one_condition(post, 2, -0.2).cond(0)
        batch = condition(model, [1, 2], [0.4, -0.2])
        np.testing.assert_allclose(seq.cond_mean, batch.cond_mean, atol=1e-10)
        np.testing.assert_allclose(seq.cond_cov, batch.cond_cov, atol=1e-10)

    def test_random_orders_match_batch(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 25))
            model = random_psd_model(rng, k)
            n_obs = int(rng.integers(1, k))
            order = rng.permutation(k)[:n_obs] + 1
            vals = rng.normal(size=n_obs)
            post = initial_state([model])
            for node, value in zip(order, vals):
                rank_one_condition(post, int(node), float(value))
            state = post.cond(0)
            # One call folding the whole sequence is one blocked downdate: it
            # regroups the sums, so it matches the chain to rounding.
            folded = rank_one_condition(initial_state([model]), order, vals).cond(0)
            assert folded.known_idx == state.known_idx
            np.testing.assert_array_equal(folded.unknown_idx, state.unknown_idx)
            scale = 1e-12 * max(1.0, float(np.abs(model.cov).max()), float(np.abs(vals).max()))
            np.testing.assert_allclose(folded.cond_mean, state.cond_mean, rtol=0, atol=scale)
            np.testing.assert_allclose(folded.cond_cov, state.cond_cov, rtol=0, atol=scale)
            batch = condition(model, order, vals)
            np.testing.assert_allclose(state.cond_mean, batch.cond_mean, atol=1e-8)
            np.testing.assert_allclose(state.cond_cov, batch.cond_cov, atol=1e-8)

    def test_degenerate_variance_raises(self):
        # Perfectly correlated pair: observing one pins the other.
        model = GaussianModel(mean=np.zeros(2), cov=np.ones((2, 2)))
        state = condition(model, [1], [0.3])
        assert state.cond_cov[0, 0] == pytest.approx(0.0, abs=1e-12)
        post = PosteriorStack([state])
        with pytest.raises(DegenerateVarianceError):
            rank_one_condition(post, 2, 0.3)
        dropped = rank_one_condition(post, 2, 0.3, absorb_degenerate=True).cond(0)
        assert dropped.unknown_idx.shape == (0,)
        assert dropped.known_idx == (1, 2)

    def test_unknown_node_label_rejected(self):
        model = build_ar1_model(3, 0.5)
        post = PosteriorStack([condition(model, [2], [0.0])])
        with pytest.raises(ValueError, match="not in the unknown set"):
            rank_one_condition(post, 2, 1.0)

    def test_repeated_label_rejected(self):
        post = initial_state([build_ar1_model(4, 0.5)])
        with pytest.raises(ValueError, match="duplicate"):
            rank_one_condition(post, [3, 1, 3], [0.0, 0.0, 0.0])

    def test_positions_with_one_run_per_label(self):
        # A label may repeat across runs, not within one; each run's labels
        # are checked against that run alone.
        post = initial_state([build_ar1_model(6, 0.5)], np.zeros((3, 6)))
        rank_one_condition(post, [2], [0.0], run=1)
        runs, labels = [0, 1, 1, 2, 0], [3, 3, 1, 6, 2]
        want = [int(post.positions(r, [n])[0]) for r, n in zip(runs, labels)]
        assert post.positions(runs, labels).tolist() == want
        with pytest.raises(ValueError, match="duplicate"):
            post.positions([0, 1, 0], [3, 3, 3])
        for label in (2, 0, 7, -1, 99):
            with pytest.raises(ValueError, match=f"node {label} is not in the unknown set"):
                post.positions([2, 1], [1, label])


def left_to_right(values):
    """Sum of ``values`` in order, one rounding per term.  The builtin
    ``sum`` is compensated from Python 3.12 on, so it is no such reference."""
    return functools.reduce(operator.add, values, 0.0)


def cho_solve_oracle(model, idx, vals):
    """Posterior mean and covariance from two ``scipy.linalg.cho_solve`` calls."""
    idx = np.asarray(idx)
    zpos = idx - 1
    upos = np.setdiff1d(np.arange(model.K), zpos)
    chol = _spd_cholesky(model.cov[np.ix_(zpos, zpos)], labels=idx)
    r_uz = model.cov[np.ix_(upos, zpos)]
    mean = model.mean[upos] + r_uz @ cho_solve((chol, True), vals - model.mean[zpos])
    cov = model.cov[np.ix_(upos, upos)] - r_uz @ cho_solve((chol, True), r_uz.T)
    return mean, 0.5 * (cov + cov.T)


def model_draw(model, rng):
    """One sample of the model's measurements (also for singular covariances)."""
    w, v = np.linalg.eigh(model.cov)
    return model.mean + v @ (np.sqrt(np.clip(w, 0.0, None)) * rng.standard_normal(model.K))


def assert_chain_matches_oracles(model, order, x, checkpoints):
    """Fold ``order`` into a one-run stack by ``rank_one_condition``.  At each
    checkpoint ``condition`` equals the ``cho_solve`` formulation, and the
    chain equals ``condition``, within 1e-9 * scale."""
    atol = 1e-9 * max(1.0, float(np.abs(model.cov).max()), float(np.abs(x).max()))
    post = initial_state([model])
    done = 0
    for n in checkpoints:
        chain = rank_one_condition(post, order[done:n], x[order[done:n] - 1]).cond(0)
        done = n
        oracle = condition(model, order[:n], x[order[:n] - 1])
        ref_mean, ref_cov = cho_solve_oracle(model, order[:n], x[order[:n] - 1])
        np.testing.assert_array_equal(chain.unknown_idx, oracle.unknown_idx)
        for got, want in ((oracle.cond_mean, ref_mean), (oracle.cond_cov, ref_cov),
                          (chain.cond_mean, oracle.cond_mean), (chain.cond_cov, oracle.cond_cov)):
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestOracleAccuracy:
    def test_ar1_k1000_near_unit_correlation(self, rng):
        model = build_ar1_model(1000, 0.999)
        order = rng.permutation(1000) + 1
        x = model_draw(model, rng)
        assert_chain_matches_oracles(model, order, x, [1, 10, 100, 500, 900, 999])

    @pytest.mark.parametrize("noise", [1e-6, 1e-10])
    def test_near_singular_family(self, rng, noise):
        for model in build_model_family(100, noise=noise):
            order = rng.permutation(100) + 1
            assert_chain_matches_oracles(model, order, model_draw(model, rng), [5, 20, 50, 99])

    def test_rank_deficient_model_on_the_jitter_path(self):
        # Rank one: observing nodes 1 and 2 needs the jitter retry, and the
        # other nodes are pinned at the common value.
        model = GaussianModel(mean=np.zeros(4), cov=np.ones((4, 4)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(model.cov[:2, :2])
        state = condition(model, [1, 2], [0.3, 0.3])
        ref_mean, ref_cov = cho_solve_oracle(model, [1, 2], np.array([0.3, 0.3]))
        np.testing.assert_allclose(state.cond_mean, ref_mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.cond_cov, ref_cov, rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.cond_mean, [0.3, 0.3], rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.cond_cov, np.zeros((2, 2)), rtol=0, atol=1e-9)
        chain = rank_one_condition(
            initial_state([model]), [1, 2], [0.3, 0.3], absorb_degenerate=True
        ).cond(0)
        np.testing.assert_allclose(chain.cond_mean, state.cond_mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(chain.cond_cov, state.cond_cov, rtol=0, atol=1e-9)

    def test_singular_beyond_jitter_raises(self):
        # PSD within the model's tolerance (node 3's variance sets it), but the
        # block of nodes 1 and 2 has eigenvalue -1e-8, below its 1e-10 jitter.
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        cov = np.diag([0.0, 0.0, 1e6])
        cov[:2, :2] = 1.0
        model = GaussianModel(mean=np.zeros(3), cov=cov - 1e-8 * np.outer(u, u))
        with pytest.raises(NumericalDegeneracyError, match="near node 2"):
            condition(model, [1, 2], [0.0, 0.0])

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_chain_equals_oracle_on_random_models(self, data):
        k = data.draw(st.integers(2, 40), label="K")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        order = np.array(data.draw(st.permutations(range(1, k + 1)), label="order"))
        rng = np.random.default_rng(seed)
        model = random_psd_model(rng, k)
        x = rng.normal(0.0, 2.0, size=k)
        assert_chain_matches_oracles(model, order, x, range(1, k + 1))


    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_stack_equals_oracle_on_random_delivery_slots(self, data):
        """The block path: each round folds random delivery slots of several
        runs into one ``PosteriorStack``, which compacts as runs narrow;
        a run that leaves is named in no later ingest.  Every run's posterior
        under every model, and its compact ``cond`` view, equals its own
        ``rank_one_condition`` chain (a one-run stack per run and model) bit
        for bit and ``condition`` within 1e-9 * scale.  Near rank-3 family
        models absorb degenerate nodes (so ``condition``, which uses the values, is
        not their reference).  Every posterior of the stack stays exactly
        symmetric, which greedy selection relies on."""
        k = data.draw(st.integers(7, 200), label="K")
        runs = data.draw(st.integers(1, 4), label="runs")
        near_singular = data.draw(st.booleans(), label="near_singular")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if near_singular:
            models = build_model_family(k, noise=1e-11)[:3]
        else:
            models = [random_psd_model(rng, k) for _ in range(data.draw(st.integers(1, 3)))]
        x = np.stack([model_draw(models[0], rng) for _ in range(runs)])
        atol = 1e-9 * max(1.0, float(np.abs(x).max()))
        post = initial_state(models, x)
        assert np.array_equal(post.cov, post.cov.swapaxes(-1, -2))
        chains = [[initial_state([model]) for model in models] for _ in range(runs)]
        order = [rng.permutation(k) + 1 for _ in range(runs)]
        done = [0] * runs
        playing = list(range(runs))
        while playing:
            slots = {}
            for b in playing:
                nodes = order[b][done[b] : done[b] + int(rng.integers(0, 6))]
                done[b] += nodes.shape[0]
                slots[b] = {int(v): float(x[b, v - 1]) for v in rng.permutation(nodes)}
            ingest(post, slots)
            assert np.array_equal(post.cov, post.cov.swapaxes(-1, -2))
            for b, payload in slots.items():
                nodes = sorted(payload)
                vals = [payload[v] for v in nodes]
                cols = post.columns(b)
                for a, model in enumerate(models):
                    if nodes:
                        rank_one_condition(chains[b][a], nodes, vals, absorb_degenerate=True)
                    chain = chains[b][a].cond(0)
                    np.testing.assert_array_equal(post.labels[b, cols], chain.unknown_idx)
                    np.testing.assert_array_equal(post.mean[b, a, cols], chain.cond_mean)
                    np.testing.assert_array_equal(post.cov[b, a][np.ix_(cols, cols)], chain.cond_cov)
                    # A readout sums left to right; np.trace sums pairwise.
                    trace = left_to_right(np.diagonal(chain.cond_cov).tolist())
                    assert post.mse_theory(b, a) == trace
                    assert trace == pytest.approx(float(np.trace(chain.cond_cov)), rel=1e-14)
                    view = post.cond(b, a)
                    assert view.known_idx == chain.known_idx
                    np.testing.assert_array_equal(view.known_vals, chain.known_vals)
                    np.testing.assert_array_equal(view.unknown_idx, chain.unknown_idx)
                    np.testing.assert_array_equal(view.cond_mean, chain.cond_mean)
                    np.testing.assert_array_equal(view.cond_cov, chain.cond_cov)
                    skipped = post.labels[b] == 0
                    assert not post.cov[b, a][skipped].any()
                    assert not post.cov[b, a][:, skipped].any()
                    assert not post.mean[b, a][skipped].any()
                    if not near_singular and (nodes and done[b] % 4 == 0 or done[b] == k):
                        oracle = condition(model, chain.known_idx, chain.known_vals)
                        scale = atol * max(1.0, float(np.abs(model.cov).max()))
                        np.testing.assert_allclose(chain.cond_mean, oracle.cond_mean, 0, scale)
                        np.testing.assert_allclose(chain.cond_cov, oracle.cond_cov, 0, scale)
            # Runs leave the block when done, or at random: ingest no longer names them.
            playing = [b for b in playing if done[b] < k and rng.random() > 0.05]

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_blocked_downdate_matches_the_single_node_chain(self, data):
        """Each round's nodes in one ``rank_one_condition`` call, a blocked
        downdate, match the same nodes folded one call at a time within
        1e-12 * scale, and ``condition`` within 1e-9 * scale.  Both are
        orders of one Cholesky factorization of the observed block, whose
        rounding grows with the largest prior entry over the smallest
        variance divided by, so the chain's scale carries that ratio.  Near
        rank-3 family models (noise 1e-11) find a node determined in the
        middle of a round: both sides name the same first such node in each
        model, and absorb it alike."""
        near_singular = data.draw(st.booleans(), label="near_singular")
        k = data.draw(st.integers(7, 20 if near_singular else 40), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if near_singular:
            models = build_model_family(k, noise=1e-11)[:3]
        else:
            models = [random_psd_model(rng, k) for _ in range(data.draw(st.integers(1, 3)))]
        x = model_draw(models[0], rng)
        order = rng.permutation(k) + 1
        # A near rank-3 model finds a node determined within a round of all K.
        sizes = [k if near_singular else data.draw(st.integers(1, k), label="first round")]
        while sum(sizes) < k:
            sizes.append(int(rng.integers(1, 9)))
        scale = max(1.0, max(float(np.abs(m.cov).max()) for m in models), float(np.abs(x).max()))
        blocked = [initial_state([model]) for model in models]
        chains = [initial_state([model]) for model in models]
        nu_min = [np.inf] * len(models)
        mid_round = False
        done = 0
        for size in sizes:
            nodes = sorted(order[done : done + size].tolist())
            done += size
            vals = [float(x[v - 1]) for v in nodes]
            for a, model in enumerate(models):
                first = first_determined(blocked[a], nodes, vals, blocked=True)
                assert first == first_determined(chains[a], nodes, vals, blocked=False)
                mid_round |= first not in (None, nodes[0])
                rank_one_condition(blocked[a], nodes, vals, absorb_degenerate=True)
                for v, value in zip(nodes, vals):
                    chain = chains[a].cond(0)
                    l = int(np.searchsorted(chain.unknown_idx, v))
                    nu = chain.cond_cov[l, l]
                    if nu > DEGENERATE_VARIANCE_EPS:
                        nu_min[a] = min(nu_min[a], nu)
                    rank_one_condition(chains[a], v, value, absorb_degenerate=True)
                got, want = blocked[a].cond(0), chains[a].cond(0)
                assert got.known_idx == want.known_idx
                np.testing.assert_array_equal(got.unknown_idx, want.unknown_idx)
                atol = 1e-12 * scale * max(1.0, float(np.abs(model.cov).max()) / nu_min[a])
                np.testing.assert_allclose(got.cond_mean, want.cond_mean, rtol=0, atol=atol)
                np.testing.assert_allclose(got.cond_cov, want.cond_cov, rtol=0, atol=atol)
                if not near_singular or a == 0:
                    oracle = condition(model, got.known_idx, got.known_vals)
                    np.testing.assert_allclose(got.cond_mean, oracle.cond_mean, 0, 1e-9 * scale)
                    np.testing.assert_allclose(got.cond_cov, oracle.cond_cov, 0, 1e-9 * scale)
        assert mid_round or not near_singular

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_fold_does_not_depend_on_the_stack_layout(self, data):
        """One run's deliveries, folded on a stack of random width and run
        count, with the run's unknowns at random ascending columns among
        zero padding and the other runs holding random data, leave the
        run's posteriors bit for bit as on its own compact stack.  Near
        rank-3 family models (noise 1e-11) absorb nodes on the way."""
        near_singular = data.draw(st.booleans(), label="near_singular")
        k = data.draw(st.integers(7 if near_singular else 2, 60), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if near_singular:
            models = build_model_family(k, noise=1e-11)[:3]
        else:
            models = [random_psd_model(rng, k) for _ in range(data.draw(st.integers(1, 3)))]
        x = model_draw(models[0], rng)
        seen = data.draw(st.integers(0, k - 1), label="observed before")
        order = rng.permutation(k) + 1
        priors = [condition(model, [], []) for model in models]
        if seen:
            priors = [
                rank_one_condition(
                    PosteriorStack([p]), order[:seen], x[order[:seen] - 1], absorb_degenerate=True
                ).cond(0)
                for p in priors
            ]
        nodes = sorted(order[seen : seen + data.draw(st.integers(1, k - seen))].tolist())
        vals = [float(x[v - 1]) for v in nodes]
        alone = PosteriorStack(priors)
        rank_one_condition(alone, nodes, vals, absorb_degenerate=True)

        u = k - seen
        width = u + data.draw(st.integers(0, 40), label="padding")
        runs = data.draw(st.integers(1, 4), label="runs")
        run = data.draw(st.integers(0, runs - 1), label="run")
        cols = np.sort(rng.choice(width, size=u, replace=False))
        post = PosteriorStack(priors, np.zeros((runs, k)))
        compact = post.cov[run].copy(), post.mean[run].copy(), post.labels[run].copy()
        noise = rng.standard_normal((runs, len(models), width, width))
        post.cov = noise + noise.swapaxes(-1, -2)
        post.mean = rng.standard_normal((runs, len(models), width))
        post.labels = np.zeros((runs, width), dtype=np.int64)
        post.cov[run] = 0.0
        post.mean[run] = 0.0
        post.cov[run][:, cols[:, None], cols] = compact[0]
        post.mean[run][:, cols] = compact[1]
        post.labels[run, cols] = compact[2]
        post.where[run, compact[2]] = cols
        rank_one_condition(post, nodes, vals, absorb_degenerate=True, run=run)

        for a in range(len(models)):
            got, want = post.cond(run, a), alone.cond(0, a)
            np.testing.assert_array_equal(got.unknown_idx, want.unknown_idx)
            np.testing.assert_array_equal(got.cond_mean, want.cond_mean)
            np.testing.assert_array_equal(got.cond_cov, want.cond_cov)
        skipped = post.labels[run] == 0
        assert not post.cov[run][:, skipped].any() and not post.cov[run][:, :, skipped].any()
        assert not post.mean[run][:, skipped].any()


def first_determined(post, nodes, vals, *, blocked):
    """The first of ``nodes`` that ``rank_one_condition`` finds determined
    (variance at most ``DEGENERATE_VARIANCE_EPS`` given the nodes before it),
    folding them into a copy of ``post`` in one call or one call per node;
    None if there is none."""
    post = copy.deepcopy(post)
    try:
        if blocked:
            rank_one_condition(post, nodes, vals)
        else:
            for v, value in zip(nodes, vals):
                rank_one_condition(post, v, value)
    except DegenerateVarianceError as exc:
        return int(re.search(r"node (\d+)", str(exc))[1])
    return None


class TestAr1Model:
    def test_single_node(self):
        model = build_ar1_model(1, 0.95)
        np.testing.assert_array_equal(model.mean, [1.0])
        np.testing.assert_array_equal(model.cov, [[1.0]])

    def test_covariance_decay(self):
        model = build_ar1_model(100, 0.95)
        assert model.cov[0, 1] == pytest.approx(0.95)
        assert model.cov[0, 99] == pytest.approx(0.95 ** 99)
        assert model.cov[41, 41] == pytest.approx(1.0)

    @pytest.mark.parametrize("K, rho", [(7, -0.6), (400, 0.95)])
    def test_equals_the_lag_matrix_form(self, K, rho):
        k = np.arange(1, K + 1)
        model = build_ar1_model(K, rho)
        assert model.cov.flags.c_contiguous and not model.cov.flags.writeable
        assert np.array_equal(model.cov, np.power(rho, np.abs(np.subtract.outer(k, k))))

    def test_builds_no_temporary_the_size_of_its_covariance(self):
        # The read-only copy is the one K x K array; the checks work in row
        # panels (eigvalsh's own copy is not traced).
        build_ar1_model(8, 0.95)
        tracemalloc.start()
        try:
            model = build_ar1_model(400, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model.cov.nbytes

    def test_mean_profile(self):
        model = build_ar1_model(10, 0.95)
        assert model.mean[0] == pytest.approx(1.0)
        assert model.mean[5] == pytest.approx(-1.0)  # cos(pi)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            build_ar1_model(5, 1.0)
        with pytest.raises(ValueError):
            build_ar1_model(0, 0.5)


class TestDctMatrix:
    def test_orthonormal(self):
        psi = dct_matrix(64)
        np.testing.assert_allclose(psi.T @ psi, np.eye(64), atol=1e-10)

    def test_matches_scipy_convention(self):
        k = 32
        psi = dct_matrix(k)
        ref = scipy.fft.dct(np.eye(k), type=2, norm="ortho", axis=0)
        np.testing.assert_allclose(psi, ref, atol=1e-12)


class TestModelFamily:
    def test_all_traces_normalized(self):
        family = build_model_family(100)
        for model in family:
            assert float(np.trace(model.cov)) == pytest.approx(100.0, abs=1e-8)

    def test_first_member_is_the_ar1_model(self):
        family = build_model_family(50)
        ref = build_ar1_model(50, 0.95)
        np.testing.assert_array_equal(family[0].mean, ref.mean)
        np.testing.assert_array_equal(family[0].cov, ref.cov)
        np.testing.assert_array_equal(
            build_model_family(50, rho=0.6)[0].cov, build_ar1_model(50, 0.6).cov
        )

    def test_mean_profiles(self):
        family = build_model_family(20)
        k = np.arange(1, 21)
        phase = np.pi * (k - 1) / 5
        np.testing.assert_allclose(family[1].mean, np.sin(phase), atol=1e-12)
        np.testing.assert_allclose(family[2].mean, -np.cos(phase), atol=1e-12)
        np.testing.assert_allclose(family[3].mean, -np.sin(phase), atol=1e-12)
        np.testing.assert_array_equal(family[4].mean, np.zeros(20))

    def test_low_rank_plus_floor_structure(self):
        k, j, noise = 40, 3, 0.1
        family = build_model_family(k, J=j, noise=noise)
        scale = k / (j + noise * k)
        eigs = np.linalg.eigvalsh(family[1].cov)
        # J lifted directions at scale*(1+noise), the rest at the scale*noise floor.
        np.testing.assert_allclose(eigs[-j:], scale * (1 + noise), atol=1e-9)
        np.testing.assert_allclose(eigs[:-j], scale * noise, atol=1e-9)

    def test_k_too_small_rejected(self):
        with pytest.raises(ValueError, match="K must be >="):
            build_model_family(6)


def spread(post, rng, padding):
    """A copy of ``post`` with each run's columns moved to random ascending
    columns among ``padding`` extra zero columns; only its readouts are used."""
    B, M, n = post.mean.shape
    width = n + padding
    wide = copy.copy(post)
    wide.cov = np.zeros((B, M, width, width))
    wide.mean = np.zeros((B, M, width))
    wide.labels = np.zeros((B, width), dtype=np.int64)
    for b in range(B):
        cols = post.columns(b)
        new = np.sort(rng.choice(width, size=cols.shape[0], replace=False))
        wide.cov[b][:, new[:, None], new] = post.cov[b][:, cols[:, None], cols]
        wide.mean[b][:, new] = post.mean[b][:, cols]
        wide.labels[b, new] = post.labels[b, cols]
    return wide


class TestReadouts:
    @staticmethod
    def assert_readouts(post, x, rng):
        """Block readouts equal one-run readouts bit for bit, and both equal
        a left-to-right sum over the run's compact posterior."""
        B, M = post.mean.shape[:2]
        runs = rng.permutation(B)[: int(rng.integers(1, B + 1))].tolist()
        for a in range(M):
            mse, sqerr = post.mse_theory(runs, a), post.sqerr_actual(runs, a)
            assert mse.shape == sqerr.shape == (len(runs),)
            for j, b in enumerate(runs):
                one_mse, one_sqerr = post.mse_theory(b, a), post.sqerr_actual(b, a)
                assert type(one_mse) is float and type(one_sqerr) is float
                assert one_mse == mse[j]
                view = post.cond(b, a)
                assert one_mse == left_to_right(np.diagonal(view.cond_cov).tolist())
                if x is None:
                    assert np.isnan(one_sqerr) and np.isnan(sqerr[j])
                else:
                    assert one_sqerr == sqerr[j]
                    err = (x[b, view.unknown_idx - 1] - view.cond_mean).tolist()
                    assert one_sqerr == left_to_right([e * e for e in err])

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_block_readouts_match_one_run_and_left_to_right_sums(self, data):
        """Through rounds of random deliveries, compactions included, down to
        width 0 once every node is known; also on a copy of the stack with
        random padding between each run's columns."""
        k = data.draw(st.integers(1, 60), label="K")
        runs = data.draw(st.integers(1, 5), label="runs")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        models = [random_psd_model(rng, k) for _ in range(data.draw(st.integers(1, 3)))]
        x = np.stack([model_draw(models[0], rng) for _ in range(runs)])
        post = initial_state(models, x)
        order = [rng.permutation(k) + 1 for _ in range(runs)]
        done = [0] * runs
        while True:
            self.assert_readouts(post, x, rng)
            wide = spread(post, rng, int(rng.integers(0, 30)))
            every = list(range(runs))
            for a in range(len(models)):
                for readout in ("mse_theory", "sqerr_actual"):
                    ours = getattr(post, readout)(every, a)
                    assert ours.tobytes() == getattr(wide, readout)(every, a).tobytes()
            if min(done) == k:
                break
            slots = {}
            for b in range(runs):
                nodes = order[b][done[b] : done[b] + int(rng.integers(0, 6))]
                done[b] += nodes.shape[0]
                slots[b] = {int(v): float(x[b, v - 1]) for v in nodes}
            ingest(post, slots)
        assert post.cov.shape[-1] == 0
        assert post.mse_theory(every).tolist() == [0.0] * runs
        assert post.sqerr_actual(every).tolist() == [0.0] * runs

    def test_without_targets_squared_error_is_nan(self, rng):
        model = random_psd_model(rng, 6)
        post = PosteriorStack([condition(model, [], [])])
        self.assert_readouts(post, None, rng)
        rank_one_condition(post, [2, 5], [0.1, -0.3])
        self.assert_readouts(post, None, rng)
        rank_one_condition(post, [1, 3, 4, 6], [0.0] * 4)
        post.compact()
        assert post.cov.shape[-1] == 0
        self.assert_readouts(post, None, rng)
