"""Normalized prediction-error cost and softmax arm selection."""

import math

import numpy as np
import pytest

from gdas.bandit import (
    BanditState,
    cost_ratio,
    new_bandit_state,
    prediction_error_terms,
    select_model,
    softmax_probs,
    update,
)
from gdas.errors import NumericalDegeneracyError
from gdas.models import GaussianModel, build_ar1_model, build_model_family, condition

from conftest import random_psd_model


def _state_with_means(psi, tau=1.0):
    st = new_bandit_state(len(psi), tau)
    for m, value in enumerate(psi, start=1):
        st = update(st, m, float(value))
    return st


class TestRoundCost:
    def test_single_node_reduces_to_scalar_ratio(self, rng):
        model = random_psd_model(rng, 6)
        x = rng.normal(size=6)
        known = [2, 4]
        cond = condition(model, known, [x[1], x[3]])
        pos = list(cond.unknown_idx).index(5)
        want = (x[4] - cond.cond_mean[pos]) ** 2 / cond.cond_cov[pos, pos]
        got = cost_ratio(*prediction_error_terms(cond, [5], [x[4]]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_repeated_node_rejected(self):
        # Counted twice, node 3's variance would make an expectation of 2.0.
        cond = condition(build_ar1_model(6, 0.9), [], [])
        with pytest.raises(ValueError, match="duplicate"):
            prediction_error_terms(cond, [3, 3], [0.5, 0.5])

    def test_mean_is_one_under_the_true_model(self, rng):
        model = build_ar1_model(30, 0.95)
        chol = np.linalg.cholesky(model.cov)
        total = 0.0
        n = 0
        for _ in range(300):
            n_known = int(rng.integers(0, 15))
            perm = rng.permutation(30) + 1
            known = [int(v) for v in perm[:n_known]]
            delivered = [int(v) for v in perm[n_known : n_known + 2]]
            for _ in range(10):
                x = model.mean + chol @ rng.standard_normal(30)
                cond = condition(model, known, [x[v - 1] for v in known])
                vals = [x[v - 1] for v in delivered]
                total += cost_ratio(*prediction_error_terms(cond, delivered, vals))
                n += 1
        assert total / n == pytest.approx(1.0, abs=0.1)

    def test_mean_exceeds_one_under_a_wrong_model(self, rng):
        family = build_model_family(40)
        truth, wrong = family[0], family[1]
        chol = np.linalg.cholesky(truth.cov)
        total = 0.0
        n = 0
        for _ in range(500):
            x = truth.mean + chol @ rng.standard_normal(40)
            perm = rng.permutation(40) + 1
            known = [int(v) for v in perm[:10]]
            delivered = [int(v) for v in perm[10:12]]
            cond = condition(wrong, known, [x[v - 1] for v in known])
            vals = [x[v - 1] for v in delivered]
            total += cost_ratio(*prediction_error_terms(cond, delivered, vals))
            n += 1
        assert total / n > 1.15

    def test_empty_delivery_rejected(self, rng):
        model = random_psd_model(rng, 4)
        with pytest.raises(ValueError, match="at least one"):
            prediction_error_terms(condition(model, [], []), [], [])

    def test_non_integer_label_rejected(self):
        cond = condition(build_ar1_model(4, 0.9), [], [])
        with pytest.raises(ValueError, match="must be an integer, got 3.2"):
            prediction_error_terms(cond, [3.2], [0.0])

    def test_degenerate_model_rejected(self):
        model = GaussianModel(mean=np.zeros(3), cov=np.zeros((3, 3)))
        with pytest.raises(NumericalDegeneracyError, match="zero conditional variance"):
            cost_ratio(*prediction_error_terms(condition(model, [], []), [1], [0.5]))


class TestSoftmaxProbs:
    def test_equal_means_give_uniform(self):
        probs = softmax_probs(_state_with_means([2.0, 2.0, 2.0, 2.0]))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_high_temperature_flattens(self):
        probs = softmax_probs(_state_with_means([0.5, 4.0, 1.5, 2.0, 9.0], tau=1e9))
        np.testing.assert_allclose(probs, 0.2, atol=1e-6)

    def test_two_arm_closed_form(self):
        probs = softmax_probs(_state_with_means([1.0, 2.0], tau=1.0))
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert probs[0] == pytest.approx(0.73106, abs=1e-5)

    def test_shift_invariance(self, rng):
        psi = rng.uniform(0.0, 5.0, size=6)
        base = softmax_probs(_state_with_means(psi))
        shifted = softmax_probs(_state_with_means(psi + 123.0))
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            psi = rng.uniform(0.0, 50.0, size=int(rng.integers(2, 9)))
            tau = float(rng.uniform(0.05, 30.0))
            probs = softmax_probs(_state_with_means(psi, tau))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_argmax_prob_is_argmin_cost(self, rng):
        for tau in (0.1, 1.0, 7.0):
            psi = rng.uniform(0.0, 5.0, size=5)
            probs = softmax_probs(_state_with_means(psi, tau))
            assert int(np.argmax(probs)) == int(np.argmin(psi))

    def test_needs_every_arm_sampled(self):
        st = new_bandit_state(3, 1.0)
        st = update(st, 1, 1.0)
        with pytest.raises(ValueError, match="per arm"):
            softmax_probs(st)


class TestSelectModel:
    def test_round_robin_initialization(self, rng):
        st = new_bandit_state(5, 1.0)
        assert [select_model(st, t, rng) for t in range(5)] == [1, 2, 3, 4, 5]

    def test_unsampled_arm_forced_after_initialization(self, rng):
        st = new_bandit_state(3, 1.0)
        for m in (1, 3):
            st = update(st, m, 1.0)
        assert select_model(st, 7, rng) == 2

    def test_high_temperature_sampling_is_uniform(self, rng):
        st = _state_with_means([1.0, 2.0, 3.0, 4.0], tau=1e9)
        draws = np.array([select_model(st, 10, rng) for _ in range(10_000)])
        for m in range(1, 5):
            assert abs((draws == m).mean() - 0.25) <= 0.02

    def test_low_cost_arm_dominates_at_low_temperature(self, rng):
        st = _state_with_means([0.5, 5.0, 5.0], tau=1.0)
        draws = np.array([select_model(st, 10, rng) for _ in range(2_000)])
        freqs = [(draws == m).mean() for m in (1, 2, 3)]
        assert freqs[0] == max(freqs)
        assert freqs[0] > 0.9

    def test_draw_equals_generator_choice(self):
        # The softmax draw is Generator.choice's, and leaves the stream where
        # choice leaves it, whatever the probabilities: spread, tied, or near
        # one-hot (low temperatures push all but one weight to ~1e-300 or 0).
        gen = np.random.default_rng(20261019)
        for seed in range(3000):
            arms = int(gen.integers(2, 6))
            count = gen.integers(1, 20, size=arms)
            if seed % 3:
                means = gen.exponential(1.0, arms)
            else:
                means = gen.choice([0.0, 1.0, 2.0], size=arms)
            tau = float(10.0 ** gen.uniform(-3.0, 1.0))
            state = BanditState(arms, means * count, count, tau)
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            want = int(theirs.choice(arms, p=softmax_probs(state))) + 1
            assert select_model(state, arms, ours) == want
            assert ours.random() == theirs.random()


class TestUpdateAndHistory:
    def test_first_sample_sets_the_mean(self):
        st = update(new_bandit_state(3, 1.0), 2, 1.7)
        assert st.count[1] == 1
        assert st.cost_sum[1] / st.count[1] == pytest.approx(1.7)

    def test_two_samples_average(self):
        st = new_bandit_state(2, 1.0)
        st = update(st, 1, 1.0)
        st = update(st, 1, 3.0)
        assert st.count[0] == 2
        assert st.cost_sum[0] / st.count[0] == pytest.approx(2.0)

    def test_other_arms_untouched(self):
        st = update(new_bandit_state(3, 1.0), 1, 2.0)
        st = update(st, 2, 9.0)
        assert st.cost_sum[0] == 2.0 and st.count[0] == 1
        assert st.count[2] == 0
        assert st.cost_sum[2] == 0.0

    def test_adds_in_place(self):
        st = new_bandit_state(2, 1.0)
        assert update(st, 2, 1.5) is st
        assert st.cost_sum.tolist() == [0.0, 1.5] and st.count.tolist() == [0, 1]

    def test_state_owns_its_arrays(self):
        cost_sum, count = np.zeros(2), np.zeros(2, dtype=np.int64)
        update(BanditState(2, cost_sum, count, 1.0), 1, 3.0)
        assert cost_sum.tolist() == [0.0, 0.0] and count.tolist() == [0, 0]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            update(new_bandit_state(2, 1.0), 1, -0.5)
