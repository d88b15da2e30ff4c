"""Attention mechanisms, score-function surrogate, moving-average baseline."""

import numpy as np
import numpy.testing as npt
import pytest

from hman import attention as at
from hman import autodiff as ad
from hman import stochastic as st
from hman.autodiff import Tensor
from hman.gradcheck import check_gradients

K2, D = 4, 5


def make_instance(rng, batch=2, d=3):
    params = at.AttentionParams(w_loc=Tensor(rng.normal(size=(K2, d)), requires_grad=True))
    h = Tensor(rng.normal(size=(batch, d)), requires_grad=True)
    x = Tensor(rng.normal(size=(batch, K2, D)))
    return params, h, x


def scored_instance(scores_row, features):
    """Build params/h so the location scores equal ``scores_row`` exactly."""
    params = at.AttentionParams(w_loc=Tensor(np.asarray(scores_row, dtype=float)[:, None]))
    h = Tensor([[1.0]])
    return params, h, Tensor(np.asarray(features, dtype=float)[None])


class TestSoftAttend:
    def test_equal_scores_give_uniform_mix(self):
        params, h, x = scored_instance([2.0] * K2, np.arange(K2 * D).reshape(K2, D))
        res = at.soft_attend(h, x, params)
        npt.assert_allclose(res.weights.data, 1.0 / K2, atol=1e-15)
        npt.assert_allclose(res.attended.data[0], x.data[0].mean(axis=0), atol=1e-12)

    def test_saturated_score_selects_that_location(self):
        feats = np.arange(K2 * D, dtype=float).reshape(K2, D)
        params, h, x = scored_instance([0.0, 50.0, 0.0, 0.0], feats)
        res = at.soft_attend(h, x, params)
        npt.assert_allclose(res.attended.data[0], feats[1], atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(30)
        params, h, x = make_instance(rng)
        v = Tensor(rng.normal(size=(2, D)))

        def build():
            return ad.sum_(at.soft_attend(h, x, params).attended * v)

        assert check_gradients(build, [params.w_loc, h]) < 1e-6

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            params, h, x = make_instance(rng, batch=3)
            w = at.soft_attend(h, x, params).weights.data
            assert np.all(w >= 0)
            npt.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


class TestFusedSoftAttention:
    """The fused soft-attention op against its op-by-op form, which stays the oracle."""

    def test_values_bitwise_and_gradients_within_1e12(self):
        rng = np.random.default_rng(33)
        params, h, _ = make_instance(rng, batch=5, d=3)
        x = Tensor(rng.normal(size=(5, K2, D)), requires_grad=True)
        v = Tensor(rng.normal(size=(5, D)))
        leaves = {"w_loc": params.w_loc, "h": h, "features": x}

        def run(attend):
            ad.zero_grad(leaves.values())
            weights, attended = attend()
            ad.backward(ad.sum_(attended * v))
            return weights.data.copy(), attended.data.copy(), \
                {name: t.grad.copy() for name, t in leaves.items()}

        def fused():
            res = at.soft_attend(h, x, params)
            return res.weights, res.attended

        def op_by_op():
            weights = ad.softmax(at.location_scores(h, params), axis=-1)
            return weights, ad.attend_mix(weights, x)

        got_w, got_a, got_grads = run(fused)
        want_w, want_a, want_grads = run(op_by_op)
        assert np.array_equal(got_w, want_w) and np.array_equal(got_a, want_a)
        for name, want in want_grads.items():
            scale = float(np.max(np.abs(want)))
            assert scale > 0 and float(np.max(np.abs(got_grads[name] - want))) <= 1e-12 * scale, name

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(34)
        params, h, x = make_instance(rng)
        attended = at.soft_attend(h, x, params).attended
        assert [n for n in ad.Tape(attended).nodes if n._parents] == [attended]

    def test_shape_mismatch_is_dimension_error(self):
        rng = np.random.default_rng(35)
        params, h, x = make_instance(rng)
        with pytest.raises(ad.DimensionError, match="soft attention"):
            at.soft_attend(h, Tensor(x.data[:, :-1]), params)
        with pytest.raises(ad.DimensionError, match="soft attention"):
            at.soft_attend(Tensor(h.data[:, :-1]), x, params)


class TestGumbelHardAttend:
    def test_zero_noise_selects_argmax(self):
        feats = np.arange(K2 * D, dtype=float).reshape(K2, D)
        params, h, x = scored_instance([5.0, 0.0, 0.0, 0.0], feats)
        noise = Tensor(np.zeros((1, K2)))
        res = at.gumbel_hard_attend(h, x, params, 0.3, noise=noise)
        npt.assert_array_equal(res.weights.data, [[1.0, 0.0, 0.0, 0.0]])
        npt.assert_allclose(res.attended.data[0], feats[0], atol=1e-15)

    def test_weights_exactly_one_hot(self):
        rng = np.random.default_rng(32)
        params, h, x = make_instance(rng, batch=6)
        res = at.gumbel_hard_attend(h, x, params, 0.3, noise=st.sample_gumbel((6, K2), rng))
        w = res.weights.data
        assert np.all(np.sum(w == 1.0, axis=-1) == 1)
        assert np.all(np.sum(w == 0.0, axis=-1) == K2 - 1)

    def test_adaptive_temperature_stays_in_unit_interval(self):
        rng = np.random.default_rng(33)
        d = 3
        params = at.AttentionParams(
            w_loc=Tensor(rng.normal(size=(K2, d))),
            w_temp=Tensor(rng.normal(scale=5.0, size=(d, 1))),
            b_temp=Tensor(rng.normal(size=(1, 1))))
        for _ in range(10):
            h = Tensor(rng.normal(scale=3.0, size=(2, d)))
            tau = st.adaptive_tau(h, params.w_temp, params.b_temp)
            assert np.all(tau.data > 0) and np.all(tau.data <= 1.0)
            x = Tensor(rng.normal(size=(2, K2, D)))
            res = at.gumbel_hard_attend(h, x, params, tau, noise=st.sample_gumbel((2, K2), rng))
            assert np.all(np.isin(res.weights.data, (0.0, 1.0)))

    def test_selection_frequencies_match_location_softmax(self):
        # Monte Carlo oracle over 100k draws
        rng = np.random.default_rng(34)
        n = 100_000
        scores = np.array([1.5, 0.0, -1.0, 0.5])
        params = at.AttentionParams(w_loc=Tensor(scores[:, None]))
        h = Tensor(np.ones((n, 1)))
        x = Tensor(np.zeros((n, K2, 1)))
        res = at.gumbel_hard_attend(h, x, params, 0.5, noise=st.sample_gumbel((n, K2), rng))
        freq = np.bincount(np.argmax(res.weights.data, axis=-1), minlength=K2) / n
        expected = np.exp(scores) / np.exp(scores).sum()
        npt.assert_allclose(freq, expected, atol=0.01)

    def test_deterministic_mode_takes_argmax(self):
        feats = np.arange(K2 * D, dtype=float).reshape(K2, D)
        params, h, x = scored_instance([0.0, 0.0, 3.0, 0.0], feats)
        res = at.gumbel_hard_attend(h, x, params, 0.3)
        npt.assert_array_equal(res.weights.data, [[0.0, 0.0, 1.0, 0.0]])
        npt.assert_allclose(res.attended.data[0], feats[2], atol=1e-15)

    def test_straight_through_gradient_equals_soft_sample(self):
        rng = np.random.default_rng(35)
        w_init = rng.normal(size=(K2, 3))
        h_value = rng.normal(size=(2, 3))
        x = Tensor(rng.normal(size=(2, K2, D)))
        noise = st.sample_gumbel((2, K2), rng)
        v = Tensor(rng.normal(size=(2, D)))

        def grad_through(soft_sample: bool) -> np.ndarray:
            params = at.AttentionParams(w_loc=Tensor(w_init.copy(), requires_grad=True))
            h = Tensor(h_value.copy())
            res = at.gumbel_hard_attend(h, x, params, 0.4, noise=noise,
                                        soft_sample=soft_sample)
            ad.backward(ad.sum_(res.attended * v))
            return params.w_loc.grad

        npt.assert_array_equal(grad_through(False), grad_through(True))


class TestReinforceHardAttend:
    def test_degenerate_distribution_always_selects_it(self):
        feats = np.arange(K2 * D, dtype=float).reshape(K2, D)
        params, h, x = scored_instance([50.0, 0.0, 0.0, 0.0], feats)
        rng = np.random.default_rng(36)
        for _ in range(10):
            res = at.reinforce_hard_attend(h, x, params, uniforms=rng.random(1))
            npt.assert_array_equal(res.weights.data, [[1.0, 0.0, 0.0, 0.0]])
            assert res.log_prob.data[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_sampling_frequencies_match_distribution(self):
        rng = np.random.default_rng(37)
        n = 100_000
        scores = np.array([0.5, -0.5, 1.0, 0.0])
        params = at.AttentionParams(w_loc=Tensor(scores[:, None]))
        h = Tensor(np.ones((n, 1)))
        x = Tensor(np.zeros((n, K2, 1)))
        res = at.reinforce_hard_attend(h, x, params, uniforms=rng.random(n))
        freq = np.bincount(np.argmax(res.weights.data, axis=-1), minlength=K2) / n
        expected = np.exp(scores) / np.exp(scores).sum()
        npt.assert_allclose(freq, expected, atol=0.01)

    def test_evaluation_takes_argmax(self):
        params, h, x = scored_instance([np.log(0.4), np.log(0.6)],
                                       np.arange(2 * D, dtype=float).reshape(2, D))
        res = at.reinforce_hard_attend(h, x, params)
        npt.assert_array_equal(res.weights.data, [[0.0, 1.0]])

    def test_selection_carries_no_gradient(self):
        rng = np.random.default_rng(38)
        params, h, x = make_instance(rng)
        x.requires_grad = True  # gives the loss a path that bypasses the scores
        res = at.reinforce_hard_attend(h, x, params, uniforms=rng.random(2))
        ad.backward(ad.sum_(res.attended))
        # attended = onehot-const . features: nothing reaches the score weights
        assert params.w_loc.grad is None or not np.any(params.w_loc.grad)

    def test_log_prob_does_carry_gradient(self):
        rng = np.random.default_rng(39)
        params, h, x = make_instance(rng)
        res = at.reinforce_hard_attend(h, x, params, uniforms=rng.random(2))
        ad.backward(ad.sum_(res.log_prob))
        assert np.any(params.w_loc.grad)


class TestReinforceSurrogate:
    def _toy(self, rng, lam=1.0, baseline=0.0, label=1, classes=3):
        """2-location, 1-step enumerable problem with analytic gradients."""
        w = rng.normal(size=(2, 1))          # location scores (d=1, h=1)
        V = rng.normal(size=(2, classes))    # per-location class logits
        return w, V

    def test_expected_surrogate_gradient_matches_analytic(self):
        # enumeration oracle: E over selections of the surrogate gradient
        # equals sum_l alpha_l [dlog q_l/dtheta + lam(log q_l - b) dlog alpha_l/dtheta]
        rng = np.random.default_rng(40)
        lam, baseline, label = 0.7, -1.3, 1
        w_val, v_val = self._toy(rng)

        def softmax(z):
            e = np.exp(z - z.max())
            return e / e.sum()

        alpha = softmax(w_val[:, 0])
        q = np.stack([softmax(v_val[l]) for l in range(2)])
        log_q = np.log(q[:, label])

        # analytic: dlog alpha_l/dw_j = delta - alpha_j; dlog q_l[y]/dV[l,c] = delta - q_l[c]
        grad_w = np.zeros_like(w_val)
        grad_v = np.zeros_like(v_val)
        for l in range(2):
            dlog_alpha = -alpha.copy()
            dlog_alpha[l] += 1.0
            dlog_q = np.zeros_like(v_val)
            dlog_q[l] = -q[l]
            dlog_q[l, label] += 1.0
            grad_w[:, 0] += alpha[l] * lam * (log_q[l] - baseline) * dlog_alpha
            grad_v += alpha[l] * dlog_q
        # the surrogate is a loss: its gradient is the negative learning rule
        expected_w, expected_v = -grad_w, -grad_v

        got_w = np.zeros_like(w_val)
        got_v = np.zeros_like(v_val)
        for l in range(2):
            w = Tensor(w_val.copy(), requires_grad=True)
            v = Tensor(v_val.copy(), requires_grad=True)
            a = ad.softmax(ad.transpose(w), axis=-1)          # (1, 2)
            log_prob = ad.clipped_log(ad.take_rows(a, np.array([l])))
            onehot = np.zeros((1, 2))
            onehot[0, l] = 1.0
            picked = Tensor(onehot) @ v                        # (1, classes)
            ll = ad.clipped_log(ad.take_rows(ad.softmax(picked, axis=-1), np.array([label])))
            loss = at.reinforce_surrogate([log_prob], ll, baseline, lam)
            ad.backward(loss)
            got_w += alpha[l] * w.grad
            got_v += alpha[l] * v.grad

        npt.assert_allclose(got_w, expected_w, atol=1e-10)
        npt.assert_allclose(got_v, expected_v, atol=1e-10)

    def test_reward_equal_to_baseline_reduces_to_likelihood_gradient(self):
        rng = np.random.default_rng(41)
        w_val = rng.normal(size=(2, 1))

        def grads(baseline):
            w = Tensor(w_val.copy(), requires_grad=True)
            a = ad.softmax(ad.transpose(w), axis=-1)
            log_prob = ad.clipped_log(ad.take_rows(a, np.array([0])))
            ll = Tensor([[-2.0]])  # constant likelihood: only the score term can act
            ad.backward(at.reinforce_surrogate([log_prob], ll, baseline, lam=1.0))
            return w.grad

        assert not np.any(grads(baseline=-2.0))   # centered reward: term vanishes
        assert np.any(grads(baseline=0.0))

    def test_lambda_zero_is_plain_likelihood(self):
        rng = np.random.default_rng(42)
        w_val = rng.normal(size=(2, 3))

        def grad(lam):
            w = Tensor(w_val.copy(), requires_grad=True)
            probs = ad.softmax(w, axis=-1)
            ll = ad.clipped_log(ad.take_rows(probs, np.array([1, 2])))
            a = ad.softmax(ad.transpose(Tensor(rng.normal(size=(2, 1)), requires_grad=False)),
                           axis=-1)
            log_prob = ad.clipped_log(ad.take_rows(a, np.array([0])))
            ad.backward(at.reinforce_surrogate([log_prob], ad.mean(ll, keepdims=True),
                                               baseline=0.3, lam=lam))
            return w.grad

        plain = grad(0.0)

        w = Tensor(w_val.copy(), requires_grad=True)
        probs = ad.softmax(w, axis=-1)
        ll = ad.clipped_log(ad.take_rows(probs, np.array([1, 2])))
        ad.backward(-ad.mean(ad.mean(ll, keepdims=True)))
        npt.assert_allclose(plain, w.grad, atol=1e-12)


class TestBaseline:
    def test_substitution(self):
        assert at.baseline_update(0.0, -2.0) == pytest.approx(-0.2, abs=1e-15)

    def test_fixed_point(self):
        assert at.baseline_update(-1.0, -1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_update_is_exactly_linear(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            b, ll = rng.normal(size=2)
            assert at.baseline_update(b, ll) == pytest.approx(0.9 * b + 0.1 * ll, abs=1e-12)

    def test_geometric_convergence_to_constant_reward(self):
        # closed form: b_k = 0.9^k b_0 + c (1 - 0.9^k)
        c, b0 = -3.7, 2.0
        baseline = at.Baseline(value=b0)
        for _ in range(200):
            baseline.update(c)
        closed = 0.9 ** 200 * b0 + c * (1.0 - 0.9 ** 200)
        assert baseline.value == pytest.approx(closed, abs=1e-12)
        assert abs(baseline.value - c) < 1e-8
