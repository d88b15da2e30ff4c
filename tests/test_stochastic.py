"""Gumbel relaxations, straight-through discretization, adaptive temperature."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from hman import autodiff as ad
from hman import stochastic as st
from hman.autodiff import Tensor
from hman.gradcheck import check_gradients


def zero_noise(shape):
    return Tensor(np.zeros(shape))


class TestGumbelSampling:
    def test_matches_inverse_cdf_of_same_stream(self):
        rng = np.random.default_rng(123)
        noise = st.sample_gumbel((5,), np.random.default_rng(123))
        u = np.clip(rng.random((5,)), st.GUMBEL_EPS, 1 - st.GUMBEL_EPS)
        npt.assert_array_equal(noise.data, -np.log(-np.log(u)))

    def test_extreme_uniforms_stay_finite(self):
        # the clamp keeps -log(-log(u)) finite even at the stream's extremes
        vals = [-np.log(-np.log(np.clip(u, st.GUMBEL_EPS, 1 - st.GUMBEL_EPS)))
                for u in (0.0, 1.0)]
        assert all(np.isfinite(v) for v in vals)


class TestGumbelSoftmax:
    def test_symmetric_inputs_give_half(self):
        out = st.gumbel_softmax(Tensor([[0.0, 0.0]]), zero_noise((1, 2)), 1.0)
        npt.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_low_temperature_approaches_argmax(self):
        noise = Tensor([[1.0, 0.0]])
        out = st.gumbel_softmax(Tensor([[0.0, 0.0]]), noise, 0.01)
        assert out.data[0, 0] > 1.0 - 1e-12
        assert out.data[0, 1] < 1e-12

    def test_rows_sum_to_one_for_all_temperatures(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            tau = float(rng.uniform(0.01, 1.0))
            logits = Tensor(rng.normal(scale=4.0, size=(3, 6)))
            noise = st.sample_gumbel((3, 6), rng)
            sums = st.gumbel_softmax(logits, noise, tau).data.sum(axis=-1)
            npt.assert_allclose(sums, 1.0, atol=1e-12)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(st.ParameterError):
            st.gumbel_softmax(Tensor([[0.0, 0.0]]), zero_noise((1, 2)), 0.0)
        with pytest.raises(st.ParameterError):
            st.gumbel_softmax(Tensor([[0.0, 0.0]]), zero_noise((1, 2)), Tensor([[-0.3]]))

    @pytest.mark.parametrize("logits", [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, -1.0],
        [3.0, 0.0, -2.0],  # skewed
    ])
    def test_gumbel_max_law(self, logits):
        # Monte Carlo oracle: argmax of logits+gumbel is a categorical draw
        n = 100_000
        rng = np.random.default_rng(99)
        g = st.sample_gumbel((n, len(logits)), rng).data
        winners = np.argmax(np.asarray(logits) + g, axis=-1)
        counts = np.bincount(winners, minlength=len(logits))
        expected = ad.softmax(Tensor([logits])).data[0]
        npt.assert_allclose(counts / n, expected, atol=0.01)
        chi2 = stats.chisquare(counts, expected * n)
        assert chi2.pvalue > 0.01

    def test_gradients_with_fixed_noise(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        noise = st.sample_gumbel((2, 5), rng)
        v = Tensor(rng.normal(size=(2, 5)))
        worst = check_gradients(lambda: ad.sum_(st.gumbel_softmax(logits, noise, 0.4) * v),
                                [logits])
        assert worst < 1e-4

    def test_differentiable_in_tensor_temperature(self):
        rng = np.random.default_rng(18)
        logits = Tensor(rng.normal(size=(2, 4)))
        tau = Tensor(rng.uniform(0.3, 0.9, size=(2, 1)), requires_grad=True)
        noise = st.sample_gumbel((2, 4), rng)
        v = Tensor(rng.normal(size=(2, 4)))
        worst = check_gradients(lambda: ad.sum_(st.gumbel_softmax(logits, noise, tau) * v),
                                [tau])
        assert worst < 1e-4


class TestGumbelSigmoid:
    def test_equal_noise_cancels(self):
        g = Tensor([[0.7]])
        for tau in (0.1, 0.3, 1.0):
            out = st.gumbel_sigmoid(Tensor([[0.0]]), g, g, tau)
            assert out.data[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        out = st.gumbel_sigmoid(Tensor([[20.0]]), zero_noise((1, 1)), zero_noise((1, 1)), 0.3)
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_seed_matches_independent_formula(self):
        # direct scalar recomputation of the definition from the raw draws
        rng = np.random.default_rng(42)
        ga = st.sample_gumbel((1, 1), rng)
        gb = st.sample_gumbel((1, 1), rng)
        out = st.gumbel_sigmoid(Tensor([[0.5]]), ga, gb, 0.3)
        a, b = float(ga.data[0, 0]), float(gb.data[0, 0])
        expected = 1.0 / (1.0 + math.exp(-((0.5 + a - b) / 0.3)))
        assert out.data[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates past |x| ~ 36; test the representable range
        rng = np.random.default_rng(20)
        pre = Tensor(rng.uniform(-8.0, 8.0, size=(50, 1)))
        out = st.gumbel_sigmoid(pre, st.sample_gumbel((50, 1), rng),
                                st.sample_gumbel((50, 1), rng), 1.0)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_gradients_with_fixed_noise(self):
        rng = np.random.default_rng(21)
        pre = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        ga = st.sample_gumbel((4, 1), rng)
        gb = st.sample_gumbel((4, 1), rng)
        worst = check_gradients(
            lambda: ad.sum_(st.gumbel_sigmoid(pre, ga, gb, 0.3) * 2.0), [pre])
        assert worst < 1e-4


class TestHardThreshold:
    @pytest.mark.parametrize("value,expected", [(0.6, 1.0), (0.4, 0.0), (0.5, 1.0)])
    def test_threshold_values(self, value, expected):
        out = st.hard_threshold(Tensor([[value]]))
        assert out.data[0, 0] == expected

    def test_forward_is_exactly_binary(self):
        rng = np.random.default_rng(22)
        y = Tensor(rng.uniform(0, 1, size=(100,)))
        out = st.hard_threshold(y).data
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_straight_through_jacobian_equals_soft(self):
        rng = np.random.default_rng(23)
        pre = rng.normal(size=(5, 1))
        v = Tensor(rng.normal(size=(5, 1)))

        def grad_through(hard: bool) -> np.ndarray:
            x = Tensor(pre.copy(), requires_grad=True)
            y = ad.sigmoid(x)
            out = st.hard_threshold(y) if hard else y
            ad.backward(ad.sum_(out * v))
            return x.grad

        npt.assert_array_equal(grad_through(True), grad_through(False))


class TestHardOnehot:
    def test_picks_argmax(self):
        out = st.hard_onehot(Tensor([[0.1, 0.7, 0.2]]))
        npt.assert_array_equal(out.data, [[0.0, 1.0, 0.0]])

    def test_tie_breaks_to_lowest_index(self):
        out = st.hard_onehot(Tensor([[0.5, 0.5]]))
        npt.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_straight_through_matches_soft_gradient(self):
        rng = np.random.default_rng(24)
        logits_value = rng.normal(size=(3, 4))
        noise = st.sample_gumbel((3, 4), rng)
        v = Tensor(rng.normal(size=(3, 4)))

        def grad_through(hard: bool) -> np.ndarray:
            logits = Tensor(logits_value.copy(), requires_grad=True)
            y = st.gumbel_softmax(logits, noise, 0.5)
            out = st.hard_onehot(y) if hard else y
            ad.backward(ad.sum_(out * v))
            return logits.grad

        npt.assert_array_equal(grad_through(True), grad_through(False))


class TestAdaptiveTau:
    def test_zero_preactivation_value(self):
        # analytic oracle: softplus(0) = ln 2, so tau = 1/(ln 2 + 1)
        h = Tensor(np.zeros((1, 3)))
        w = Tensor(np.zeros((3, 1)))
        b = Tensor(np.zeros((1, 1)))
        tau = st.adaptive_tau(h, w, b)
        assert tau.data[0, 0] == pytest.approx(1.0 / (math.log(2.0) + 1.0), abs=1e-9)

    def test_very_negative_preactivation_approaches_one(self):
        h = Tensor([[1.0]])
        w = Tensor([[-1000.0]])
        b = Tensor([[0.0]])
        assert st.adaptive_tau(h, w, b).data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_preactivation_ten(self):
        # direct formula oracle: 1 / (log1p(exp(10)) + 1)
        h = Tensor([[1.0]])
        w = Tensor([[10.0]])
        b = Tensor([[0.0]])
        expected = 1.0 / (math.log1p(math.exp(10.0)) + 1.0)
        got = st.adaptive_tau(h, w, b).data[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.0 / 11.0000454, rel=1e-7)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            h = Tensor(rng.normal(scale=20.0, size=(8, 5)))
            w = Tensor(rng.normal(scale=20.0, size=(5, 1)))
            b = Tensor(rng.normal(scale=20.0, size=(1, 1)))
            vals = st.adaptive_tau(h, w, b).data
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_differentiable_in_all_inputs(self):
        rng = np.random.default_rng(26)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 1)), requires_grad=True)
        worst = check_gradients(lambda: ad.sum_(st.adaptive_tau(h, w, b)), [h, w, b])
        assert worst < 1e-4
