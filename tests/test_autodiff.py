"""Tensor-op contracts: values, adjoints vs finite differences, tape rules."""

import numpy as np
import numpy.testing as npt
import pytest

from hman import autodiff as ad
from hman.autodiff import ContractError, DimensionError, Tensor
from hman.gradcheck import check_gradients, numeric_gradient, relative_error


class TestMatmul:
    def test_identity(self):
        x = Tensor([[3.0, -1.0], [0.5, 2.0]])
        out = ad.matmul(Tensor(np.eye(2)), x)
        npt.assert_array_equal(out.data, x.data)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        npt.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 5)))
        worst = check_gradients(lambda: ad.sum_((a @ b) * v), [a, b])
        assert worst < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5, abs=1e-15)

    def test_softplus_at_zero_is_ln2(self):
        assert ad.softplus(Tensor([0.0])).data[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_sigmoid_saturation_is_stable(self):
        out = ad.sigmoid(Tensor([-1e4, 1e4])).data
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.softplus])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 4)))
        worst = check_gradients(lambda: ad.sum_(op(x) * v), [x])
        assert worst < 1e-6

    def test_binary_ops_with_broadcast(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        scalar = Tensor(1.7, requires_grad=True)

        def build():
            return ad.sum_(ad.tanh(x * scalar + bias) / (scalar * scalar + 1.0))

        assert check_gradients(build, [x, bias, scalar]) < 1e-6

    def test_clipped_log_floors_and_masks_gradient(self):
        x = Tensor([1e-20, 0.5], requires_grad=True)
        out = ad.clipped_log(x)
        assert out.data[0] == pytest.approx(np.log(1e-12))
        ad.backward(ad.sum_(out))
        assert x.grad[0] == 0.0
        assert x.grad[1] == pytest.approx(2.0)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        npt.assert_allclose(ad.softmax(Tensor([[0.0, 0.0, 0.0]])).data,
                            [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        out = ad.softmax(Tensor([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = Tensor(rng.normal(scale=10.0, size=(4, 7)))
            sums = ad.softmax(x).data.sum(axis=-1)
            npt.assert_allclose(sums, 1.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 5)))
        worst = check_gradients(lambda: ad.sum_(ad.softmax(x) * v), [x])
        assert worst < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.sum_(x))
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        ad.backward(ad.sum_(x * x))
        assert x.grad[0] == pytest.approx(6.0)

    def test_reuse_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        ad.backward(ad.sum_(y))
        assert x.grad[0] == pytest.approx(5.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(x + x)

    def test_repeated_backward_rejected(self):
        x = Tensor([2.0], requires_grad=True)
        loss = ad.sum_(x * x)
        ad.backward(loss)
        with pytest.raises(ContractError, match="already"):
            ad.backward(loss)

    def test_zero_grad_resets(self):
        x = Tensor([2.0], requires_grad=True)
        ad.backward(ad.sum_(x * x))
        ad.zero_grad([x])
        assert x.grad is None
        ad.backward(ad.sum_(x * x * x))
        assert x.grad[0] == pytest.approx(12.0)

    def test_tape_orders_parents_before_consumers(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + x
        tape = ad.Tape(z)
        position = {id(node): i for i, node in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                if id(parent) in position:
                    assert position[id(parent)] < position[id(node)]

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        ad.backward(ad.sum_(y))
        assert x.grad[0] == pytest.approx(1.0)

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = x * 3.0
        assert not y.requires_grad

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            loss = ad.sum_(ad.softmax(ad.tanh(a @ b)) * ad.sigmoid(a))
            ad.backward(loss)
            return loss.data.copy(), a.grad.copy(), b.grad.copy()

        first, second = run(), run()
        for lhs, rhs in zip(first, second):
            assert np.array_equal(lhs, rhs)


class TestShapingOps:
    def test_take_rows_values_and_grad(self):
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], requires_grad=True)
        idx = np.array([2, 0])
        out = ad.take_rows(x, idx)
        npt.assert_array_equal(out.data, [[3.0], [4.0]])
        ad.backward(ad.sum_(out * out))
        expected = np.zeros((2, 3))
        expected[0, 2] = 6.0
        expected[1, 0] = 8.0
        npt.assert_allclose(x.grad, expected)

    def test_attend_mix_matches_einsum_and_grad(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        f = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = ad.attend_mix(w, f)
        npt.assert_allclose(out.data, np.einsum("bk,bkd->bd", w.data, f.data))
        v = Tensor(rng.normal(size=(2, 5)))
        worst = check_gradients(lambda: ad.sum_(ad.attend_mix(w, f) * v), [w, f])
        assert worst < 1e-6

    def test_transpose_and_mean(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        worst = check_gradients(lambda: ad.mean(ad.transpose(x) @ x), [x])
        assert worst < 1e-6

    def test_scalars_stay_zero_dimensional(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert Tensor(3.0).shape == ()
        assert ad.mean(x).shape == ()
        assert ad.sum_(x).shape == ()
        ad.backward(ad.mean(x) * Tensor(2.0))
        npt.assert_array_equal(x.grad, np.full((2, 3), 2.0 / 6.0))


class TestReadGradsAreLazy:
    """A read() binds its grad to a view of the owner's on its first adjoint."""

    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "op-output"])
    def test_grad_appears_at_backward_and_shares_the_owners(self, leaf):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        owner = a if leaf else a * 2.0
        first, second = ad.read(owner, 0), ad.read(owner, (1, slice(1, 3)))
        loss = ad.sum_(first * first) + ad.sum_(second * 3.0)
        assert owner.grad is None and first.grad is None and second.grad is None
        ad.backward(loss)
        assert np.shares_memory(first.grad, owner.grad)
        assert np.shares_memory(second.grad, owner.grad)
        npt.assert_array_equal(owner.grad, np.array([2.0 * owner.data[0], [0.0, 3.0, 3.0]]))

    def test_owner_whose_reads_get_no_adjoint_replays_zeros(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        owner = a * 2.0
        view = ad.read(owner, 0)
        ignores = Tensor._from_op(np.sum(view.data), (view,), lambda g: None)
        ad.backward(ignores + ad.sum_(a))
        assert view.grad is None
        npt.assert_array_equal(owner.grad, np.zeros((2, 3)))
        npt.assert_array_equal(a.grad, np.ones((2, 3)))


class TestReplayUnlinksTheGraph:
    def test_replayed_nodes_drop_backward_and_parents_but_keep_grads(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        hidden = ad.tanh(x * x)
        loss = ad.sum_(hidden * 3.0)
        tape = ad.Tape(loss)
        nodes = list(tape.nodes)
        tape.replay_adjoints()
        assert tape.nodes == []
        assert all(n._backward_fn is None and n._parents == () for n in nodes)
        npt.assert_array_equal(hidden.grad, np.full(4, 3.0))
        npt.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(x.data ** 2) ** 2) * 2.0 * x.data)


class TestNumericGradientHelper:
    def test_matches_analytic_on_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        grad = numeric_gradient(lambda: float(np.sum(x ** 2)), x)
        npt.assert_allclose(grad, 2 * x, atol=1e-8)

    def test_relative_error_handles_zeros(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
