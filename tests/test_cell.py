"""Cell update semantics: branch selection, masking, gradients, LSTM-like limit,
and the fused step against the op-by-op reference."""

import numpy as np
import numpy.testing as npt
import pytest

from hman import autodiff as ad
from hman import cell as hc
from hman import stochastic as st
from hman.autodiff import ContractError, DimensionError, Tensor
from hman.gradcheck import check_gradients

HIDDEN = 4
BELOW = 3


def make_params(rng, above=True):
    return hc.init_layer_params(HIDDEN, below_dim=BELOW,
                                above_dim=HIDDEN if above else None, rng=rng)


def make_inputs(rng):
    prev = hc.LayerState(
        c=Tensor(rng.normal(size=(1, HIDDEN))),
        h=Tensor(rng.normal(size=(1, HIDDEN))),
        z=Tensor([[0.0]]),
    )
    below_h = Tensor(rng.normal(size=(1, BELOW)))
    above_h = Tensor(rng.normal(size=(1, HIDDEN)))
    return prev, below_h, above_h


def manual_gates(params, prev_h, prev_z, below_h, below_z, above_h):
    """Independent recomputation of the stacked pre-activation and gates."""
    s = prev_h @ params.u_rec.data + (below_z * below_h) @ params.w_bot.data + params.bias.data
    if params.u_top is not None:
        s = s + (prev_z * above_h) @ params.u_top.data

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    i = sig(s[:, :HIDDEN])
    f = sig(s[:, HIDDEN:2 * HIDDEN])
    o = sig(s[:, 2 * HIDDEN:3 * HIDDEN])
    g = np.tanh(s[:, 3 * HIDDEN:4 * HIDDEN])
    z_pre = s[:, 4 * HIDDEN:]
    return i, f, o, g, z_pre


def run_step(prev, below_h, below_z, above_h, params, **kw):
    kw.setdefault("noise", st.sample_gumbel((2, 1, 1), np.random.default_rng(0)).data)
    return hc.step(prev, below_h, Tensor([[below_z]]), above_h, params, **kw)


class TestBranchSemantics:
    """Exhaustive over (z_prev, z_below): exactly one update rule fires."""

    def test_copy_is_bitwise_carry_over(self):
        rng = np.random.default_rng(1)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[0.0]])
        state = run_step(prev, below_h, 0.0, above_h, params)
        assert np.array_equal(state.c.data, prev.c.data)
        assert np.array_equal(state.h.data, prev.h.data)

    def test_update_matches_gate_formula(self):
        rng = np.random.default_rng(2)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        state = run_step(prev, below_h, 1.0, above_h, params)
        i, f, o, g, _ = manual_gates(params, prev.h.data, 0.0, below_h.data, 1.0, above_h.data)
        expected_c = f * prev.c.data + i * g
        npt.assert_allclose(state.c.data, expected_c, atol=1e-12)
        npt.assert_allclose(state.h.data, o * np.tanh(expected_c), atol=1e-12)

    @pytest.mark.parametrize("below_z", [0.0, 1.0])
    def test_flush_rebuilds_memory(self, below_z):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[1.0]])
        state = run_step(prev, below_h, below_z, above_h, params)
        i, _, o, g, _ = manual_gates(params, prev.h.data, 1.0, below_h.data, below_z, above_h.data)
        npt.assert_allclose(state.c.data, i * g, atol=1e-12)
        npt.assert_allclose(state.h.data, o * np.tanh(i * g), atol=1e-12)

    def test_flush_is_independent_of_previous_memory(self):
        rng = np.random.default_rng(4)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[1.0]])
        first = run_step(prev, below_h, 1.0, above_h, params)
        prev.c = Tensor(rng.normal(scale=100.0, size=(1, HIDDEN)))
        second = run_step(prev, below_h, 1.0, above_h, params)
        assert np.array_equal(first.c.data, second.c.data)
        assert np.array_equal(first.h.data, second.h.data)

    def test_literal_hidden_rule_drops_tanh(self):
        rng = np.random.default_rng(5)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        state = run_step(prev, below_h, 1.0, above_h, params, hidden_tanh=False)
        i, f, o, g, _ = manual_gates(params, prev.h.data, 0.0, below_h.data, 1.0, above_h.data)
        expected_c = f * prev.c.data + i * g
        npt.assert_allclose(state.h.data, o * expected_c, atol=1e-12)


class TestForcedGates:
    def _forced_params(self, rng, i_bias, f_bias):
        params = make_params(rng)
        params.bias.data[0, :HIDDEN] = i_bias
        params.bias.data[0, HIDDEN:2 * HIDDEN] = f_bias
        # kill every weight into the i and f slices so the bias decides alone
        for m in (params.u_rec, params.u_top, params.w_bot):
            m.data[:, :2 * HIDDEN] = 0.0
        return params

    def test_flush_with_closed_input_gate_zeroes_memory(self):
        rng = np.random.default_rng(6)
        params = self._forced_params(rng, i_bias=-50.0, f_bias=0.0)
        prev, below_h, above_h = make_inputs(rng)
        prev.c = Tensor(rng.normal(scale=10.0, size=(1, HIDDEN)))
        prev.z = Tensor([[1.0]])
        state = run_step(prev, below_h, 1.0, above_h, params)
        npt.assert_allclose(state.c.data, 0.0, atol=1e-12)

    def test_update_with_open_forget_closed_input_keeps_memory(self):
        rng = np.random.default_rng(7)
        params = self._forced_params(rng, i_bias=-50.0, f_bias=50.0)
        prev, below_h, above_h = make_inputs(rng)
        state = run_step(prev, below_h, 1.0, above_h, params)
        npt.assert_allclose(state.c.data, prev.c.data, atol=1e-12)


class TestGradientFlow:
    def test_copy_contributes_zero_parameter_gradient(self):
        rng = np.random.default_rng(8)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        state = run_step(prev, below_h, 0.0, above_h, params)
        ad.backward(ad.sum_(state.c * state.c) + ad.sum_(state.h))
        for p in params.tensors():
            assert p.grad is None or not np.any(p.grad)

    def test_update_and_flush_do_reach_parameters(self):
        rng = np.random.default_rng(9)
        for z_prev, below_z in ((0.0, 1.0), (1.0, 0.0)):
            params = make_params(rng)
            prev, below_h, above_h = make_inputs(rng)
            prev.z = Tensor([[z_prev]])
            state = run_step(prev, below_h, below_z, above_h, params)
            ad.backward(ad.sum_(state.c * state.c) + ad.sum_(state.h))
            assert np.any(params.u_rec.grad)

    def test_bottom_up_contribution_masked_when_lower_boundary_off(self):
        rng = np.random.default_rng(10)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[1.0]])  # FLUSH: state recomputes, bottom-up masked
        noise = st.sample_gumbel((2, 1, 1), np.random.default_rng(0)).data
        first = run_step(prev, below_h, 0.0, above_h, params, noise=noise)
        other = Tensor(rng.normal(scale=50.0, size=(1, BELOW)))
        second = run_step(prev, other, 0.0, above_h, params, noise=noise)
        assert np.array_equal(first.c.data, second.c.data)
        assert np.array_equal(first.h.data, second.h.data)
        assert np.array_equal(first.z.data, second.z.data)

    def test_chained_steps_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.h.requires_grad = True
        n1 = st.sample_gumbel((2, 1, 1), rng).data
        n2 = st.sample_gumbel((2, 1, 1), rng).data

        def build():
            s1 = hc.step(prev, below_h, Tensor([[1.0]]), above_h, params,
                         noise=n1, soft_boundaries=True)
            s2 = hc.step(s1, below_h, Tensor([[1.0]]), above_h, params,
                         noise=n2, soft_boundaries=True)
            return ad.sum_(s2.h * s2.h) + ad.sum_(s2.c)

        worst = check_gradients(build, params.tensors() + [prev.h])
        assert worst < 1e-4


class TestLstmLikeLimit:
    def test_all_boundaries_forced_on_single_layer(self):
        # hand-rolled oracle: with every z at 1 the cell flushes each step,
        # so c = i*g and h = o*tanh(c) from the recurrent+input pre-activation
        rng = np.random.default_rng(12)
        params = make_params(rng, above=False)
        state = hc.initial_state(HIDDEN, batch=1)
        state.z = Tensor([[1.0]])
        inputs = [Tensor(rng.normal(size=(1, BELOW))) for _ in range(4)]

        oracle_h = np.zeros((1, HIDDEN))
        for x in inputs:
            state = hc.step(state, x, Tensor([[1.0]]), None, params, force_z=1.0)
            i, _, o, g, _ = manual_gates(params, oracle_h, 1.0, x.data, 1.0, None)
            oracle_c = i * g
            oracle_h = o * np.tanh(oracle_c)
            npt.assert_allclose(state.c.data, oracle_c, atol=1e-12)
            npt.assert_allclose(state.h.data, oracle_h, atol=1e-12)
            assert state.z.data[0, 0] == 1.0


class TestNestedBoundaries:
    """A layer closes a segment only where the layer below closed one."""

    def _eager_detector(self, rng):
        params = make_params(rng)
        params.bias.data[0, 4 * HIDDEN] = 50.0  # sigmoid(pre) ~ 1 whatever the inputs
        return params

    @pytest.mark.parametrize("z_prev", [0.0, 1.0])
    def test_no_boundary_without_one_below(self, z_prev):
        rng = np.random.default_rng(17)
        params = self._eager_detector(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[z_prev]])
        for kw in ({"noise": None}, {}):
            assert run_step(prev, below_h, 0.0, above_h, params, **kw).z.data[0, 0] == 0.0
            assert run_step(prev, below_h, 1.0, above_h, params, **kw).z.data[0, 0] == 1.0

    def test_logit_is_the_boundary_slice_before_masking(self):
        rng = np.random.default_rng(18)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        for below_z in (0.0, 1.0):
            state = run_step(prev, below_h, below_z, above_h, params, noise=None)
            *_, z_pre = manual_gates(params, prev.h.data, 0.0, below_h.data, below_z,
                                     above_h.data)
            npt.assert_allclose(state.z_logit.data, z_pre, atol=1e-12)


class TestContracts:
    def test_non_binary_boundary_rejected(self):
        rng = np.random.default_rng(13)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        prev.z = Tensor([[0.5]])
        with pytest.raises(ContractError, match="0/1"):
            run_step(prev, below_h, 1.0, above_h, params)
        prev.z = Tensor([[0.0]])
        with pytest.raises(ContractError, match="0/1"):
            run_step(prev, below_h, 0.3, above_h, params)

    def test_shape_mismatch_is_dimension_error(self):
        rng = np.random.default_rng(14)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        with pytest.raises(DimensionError):
            run_step(prev, Tensor(rng.normal(size=(1, BELOW + 2))), 1.0, above_h, params)
        with pytest.raises(DimensionError):
            run_step(prev, below_h, 1.0, Tensor(rng.normal(size=(1, HIDDEN + 1))), params)
        prev.h = Tensor(rng.normal(size=(1, HIDDEN + 1)))
        with pytest.raises(DimensionError):
            run_step(prev, below_h, 1.0, above_h, params)

    def test_deterministic_mode_is_reproducible_and_noise_free(self):
        rng = np.random.default_rng(16)
        params = make_params(rng)
        prev, below_h, above_h = make_inputs(rng)
        a = hc.step(prev, below_h, Tensor([[1.0]]), above_h, params)
        b = hc.step(prev, below_h, Tensor([[1.0]]), above_h, params)
        assert np.array_equal(a.c.data, b.c.data)
        assert np.array_equal(a.z.data, b.z.data)
        _, _, _, _, z_pre = manual_gates(params, prev.h.data, 0.0, below_h.data, 1.0, above_h.data)
        expected_z = 1.0 if 1.0 / (1.0 + np.exp(-z_pre[0, 0])) >= 0.5 else 0.0
        assert a.z.data[0, 0] == expected_z


def select_cols(a, start, stop):
    """Columns start:stop of ``a`` as a matmul by a 0/1 selection matrix, which
    reproduces them exactly and sends their adjoint back to those columns."""
    pick = np.zeros((a.shape[-1], stop - start))
    pick[np.arange(start, stop), np.arange(stop - start)] = 1.0
    return a @ Tensor(pick)


def reference_step(prev, below_h, below_z, above_h_prev, params, *, noise=None,
                   tau=st.BOUNDARY_TAU, soft_boundaries=False, hidden_tanh=True,
                   force_z=None):
    """The cell step composed of ``autodiff`` primitives, one tape node per op.

    This is the form the fused ops replace; it stays here as their oracle
    (checks left out).
    """
    hidden = params.hidden
    s = (prev.h @ params.u_rec) + ((below_z * below_h) @ params.w_bot) + params.bias
    if params.u_top is not None:
        s = s + (prev.z * above_h_prev) @ params.u_top

    i = ad.sigmoid(select_cols(s, 0, hidden))
    f = ad.sigmoid(select_cols(s, hidden, 2 * hidden))
    o = ad.sigmoid(select_cols(s, 2 * hidden, 3 * hidden))
    g = ad.tanh(select_cols(s, 3 * hidden, 4 * hidden))
    z_pre = select_cols(s, 4 * hidden, 4 * hidden + 1)

    if force_z is not None:
        z = Tensor(np.full((s.shape[0], 1), float(force_z)))
    elif noise is None:
        z = st.hard_threshold(ad.sigmoid(z_pre))
    else:
        soft_z = st.gumbel_sigmoid(z_pre, Tensor(noise[0]), Tensor(noise[1]), tau)
        z = soft_z if soft_boundaries else st.hard_threshold(soft_z)

    zp = prev.z
    zb = below_z
    not_zp = 1.0 - zp
    flush_c = i * g
    update_c = f * prev.c + flush_c
    copy_mask = not_zp * (1.0 - zb)
    c = zp * flush_c + (not_zp * zb) * update_c + copy_mask * prev.c
    active_h = o * ad.tanh(c) if hidden_tanh else o * c
    h = (1.0 - copy_mask) * active_h + copy_mask * prev.h
    return hc.LayerState(c=c, h=h, z=z * zb, z_logit=z_pre)


# rows: UPDATE, COPY, FLUSH, FLUSH, UPDATE, COPY
Z_PREV = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
Z_BELOW = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
BOUNDARY_MODES = {
    "noisy": {},
    "deterministic": {"noise": None},
    "forced": {"force_z": 1.0},
    "soft": {"soft_boundaries": True},
}


# rows: UPDATE, COPY, FLUSH, FLUSH, then four COPY: fewer than half of the rows
# are live, so a layer of LIVE_ROWS_MIN_HIDDEN units takes the row-sparse backward
WIDE_Z_PREV = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
WIDE_Z_BELOW = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.fixture
def deferred_rows(monkeypatch):
    """Rows of each pair handed to ``autodiff._defer``, listed by id of the weight."""
    seen = {}
    defer = ad._defer

    def spy(w, x, g):
        seen.setdefault(id(w), []).append(len(x))
        defer(w, x, g)

    monkeypatch.setattr(ad, "_defer", spy)
    return seen


def fused_case(top: bool, relaxed: bool, hidden=HIDDEN, z_prev=Z_PREV, z_below=Z_BELOW):
    rng = np.random.default_rng(31)
    batch = len(z_prev)
    params = hc.init_layer_params(hidden, below_dim=BELOW,
                                  above_dim=None if top else hidden, rng=rng)
    def leaf(values):
        return Tensor(values, requires_grad=True)

    z_prev = np.array(z_prev)[:, None]
    z_below = np.array(z_below)[:, None]
    if relaxed:  # the soft form also runs on relaxed incoming bits
        z_prev = np.clip(z_prev + rng.uniform(-0.3, 0.3, size=z_prev.shape), 0.0, 1.0)
        z_below = np.clip(z_below + rng.uniform(-0.3, 0.3, size=z_below.shape), 0.0, 1.0)
    inputs = {
        "prev.c": leaf(rng.normal(size=(batch, hidden))),
        "prev.h": leaf(rng.normal(size=(batch, hidden))),
        "prev.z": leaf(z_prev),
        "below_h": leaf(rng.normal(size=(batch, BELOW))),
        "below_z": leaf(z_below),
        "above_h": None if top else leaf(rng.normal(size=(batch, hidden))),
    }
    # centre the detector between rows 0 and 2 (both UPDATE or FLUSH
    # with a boundary below), so that both bit values occur in the batch
    params.bias.data[0, 4 * hidden] = 0.0
    s = (inputs["prev.h"].data @ params.u_rec.data
         + (inputs["below_z"].data * inputs["below_h"].data) @ params.w_bot.data)
    if not top:
        s += (inputs["prev.z"].data * inputs["above_h"].data) @ params.u_top.data
    params.bias.data[0, 4 * hidden] = -0.5 * (s[0, 4 * hidden] + s[2, 4 * hidden])
    noise = st.sample_gumbel((2, batch, 1), rng).data
    noise[1, [0, 2]] = noise[0, [0, 2]]  # noise cancels on those two rows
    weights = [rng.normal(size=(batch, hidden)), rng.normal(size=(batch, hidden)),
               rng.normal(size=(batch, 1)), rng.normal(size=(batch, 1))]
    return params, inputs, noise, weights


def run_fused(step_fn, params, inputs, weights, **kw):
    leaves = dict(zip(("u_rec", "u_top", "w_bot", "bias"),
                      [params.u_rec, params.u_top, params.w_bot, params.bias]))
    leaves.update(inputs)
    leaves = {name: t for name, t in leaves.items() if t is not None}
    ad.zero_grad(leaves.values())
    prev = hc.LayerState(c=inputs["prev.c"], h=inputs["prev.h"], z=inputs["prev.z"])
    state = step_fn(prev, inputs["below_h"], inputs["below_z"], inputs["above_h"], params,
                    **kw)
    outs = [state.c, state.h, state.z, state.z_logit]
    loss = None
    for out, w in zip(outs, weights):
        term = ad.sum_(out * Tensor(w))
        loss = term if loss is None else loss + term
    ad.backward(loss)
    grads = {name: np.zeros(t.shape) if t.grad is None else t.grad.copy()
             for name, t in leaves.items()}
    return [o.data.copy() for o in outs], grads


def compare_with_reference(params, inputs, noise, weights, mode, values_rel=0.0, **kw):
    """The fused step's outputs (c, h, z, z_logit) and the reference step's
    gradients, once the two steps agree: gradients within 1e-12 relative,
    outputs within ``values_rel`` relative (0: bitwise)."""
    kw = dict({"noise": noise}, **BOUNDARY_MODES[mode], **kw)
    fused_out, fused_grads = run_fused(hc.step, params, inputs, weights, **kw)
    ref_out, ref_grads = run_fused(reference_step, params, inputs, weights, **kw)
    for got, want in zip(fused_out, ref_out):
        assert np.max(np.abs(got - want)) <= values_rel * np.max(np.abs(want))
    assert fused_grads.keys() == ref_grads.keys()
    for name, want in ref_grads.items():
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert float(np.max(np.abs(fused_grads[name] - want))) <= 1e-12 * scale, name
    return fused_out, ref_grads


class TestFusedMatchesReference:
    """The fused step against the op-by-op reference, on a B=6 mixed batch.

    Finite differences cannot see the straight-through gradient of hard
    bits, so this comparison is the only check of those gradients.
    """

    @pytest.mark.parametrize("top", [False, True], ids=["middle", "top"])
    @pytest.mark.parametrize("hidden_tanh", [True, False], ids=["tanh", "literal"])
    @pytest.mark.parametrize("mode", sorted(BOUNDARY_MODES))
    def test_values_bitwise_and_gradients_within_1e12(self, mode, hidden_tanh, top):
        params, inputs, noise, weights = fused_case(top, relaxed=(mode == "soft"))
        fused_out, ref_grads = compare_with_reference(params, inputs, noise, weights, mode,
                                             hidden_tanh=hidden_tanh)
        if mode in ("noisy", "deterministic"):
            # the batch must hold both bit values, or half the boundary path is unseen
            assert set(np.unique(fused_out[2] > 0)) == {False, True}
        # gradient must reach the incoming bits, or this comparison would
        # check nothing there
        assert np.any(ref_grads["below_z"]) and np.any(ref_grads["prev.z"])


class TestRowSparseTapedStep:
    """A taped step of a layer of ``LIVE_ROWS_MIN_HIDDEN`` units where most rows
    COPY: its backward runs its GEMMs on the rows that UPDATE or FLUSH, and a
    COPY row reaches only the boundary column of U_rec's gradient."""

    WIDE = hc.LIVE_ROWS_MIN_HIDDEN

    def _case(self, top, relaxed, z_prev=WIDE_Z_PREV, z_below=WIDE_Z_BELOW):
        return fused_case(top, relaxed, self.WIDE, z_prev, z_below)

    @staticmethod
    def _compare(params, inputs, noise, weights, mode):
        """As :func:`compare_with_reference`, with outputs to rounding: the
        bottom-up and top-down products skip the rows whose masked input is
        zero, and a product over gathered rows can round differently.  A hard
        bit that differed would differ by 1."""
        return compare_with_reference(params, inputs, noise, weights, mode, values_rel=1e-15)

    @pytest.mark.parametrize("top", [False, True], ids=["middle", "top"])
    @pytest.mark.parametrize("mode", sorted(BOUNDARY_MODES))
    def test_copy_majority_takes_the_row_sparse_backward(self, mode, top, deferred_rows):
        params, inputs, noise, weights = self._case(top, relaxed=(mode == "soft"))
        copy = (np.array(WIDE_Z_PREV) == 0) & (np.array(WIDE_Z_BELOW) == 0)
        if mode == "soft":  # relaxed bits, with the COPY rows' both exactly 0
            for name in ("prev.z", "below_z"):
                inputs[name].data[copy] = 0.0
        fused_out, ref_grads = self._compare(params, inputs, noise, weights, mode)
        live = len(WIDE_Z_PREV) - int(copy.sum())
        assert deferred_rows[id(params.u_rec)] == [live]  # the fused step's pair only
        if mode in ("noisy", "deterministic"):
            assert set(np.unique(fused_out[2] > 0)) == {False, True}
        # the straight-through gradient of the bits reaches the COPY rows too
        assert np.all(ref_grads["below_z"][copy] != 0)
        assert top or np.all(ref_grads["prev.z"][copy] != 0)
        # a COPY row's adjoint of s reaches U_rec's boundary column only
        assert np.any(ref_grads["u_rec"][:, -1])

    @pytest.mark.parametrize("mode", sorted(BOUNDARY_MODES))
    def test_all_copy_batch(self, mode, deferred_rows):
        zeros = [0.0] * len(WIDE_Z_PREV)
        params, inputs, noise, weights = self._case(False, relaxed=False, z_prev=zeros,
                                                    z_below=zeros)
        fused_out, ref_grads = self._compare(params, inputs, noise, weights, mode)
        assert deferred_rows[id(params.u_rec)] == [0]
        npt.assert_array_equal(fused_out[0], inputs["prev.c"].data)
        assert not np.any(ref_grads["u_rec"][:, :-1]) and np.any(ref_grads["u_rec"][:, -1])

    @pytest.mark.parametrize("mode", ["soft", "forced"])
    def test_without_a_copy_row_the_dense_form_runs(self, mode, deferred_rows):
        params, inputs, noise, weights = self._case(False, relaxed=(mode == "soft"))
        copy = (np.array(WIDE_Z_PREV) == 0) & (np.array(WIDE_Z_BELOW) == 0)
        # relaxed bits just off zero, or hard bits with a boundary below: no row
        # has both bits exactly 0
        inputs["below_z"].data[copy] = 0.25 if mode == "soft" else 1.0
        assert np.all(inputs["prev.z"].data + inputs["below_z"].data > 0)
        self._compare(params, inputs, noise, weights, mode)
        assert deferred_rows[id(params.u_rec)] == [len(WIDE_Z_PREV)]


class TestFusionGuard:
    def test_hard_training_step_records_exactly_three_tape_ops(self):
        rng = np.random.default_rng(32)
        params = make_params(rng)
        prev = hc.LayerState(c=Tensor(rng.normal(size=(2, HIDDEN)), requires_grad=True),
                             h=Tensor(rng.normal(size=(2, HIDDEN)), requires_grad=True),
                             z=Tensor([[0.0], [1.0]], requires_grad=True))
        below_h = Tensor(rng.normal(size=(2, BELOW)), requires_grad=True)
        below_z = Tensor([[1.0], [1.0]], requires_grad=True)
        above_h = Tensor(rng.normal(size=(2, HIDDEN)), requires_grad=True)
        state = hc.step(prev, below_h, below_z, above_h, params,
                        noise=st.sample_gumbel((2, 2, 1), rng).data)
        # the Tape that backward builds, walked from the op behind every output
        roots = [t if t._owner is None else t._owner
                 for t in (state.c, state.h, state.z, state.z_logit)]
        ops = {id(node) for root in roots for node in ad.Tape(root).nodes if node._parents}
        assert len(ops) == 3


def chain_case(rng, steps, batch, derived=False, hidden=HIDDEN):
    """Weights, inputs, Gumbel draws and loss weights of a two-layer chain.

    Layer 1 reads the input and has a layer above; layer 2 is the top.
    ``build()`` gives the LayerParams the cell sees: the leaves themselves,
    or with ``derived`` every weight matrix as an op output (leaf * 1.0).
    """
    leaves = [hc.init_layer_params(hidden, below_dim=BELOW, above_dim=hidden, rng=rng),
              hc.init_layer_params(hidden, below_dim=hidden, above_dim=None, rng=rng)]

    def build():
        if not derived:
            return leaves
        return [hc.LayerParams(u_rec=p.u_rec * 1.0, w_bot=p.w_bot * 1.0, bias=p.bias,
                               u_top=None if p.u_top is None else p.u_top * 1.0)
                for p in leaves]

    inputs = [Tensor(rng.normal(size=(batch, BELOW)), requires_grad=True) for _ in range(steps)]
    noise = st.sample_gumbel((steps, 2, 2, batch, 1), rng).data  # [t, layer] is a (2, B, 1) pair
    # the outputs that the loss weighs: s1.h, s1.c, s1.z_logit, s2.h, s2.c, s2.z, s2.z_logit
    widths = [hidden, hidden, 1, hidden, hidden, 1, 1]
    weights = [[rng.normal(size=(batch, w)) for w in widths] for _ in range(steps)]
    return leaves, build, inputs, noise, weights


def run_chain(step_fn, params, inputs, noise, weights):
    """Loss of a two-layer chain over len(inputs) steps, as a tape root.

    Layer 1's lower bit is identically 1 and its bit masks its top-down
    input a step later; layer 2's lower bit is layer 1's, so its rows
    UPDATE, COPY and FLUSH, and its bottom-up input is zero where layer 1
    marked no boundary.  Returns the loss and layer 2's (z_prev, z_below)
    per step.
    """
    batch, hidden = inputs[0].shape[0], params[0].hidden
    s1, s2 = hc.initial_state(hidden, batch), hc.initial_state(hidden, batch)
    ones = Tensor(np.ones((batch, 1)))
    loss, branches = None, []
    for t, x in enumerate(inputs):
        n1 = step_fn(s1, x, ones, s2.h, params[0], noise=noise[t, 0])
        n2 = step_fn(s2, n1.h, n1.z, None, params[1], noise=noise[t, 1])
        branches.append((s2.z.data[:, 0].copy(), n1.z.data[:, 0].copy()))
        s1, s2 = n1, n2
        for out, w in zip((s1.h, s1.c, s1.z_logit, s2.h, s2.c, s2.z, s2.z_logit), weights[t]):
            term = ad.sum_(out * Tensor(w))
            loss = term if loss is None else loss + term
    return loss, branches


def chain_grads(step_fn, params, tensors, inputs, noise, weights):
    """Loss, grads of ``tensors`` (zeroed first) and layer-2 bits of one chain."""
    ad.zero_grad(tensors)
    loss, branches = run_chain(step_fn, params, inputs, noise, weights)
    ad.backward(loss)
    return loss.data.copy(), [t.grad.copy() for t in tensors], branches


def weight_tensors(leaves):
    return [t for p in leaves for t in p.tensors()]


class TestSequenceWeightGradients:
    """The weight gradients summed once per sequence (``autodiff._defer``)
    against the op-by-op reference chain, which accumulates them per step."""

    BATCH = 6

    @pytest.mark.parametrize("derived", [False, True], ids=["leaf", "op-output"])
    def test_hard_noisy_chain_within_1e12_of_reference(self, derived):
        steps = ad.DEFER_BLOCK_ROWS // self.BATCH + 3  # more rows than one summation block
        assert steps * self.BATCH > ad.DEFER_BLOCK_ROWS
        leaves, build, inputs, noise, weights = chain_case(
            np.random.default_rng(41), steps, self.BATCH, derived)
        tensors = weight_tensors(leaves) + inputs
        loss, grads, branches = chain_grads(hc.step, build(), tensors, inputs, noise, weights)
        ref_loss, ref_grads, ref_branches = chain_grads(reference_step, build(), tensors, inputs,
                                                        noise, weights)
        assert np.array_equal(loss, ref_loss)
        z_prev = np.concatenate([b[0] for b in branches])
        z_below = np.concatenate([b[1] for b in branches])
        assert np.array_equal(z_below, np.concatenate([b[1] for b in ref_branches]))
        update = (z_prev == 0) & (z_below == 1)
        copy = (z_prev == 0) & (z_below == 0)
        flush = z_prev == 1
        assert update.any() and copy.any() and flush.any()
        for got, want in zip(grads, ref_grads):
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("derived", [False, True], ids=["leaf", "op-output"])
    def test_wide_chain_of_copy_majority_steps_within_1e12_of_reference(self, derived,
                                                                          deferred_rows):
        # layer 1 UPDATEs or FLUSHes every row; layer 2, whose lower bit is layer
        # 1's, COPYs on most, so its steps take the row-sparse backward
        batch, steps = 8, 40
        leaves, build, inputs, noise, weights = chain_case(
            np.random.default_rng(42), steps, batch, derived, hc.LIVE_ROWS_MIN_HIDDEN)
        tensors = weight_tensors(leaves) + inputs
        params = build()
        loss, grads, branches = chain_grads(hc.step, params, tensors, inputs, noise, weights)
        rows = [deferred_rows.pop(id(p.u_rec))[::-1] for p in params]  # replayed last step first
        ref_loss, ref_grads, ref_branches = chain_grads(reference_step, build(), tensors, inputs,
                                                        noise, weights)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert all(np.array_equal(a, b) for got, want in zip(branches, ref_branches)
                   for a, b in zip(got, want))
        z_prev, z_below = (np.stack([b[k] for b in branches]) for k in (0, 1))
        live = ((z_prev + z_below) > 0).sum(axis=1)
        assert rows[0] == [batch] * steps
        assert rows[1] == [n if 2 * n < batch else batch for n in live]
        assert sum(2 * n < batch for n in live) > steps // 2
        assert (z_prev == 1).any() and ((z_prev == 0) & (z_below == 1)).any()
        for got, want in zip(grads, ref_grads):
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


class TestDeferredProductsEndWithTheirBackward:
    def test_backward_that_raises_leaves_no_pair_for_the_next(self):
        leaves, _, inputs, noise, weights = chain_case(np.random.default_rng(43), 4, 3)
        tensors = weight_tensors(leaves)
        _, clean, _ = chain_grads(hc.step, leaves, tensors, inputs, noise, weights)
        pending = []

        def raising_fn(g):  # runs after the last step's ops, before the weights' nodes
            pending.append(any(t._deferred is not None for t in tensors))
            raise RuntimeError("backward failed partway")

        last = inputs[-1]
        faulty = inputs[:-1] + [Tensor._from_op(last.data, (last,), raising_fn)]
        with pytest.raises(RuntimeError, match="partway"):
            chain_grads(hc.step, leaves, tensors, faulty, noise, weights)
        assert pending == [True]  # the failure struck while pairs were waiting
        _, grads, _ = chain_grads(hc.step, leaves, tensors, inputs, noise, weights)
        for got, want in zip(grads, clean):
            assert np.array_equal(got, want)

    def test_two_graphs_backward_in_turn_give_each_its_own_grads(self):
        rng = np.random.default_rng(44)
        leaves, _, inputs_a, noise_a, weights_a = chain_case(rng, 4, 3)
        _, _, inputs_b, noise_b, weights_b = chain_case(rng, 4, 3)
        tensors = weight_tensors(leaves)
        _, alone_a, _ = chain_grads(hc.step, leaves, tensors, inputs_a, noise_a, weights_a)
        _, alone_b, _ = chain_grads(hc.step, leaves, tensors, inputs_b, noise_b, weights_b)
        ad.zero_grad(tensors)
        loss_a, _ = run_chain(hc.step, leaves, inputs_a, noise_a, weights_a)
        loss_b, _ = run_chain(hc.step, leaves, inputs_b, noise_b, weights_b)
        ad.Tape(loss_a).replay_adjoints()
        for got, want in zip((t.grad for t in tensors), alone_a):
            assert np.array_equal(got, want)
        ad.zero_grad(tensors)
        ad.backward(loss_b)
        for got, want in zip((t.grad for t in tensors), alone_b):
            assert np.array_equal(got, want)

    def test_read_view_cannot_take_a_deferred_gradient(self):
        owner = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ContractError, match="read"):
            ad._defer(ad.read(owner, 0), np.ones((1, 1)), np.ones((1, 3)))


class TestTapeFreeWideStep:
    """Without a tape, a layer of at least ``LIVE_ROWS_MIN_HIDDEN`` units computes
    only the rows that UPDATE or FLUSH, and a COPY row's boundary logit."""

    @pytest.mark.parametrize("copies", [8, 6, 3])
    def test_copy_rows_carry_over_bitwise_and_the_rest_agree(self, copies, monkeypatch):
        wide, batch = hc.LIVE_ROWS_MIN_HIDDEN, 8
        rng = np.random.default_rng(50)
        params = hc.init_layer_params(wide, below_dim=BELOW, above_dim=wide, rng=rng)
        z_prev, below_z = np.zeros((batch, 1)), np.zeros((batch, 1))
        z_prev[copies::2] = 1.0   # FLUSH
        below_z[copies:] = 1.0    # UPDATE where z_prev is 0
        prev = hc.LayerState(c=Tensor(rng.normal(size=(batch, wide))),
                             h=Tensor(rng.normal(size=(batch, wide))), z=Tensor(z_prev))
        args = (prev, Tensor(rng.normal(size=(batch, BELOW))), Tensor(below_z),
                Tensor(rng.normal(size=(batch, wide))), params)
        taped = hc.step(*args)
        inner, step = [], hc.step

        def spy(prev, below_h, below_z, above_h_prev, params, **kw):
            inner.append([prev.c, prev.h, prev.z, below_h, below_z, above_h_prev])
            return step(prev, below_h, below_z, above_h_prev, params, **kw)

        monkeypatch.setattr(hc, "step", spy)
        with ad.no_grad():
            free = step(*args)
        assert taped.c.requires_grad and not free.c.requires_grad
        # the UPDATE and FLUSH rows run an inner step where there are some and
        # they are fewer than half; all-COPY runs none, and five live rows of
        # eight run the ordinary step on every row
        live = batch - copies
        if 0 < live and 2 * live < batch:
            [got] = inner
            want = [prev.c, prev.h, prev.z, *args[1:4]]
            for t, full in zip(got, want):
                npt.assert_array_equal(t.data, full.data[copies:])
        else:
            assert inner == []
        npt.assert_array_equal(free.c.data[:copies], prev.c.data[:copies])
        npt.assert_array_equal(free.h.data[:copies], prev.h.data[:copies])
        npt.assert_array_equal(free.z.data, taped.z.data)
        for got, want in ((free.c, taped.c), (free.h, taped.h), (free.z_logit, taped.z_logit)):
            assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))
