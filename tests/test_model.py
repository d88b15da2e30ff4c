"""Full-network behavior: forward contracts, losses, prediction, checkpoints."""

import struct
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from hman import autodiff as ad
from hman import cell as hc
from hman import data as hd
from hman import model as hm
from hman import stochastic as stu
from hman import training as ht
from hman.autodiff import ContractError, Tensor
from hman.errors import ConfigError, FormatError

GRID, FEAT, CLASSES = 2, 3, 4
K2 = GRID * GRID


def tiny_config(**kw):
    base = dict(layers=2, hidden=5, grid_side=GRID, feat_dim=FEAT, classes=CLASSES,
                attention="soft")
    base.update(kw)
    return hm.ModelConfig(**base)


def tiny_model(seed=0, **kw):
    return hm.HMAN(tiny_config(**kw), np.random.default_rng(seed))


def clip(rng, steps=3, batch=1):
    x = rng.normal(size=(batch, steps, K2, FEAT))
    return x if batch > 1 else x


def np_softmax(z, axis=-1):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


class TestForward:
    def test_zero_parameters_give_uniform_predictions(self):
        model = tiny_model()
        for p in model.params.values():
            p.data[...] = 0.0
        out = model.forward_batch(np.random.default_rng(1).normal(size=(1, 1, K2, FEAT)),
                                  rng=np.random.default_rng(2), train=True)
        npt.assert_allclose(out.step_probs.data[0], 1.0 / CLASSES, atol=1e-15)

    def test_step_probabilities_are_distributions(self):
        rng = np.random.default_rng(3)
        model = tiny_model(1)
        out = model.forward_batch(rng.normal(size=(3, 5, K2, FEAT)), rng=rng, train=True)
        for probs in out.step_probs.data:
            assert np.all(probs >= 0)
            npt.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_boundary_raster_is_binary_and_layer1_always_recomputes(self):
        rng = np.random.default_rng(4)
        model = tiny_model(2, layers=3)
        out = model.forward_batch(rng.normal(size=(2, 6, K2, FEAT)), rng=rng, train=True)
        assert set(np.unique(out.z_history)) <= {0.0, 1.0}
        npt.assert_array_equal(out.update_mask[:, 0], 1.0)

    def test_evaluation_is_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        model = tiny_model(3)
        x = rng.normal(size=(2, 4, K2, FEAT))
        a = model.forward_batch(x, train=False)
        b = model.forward_batch(x, train=False)
        for pa, pb in zip(a.step_probs.data, b.step_probs.data):
            assert np.array_equal(pa, pb)
        assert np.array_equal(a.z_history, b.z_history)

    def test_training_forward_reproducible_with_same_stream(self):
        model = tiny_model(4)
        x = np.random.default_rng(6).normal(size=(2, 4, K2, FEAT))
        a = model.forward_batch(x, rng=np.random.default_rng(9), train=True)
        b = model.forward_batch(x, rng=np.random.default_rng(9), train=True)
        for pa, pb in zip(a.step_probs.data, b.step_probs.data):
            assert np.array_equal(pa, pb)

    def test_shape_mismatch_is_config_error(self):
        model = tiny_model()
        with pytest.raises(ConfigError, match="input shape"):
            model.forward_batch(np.zeros((1, 2, K2 + 1, FEAT)), rng=np.random.default_rng(0))

    def test_stochastic_config_requires_rng(self):
        model = tiny_model()
        with pytest.raises(ContractError, match="rng"):
            model.forward_batch(np.zeros((1, 2, K2, FEAT)), train=True)

    def test_single_clip_forward_exposes_steps(self):
        # the per-step view that ``hman viz`` reads from a one-clip batch
        rng = np.random.default_rng(7)
        model = tiny_model(5, layers=2)
        out = model.forward_batch(rng.normal(size=(4, K2, FEAT))[None], train=False)
        assert len(out.step_probs.data) == len(out.attention) == 4
        for probs, res in zip(out.step_probs.data, out.attention):
            assert probs.shape == (1, CLASSES)
            assert res.weights.shape == (1, K2)
        assert out.z_history.shape == (4, 2, 1)
        assert set(np.unique(out.z_history)) <= {0.0, 1.0}


class TestAttentionModes:
    @pytest.mark.parametrize("mode", ["soft", "reinforce", "gumbel-constant", "gumbel-adaptive"])
    def test_forward_backward_works(self, mode):
        rng = np.random.default_rng(8)
        model = tiny_model(6, attention=mode)
        out = model.forward_batch(rng.normal(size=(2, 3, K2, FEAT)), rng=rng, train=True)
        loss = hm.batch_sequence_loss(out.step_probs, np.array([0, 2]))
        ad.backward(loss)
        assert np.isfinite(loss.item())
        if mode != "soft":
            for res in out.attention:
                w = res.weights.data
                assert np.all(np.sum(w == 1.0, axis=-1) == 1)

    def test_reinforce_collects_log_probs(self):
        rng = np.random.default_rng(9)
        model = tiny_model(7, attention="reinforce")
        out = model.forward_batch(rng.normal(size=(2, 3, K2, FEAT)), rng=rng, train=True)
        assert len(out.attention) == 3
        assert all(res.log_prob.shape == (2, 1) for res in out.attention)

    def test_adaptive_mode_logs_tau_per_step_in_unit_interval(self):
        rng = np.random.default_rng(10)
        model = tiny_model(8, attention="gumbel-adaptive")
        out = model.forward_batch(rng.normal(size=(2, 4, K2, FEAT)), rng=rng, train=True)
        assert len(out.attention) == 4
        values = np.concatenate([np.ravel(res.tau) for res in out.attention])
        assert np.all(values > 0) and np.all(values <= 1.0)
        # tau is recomputed from the moving hidden state, so steps differ
        assert len({round(float(v), 12) for v in values}) > 1

    def test_hard_modes_select_argmax_in_evaluation(self):
        rng = np.random.default_rng(11)
        for mode in ("reinforce", "gumbel-constant", "gumbel-adaptive"):
            model = tiny_model(9, attention=mode)
            x = rng.normal(size=(1, 3, K2, FEAT))
            a = model.forward_batch(x, train=False)
            b = model.forward_batch(x, train=False)
            for ra, rb in zip(a.attention, b.attention):
                npt.assert_array_equal(ra.weights.data, rb.weights.data)
                assert np.sum(ra.weights.data == 1.0) == 1


class TestLstmLikeConfiguration:
    def test_forced_boundaries_match_numpy_oracle(self):
        # independent full-numpy replay of the flat single-layer network
        rng = np.random.default_rng(12)
        model = tiny_model(10, layers=1, force_z=1.0)
        cfg = model.config
        x = rng.normal(size=(1, 5, K2, FEAT))
        out = model.forward_batch(x, train=False)

        w_loc = model.params["attn.w_loc"].data
        u = model.params["layer1.u_rec"].data
        w = model.params["layer1.w_bot"].data
        b = model.params["layer1.bias"].data
        head_w = model.params["head.w"].data
        head_b = model.params["head.b"].data
        hid = cfg.hidden

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h_prev = np.zeros((1, hid))
        for t in range(5):
            weights = np_softmax(h_prev @ w_loc.T)
            attended = weights @ x[0, t]
            s = h_prev @ u + attended @ w + b
            i, f = sig(s[:, :hid]), sig(s[:, hid:2 * hid])
            o, g = sig(s[:, 2 * hid:3 * hid]), np.tanh(s[:, 3 * hid:4 * hid])
            c = i * g  # forced boundaries: the memory restarts every step
            h_prev = o * np.tanh(c)
            probs = np_softmax(h_prev @ head_w + head_b)
            npt.assert_allclose(out.step_probs.data[t], probs, atol=1e-12)
            assert out.z_history[t, 0, 0] == 1.0

    def test_single_layer_requires_forced_boundaries(self):
        with pytest.raises(ConfigError, match="at least 2 layers"):
            tiny_config(layers=1).validate()
        tiny_config(layers=1, force_z=1.0).validate()


class TestSequenceLoss:
    def _loss(self, prob_rows, label):
        """Summed cross entropy of one clip: a batch of one row per step."""
        probs = Tensor(np.asarray(prob_rows, dtype=float)[:, None])
        return hm.batch_sequence_loss(probs, np.array([label])).item()

    def test_perfect_predictions_give_zero(self):
        assert self._loss([[1.0, 0.0, 0.0]] * 3, 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_predictions_give_t_log_c(self):
        assert self._loss([[0.25] * 4] * 5, 2) == pytest.approx(5 * np.log(4.0), rel=1e-12)

    def test_two_step_example(self):
        # direct arithmetic oracle: -2 ln 0.8
        loss = self._loss([[0.8, 0.2], [0.8, 0.2]], 0)
        assert loss == pytest.approx(-2 * np.log(0.8), rel=1e-12)
        assert loss == pytest.approx(0.44629, abs=5e-6)

    def test_invalid_label_rejected(self):
        with pytest.raises(ContractError):
            self._loss([[0.5, 0.5]], 2)
        with pytest.raises(ContractError):
            self._loss([[0.5, 0.5]], -1)

    def test_batch_loss_is_minus_mean_of_log_likelihood_rows(self):
        rng = np.random.default_rng(13)
        probs = Tensor(np.stack([np_softmax(rng.normal(size=(3, CLASSES))) for _ in range(4)]))
        labels = np.array([0, 3, 1])
        rows = hm.sequence_log_likelihood(probs, labels).data
        expected = [sum(np.log(p[b, labels[b]]) for p in probs.data) for b in range(3)]
        assert rows.shape == (3, 1)
        npt.assert_allclose(rows[:, 0], expected, rtol=1e-12)
        batch = hm.batch_sequence_loss(probs, labels).item()
        assert batch == pytest.approx(-rows.mean(), rel=1e-12)


def concat_cols(tensors):
    """``tensors`` side by side along the last axis, as a sum of matmuls by 0/1
    placement matrices, which reproduces every column and adjoint exactly."""
    total = sum(t.shape[-1] for t in tensors)
    out, start = None, 0
    for t in tensors:
        width = t.shape[-1]
        place = np.zeros((width, total))
        place[np.arange(width), start + np.arange(width)] = 1.0
        term = t @ Tensor(place)
        out = term if out is None else out + term
        start += width
    return out


def reference_boundary_loss(z_logits, targets):
    """``hm.boundary_loss`` composed of ``autodiff`` primitives: the oracle of its fused op."""
    count, positives = targets.size, float(targets.sum())
    weights = np.where(targets > 0, 0.5 * count / max(positives, 1.0),
                       0.5 * count / max(count - positives, 1.0))
    w, wy = Tensor(weights), Tensor(weights * targets)
    total = None
    for layer in z_logits:
        a = concat_cols(layer)
        term = ad.sum_(w * ad.softplus(a) - wy * a)
        total = term if total is None else total + term
    return total / targets.shape[0]


def assert_grads_within_1e12(got, want):
    assert got.keys() == want.keys()
    for name, w in want.items():
        scale = float(np.max(np.abs(w)))
        assert scale > 0 and float(np.max(np.abs(got[name] - w))) <= 1e-12 * scale, name


class TestSequenceOps:
    """The once-per-sequence ops against the per-step forms they replace."""

    STEPS, BATCH, LAYERS, WIDTH = 5, 4, 3, 4

    def _head_case(self):
        rng = np.random.default_rng(40)
        steps, batch, layers, width = self.STEPS, self.BATCH, self.LAYERS, self.WIDTH
        leaves = {f"h{t}.{l}": Tensor(rng.normal(size=(batch, width)), requires_grad=True)
                  for t in range(steps) for l in range(layers)}
        leaves["w"] = Tensor(rng.normal(size=(layers * width, CLASSES)), requires_grad=True)
        leaves["b"] = Tensor(rng.normal(size=(1, CLASSES)), requires_grad=True)
        leaves["b"].data[0, 3] = -40.0  # class 3 sits below the log floor
        labels = np.array([3, 0, 1, 3])
        v = rng.normal(size=(steps, batch, CLASSES))
        return leaves, labels, v

    def _run_head(self, per_step):
        leaves, labels, v = self._head_case()
        steps, layers = self.STEPS, self.LAYERS
        hs = [[leaves[f"h{t}.{l}"] for l in range(layers)] for t in range(steps)]
        w, b = leaves["w"], leaves["b"]
        if per_step:
            probs = [ad.softmax(concat_cols(h) @ w + b, axis=-1) for h in hs]
            ll = None
            for p in probs:
                term = ad.clipped_log(ad.take_rows(p, labels), 1e-12)
                ll = term if ll is None else ll + term
            spread = None
            for p, vt in zip(probs, v):
                term = ad.sum_(p * Tensor(vt))
                spread = term if spread is None else spread + term
            probs_data = np.stack([p.data for p in probs])
        else:
            stacked = np.stack([np.concatenate([h.data for h in row], axis=-1) for row in hs])
            probs = hm._sequence_head(stacked, [h for row in hs for h in row], w, b)
            ll = hm.sequence_log_likelihood(probs, labels)
            spread = ad.sum_(probs * Tensor(v))
            probs_data = probs.data
        ad.backward(ad.sum_(ll) + spread)
        return probs_data, ll.data, {name: t.grad for name, t in leaves.items()}

    def test_head_and_log_likelihood_match_per_step_form(self):
        got_probs, got_ll, got_grads = self._run_head(per_step=False)
        want_probs, want_ll, want_grads = self._run_head(per_step=True)
        assert np.array_equal(got_probs, want_probs)
        assert np.array_equal(got_ll, want_ll)
        assert np.any(want_probs[:, :, 3] < 1e-12)  # the floor is active somewhere
        assert_grads_within_1e12(got_grads, want_grads)

    def test_log_likelihood_rejects_labels_of_another_batch(self):
        probs = Tensor(np.full((2, 3, CLASSES), 1.0 / CLASSES))
        with pytest.raises(ad.DimensionError):
            hm.sequence_log_likelihood(probs, np.array([0]))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_boundary_loss_matches_its_composition(self, layers):
        rng = np.random.default_rng(41 + layers)
        steps, batch = 6, 3
        values = rng.normal(scale=3.0, size=(layers, steps, batch, 1))
        targets = (rng.random((batch, steps)) < 0.3).astype(float)
        targets[0, 1] = 1.0

        def run(loss_fn):
            leaves = [[Tensor(values[l, t], requires_grad=True) for t in range(steps)]
                      for l in range(layers)]
            loss = loss_fn(leaves, targets)
            ad.backward(loss)
            return loss.data, {f"{l}.{t}": leaves[l][t].grad
                               for l in range(layers) for t in range(steps)}

        got, got_grads = run(hm.boundary_loss)
        want, want_grads = run(reference_boundary_loss)
        assert got.size == want.size == 1 and got.item() == want.item()
        assert_grads_within_1e12(got_grads, want_grads)


class TestTapeSize:
    def test_acceptance_training_step_records_at_most_250_nodes(self):
        rng = np.random.default_rng(42)
        model = hm.HMAN(hm.ModelConfig(layers=3, hidden=10, grid_side=4, feat_dim=16, classes=8),
                        np.random.default_rng(0))
        x = rng.normal(size=(16, 22, 16, 16))
        out = model.forward_batch(x, rng=rng, train=True)
        loss = hm.batch_sequence_loss(out.step_probs, rng.integers(0, 8, size=16)) \
            + hm.boundary_loss(out.z_logits, hm.boundary_targets(x))
        assert len(ad.Tape(loss).nodes) <= 250


class TestBoundaryNoiseStream:
    """One draw per step for every layer's boundary noise, after attention, is the
    stream of one (2, B, 1) draw per layer, made as each layer steps."""

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval-sampled"])
    @pytest.mark.parametrize("mode", hm.ATTENTION_MODES)
    def test_matches_per_layer_draws_bitwise(self, mode, train, monkeypatch):
        model = tiny_model(23, layers=3, attention=mode, eval_z="sampled")
        for layer in (1, 2, 3):  # detectors near 0.5, so the noise decides bits
            model.params[f"layer{layer}.bias"].data[0, 4 * 5] = 0.5
        x = np.random.default_rng(24).normal(size=(4, 7, K2, FEAT))
        got = model.forward_batch(x, rng=np.random.default_rng(25), train=train)
        # reference: no per-step draw; each layer's hc.step gets its own pair,
        # drawn from the forward's rng just before the layer steps
        rng = np.random.default_rng(25)
        sample_gumbel, step = stu.sample_gumbel, hc.step
        monkeypatch.setattr(stu, "sample_gumbel", lambda shape, r: Tensor(np.zeros(shape))
                            if len(shape) == 4 else sample_gumbel(shape, r))

        def own_pair_step(*a, noise, **k):
            return step(*a, noise=sample_gumbel((2, 4, 1), rng).data, **k)

        monkeypatch.setattr(hc, "step", own_pair_step)
        want = model.forward_batch(x, rng=rng, train=train)
        assert 0.0 < want.z_history[:, 1:].mean() < 1.0
        assert np.array_equal(got.z_history, want.z_history)
        assert np.array_equal(got.step_probs.data, want.step_probs.data)


class TestRandomDraws:
    """Each forward draws exactly the uniforms its mode needs, and no more."""

    @pytest.mark.parametrize("run", ["train", "eval-deterministic", "eval-sampled"])
    @pytest.mark.parametrize("mode", hm.ATTENTION_MODES)
    def test_rng_advances_by_the_mode_budget(self, mode, run):
        layers, batch, steps = 3, 4, 5
        eval_z = "sampled" if run == "eval-sampled" else "deterministic"
        model = tiny_model(26, layers=layers, attention=mode, eval_z=eval_z)
        rng = np.random.default_rng(27)
        model.forward_batch(np.random.default_rng(28).normal(size=(batch, steps, K2, FEAT)),
                            rng=rng, train=run == "train")
        boundary = 2 * layers * batch
        attention = {"soft": 0, "reinforce": batch}.get(mode, batch * K2)
        per_step = {"train": attention + boundary, "eval-deterministic": 0,
                    "eval-sampled": boundary}[run]
        expected = np.random.default_rng(27)
        expected.random(steps * per_step)
        assert rng.bit_generator.state == expected.bit_generator.state


class TestBoundaryRule:
    """Nested boundaries trained toward label-free novelty targets."""

    def test_targets_mark_the_first_frame_of_each_new_segment(self):
        rng = np.random.default_rng(20)
        protos = rng.normal(size=(3, K2, FEAT))
        lengths = (4, 3, 2)
        x = np.concatenate([np.repeat(p[None], n, axis=0) for p, n in zip(protos, lengths)])
        x = x + rng.normal(scale=0.01, size=x.shape)
        targets = hm.boundary_targets(np.stack([x, x[::-1]]))
        npt.assert_array_equal(np.flatnonzero(targets[0]), [4, 7])
        npt.assert_array_equal(np.flatnonzero(targets[1]), [2, 5])
        npt.assert_array_equal(hm.boundary_targets(x[None, :1]), [[0.0]])

    def test_loss_is_class_balanced_logistic_loss(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(2, 3, 5))          # (layers, B, T)
        targets = np.zeros((3, 5))
        targets[[0, 1, 2], [1, 3, 4]] = 1.0
        z_logits = [[Tensor(logits[l][:, t:t + 1]) for t in range(5)] for l in range(2)]
        got = hm.boundary_loss(z_logits, targets).item()
        w = np.where(targets > 0, 0.5 * 15 / 3, 0.5 * 15 / 12)
        nll = np.log1p(np.exp(-logits)) * targets + np.log1p(np.exp(logits)) * (1 - targets)
        # 3 positives and 12 negatives: each class carries half of the 15 weight units
        assert got == pytest.approx(float((w * nll).sum()) / 3, rel=1e-12)

    def test_boundaries_and_update_rates_nest(self):
        rng = np.random.default_rng(22)
        model = tiny_model(19, layers=3)
        for layer in (1, 2, 3):  # eager detectors: without nesting upper bits would stray
            model.params[f"layer{layer}.bias"].data[0, 4 * 5] = 2.0
        out = model.forward_batch(rng.normal(size=(4, 8, K2, FEAT)), rng=rng, train=True)
        z, upd = out.z_history, out.update_mask
        assert z[:, 1:].any()
        assert np.all(z[:, 1:] <= z[:, :-1])
        assert np.all(upd[:, 1:] <= upd[:, :-1])

    def test_training_teaches_every_layer_to_fire_on_novel_frames(self, tmp_path):
        spec = hd.SyntheticSpec(classes=4, vocab=4, segments=3, seg_len_min=3, seg_len_max=5,
                                grid_side=GRID, feat_dim=5, train_per_class=8,
                                test_per_class=1, seed=7)
        hd.gen_synthetic(spec, tmp_path)
        manifest, samples = hd.load_dataset(tmp_path / "manifest.json")
        train = [samples[e.id] for e in manifest.split("train")]
        model = hm.HMAN(hm.ModelConfig(layers=2, hidden=6, grid_side=GRID, feat_dim=5,
                                       classes=4), np.random.default_rng(0))
        trainer = ht.Trainer(model, ht.TrainConfig(batch_size=8, window=20, lr=1e-2,
                                                   clip_norm=1.0, seed=0))
        for epoch in range(1, 26):
            trainer.train_epoch(train, epoch)
        at_target, elsewhere = [], []
        for sample in train:
            z = model.forward_batch(sample.features[None], train=False).z_history[:, :, 0]
            novel = hm.boundary_targets(sample.features[None])[0] > 0
            at_target.append(z[novel].mean(axis=0))
            elsewhere.append(z[~novel].mean(axis=0))
        # evaluation bits of both layers follow the input, not a constant
        assert np.all(np.mean(at_target, axis=0) > np.mean(elsewhere, axis=0) + 0.25)


class _FixedModel(hm.HMAN):
    """forward_batch stub: one scripted probability row per input row, at every step."""

    def __init__(self, script):
        super().__init__(tiny_config(), np.random.default_rng(0))
        self._script = list(script)
        self._rows = 0

    def forward_batch(self, x, rng=None, train=True, **kw):
        probs = np.asarray(self._script[self._rows:self._rows + len(x)])
        self._rows += len(x)
        steps = np.broadcast_to(probs, (x.shape[1], *probs.shape))  # (T, B, C)
        return hm.BatchOutput(step_probs=Tensor(steps), attention=[],
                              z_history=np.zeros(0), update_mask=np.zeros(0))


class TestPredictVideo:
    def test_single_block_single_step_is_argmax(self):
        rng = np.random.default_rng(14)
        model = tiny_model(11)
        block = rng.normal(size=(1, K2, FEAT))
        predicted, probs = model.predict_video([block])
        out = model.forward_batch(block[None], train=False)
        npt.assert_array_equal(probs, out.step_probs.data[0, 0])
        assert predicted == int(np.argmax(probs))

    def test_block_averaging_and_tie_break(self):
        model = _FixedModel([[0.9, 0.1, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0]])
        predicted, probs = model.predict_video([np.zeros((2, K2, FEAT))] * 2)
        npt.assert_allclose(probs, [0.5, 0.5, 0.0, 0.0])
        assert predicted == 0  # tie resolves to the lowest class index

    def test_equal_length_blocks_match_flat_mean_oracle(self):
        rng = np.random.default_rng(15)
        model = tiny_model(12)
        blocks = [rng.normal(size=(4, K2, FEAT)) for _ in range(3)]
        _, probs = model.predict_video(blocks)
        flat = []
        for block in blocks:
            out = model.forward_batch(block[None], train=False)
            flat.extend(p[0] for p in out.step_probs.data)
        npt.assert_allclose(probs, np.mean(flat, axis=0), atol=1e-14)

    def test_empty_blocks_rejected(self):
        with pytest.raises(ContractError):
            tiny_model().predict_video([])


class TestScoreClips:
    @pytest.mark.parametrize("mode", hm.ATTENTION_MODES)
    def test_padding_leaks_nothing_into_real_steps(self, mode, monkeypatch):
        rng = np.random.default_rng(30)
        model = tiny_model(31, layers=3, attention=mode)
        for layer in (1, 2, 3):  # zero input moves the state; detectors near 0.5
            bias = model.params[f"layer{layer}.bias"].data
            bias[:] = rng.normal(size=bias.shape)
            bias[0, 4 * 5] = 0.0
        lengths = [5, 1, 3, 7, 2, 4, 6, 3]  # 1...7 in one chunk, out of order
        blocks = [rng.normal(size=(t, K2, FEAT)) for t in lengths]
        with ad.no_grad():
            want = np.array([model.forward_batch(b[None], train=False).mean_probs()[0]
                             for b in blocks])
        sizes = []
        original = hm.HMAN.forward_batch

        def counting(self, x, *args, **kwargs):
            sizes.append(x.shape[:2])
            return original(self, x, *args, **kwargs)

        monkeypatch.setattr(hm.HMAN, "forward_batch", counting)
        got = hm.score_clips(model, [[b] for b in blocks], np.random.default_rng(0))
        assert sizes == [(len(blocks), max(lengths))]
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, K2 + 1, FEAT), (3, K2, FEAT + 1), (3, K2 * FEAT),
                                       (0, K2, FEAT)])
    def test_malformed_block_among_good_ones_names_it(self, shape):
        good = np.zeros((4, K2, FEAT))
        clips = [[good], [good, np.zeros(shape), good]]
        with pytest.raises(ConfigError, match=rf"clip 1 block 1 has shape \({shape[0]}, "):
            hm.score_clips(tiny_model(), clips, np.random.default_rng(0))


WIDE = hc.LIVE_ROWS_MIN_HIDDEN  # narrowest layer whose tape-free forward skips rows


def wide_model(attention="soft", z_bias=(0.0, 0.0, 0.0), **kw):
    """A 3-layer model at the cut-off width; boundary-detector biases ``z_bias``
    (0 fires about half the time, -50 never)."""
    model = hm.HMAN(tiny_config(layers=3, hidden=WIDE, attention=attention, **kw),
                    np.random.default_rng(40))
    for layer, bias in enumerate(z_bias, start=1):
        model.layer_params(layer).bias.data[0, -1] = bias
    return model


def branch_rows(out):
    """Rows per (step, layer) that UPDATE, COPY and FLUSH, from the recorded bits."""
    z = out.z_history  # (T, L, B)
    z_prev = np.concatenate([np.zeros_like(z[:1]), z[:-1]])
    below = np.concatenate([np.ones_like(z[:, :1]), z[:, :-1]], axis=1)
    return (((z_prev == 0) & (below == 1)).sum(-1), ((z_prev == 0) & (below == 0)).sum(-1),
            (z_prev == 1).sum(-1))


def assert_within_relative(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def taped_and_tape_free(model, x, rng_seed=0):
    """The evaluation forward with the tape on, and the same call under no_grad."""
    taped = model.forward_batch(x, rng=np.random.default_rng(rng_seed), train=False)
    with ad.no_grad():
        free = model.forward_batch(x, rng=np.random.default_rng(rng_seed), train=False)
    assert taped.step_probs.requires_grad and not free.step_probs.requires_grad
    return taped, free


def load_bench_oracle():
    """``hmanbench/oracle.py`` as a module, read from its source (nothing written there)."""
    path = Path(__file__).resolve().parent.parent / "hmanbench" / "oracle.py"
    module = types.ModuleType("hmanbench_oracle")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


class TestTapeFreeWideEvaluation:
    """Without a tape, a wide layer skips the products and gates of rows the forward
    does not read; the outputs agree with the taped forward's to rounding."""

    @pytest.mark.parametrize("case", [
        *[dict(attention=mode) for mode in hm.ATTENTION_MODES],
        dict(eval_z="sampled"),
        dict(force_z=0.0),   # layers 2 and 3 COPY on every step
        dict(force_z=1.0),   # every layer FLUSHes from step 2 on
        dict(batch=1),
        dict(z_bias=(-50.0, 0.0, 0.0)),  # layer 1 never fires: layers 2 and 3 always COPY
    ], ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items()))
    def test_matches_the_taped_forward(self, case):
        case = dict(case)
        batch = case.pop("batch", 8)
        model = wide_model(**case)
        x = np.random.default_rng(41).normal(size=(batch, 14, K2, FEAT))
        taped, free = taped_and_tape_free(model, x)
        npt.assert_array_equal(free.z_history, taped.z_history)
        npt.assert_array_equal(free.update_mask, taped.update_mask)
        assert_within_relative(free.step_probs.data, taped.step_probs.data, 1e-15)
        for got, want in zip(free.z_logits, taped.z_logits):
            assert_within_relative(np.concatenate([z.data for z in got], axis=-1),
                                   np.concatenate([z.data for z in want], axis=-1), 1e-15)

    def test_mixed_batch_has_every_branch_and_few_live_rows(self):
        # the coverage the default case of test_matches_the_taped_forward relies on
        x = np.random.default_rng(41).normal(size=(8, 14, K2, FEAT))
        update, copy, flush = branch_rows(taped_and_tape_free(wide_model(), x)[0])
        assert np.any((update > 0) & (copy > 0) & (flush > 0))
        assert np.any(2 * (update + flush) < 8) and np.any(copy == 8)

    def test_only_a_wide_forward_without_a_tape_skips_rows(self, monkeypatch):
        calls = []
        skipping = hc._skip_copy_rows

        def counting(live, prev, *args):
            calls.append((prev.h.shape, len(live)))
            return skipping(live, prev, *args)

        monkeypatch.setattr(hc, "_skip_copy_rows", counting)
        x = np.random.default_rng(42).normal(size=(4, 5, K2, FEAT))
        model = wide_model()
        taped = model.forward_batch(x, rng=np.random.default_rng(0), train=False)
        assert calls == []
        with ad.no_grad():
            model.forward_batch(x, rng=np.random.default_rng(0), train=False)
        # once per layer step where fewer than half of the rows UPDATE or
        # FLUSH: 4 of the 15 layer steps here, one of them all-COPY
        update, _, flush = branch_rows(taped)
        live = (update + flush).ravel()  # step-major, as the forward runs
        assert calls == [((4, WIDE), n) for n in live if 2 * n < 4]
        assert sorted(n for _, n in calls) == [0, 1, 1, 1]
        calls.clear()
        narrow = hm.HMAN(tiny_config(layers=3, hidden=WIDE - 1), np.random.default_rng(40))
        taped, free = taped_and_tape_free(narrow, x)
        assert calls == []
        npt.assert_array_equal(free.step_probs.data, taped.step_probs.data)
        for got, want in zip(free.z_logits, taped.z_logits):
            npt.assert_array_equal([z.data for z in got], [z.data for z in want])

    @pytest.mark.parametrize("mode", ["soft", "gumbel-adaptive"])
    def test_evaluate_and_predict_video_match_the_benchmark_oracle(self, mode):
        oracle_module = load_bench_oracle()
        model = wide_model(attention=mode)
        rng = np.random.default_rng(43)
        samples = [hd.VideoSample(id=str(k), label=k % CLASSES,
                                  features=rng.normal(size=(int(rng.integers(8, 26)), K2, FEAT)))
                   for k in range(10)]
        oracle = oracle_module.Oracle(model)
        report = ht.evaluate(model, samples, block_len=10)
        npt.assert_array_equal(report.confusion, oracle.confusion(samples, 10, CLASSES))
        for sample in samples[:4]:
            blocks = ht.split_blocks(sample.features, 10)
            predicted, probs = model.predict_video(blocks)
            want_class, want_probs = oracle.predict(sample.features, 10)
            assert predicted == want_class
            npt.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)


def ragged_model(attention="soft", force_z=None, hidden=10, **kw):
    """A 3-layer model whose boundary detectors fire about half the time."""
    model = hm.HMAN(tiny_config(layers=3, hidden=hidden, attention=attention, force_z=force_z,
                                **kw), np.random.default_rng(50))
    for layer in (1, 2, 3):
        model.layer_params(layer).bias.data[0, -1] = 0.0
    return model


class TestRaggedForward:
    """With ``lengths`` a step runs only the rows that have not ended; each row's
    own steps are those of a forward of that row alone."""

    LENGTHS = np.array([9, 9, 7, 4, 4, 2, 1])

    @pytest.mark.parametrize("hidden", [10, WIDE])
    @pytest.mark.parametrize("force_z", [None, 0.0])
    @pytest.mark.parametrize("mode", hm.ATTENTION_MODES)
    def test_each_row_matches_a_forward_of_its_own_block(self, mode, force_z, hidden):
        model = ragged_model(mode, force_z, hidden)
        lengths, steps = self.LENGTHS, self.LENGTHS[0]
        # the padding holds noise, not zeros: nothing past a row's length is read
        x = np.random.default_rng(51).normal(size=(len(lengths), steps, K2, FEAT))
        with ad.no_grad():
            out = model.forward_batch(x, train=False, lengths=lengths)
            for b, n in enumerate(lengths):
                own = model.forward_batch(x[b:b + 1, :n], train=False)
                npt.assert_allclose(out.step_probs.data[:n, b], own.step_probs.data[:, 0],
                                    rtol=0, atol=1e-12)
                npt.assert_array_equal(out.z_history[:n, :, b], own.z_history[:, :, 0])
                npt.assert_array_equal(out.update_mask[:n, :, b], own.update_mask[:, :, 0])
                assert not out.step_probs.data[n:, b].any()
                assert not out.z_history[n:, :, b].any()
                assert not out.update_mask[n:, :, b].any()
        if force_z is None:  # layers above the first mark boundaries too
            assert out.z_history[:, 1:].any()
        running = (lengths > np.arange(steps)[:, None]).sum(axis=1).tolist()
        assert [len(a.weights.data) for a in out.attention] == running
        assert [[len(z.data) for z in layer] for layer in out.z_logits] == [running] * 3

    def test_sampled_noise_is_drawn_for_running_rows_only(self):
        model = ragged_model(eval_z="sampled")
        x = np.random.default_rng(52).normal(size=(len(self.LENGTHS), 9, K2, FEAT))
        rng = np.random.default_rng(53)
        with ad.no_grad():
            model.forward_batch(x, rng=rng, train=False, lengths=self.LENGTHS)
        expected = np.random.default_rng(53)
        expected.random(int(self.LENGTHS.sum()) * 2 * 3)  # an (a, b) pair per layer row-step
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("lengths, match", [
        ([3, 4], "must not increase"),
        ([4, 0], r"in \[1, 4\]"),
        ([5, 3], r"in \[1, 4\]"),
        ([4], r"\(2,\) ints"),
        ([[4, 3]], r"\(2,\) ints"),
        ([4.0, 3.0], r"\(2,\) ints"),
    ])
    def test_bad_lengths_raise(self, lengths, match):
        with ad.no_grad(), pytest.raises(ContractError, match=match):
            tiny_model().forward_batch(np.zeros((2, 4, K2, FEAT)), train=False,
                                       lengths=np.array(lengths))

    def test_a_ragged_batch_cannot_record_a_tape(self):
        with pytest.raises(ContractError, match="no_grad"):
            tiny_model().forward_batch(np.zeros((2, 4, K2, FEAT)), train=False,
                                       lengths=np.array([4, 3]))

    @pytest.mark.parametrize("mode", hm.ATTENTION_MODES)
    def test_score_clips_chunks_longest_first_within_the_frame_bound(self, mode, monkeypatch):
        monkeypatch.setattr(hm, "EVAL_CHUNK_FRAMES", 12)
        model = ragged_model(mode)
        lengths = [3, 5, 2, 14, 5, 1, 4, 3, 6]
        rng = np.random.default_rng(54)
        blocks = [rng.normal(size=(n, K2, FEAT)) for n in lengths]
        with ad.no_grad():
            want = np.array([model.forward_batch(b[None], train=False).mean_probs()[0]
                             for b in blocks])
        first_frames = {blocks[k][0].tobytes(): k for k in range(len(blocks))}
        chunks = []
        original = hm.HMAN.forward_batch

        def recording(self, x, *args, **kwargs):
            chunks.append(([first_frames[row[0].tobytes()] for row in x], x.shape[1],
                           kwargs["lengths"].tolist()))
            return original(self, x, *args, **kwargs)

        monkeypatch.setattr(hm.HMAN, "forward_batch", recording)
        got = hm.score_clips(model, [[b] for b in blocks], np.random.default_rng(0))
        # longest first, ties in input order; 14 frames exceed the bound alone
        assert chunks == [([3], 14, [14]), ([8, 1], 6, [6, 5]), ([4, 6], 5, [5, 4]),
                          ([0, 7, 2, 5], 3, [3, 3, 2, 1])]
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(16)
        model = tiny_model(13, attention="gumbel-adaptive", layers=3)
        path = tmp_path / "model.hman"
        model.save(path, extra_scalars={"iteration": "17"})
        loaded, scalars = hm.load_checkpoint(path)
        assert scalars["iteration"] == "17"
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)
        x = rng.normal(size=(1, 3, K2, FEAT))
        a = model.forward_batch(x, train=False)
        b = loaded.forward_batch(x, train=False)
        for pa, pb in zip(a.step_probs.data, b.step_probs.data):
            assert np.array_equal(pa, pb)

    def test_reloaded_model_reads_the_loaded_tensors(self, tmp_path):
        # the per-layer parameter objects are built once; a load writes
        # each tensor's data in place, so they must still be the very
        # tensors in ``params``
        model = tiny_model(13, attention="gumbel-adaptive", layers=3)
        path = tmp_path / "model.hman"
        model.save(path)
        loaded = hm.load_checkpoint(path)[0]
        for layer in range(1, 4):
            lp = loaded.layer_params(layer)
            assert lp.u_rec is loaded.params[f"layer{layer}.u_rec"]
            assert lp.w_bot is loaded.params[f"layer{layer}.w_bot"]
            assert lp.bias is loaded.params[f"layer{layer}.bias"]
            if layer < 3:
                assert lp.u_top is loaded.params[f"layer{layer}.u_top"]
            else:
                assert lp.u_top is None
            assert np.array_equal(lp.u_rec.data, model.params[f"layer{layer}.u_rec"].data)

    def test_truncated_file_reports_position(self, tmp_path):
        path = tmp_path / "model.hman"
        tiny_model(14).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FormatError, match="short read at byte"):
            hm.load_checkpoint(path)

    def test_bad_magic_reports_byte_zero(self, tmp_path):
        path = tmp_path / "model.hman"
        tiny_model(15).save(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 0"):
            hm.load_checkpoint(path)

    def test_missing_parameter_reports_position(self, tmp_path):
        path = tmp_path / "model.hman"
        tiny_model(14).save(path)  # soft attention: no temperature weights
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<I", raw, 5)
        config = raw[9:9 + length].replace(b"attention=soft", b"attention=gumbel-adaptive")
        path.write_bytes(raw[:5] + struct.pack("<I", len(config)) + config + raw[9 + length:])
        with pytest.raises(FormatError, match=r"missing parameters \['attn.b_temp', "
                                              r"'attn.w_temp'\] .* byte \d+"):
            hm.load_checkpoint(path)

    def test_default_config_block_is_pinned(self, tmp_path):
        path = tmp_path / "model.hman"
        hm.HMAN(hm.ModelConfig(), np.random.default_rng(0)).save(
            path, extra_scalars={"iteration": "3"})
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<I", raw, 5)
        assert raw[9:9 + length].decode("utf-8") == (
            "format_version=1\nlayers=3\nhidden=128\ngrid_side=4\nfeat_dim=16\nclasses=8\n"
            "attention=soft\ncell_hidden_tanh=1\neval_z=deterministic\nattention_tau=0.3\n"
            "boundary_tau=0.3\nforce_z=\nx.iteration=3\n")

    def test_checkpoint_of_an_earlier_writer_loads_and_saves_to_its_bytes(self, tmp_path):
        # written before the config block was derived from the field declarations
        old = Path(__file__).parent / "data" / "flat_gumbel_adaptive.hman"
        model, scalars = hm.load_checkpoint(old)
        assert model.config == hm.ModelConfig(
            layers=1, hidden=3, grid_side=2, feat_dim=2, classes=3, attention="gumbel-adaptive",
            cell_hidden_tanh=False, eval_z="sampled", attention_tau=0.7, boundary_tau=0.45,
            force_z=0.0)
        assert scalars == {"iteration": "5"}
        model.save(tmp_path / "again.hman", extra_scalars=scalars)
        assert (tmp_path / "again.hman").read_bytes() == old.read_bytes()

    def test_numpy_scalar_config_values_round_trip(self, tmp_path):
        model = tiny_model(13, hidden=np.int64(5), attention_tau=np.float64(0.7))
        model.save(tmp_path / "model.hman")
        assert hm.load_checkpoint(tmp_path / "model.hman")[0].config == model.config

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.hman"
        tiny_model(16).save(path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            hm.load_checkpoint(path)


class TestConfigValidation:
    def test_unknown_attention_mode(self):
        with pytest.raises(ConfigError, match="attention"):
            tiny_config(attention="very-hard").validate()

    def test_bad_force_z(self):
        with pytest.raises(ConfigError, match="force_z"):
            tiny_config(force_z=0.5).validate()

    def test_per_layer_hidden_sizes_rejected(self):
        # hidden is one size for every layer; a tuple must not reach forward_batch
        with pytest.raises(ConfigError, match="hidden"):
            hm.HMAN(hm.ModelConfig(layers=2, hidden=(4, 6), grid_side=2, feat_dim=3, classes=3))

    def test_bad_eval_z(self):
        with pytest.raises(ConfigError, match="eval_z"):
            tiny_config(eval_z="noisy").validate()

    @pytest.mark.parametrize("name, value", [("layers", 2.5), ("grid_side", 2.5),
                                             ("feat_dim", 3.0), ("classes", 2.5),
                                             ("hidden", True), ("attention_tau", True),
                                             ("force_z", True), ("cell_hidden_tanh", 2)])
    def test_integer_field_takes_no_float_or_bool(self, name, value):
        # and a float field no bool, and a bool field no int
        kind = {"attention_tau": "a number", "force_z": "a number",
                "cell_hidden_tanh": "a bool"}.get(name, "an int")
        source = {"grid_side": "read from the dataset manifest",
                  "feat_dim": "read from the dataset manifest",
                  "classes": "read from the dataset manifest",
                  "cell_hidden_tanh": "--hidden-tanh"}.get(name, f"--{name.replace('_', '-')}")
        with pytest.raises(ConfigError, match=rf"{name} \({source}\) must be {kind}"):
            hm.HMAN(tiny_config(**{name: value}))

    def test_numpy_integers_are_ints(self):
        assert hm.HMAN(tiny_config(layers=np.int32(2), hidden=np.int64(5))).params

    def test_literal_hidden_rule_changes_outputs(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 3, K2, FEAT))
        a = tiny_model(18).forward_batch(x, train=False)
        b = tiny_model(18, cell_hidden_tanh=False).forward_batch(x, train=False)
        assert not np.allclose(a.step_probs.data[-1], b.step_probs.data[-1])
