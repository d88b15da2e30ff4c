"""Optimizer, schedule, clipping, epoch loop, evaluation metrics."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from hman import autodiff as ad
from hman import data as hd
from hman import model as hm
from hman import training as ht
from hman.autodiff import ContractError, Tensor
from hman.errors import ConfigError, TrainingAbort


def scalar_params(value=0.0):
    return {"w": Tensor(np.array([value]), requires_grad=True)}


class TestAdam:
    def test_first_step_with_unit_gradient(self):
        params = scalar_params(0.0)
        state = ht.AdamState.for_params(params)
        ht.adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        # bias-corrected first step: update = -lr * 1 / (1 + eps)
        assert params["w"].data[0] == pytest.approx(-0.01 / (1 + ht.ADAM_EPS), rel=1e-12)

    def test_zero_gradient_leaves_params_and_decays_moments(self):
        params = scalar_params(1.5)
        state = ht.AdamState.for_params(params)
        for _ in range(3):
            ht.adam_step(params, {"w": np.zeros(1)}, state, lr=0.1)
        assert params["w"].data[0] == 1.5
        state.m["w"][0] = 1.0
        state.v["w"][0] = 1.0
        ht.adam_step(params, {"w": np.zeros(1)}, state, lr=0.0)
        assert state.m["w"][0] == pytest.approx(ht.ADAM_BETA1)
        assert state.v["w"][0] == pytest.approx(ht.ADAM_BETA2)

    def test_converges_on_scalar_quadratic(self):
        # optimization oracle: 100 steps on (w-3)^2 from 0 at lr 0.1
        params = scalar_params(0.0)
        state = ht.AdamState.for_params(params)
        for _ in range(100):
            grad = 2.0 * (params["w"].data - 3.0)
            ht.adam_step(params, {"w": grad}, state, lr=0.1)
        assert abs(params["w"].data[0] - 3.0) < 0.05

    def test_nan_gradient_aborts_naming_parameter(self):
        params = scalar_params()
        state = ht.AdamState.for_params(params)
        with pytest.raises(TrainingAbort, match="'w'"):
            ht.adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1)


class TestSchedule:
    def test_drop_after_ten_thousand_iterations(self):
        cfg = ht.TrainConfig()
        assert ht.learning_rate(cfg, 9_999) == pytest.approx(1e-4)
        assert ht.learning_rate(cfg, 10_000) == pytest.approx(1e-4)
        assert ht.learning_rate(cfg, 10_001) == pytest.approx(1e-5)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("name, value", [("batch_size", 2.5), ("window", 2.5),
                                             ("epochs", 1.5), ("lr_drop_after", 1.5),
                                             ("seed", 0.5), ("batch_size", True),
                                             ("lr", True), ("clip_norm", False)])
    def test_integer_field_takes_no_float_or_bool(self, name, value):
        # and a float field no bool
        kind = "a number" if name in ("lr", "clip_norm") else "an int"
        with pytest.raises(ConfigError, match=rf"{name} \(--{name.replace('_', '-')}\) "
                                              f"must be {kind}"):
            ht.TrainConfig(**{name: value}).validate()

    def test_negative_seed_rejected_naming_the_flag(self):
        with pytest.raises(ConfigError, match=r"seed \(--seed\) must be non-negative, got -1"):
            ht.TrainConfig(seed=-1).validate()


class TestClipping:
    def test_large_gradient_scaled_to_clip_norm_preserving_direction(self):
        rng = np.random.default_rng(50)
        grads = {"a": rng.normal(size=(4, 4)) * 10, "b": rng.normal(size=(3,)) * 10}
        clipped, norm = ht.clip_global_norm(grads, 5.0)
        assert norm > 5.0
        new_norm = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
        assert new_norm == pytest.approx(5.0, rel=1e-12)
        for name in grads:
            npt.assert_allclose(clipped[name], grads[name] * (5.0 / norm), rtol=1e-12)

    def test_small_gradient_untouched(self):
        grads = {"a": np.array([0.1, -0.2])}
        clipped, norm = ht.clip_global_norm(grads, 5.0)
        assert clipped["a"] is grads["a"]
        assert norm == pytest.approx(np.sqrt(0.05))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    spec = hd.SyntheticSpec(classes=4, vocab=4, segments=2, seg_len_min=3, seg_len_max=5,
                            grid_side=2, feat_dim=6, noise=0.05,
                            train_per_class=6, test_per_class=3, seed=1)
    hd.gen_synthetic(spec, out)
    manifest, samples = hd.load_dataset(out / "manifest.json")
    train = [samples[e.id] for e in manifest.split("train")]
    test = [samples[e.id] for e in manifest.split("test")]
    return manifest, train, test


def expected_chunks(lengths, frames):
    """Block lengths sorted longest first, cut into the chunks of ``score_clips``: each
    takes blocks while rows times its first length stay within ``frames``, at least one."""
    lengths = sorted(lengths, reverse=True)
    chunks = []
    while lengths:
        rows = max(1, frames // lengths[0])
        chunks.append(lengths[:rows])
        lengths = lengths[rows:]
    return chunks


def small_trainer(train_cfg=None, seed=0, **model_kw):
    base = dict(layers=2, hidden=8, grid_side=2, feat_dim=6, classes=4, attention="soft")
    base.update(model_kw)
    model = hm.HMAN(hm.ModelConfig(**base), np.random.default_rng(seed))
    cfg = train_cfg or ht.TrainConfig(batch_size=8, window=10, lr=3e-3, epochs=2, seed=seed)
    return ht.Trainer(model, cfg)


class TestTrainEpoch:
    def test_metrics_shape_and_ranges(self, small_dataset):
        _, train, _ = small_dataset
        # window 3 <= every clip length, so all batches share one length bucket
        trainer = small_trainer(ht.TrainConfig(batch_size=8, window=3, lr=3e-3, epochs=2))
        m = trainer.train_epoch(train, epoch=1)
        assert m.epoch == 1
        assert m.iteration == int(np.ceil(len(train) / 8))
        assert m.loss > 0 and 0 <= m.accuracy <= 1
        assert len(m.update_rates) == 2
        assert m.update_rates[0] == pytest.approx(1.0)  # layer 1 always recomputes
        assert all(0 <= r <= 1 for r in m.update_rates)

    def test_reported_loss_is_the_backpropagated_cross_entropy(self, small_dataset,
                                                               monkeypatch):
        _, train, _ = small_dataset
        # one batch: window 3 <= every clip length and the batch holds the whole split
        trainer = small_trainer(ht.TrainConfig(batch_size=len(train), window=3, lr=3e-3,
                                               epochs=1))
        recorded = []
        original = hm.batch_sequence_loss

        def recording(*args, **kwargs):
            recorded.append(original(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(hm, "batch_sequence_loss", recording)
        m = trainer.train_epoch(train, epoch=1)
        assert m.iteration == 1 and len(recorded) == 1
        assert recorded[0].grad is not None  # it sat on the tape that was replayed
        # the epoch mean weights the batch value by its size: x * n / n, within an ulp
        assert m.loss == pytest.approx(recorded[0].item(), rel=1e-15, abs=0)

    def test_loss_decreases_on_learnable_data(self, small_dataset):
        _, train, _ = small_dataset
        trainer = small_trainer()
        first = trainer.train_epoch(train, epoch=1)
        for epoch in range(2, 5):
            last = trainer.train_epoch(train, epoch)
        assert last.loss < first.loss

    def test_epoch_one_beats_initial_loss_on_seed_majority(self):
        # training-run oracle: compare against the untrained model's loss;
        # a real epoch's worth of batches is needed for the loss to move
        spec = hd.SyntheticSpec(classes=4, vocab=4, segments=2, seg_len_min=3,
                                seg_len_max=5, grid_side=2, feat_dim=6, noise=0.05,
                                train_per_class=20, test_per_class=1, seed=2)
        import tempfile
        root = tempfile.mkdtemp()
        hd.gen_synthetic(spec, root)
        manifest, samples = hd.load_dataset(f"{root}/manifest.json")
        train = [samples[e.id] for e in manifest.split("train")]
        wins = 0
        for seed in range(5):
            cfg = ht.TrainConfig(batch_size=8, window=10, lr=3e-3, epochs=1, seed=seed)
            trainer = small_trainer(cfg, seed=seed)
            # untrained loss at the same full-clip lengths the epoch trains on
            losses = []
            for s in train:
                fwd = trainer.model.forward_batch(
                    s.features[None], rng=np.random.default_rng(seed), train=True)
                losses.append(-hm.sequence_log_likelihood(fwd.step_probs,
                                                          np.array([s.label])).item())
            initial = float(np.mean(losses))
            metrics = trainer.train_epoch(train, epoch=1)
            wins += int(metrics.loss < initial)
        assert wins >= 3

    def test_reinforce_mode_updates_baseline_once_per_batch(self, small_dataset, monkeypatch):
        _, train, _ = small_dataset
        trainer = small_trainer(ht.TrainConfig(batch_size=8, window=3, lr=3e-3, epochs=1),
                                attention="reinforce")
        batches = int(np.ceil(len(train) / trainer.config.batch_size))
        calls = []
        update = trainer.baseline.update
        monkeypatch.setattr(trainer.baseline, "update", lambda ll: calls.append(ll) or update(ll))
        trainer.train_epoch(train, epoch=1)
        assert len(calls) == batches
        assert trainer.baseline.value != 0.0

    def test_adaptive_mode_logs_temperatures(self, small_dataset):
        _, train, _ = small_dataset
        trainer = small_trainer(attention="gumbel-adaptive")
        m = trainer.train_epoch(train, epoch=1)
        assert m.tau_min is not None and 0 < m.tau_min <= m.tau_max <= 1.0

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            small_trainer().train_epoch([], epoch=1)

    def test_nan_gradient_aborts_before_clipping_naming_parameter_iteration_and_clips(
            self, small_dataset, monkeypatch):
        # clipping first would turn every gradient into NaN and name the first parameter
        _, train, _ = small_dataset
        trainer = small_trainer(ht.TrainConfig(batch_size=8, window=3, lr=3e-3, epochs=1))
        batches = []
        split = trainer._batches
        monkeypatch.setattr(trainer, "_batches", lambda t: batches.extend(split(t)) or batches)
        backward = ad.backward

        def poisoned(loss):
            backward(loss)
            if trainer.iteration == 2:
                trainer.model.params["layer2.bias"].grad[0, 3] = np.nan

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(TrainingAbort) as caught:
            trainer.train_epoch(train, epoch=1)
        clip_ids = [train[i].id for i in batches[1]]
        assert str(caught.value) == ("non-finite gradient in parameter 'layer2.bias' "
                                     f"at iteration 2, batch of clips {clip_ids}")

    def test_identical_seed_and_config_reproduce_metrics(self, small_dataset):
        _, train, _ = small_dataset
        rows = []
        for _ in range(2):
            trainer = small_trainer(seed=3)
            epoch_rows = [ht.metrics_row(trainer.train_epoch(train, e)) for e in (1, 2)]
            rows.append(epoch_rows)
        assert rows[0] == rows[1]

    def test_window_sampling_modes(self):
        cfg_window = ht.TrainConfig(frame_sampling="window")
        cfg_random = ht.TrainConfig(frame_sampling="random")
        rng = np.random.default_rng(0)
        w = ht.sample_window(30, 10, cfg_window, rng)
        assert len(w) == 10 and np.all(np.diff(w) == 1)
        r = ht.sample_window(30, 10, cfg_random, rng)
        assert len(r) == 10 and np.all(np.diff(r) >= 1)
        assert np.array_equal(ht.sample_window(5, 10, cfg_window, rng), np.arange(5))


class TestOneGraphPerStep:
    """A training step holds one graph, and its backward frees it."""

    @staticmethod
    def wide_trainer():
        rng = np.random.default_rng(4)
        clips = [hd.VideoSample(id=f"clip{i:02d}", label=i % 4,
                                features=rng.normal(size=(20, 4, 6))) for i in range(24)]
        config = hm.ModelConfig(layers=3, hidden=32, grid_side=2, feat_dim=6, classes=4,
                                attention="gumbel-adaptive")
        model = hm.HMAN(config, np.random.default_rng(0))
        return ht.Trainer(model, ht.TrainConfig(batch_size=8, window=20, seed=0)), clips

    @staticmethod
    def loss_of_one_batch(model, clips):
        x = np.stack([c.features for c in clips[:8]])
        out = model.forward_batch(x, rng=np.random.default_rng(1), train=True)
        return (hm.batch_sequence_loss(out.step_probs, np.array([c.label for c in clips[:8]]))
                + hm.boundary_loss(out.z_logits, hm.boundary_targets(x)))

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_epoch_peak_stays_near_one_forward_and_backward(self):
        # two coexisting graphs read about 2x; one graph at a time about 1.15x
        trainer, clips = self.wide_trainer()
        single = self.traced_peak(
            lambda: ad.backward(self.loss_of_one_batch(trainer.model, clips)))
        trainer.model.zero_grad()
        epoch = self.traced_peak(lambda: trainer.train_epoch(clips, epoch=1))
        assert trainer.iteration == 3
        assert epoch < 1.5 * single, (epoch, single)

    def test_backward_unlinks_every_replayed_node_and_still_runs_once(self):
        trainer, clips = self.wide_trainer()
        loss = self.loss_of_one_batch(trainer.model, clips)
        nodes = ad.Tape(loss).nodes
        ad.backward(loss)
        assert len(nodes) > 100
        assert all(n._backward_fn is None and n._parents == () for n in nodes)
        with pytest.raises(ContractError, match="already"):
            ad.backward(loss)


class TestRowSparseTrainingGuard:
    """Wide-layer training keeps its row-sparse backward: where most rows of a
    layer of at least ``cell.LIVE_ROWS_MIN_HIDDEN`` units COPY, the backward
    hands ``autodiff._defer`` the recurrent pairs of the live rows only."""

    @staticmethod
    def u_rec_pair_rows(monkeypatch, hidden, batch):
        """One training step at ``hidden`` units; per layer, the rows of each
        (h_prev, g) pair that its backward deferred for U_rec."""
        config = hm.ModelConfig(layers=3, hidden=hidden, grid_side=4, feat_dim=16, classes=8,
                                attention="gumbel-adaptive")
        model = hm.HMAN(config, np.random.default_rng(0))
        trainer = ht.Trainer(model, ht.TrainConfig(batch_size=batch, window=20, seed=0))
        seen = {}
        defer = ad._defer

        def spy(w, x, g):
            seen.setdefault(id(w), []).append(len(x))
            defer(w, x, g)

        monkeypatch.setattr(ad, "_defer", spy)
        x = np.random.default_rng(1).normal(size=(batch, 20, 16, 16))
        trainer._step(x, np.arange(batch) % 8, 1e-3, [])
        return [seen[id(model.layer_params(layer).u_rec)] for layer in (1, 2, 3)]

    def test_wide_step_takes_it_on_the_mostly_copying_layers(self, monkeypatch):
        # at initialisation the detectors fire on about a quarter of the rows
        # where the layer below fired, so layers 2 and 3 COPY on most rows
        batch = 32
        layer1, *upper = self.u_rec_pair_rows(monkeypatch, 128, batch)
        assert layer1 == [batch] * 20  # below_z = 1: every row UPDATEs or FLUSHes
        for rows in upper:
            assert len(rows) == 20 and sum(r < batch for r in rows) >= 15, rows

    def test_narrow_step_never_takes_it(self, monkeypatch):
        batch = 32
        for rows in self.u_rec_pair_rows(monkeypatch, 10, batch):
            assert rows == [batch] * 20


class TestEvaluate:
    @pytest.mark.parametrize("block_len", [0, -3])
    def test_block_length_below_one_rejected(self, small_dataset, block_len):
        _, _, test = small_dataset
        with pytest.raises(ConfigError, match="block_len"):
            ht.evaluate(small_trainer().model, test, block_len=block_len)

    def test_confusion_matrix_accounts_for_every_clip(self, small_dataset):
        _, _, test = small_dataset
        trainer = small_trainer()
        report = ht.evaluate(trainer.model, test, block_len=10)
        assert report.confusion.sum() == len(test)
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / len(test))

    @pytest.mark.parametrize("attention", hm.ATTENTION_MODES)
    def test_batched_scoring_matches_one_forward_per_block(self, small_dataset, attention,
                                                           monkeypatch):
        _, train, test = small_dataset
        samples = train + test  # clips of 6-10 frames
        block_len = 3           # ragged last blocks of 1 and 2 frames
        trainer = small_trainer(attention=attention)
        trainer.train_epoch(train, epoch=1)
        model = trainer.model
        clips = [ht.split_blocks(s.features, block_len) for s in samples]
        # oracle: one B=1 forward per block, block-averaged per clip
        with ad.no_grad():
            want = np.array([np.mean([model.forward_batch(b[None], train=False).mean_probs()[0]
                                      for b in blocks], axis=0) for blocks in clips])
        labels = np.array([s.label for s in samples])
        expected = np.zeros((4, 4), dtype=np.int64)
        np.add.at(expected, (labels, np.argmax(want, axis=1)), 1)
        lengths = [b.shape[0] for blocks in clips for b in blocks]
        assert len(set(lengths)) == 3

        original = hm.HMAN.forward_batch
        # the default bound holds every block; a bound of 100 frames cuts them into four
        for frames, sizes in ((hm.EVAL_CHUNK_FRAMES, [112]), (100, [33, 33, 33, 13])):
            seen = []

            def recording(self, x, *args, **kwargs):
                seen.append(kwargs["lengths"].tolist())
                return original(self, x, *args, **kwargs)

            monkeypatch.setattr(hm, "EVAL_CHUNK_FRAMES", frames)
            monkeypatch.setattr(hm.HMAN, "forward_batch", recording)
            report = ht.evaluate(model, samples, block_len=block_len)
            got = hm.score_clips(model, clips, np.random.default_rng(0))
            monkeypatch.undo()
            chunks = expected_chunks(lengths, frames)
            assert seen == chunks * 2 and [len(c) for c in chunks] == sizes
            npt.assert_array_equal(report.confusion, expected)
            npt.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sampled_evaluation_repeats_and_draws_one_stream_per_chunk(self, small_dataset,
                                                                       monkeypatch):
        _, train, test = small_dataset
        samples = train + test
        block_len, layers = 3, 2
        model = small_trainer(eval_z="sampled", layers=layers).model
        seen = []  # (rng, (B, T_max), lengths) of every forward
        original = hm.HMAN.forward_batch

        def recording(self, x, rng=None, *args, **kwargs):
            seen.append((rng, x.shape[:2], kwargs["lengths"].tolist()))
            return original(self, x, rng, *args, **kwargs)

        monkeypatch.setattr(hm, "EVAL_CHUNK_FRAMES", 100)
        monkeypatch.setattr(hm.HMAN, "forward_batch", recording)
        first = ht.evaluate(model, samples, block_len=block_len, with_ap=True)
        streams = {id(rng) for rng, _, _ in seen}
        rng = seen[0][0]
        chunks = [lengths for _, _, lengths in seen]
        shapes = [shape for _, shape, _ in seen]
        second = ht.evaluate(model, samples, block_len=block_len, with_ap=True)
        monkeypatch.undo()
        npt.assert_array_equal(first.confusion, second.confusion)
        assert first.average_precision == second.average_precision

        # chunks follow the blocks sorted longest first, each padded to its first block
        lengths = [len(b) for s in samples for b in ht.split_blocks(s.features, block_len)]
        assert chunks == expected_chunks(lengths, 100) and len(chunks) > 1
        assert shapes == [(len(c), c[0]) for c in chunks]
        assert len(streams) == 1
        # step t of a chunk draws an (a, b) pair per layer for each of its n_t running rows
        expected = np.random.default_rng(hm.EVAL_NOISE_SEED)
        running = [sum(n > t for n in c) for c in chunks for t in range(c[0])]
        expected.random(sum(running) * 2 * layers)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_empty_split_gives_zero_confusion_and_nan_rates(self):
        report = ht.evaluate(small_trainer().model, [], block_len=3, with_ap=True)
        npt.assert_array_equal(report.confusion, np.zeros((4, 4)))
        assert report.accuracy == 0.0
        assert np.all(np.isnan(report.per_class_accuracy))
        assert np.all(np.isnan(report.average_precision))

    def test_split_blocks_partitions_frames(self):
        feats = np.zeros((130, 4, 6))
        blocks = ht.split_blocks(feats, 60)
        assert [b.shape[0] for b in blocks] == [60, 60, 10]
        npt.assert_array_equal(np.concatenate(blocks), feats)


class TestAveragePrecision:
    def test_perfect_ranking_gives_one(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        positive = np.array([True, True, True, False, False])
        assert ht.average_precision(scores, positive) == pytest.approx(1.0)

    def test_matches_brute_force_on_toy_ranking(self):
        # brute-force oracle: mean precision at each positive's rank
        rng = np.random.default_rng(51)
        scores = rng.normal(size=10)
        positive = np.array([True, False, True, True, False, False, True, False, False, True])
        order = np.argsort(-scores, kind="stable")
        ranked = positive[order]
        precisions = []
        for k in range(1, 11):
            if ranked[k - 1]:
                precisions.append(ranked[:k].sum() / k)
        oracle = float(np.mean(precisions))
        assert ht.average_precision(scores, positive) == pytest.approx(oracle, abs=1e-12)

    def test_no_positives_is_nan(self):
        assert np.isnan(ht.average_precision(np.ones(3), np.zeros(3, dtype=bool)))
