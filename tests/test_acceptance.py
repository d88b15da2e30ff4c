"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE <n> ... PASS/FAIL`` line through pytest's
terminal reporter, with output capture paused, so a plain ``pytest -v``
run shows the per-criterion outcome as it happens.  The learnability
criterion trains five seeds end to end and feeds the hierarchy criterion,
so this module takes some minutes.
"""

import contextlib
import struct
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from hman import attention as at
from hman import autodiff as ad
from hman import cell as hc
from hman import cli
from hman import data as hd
from hman import gradcheck as gc
from hman import model as hm
from hman import stochastic as st
from hman import training as ht
from hman import viz as hv
from hman.autodiff import Tensor
from hman.errors import FormatError

# criterion-5/6 run configuration (see the decisions ledger for rationale)
RUN_SEEDS = (0, 1, 2, 3, 4)
RUN_HIDDEN = 10
RUN_LR = 2e-3
RUN_BATCH = 16
RUN_CLIP = 1.0
RUN_EPOCHS = 30
ACCURACY_GATE = 0.90
DATASET_SEED = 0


_pytest_config = None


@pytest.fixture(autouse=True)
def _config_for_report(pytestconfig):
    """Hand report() the session's config, which holds the terminal reporter."""
    global _pytest_config
    _pytest_config = pytestconfig


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    plugins = _pytest_config.pluginmanager
    capture = plugins.getplugin("capturemanager")
    reporter = plugins.getplugin("terminalreporter")
    # fd capture would swallow the line; pause it while the reporter writes
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        reporter.ensure_newline()  # ends a verbose run's "<test id> " line
        if _pytest_config.get_terminal_writer().width_of_current_line:
            reporter.write("\n")  # ends a quiet run's line of progress dots
        reporter.write_line(f"ACCEPTANCE {num} {name}: {status}  {detail}")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_data")
    hd.gen_synthetic(hd.SyntheticSpec(seed=DATASET_SEED), out)
    manifest, samples = hd.load_dataset(out / "manifest.json")
    train = [samples[e.id] for e in manifest.split("train")]
    test = [samples[e.id] for e in manifest.split("test")]
    boundaries = {e.id: e.boundaries for e in manifest.samples}
    return out, manifest, train, test, boundaries


def train_run(train_samples, test_samples, seed, attention="soft", layers=3,
              force_z=None, epochs=RUN_EPOCHS, stop_at=ACCURACY_GATE):
    """One criterion-5 training run; returns (model, best accuracy, hit epoch)."""
    cfg = hm.ModelConfig(layers=layers, hidden=RUN_HIDDEN, grid_side=4, feat_dim=16,
                         classes=8, attention=attention, force_z=force_z)
    tcfg = ht.TrainConfig(batch_size=RUN_BATCH, window=60, lr=RUN_LR, lr_drop=RUN_LR,
                          lr_drop_after=10 ** 9, clip_norm=RUN_CLIP,
                          epochs=epochs, seed=seed)
    model = hm.HMAN(cfg, np.random.default_rng(seed))
    trainer = ht.Trainer(model, tcfg)
    best, hit = 0.0, None
    for epoch in range(1, epochs + 1):
        trainer.train_epoch(train_samples, epoch)
        accuracy = ht.evaluate(model, test_samples, block_len=60).accuracy
        best = max(best, accuracy)
        if stop_at is not None and accuracy >= stop_at:
            hit = epoch
            break
    return model, best, hit


@pytest.fixture(scope="module")
def learnability(dataset):
    """Criterion-5 runs, shared with criterion 6."""
    _, _, train, test, _ = dataset
    started = time.time()
    runs = []
    for seed in RUN_SEEDS:
        model, best, hit = train_run(train, test, seed)
        runs.append({"seed": seed, "model": model, "best": best, "hit": hit})
    base_model, base_best, _ = train_run(train, test, RUN_SEEDS[0], layers=1,
                                         force_z=1.0, stop_at=None, epochs=10)
    elapsed = time.time() - started
    return runs, base_best, elapsed


class TestCriterion1GradientSuite:
    def test_every_differentiable_path(self):
        started = time.time()
        results = gc.run_all(seed=0, tolerance=1e-4)
        elapsed = time.time() - started
        worst = max(r.worst_rel_err for r in results)
        names = {r.name for r in results}
        # the suite must cover attention, relaxed stochastic units, every
        # cell operation mode, the full model, and the adaptive temperature
        for needed in ("soft-attention", "gumbel-softmax-soft", "gumbel-sigmoid-soft",
                       "cell-update", "cell-copy", "cell-flush", "cell-two-steps",
                       "model-2layer-3steps", "adaptive-temperature"):
            assert needed in names
        ok = all(r.passed for r in results) and elapsed < 60.0
        report(1, "gradient suite", ok,
               f"worst rel err {worst:.2e} over {len(results)} checks in {elapsed:.1f}s")
        assert ok

    def test_negative_control_is_caught(self):
        def fault(name, grads):
            grads[0] += 1.0

        results = gc.run_all(seed=0, tolerance=1e-4, fault_hook=fault)
        assert not all(r.passed for r in results)


class TestCriterion2GumbelMaxLaw:
    def test_argmax_frequencies_match_softmax(self):
        started = time.time()
        rng = np.random.default_rng(2024)
        vectors = [np.zeros(4), np.array([1.0, 0.0, -0.5, 0.5]),
                   np.array([3.0, 0.0, -2.0, 1.0])]  # includes a skewed one
        n = 100_000
        worst = 0.0
        for logits in vectors:
            noise = st.sample_gumbel((n, logits.size), rng)
            y = st.gumbel_softmax(Tensor(logits), noise, 0.5)
            freq = np.bincount(np.argmax(y.data, axis=-1), minlength=logits.size) / n
            expected = np.exp(logits - logits.max())
            expected /= expected.sum()
            worst = max(worst, float(np.max(np.abs(freq - expected))))
        elapsed = time.time() - started
        ok = worst < 0.01 and elapsed < 10.0
        report(2, "Gumbel-max law", ok,
               f"worst |freq-softmax| {worst:.4f} over 3 vectors x {n} samples in {elapsed:.1f}s")
        assert ok


class TestCriterion3CellSemantics:
    def test_exhaustive_branch_table(self):
        rng = np.random.default_rng(3)
        hidden, below = 5, 4
        params = hc.init_layer_params(hidden, below_dim=below, above_dim=hidden, rng=rng)
        prev_c = rng.normal(size=(1, hidden))
        prev_h = rng.normal(size=(1, hidden))
        below_h = rng.normal(size=(1, below))
        above_h = rng.normal(size=(1, hidden))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def gates(z_prev, z_below):
            s = prev_h @ params.u_rec.data + (z_below * below_h) @ params.w_bot.data \
                + (z_prev * above_h) @ params.u_top.data + params.bias.data
            return (sig(s[:, :hidden]), sig(s[:, hidden:2 * hidden]),
                    sig(s[:, 2 * hidden:3 * hidden]), np.tanh(s[:, 3 * hidden:4 * hidden]))

        ok = True
        for z_prev in (0.0, 1.0):
            for z_below in (0.0, 1.0):
                prev = hc.LayerState(c=Tensor(prev_c.copy()), h=Tensor(prev_h.copy()),
                                     z=Tensor([[z_prev]]))
                state = hc.step(prev, Tensor(below_h.copy()), Tensor([[z_below]]),
                                Tensor(above_h.copy()), params,
                                noise=st.sample_gumbel((2, 1, 1), np.random.default_rng(0)).data)
                i, f, o, g = gates(z_prev, z_below)
                if z_prev == 0.0 and z_below == 0.0:      # COPY: bitwise carry-over
                    ok &= np.array_equal(state.c.data, prev_c)
                    ok &= np.array_equal(state.h.data, prev_h)
                elif z_prev == 0.0:                        # UPDATE: f*c + i*g
                    expect = f * prev_c + i * g
                    ok &= np.allclose(state.c.data, expect, atol=1e-12)
                    ok &= np.allclose(state.h.data, o * np.tanh(expect), atol=1e-12)
                else:                                      # FLUSH: i*g, c_prev ignored
                    expect = i * g
                    ok &= np.allclose(state.c.data, expect, atol=1e-12)
                    other = hc.step(
                        hc.LayerState(c=Tensor(rng.normal(scale=40.0, size=(1, hidden))),
                                      h=Tensor(prev_h.copy()), z=Tensor([[1.0]])),
                        Tensor(below_h.copy()), Tensor([[z_below]]),
                        Tensor(above_h.copy()), params,
                        noise=st.sample_gumbel((2, 1, 1), np.random.default_rng(0)).data)
                    ok &= np.array_equal(state.c.data, other.c.data)
        report(3, "cell semantics", ok, "all four boundary combinations match the update table")
        assert ok


class TestCriterion4Reinforce:
    def test_expected_surrogate_gradient_is_analytic(self):
        # 2-location, 1-step enumerable problem; N=1 estimator averaged over
        # both possible selections must equal the analytic learning rule
        rng = np.random.default_rng(4)
        lam, baseline, label, classes = 1.0, -0.8, 2, 3
        w_val = rng.normal(size=(2, 1))
        v_val = rng.normal(size=(2, classes))

        def softmax(z):
            e = np.exp(z - z.max())
            return e / e.sum()

        alpha = softmax(w_val[:, 0])
        q = np.stack([softmax(v_val[l]) for l in range(2)])
        log_q = np.log(q[:, label])
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

        got_w = np.zeros_like(w_val)
        got_v = np.zeros_like(v_val)
        for l in range(2):
            w = Tensor(w_val.copy(), requires_grad=True)
            v = Tensor(v_val.copy(), requires_grad=True)
            a = ad.softmax(ad.transpose(w), axis=-1)
            log_prob = ad.clipped_log(ad.take_rows(a, np.array([l])))
            onehot = np.zeros((1, 2))
            onehot[0, l] = 1.0
            ll = ad.clipped_log(ad.take_rows(
                ad.softmax(Tensor(onehot) @ v, axis=-1), np.array([label])))
            ad.backward(at.reinforce_surrogate([log_prob], ll, baseline, lam))
            got_w += alpha[l] * w.grad
            got_v += alpha[l] * v.grad

        err_w = float(np.max(np.abs(got_w - (-grad_w))))
        err_v = float(np.max(np.abs(got_v - (-grad_v))))
        ok = err_w < 1e-10 and err_v < 1e-10
        report(4, "score-function estimator", ok,
               f"expectation vs analytic: max err {max(err_w, err_v):.2e}")
        assert ok

    def test_baseline_matches_closed_form_at_200(self):
        c, b0 = -2.31, 0.7
        baseline = at.Baseline(value=b0)
        for _ in range(200):
            baseline.update(c)
        closed = 0.9 ** 200 * b0 + c * (1 - 0.9 ** 200)
        assert abs(baseline.value - closed) < 1e-8


class TestCriterion5SyntheticLearnability:
    def test_soft_attention_reaches_ninety_percent(self, learnability):
        runs, base_best, elapsed = learnability
        hits = [r for r in runs if r["hit"] is not None]
        ok = len(hits) >= 4 and elapsed < 30 * 60
        detail = ", ".join(f"seed {r['seed']}: best {r['best']:.2f}"
                           f"{' @ep' + str(r['hit']) if r['hit'] else ''}" for r in runs)
        report(5, "synthetic learnability", ok,
               f"{len(hits)}/5 seeds >= 90% in {elapsed:.0f}s; baseline (flat, forced "
               f"boundaries): {base_best:.2f}; {detail}")
        assert ok


class TestCriterion6HierarchyProperty:
    def test_update_rates_and_boundary_alignment(self, dataset, learnability):
        _, _, _, test, boundaries = dataset
        runs, _, _ = learnability
        mono_count = 0
        aligned_count = 0
        details = []
        for run in runs:
            model = run["model"]
            rng = np.random.default_rng(6)
            rates = np.zeros(3)
            z_rates = np.zeros(3)
            f1 = np.zeros(3)
            chance = np.zeros(3)
            n = len(test)
            for s in test:
                out = model.forward_batch(s.features[None], train=False)
                rates += out.update_mask.mean(axis=(0, 2)) / n
                z_rates += out.z_history.mean(axis=(0, 2)) / n
                gt = boundaries[s.id]
                for layer in (1, 2):
                    zl = out.z_history[:, layer, 0]
                    f1[layer] += hv.alignment_f1(zl, gt) / n
                    chance[layer] += hv.chance_f1(float(zl.mean()), len(zl), gt, rng,
                                                  trials=60) / n
            mono = rates[0] >= rates[1] - 1e-9 and rates[1] >= rates[2] - 1e-9
            edge = max(f1[1] - chance[1], f1[2] - chance[2])
            mono_count += int(mono)
            aligned_count += int(edge > 0)
            details.append(f"seed {run['seed']}: rates {np.round(rates, 2).tolist()} "
                           f"eval boundary rates {np.round(z_rates, 2).tolist()} "
                           f"mono={mono} best layer>=2 F1 edge {edge:+.2e}")
        ok = mono_count >= 4 and aligned_count >= 4
        report(6, "hierarchy property", ok,
               f"monotone on {mono_count}/5, aligned above chance on {aligned_count}/5; "
               + "; ".join(details))
        assert ok


class TestCriterion7AdaptiveTemperature:
    def test_unit_value_at_zero_preactivation(self):
        tau = st.adaptive_tau(Tensor(np.zeros((1, 4))), Tensor(np.zeros((4, 1))),
                              Tensor(np.zeros((1, 1))))
        assert abs(tau.data[0, 0] - 1.0 / (np.log(2.0) + 1.0)) < 1e-9

    def test_all_logged_temperatures_in_unit_interval(self, dataset):
        _, _, train, _, _ = dataset
        cfg = hm.ModelConfig(layers=3, hidden=RUN_HIDDEN, grid_side=4, feat_dim=16,
                             classes=8, attention="gumbel-adaptive")
        tcfg = ht.TrainConfig(batch_size=RUN_BATCH, window=60, lr=RUN_LR, lr_drop=RUN_LR,
                              lr_drop_after=10 ** 9, clip_norm=RUN_CLIP, epochs=3, seed=0)
        trainer = ht.Trainer(hm.HMAN(cfg, np.random.default_rng(0)), tcfg)
        ok = True
        lo, hi = 1.0, 0.0
        for epoch in range(1, 4):
            m = trainer.train_epoch(train[:200], epoch)
            ok &= m.tau_min is not None and m.tau_min > 0.0 and m.tau_max <= 1.0
            lo, hi = min(lo, m.tau_min), max(hi, m.tau_max)
        report(7, "adaptive temperature", ok,
               f"logged tau range [{lo:.4f}, {hi:.4f}] over a full run; "
               f"tau(0) = 1/(ln 2 + 1) verified to 1e-9")
        assert ok


class TestCriterion8FormatRoundTrips:
    def test_feature_and_checkpoint_round_trips(self, tmp_path):
        rng = np.random.default_rng(8)
        ok = True
        # HMFT: write -> read -> write is byte-identical
        feats = rng.normal(size=(4, 9, 6)).astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.hmft", tmp_path / "b.hmft"
        hd.write_features(p1, feats)
        hd.write_features(p2, hd.read_features(p1))
        ok &= p1.read_bytes() == p2.read_bytes()
        # checkpoint: save -> load -> save is byte-identical
        model = hm.HMAN(hm.ModelConfig(layers=2, hidden=4, grid_side=3, feat_dim=6,
                                       classes=3), np.random.default_rng(1))
        c1, c2 = tmp_path / "m1.hman", tmp_path / "m2.hman"
        model.save(c1, extra_scalars={"iteration": "5"})
        loaded, scalars = hm.load_checkpoint(c1)
        loaded.save(c2, extra_scalars=scalars)
        ok &= c1.read_bytes() == c2.read_bytes()
        # corrupted files fail with positioned errors
        bad = tmp_path / "bad.hmft"
        bad.write_bytes(p1.read_bytes()[:-4])
        with pytest.raises(FormatError, match="byte"):
            hd.read_features(bad)
        badc = tmp_path / "bad.hman"
        badc.write_bytes(c1.read_bytes()[:-4])
        with pytest.raises(FormatError, match="byte"):
            hm.load_checkpoint(badc)
        nonfinite = tmp_path / "nan.hmft"
        payload = np.zeros(6, dtype="<f4")
        payload[3] = np.inf
        nonfinite.write_bytes(struct.pack("<4sIIII", b"HMFT", 1, 2, 1, 3) + payload.tobytes())
        with pytest.raises(FormatError, match="byte 32"):
            hd.read_features(nonfinite)
        report(8, "format round-trips", ok,
               "HMFT and checkpoint round-trips bitwise; corruption errors positioned")
        assert ok


class TestCriterion9Determinism:
    def test_identical_runs_produce_identical_metrics(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-synth", "--out", str(data_dir), "--classes", "4",
                         "--vocab", "4", "--segments", "2", "--grid-side", "2",
                         "--feat-dim", "5", "--train-per-class", "8",
                         "--test-per-class", "2", "--seed", "3"]) == 0
        metrics = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli.main(["train", "--data", str(data_dir), "--out", str(out),
                             "--layers", "2", "--hidden", "6", "--epochs", "2",
                             "--batch-size", "8", "--window", "6", "--seed", "11"]) == 0
            metrics.append((out / "metrics.csv").read_bytes())
        ok = metrics[0] == metrics[1]
        report(9, "end-to-end determinism", ok,
               f"metrics CSVs identical across runs ({len(metrics[0])} bytes)")
        assert ok
