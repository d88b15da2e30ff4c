"""End-to-end command-line behavior: wiring, determinism, exit codes."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from hman import cli
from hman import data as hd
from hman import gradcheck as gc
from hman import model as hm


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def assert_cells_are_floats(path):
    """Every cell after the header reads back with ``float()``."""
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            float(cell)


GEN_ARGS = ["gen-synth", "--classes", 4, "--vocab", 4, "--segments", 2,
            "--seg-len-min", 3, "--seg-len-max", 4, "--grid-side", 2,
            "--feat-dim", 5, "--train-per-class", 4, "--test-per-class", 2,
            "--seed", 7]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run_cli(*GEN_ARGS, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", dataset, "--out", out,
                   "--layers", 2, "--hidden", 6, "--epochs", 2,
                   "--batch-size", 8, "--window", 8, "--lr", 1e-3, "--seed", 1)
    assert code == 0
    return out


class TestGenSynth:
    def test_writes_dataset(self, dataset):
        assert (dataset / "manifest.json").exists()
        manifest = hd.load_manifest(dataset / "manifest.json")
        assert len(manifest.samples) == 4 * 6

    def test_repeat_run_is_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert run_cli(*GEN_ARGS, "--out", again) == 0
        left = (dataset / "manifest.json").read_bytes()
        assert left == (again / "manifest.json").read_bytes()
        for f in sorted((dataset / "features").iterdir()):
            assert f.read_bytes() == (again / "features" / f.name).read_bytes()

    def test_infeasible_spec_exits_one(self, tmp_path, capsys):
        code = run_cli("gen-synth", "--out", tmp_path / "x",
                       "--classes", 1000, "--vocab", 2, "--segments", 1)
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self):
        assert run_cli("gen-synth") == 1

    @pytest.mark.parametrize("flag, value", [("--grid-side", 0), ("--feat-dim", 0),
                                             ("--train-per-class", -1),
                                             ("--test-per-class", -1),
                                             ("--noise", "nan"), ("--noise", "inf")])
    def test_out_of_range_size_exits_one_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run_cli("gen-synth", "--out", out, flag, value) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_one_naming_the_flag(self, tmp_path, capsys):
        # numpy's generators take no negative seed
        out = tmp_path / "x"
        assert run_cli("gen-synth", "--out", out, "--seed", -1) == 1
        err = capsys.readouterr().err
        assert "seed (--seed) must be non-negative, got -1" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_produces_checkpoints_metrics_and_run_config(self, trained):
        assert (trained / "metrics.csv").exists()
        assert (trained / "run_config.json").exists()
        assert (trained / "ckpt_epoch_001.hman").exists()
        assert (trained / "ckpt_epoch_002.hman").exists()
        lines = (trained / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,iteration,loss,accuracy,lr,update_rate_l1")
        assert len(lines) == 3
        assert_cells_are_floats(trained / "metrics.csv")

    def test_determinism_identical_metrics(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("train", "--data", dataset, "--out", out,
                           "--layers", 2, "--hidden", 6, "--epochs", 2,
                           "--batch-size", 8, "--window", 8, "--seed", 5) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        config = {"data": str(dataset), "layers": 2, "hidden": 6, "epochs": 1,
                  "batch_size": 8, "window": 8, "seed": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg_path, "--out", out) == 0
        merged = json.loads((out / "run_config.json").read_text())
        assert merged["hidden"] == 6 and merged["out"] == str(out)

    def test_rerun_from_run_config_reproduces_metrics(self, dataset, trained, tmp_path):
        out = tmp_path / "replay"
        assert run_cli("train", "--config", trained / "run_config.json",
                       "--out", out) == 0
        assert (out / "metrics.csv").read_bytes() == (trained / "metrics.csv").read_bytes()

    def test_missing_data_dir_exits_one_without_outputs(self, tmp_path):
        out = tmp_path / "nope"
        assert run_cli("train", "--data", tmp_path / "absent", "--out", out) == 1
        assert not out.exists()

    def test_unknown_config_key_rejected(self, dataset, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"no_such_option": 1}))
        assert run_cli("train", "--config", cfg_path, "--data", dataset,
                       "--out", tmp_path / "o") == 1

    def test_negative_eval_every_exits_one_naming_the_flag(self, dataset, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--eval-every", -1) == 1
        assert "--eval-every" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--boundary-tau", "inf"), ("--attention-tau", "nan"), ("--lr", "nan"),
        ("--lr-drop", "inf"), ("--clip-norm", "nan"), ("--reinforce-lambda", "nan"),
    ])
    def test_non_finite_value_exits_one_naming_the_flag(self, dataset, tmp_path, capsys,
                                                         flag, value):
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--layers", 2, "--hidden", 5,
                       "--epochs", 1, "--batch-size", 8, "--window", 6, flag, value) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1e-3"), ("--boundary-tau", "-inf"), ("--clip-norm", "-2.5E+1"),
    ])
    def test_negative_number_as_its_own_token_reaches_validation(self, dataset, tmp_path, capsys,
                                                                 flag, value):
        # argparse alone reads "-1e-3" as an option name and stops at "expected one argument"
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--layers", 2, "--hidden", 5,
                       "--epochs", 1, "--batch-size", 8, "--window", 6, flag, value) == 1
        err = capsys.readouterr().err
        assert f"({flag}) must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0.5", "abc"])
    def test_bad_force_z_exits_one_naming_the_flag(self, dataset, tmp_path, capsys, value):
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--layers", 1,
                       "--force-z", value) == 1
        assert "(--force-z) must be 0, 1 or unset" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_one_naming_the_flag(self, dataset, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--seed", -1) == 1
        err = capsys.readouterr().err
        assert "seed (--seed) must be non-negative, got -1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2, -1])
    def test_hidden_tanh_other_than_0_or_1_exits_one_naming_the_flag(self, dataset, tmp_path,
                                                                     capsys, value):
        out = tmp_path / "o"
        assert run_cli("train", "--data", dataset, "--out", out, "--hidden-tanh", value) == 1
        err = capsys.readouterr().err
        assert f"hidden_tanh (--hidden-tanh) must be 0 or 1, got {value}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("mode", ["reinforce", "gumbel-constant", "gumbel-adaptive"])
    def test_all_attention_modes_train(self, dataset, tmp_path, mode):
        out = tmp_path / mode
        assert run_cli("train", "--data", dataset, "--out", out,
                       "--attention", mode, "--layers", 2, "--hidden", 5,
                       "--epochs", 1, "--batch-size", 8, "--window", 6,
                       "--seed", 3) == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        if mode == "gumbel-adaptive":
            assert header.endswith("tau_min,tau_mean,tau_max")
        assert_cells_are_floats(out / "metrics.csv")


class TestConfigFile:
    @pytest.mark.parametrize("command,loaded,named", [
        ("eval", {"block_len": "sixty"}, "'block_len'"),
        ("train", {"lr": None}, "'lr'"),
        ("train", [1, 2], "JSON object"),
        ("train", {"epochs": 1.7}, "'epochs'"),
        ("train", {"epochs": True}, "'epochs'"),
        ("train", {"lr": True}, "'lr'"),
    ])
    def test_config_value_of_wrong_type_exits_one_naming_file_and_key(
            self, dataset, trained, tmp_path, capsys, command, loaded, named):
        cfg_path = tmp_path / "f.json"
        cfg_path.write_text(json.dumps(loaded))
        out = tmp_path / "o"
        args = {"train": ["--data", dataset, "--out", out],
                "eval": ["--checkpoint", trained / "ckpt_epoch_002.hman",
                         "--data", dataset, "--out", out]}[command]
        assert run_cli(command, "--config", cfg_path, *args) == 1
        err = capsys.readouterr().err
        assert str(cfg_path) in err and named in err
        assert not out.exists()

    def test_integral_float_and_number_for_string_option_still_convert(self, dataset, tmp_path):
        cfg_path = tmp_path / "f.json"
        cfg_path.write_text(json.dumps({"epochs": 1.0, "force_z": 0, "layers": 2, "hidden": 5,
                                        "batch_size": 8, "window": 6}))
        out = tmp_path / "o"
        assert run_cli("train", "--config", cfg_path, "--data", dataset, "--out", out) == 0
        merged = json.loads((out / "run_config.json").read_text())
        assert merged["epochs"] == 1 and isinstance(merged["epochs"], int)
        assert merged["force_z"] == "0"


class TestEval:
    def test_reports_accuracy_and_confusion(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "report"
        code = run_cli("eval", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", out, "--ap", 1, "--block-len", 8)
        assert code == 0
        printed = capsys.readouterr().out
        assert "overall accuracy" in printed and "mean AP" in printed
        confusion = (out / "confusion.csv").read_text().strip().splitlines()
        assert len(confusion) == 5  # header + 4 classes
        total = sum(int(v) for row in confusion[1:] for v in row.split(",")[1:])
        assert total == 8  # 4 classes x 2 test clips
        assert (out / "average_precision.csv").exists()

    def test_class_count_mismatch_exits_one(self, trained, tmp_path):
        other = tmp_path / "other"
        assert run_cli("gen-synth", "--classes", 3, "--vocab", 4, "--segments", 2,
                       "--grid-side", 2, "--feat-dim", 5, "--train-per-class", 2,
                       "--test-per-class", 1, "--out", other) == 0
        assert run_cli("eval", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", other) == 1


    @pytest.mark.parametrize("block_len", [0, -3])
    def test_block_length_below_one_exits_one_naming_the_flag(self, dataset, trained, tmp_path,
                                                              capsys, block_len):
        assert run_cli("eval", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", tmp_path, "--block-len", block_len) == 1
        assert "--block-len" in capsys.readouterr().err

    def test_ap_other_than_0_or_1_exits_one_naming_the_flag(self, dataset, trained, tmp_path,
                                                            capsys):
        out = tmp_path / "report"
        assert run_cli("eval", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", out, "--ap", 2) == 1
        captured = capsys.readouterr()
        assert "ap (--ap) must be 0 or 1, got 2" in captured.err
        assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


def read_layout(path):
    """The config lines and tensor names of a checkpoint, read by the byte
    layout that ``hman.model`` documents."""
    raw = Path(path).read_bytes()
    assert raw[:5] == b"HMAN1"
    (config_len,) = struct.unpack_from("<I", raw, 5)
    config = raw[9:9 + config_len].decode("utf-8").splitlines()
    pos = 9 + config_len
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    names = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        names.append(raw[pos + 2:pos + 2 + name_len].decode("utf-8"))
        pos += 2 + name_len
        ndim = raw[pos]
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 1)
        pos += 1 + 4 * ndim + 8 * int(np.prod(shape, dtype=np.int64))
    assert pos == len(raw)
    return config, names


def write_resume_checkpoint(path, model, iteration):
    """A checkpoint in the layout the trainer wrote while it saved resume
    state: the parameters, then Adam's moments of each (``opt.m.<name>``,
    ``opt.v.<name>``), and the ``x.adam_t``, ``x.baseline`` and
    ``x.baseline_updates`` scalars after ``x.iteration``."""
    cfg = model.config
    lines = ["format_version=1", f"layers={cfg.layers}", f"hidden={cfg.hidden}",
             f"grid_side={cfg.grid_side}", f"feat_dim={cfg.feat_dim}",
             f"classes={cfg.classes}", f"attention={cfg.attention}", "cell_hidden_tanh=1",
             f"eval_z={cfg.eval_z}", f"attention_tau={cfg.attention_tau!r}",
             f"boundary_tau={cfg.boundary_tau!r}", "force_z=",
             f"x.iteration={iteration}", f"x.adam_t={iteration}", "x.baseline=-0.25",
             f"x.baseline_updates={iteration}"]
    rng = np.random.default_rng(0)
    tensors = [(name, p.data) for name, p in model.params.items()]
    for name, p in model.params.items():
        tensors += [(f"opt.m.{name}", rng.normal(size=p.shape)),
                    (f"opt.v.{name}", rng.uniform(size=p.shape))]
    config = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"HMAN1" + struct.pack("<I", len(config)) + config)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes())


class TestCheckpointFiles:
    def test_checkpoint_with_resume_state_loads_through_eval(self, dataset, trained, tmp_path):
        current = trained / "ckpt_epoch_002.hman"
        model = hm.HMAN.load(current)
        old = tmp_path / "old.hman"
        write_resume_checkpoint(old, model, iteration=6)
        assert len(read_layout(old)[1]) == 3 * len(model.params)
        loaded, scalars = hm.load_checkpoint(old)
        assert loaded.config == model.config
        assert scalars == {"iteration": "6", "adam_t": "6", "baseline": "-0.25",
                           "baseline_updates": "6"}
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
        for path, out in ((old, tmp_path / "old"), (current, tmp_path / "current")):
            assert run_cli("eval", "--checkpoint", path, "--data", dataset, "--out", out) == 0
        confusion = [(tmp_path / d / "confusion.csv").read_bytes() for d in ("old", "current")]
        assert confusion[0] == confusion[1]

    def test_train_checkpoint_holds_exactly_the_parameters(self, trained):
        config, names = read_layout(trained / "ckpt_epoch_002.hman")
        model = hm.HMAN.load(trained / "ckpt_epoch_002.hman")
        assert names == list(model.params)
        last = (trained / "metrics.csv").read_text().splitlines()[-1]
        assert [line for line in config if line.startswith("x.")] == \
            [f"x.iteration={last.split(',')[1]}"]


class TestViz:
    def test_exports_rasters_and_alignment(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "viz"
        code = run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", out)
        assert code == 0
        pgms = sorted(out.glob("attention_t*.pgm"))
        assert pgms and (out / "attention.csv").exists()
        head = pgms[0].read_bytes().split(b"\n", 3)
        assert head[0] == b"P5" and head[1] == b"2 2"
        assert (out / "boundaries_l1.pgm").exists()
        assert (out / "boundaries_l2.pgm").exists()
        assert (out / "boundary_alignment.csv").exists()
        assert "boundary F1" in capsys.readouterr().out
        for name in ("attention.csv", "boundaries.csv", "boundary_alignment.csv"):
            assert_cells_are_floats(out / name)

    def test_forward_runs_with_gradients_off(self, dataset, trained, tmp_path, monkeypatch):
        outputs = []
        forward = hm.HMAN.forward_batch

        def recording_forward(self, *a, **k):
            outputs.append(forward(self, *a, **k))
            return outputs[-1]

        monkeypatch.setattr(hm.HMAN, "forward_batch", recording_forward)
        assert run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", tmp_path / "v") == 0
        assert len(outputs) == 1
        assert not outputs[0].step_probs.requires_grad
        assert not any(res.attended.requires_grad for res in outputs[0].attention)

    def test_soft_attention_raster_is_max_normalized(self, dataset, trained, tmp_path):
        out = tmp_path / "viz2"
        run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                "--data", dataset, "--out", out)
        raw = (out / "attention_t000.pgm").read_bytes()
        pixels = raw.split(b"\n", 3)[3]
        assert max(pixels) == 255

    def test_unknown_sample_exits_one(self, dataset, trained, tmp_path):
        assert run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", tmp_path / "v",
                       "--sample", "missing") == 1

    def test_negative_tolerance_exits_one_naming_the_flag(self, dataset, trained, tmp_path,
                                                          capsys):
        # a negative tolerance matches no boundary, so every F1 would read 0
        out = tmp_path / "v"
        assert run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", out, "--tolerance", -1) == 1
        captured = capsys.readouterr()
        assert "tolerance (--tolerance) must be non-negative, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_seed_exits_one_naming_the_flag(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "v"
        assert run_cli("viz", "--checkpoint", trained / "ckpt_epoch_002.hman",
                       "--data", dataset, "--out", out, "--seed", -1) == 1
        captured = capsys.readouterr()
        assert "seed (--seed) must be non-negative, got -1" in captured.err
        assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


class TestSampledEvaluation:
    def test_train_eval_and_viz_run_with_sampled_boundaries(self, dataset, tmp_path, capsys):
        run = tmp_path / "sampled"
        assert run_cli("train", "--data", dataset, "--out", run, "--eval-z", "sampled",
                       "--eval-every", 1, "--layers", 2, "--hidden", 5, "--epochs", 1,
                       "--batch-size", 8, "--window", 6, "--seed", 6) == 0
        assert "test accuracy" in capsys.readouterr().out
        ckpt = run / "ckpt_epoch_001.hman"
        reports = []
        for name in ("e1", "e2"):
            assert run_cli("eval", "--checkpoint", ckpt, "--data", dataset,
                           "--out", tmp_path / name) == 0
            reports.append(capsys.readouterr().out.split("confusion matrix")[0])
        assert reports[0] == reports[1]  # the evaluation noise is seeded
        viz = []
        for name in ("v1", "v2"):
            assert run_cli("viz", "--checkpoint", ckpt, "--data", dataset,
                           "--out", tmp_path / name, "--seed", 3) == 0
            viz.append((tmp_path / name / "boundaries.csv").read_bytes())
        assert viz[0] == viz[1]


class TestGradCheck:
    def test_default_run_passes(self, capsys):
        assert run_cli("grad-check") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_fixed_seed_reproduces_report(self, capsys):
        assert run_cli("grad-check", "--fixed-noise-seed", 3) == 0
        first = capsys.readouterr().out
        assert run_cli("grad-check", "--fixed-noise-seed", 3) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-4"])
    def test_tolerance_not_positive_and_finite_exits_one_before_any_check(
            self, capsys, monkeypatch, tolerance):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(gc, "run_all", no_checks)
        assert run_cli("grad-check", f"--tolerance={tolerance}") == 1
        captured = capsys.readouterr()
        assert "--tolerance" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tolerance", ["-1e-4", "-inf", "-1"])
    def test_negative_tolerance_as_its_own_token_exits_one_naming_the_flag(
            self, capsys, monkeypatch, tolerance):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(gc, "run_all", no_checks)
        assert run_cli("grad-check", "--tolerance", tolerance) == 1
        captured = capsys.readouterr()
        assert "tolerance (--tolerance) must be positive and finite" in captured.err
        assert captured.out == ""

    def test_negative_fixed_noise_seed_exits_one_naming_the_flag(self, capsys, monkeypatch):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(gc, "run_all", no_checks)
        assert run_cli("grad-check", "--fixed-noise-seed", -1) == 1
        captured = capsys.readouterr()
        assert "fixed_noise_seed (--fixed-noise-seed) must be non-negative, got -1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_injected_fault_is_caught(self, capsys):
        # the fault hook reaches each check by name and corrupts only the first
        assert run_cli("grad-check", "--inject-fault", 1) == 2
        *checks, summary = capsys.readouterr().out.splitlines()
        names = gc.registered_names()
        assert [line.split()[0] for line in checks] == names
        assert [line.split()[-1] for line in checks] == ["FAIL"] + ["PASS"] * (len(names) - 1)
        assert summary.startswith(f"{len(names) - 1}/{len(names)} checks passed")


class TestHardAttentionViz:
    def test_hard_attention_raster_has_single_white_cell(self, dataset, tmp_path):
        out = tmp_path / "hard"
        assert run_cli("train", "--data", dataset, "--out", out,
                       "--attention", "gumbel-constant", "--layers", 2,
                       "--hidden", 5, "--epochs", 1, "--batch-size", 8,
                       "--window", 6, "--seed", 4) == 0
        viz_out = tmp_path / "hardviz"
        assert run_cli("viz", "--checkpoint", out / "ckpt_epoch_001.hman",
                       "--data", dataset, "--out", viz_out) == 0
        pixels = (viz_out / "attention_t000.pgm").read_bytes().split(b"\n", 3)[3]
        assert sum(1 for p in pixels if p == 255) == 1
        assert sum(1 for p in pixels if p == 0) == len(pixels) - 1
