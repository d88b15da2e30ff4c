"""Command-line surface: dataset generation, training, evaluation, viz, grad checks.

Every flag can also be supplied through a JSON config file
(``--config``); explicit flags override file values, which override
defaults.  ``train`` writes the fully merged option set next to its
checkpoints as ``run_config.json``, so feeding that file back through
``--config`` reproduces the run.

Exit codes: 0 success, 1 user/config error, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as hd
from . import gradcheck as gc
from . import model as hm
from . import training as ht
from . import viz as hv
from .errors import ConfigError, FormatError, TrainingAbort, field_error


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are user errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """As argparse, but a negative number after ``--flag`` is its value.

        argparse reads a token such as ``-1e-4`` or ``-inf`` as an option
        name; every option here takes one value, so ``--flag -1e-4`` is
        passed on as ``--flag=-1e-4`` and reaches the flag's validation.
        """
        args = list(sys.argv[1:] if args is None else args)
        for k in range(len(args) - 2, -1, -1):
            if args[k].startswith("--") and "=" not in args[k] and \
                    args[k + 1].startswith("-") and _is_number(args[k + 1]):
                args[k:k + 2] = [f"{args[k]}={args[k + 1]}"]
        return super().parse_known_args(args, namespace)


def _owned(owner, **help_texts: str) -> dict:
    """Options whose types and defaults are those of the same-named attributes
    of ``owner``: the config fields they set."""
    return {name: (type(getattr(owner, name)), getattr(owner, name), text)
            for name, text in help_texts.items()}


# option tables: name -> (type, default, help); bools are 0/1 ints
GEN_OPTS = {
    "out": (str, None, "output dataset directory"),
    **_owned(hd.SyntheticSpec, classes="number of classes", vocab="sub-action vocabulary size",
             segments="segments per clip", seg_len_min="minimum frames per segment",
             seg_len_max="maximum frames per segment", grid_side="attention grid side K",
             feat_dim="feature depth D", noise="feature noise sigma",
             train_per_class="training clips per class", test_per_class="test clips per class",
             seed="generator seed"),
}

# the ModelConfig fields that train options set by name; hidden_tanh and
# force_z set the others through their CLI encodings
_MODEL_FIELDS = ("attention", "layers", "hidden", "eval_z", "attention_tau", "boundary_tau")
TRAIN_OPTS = {
    "data": (str, None, "dataset directory (with manifest.json)"),
    "out": (str, None, "run output directory"),
    **_owned(hm.ModelConfig, attention="soft | reinforce | gumbel-constant | gumbel-adaptive",
             layers="stack depth", hidden="hidden units per layer"),
    "hidden_tanh": (int, int(hm.ModelConfig.cell_hidden_tanh),
                    "1: h = o*tanh(c); 0: literal h = o*c"),
    **_owned(hm.ModelConfig, eval_z="boundary bits at evaluation: deterministic | sampled",
             attention_tau="constant attention temperature",
             boundary_tau="boundary-detector temperature"),
    "force_z": (str, "", "force every boundary bit to 0 or 1 (baseline configs)"),
    **_owned(ht.TrainConfig, batch_size="clips per mini-batch",
             window="frames per training clip", lr="base learning rate",
             lr_drop="learning rate after the drop", lr_drop_after="iterations at the base rate",
             clip_norm="global gradient-norm clip", reinforce_lambda="score-function term weight",
             frame_sampling="window | random", epochs="training epochs", seed="run seed"),
    "eval_every": (int, 0, "evaluate the test split every N epochs (0: never)"),
}

EVAL_OPTS = {
    "checkpoint": (str, None, "checkpoint file"),
    "data": (str, None, "dataset directory"),
    "split": (str, "test", "manifest split to evaluate"),
    "block_len": (int, 60, "frames per prediction block"),
    "ap": (int, 0, "1: also report per-class average precision"),
    "out": (str, "", "directory for report CSVs (default: checkpoint directory)"),
}

VIZ_OPTS = {
    "checkpoint": (str, None, "checkpoint file"),
    "data": (str, None, "dataset directory"),
    "sample": (str, "", "sample id (default: first test sample)"),
    "out": (str, None, "output directory for rasters"),
    "tolerance": (int, 2, "boundary alignment tolerance in frames"),
    "seed": (int, 0, "seed for the chance-level boundary baseline (and, with "
                     "eval_z=sampled, the boundary noise)"),
}

GRAD_OPTS = {
    "fixed_noise_seed": (int, 0, "seed for the frozen noise streams"),
    "tolerance": (float, gc.FD_TOLERANCE, "worst allowed relative error"),
    "inject_fault": (int, 0, "test hook: corrupt one gradient to prove detection"),
}


def _add_options(parser: argparse.ArgumentParser, table: dict) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of option values (flags override it)")
    for name, (typ, _default, help_text) in table.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                            dest=name, help=help_text)


def _convert(typ, value):
    """``typ(value)`` for a --config value, which JSON may give as a bool or a
    float: a bool is no number, and an int option takes no fraction."""
    if typ is not str and (isinstance(value, bool) or (
            typ is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{value!r} is not a {typ.__name__}")
    return typ(value)


def _resolve(args: argparse.Namespace, table: dict, required: tuple[str, ...]) -> dict:
    merged = {name: default for name, (_t, default, _h) in table.items()}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object of option values, "
                              f"not {type(loaded).__name__}")
        for key, value in loaded.items():
            if key not in table:
                raise ConfigError(f"config file {path} has unknown option {key!r}")
            typ = table[key][0]
            try:
                merged[key] = _convert(typ, value)
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"config file {path}: option {key!r} needs a {typ.__name__}, "
                                  f"got {value!r}") from e
    for name in table:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    for name in required:
        if not merged.get(name):
            raise ConfigError(f"--{name.replace('_', '-')} is required")
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hman", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate the synthetic dataset")
    _add_options(p, GEN_OPTS)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model, writing checkpoints and metrics")
    _add_options(p, TRAIN_OPTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    _add_options(p, EVAL_OPTS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help="export attention maps and boundary rasters for one clip")
    _add_options(p, VIZ_OPTS)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("grad-check", help="finite-difference verification of every gradient path")
    _add_options(p, GRAD_OPTS)
    p.set_defaults(func=cmd_grad_check)
    return parser


def cmd_gen_synth(args) -> int:
    opts = _resolve(args, GEN_OPTS, required=("out",))
    out = opts.pop("out")
    spec = hd.SyntheticSpec(**opts)
    manifest = hd.gen_synthetic(spec, out)
    train_n = len(manifest.split("train"))
    test_n = len(manifest.split("test"))
    print(f"wrote {train_n} train + {test_n} test clips, {len(manifest.classes)} classes, to {out}")
    return 0


def _switch(opts: dict, name: str) -> bool:
    """The 0/1 option ``name`` as a bool."""
    if opts[name] not in (0, 1):
        raise field_error(name, "0 or 1", opts[name])
    return bool(opts[name])


def _model_config_from(opts: dict, manifest: hd.Manifest) -> hm.ModelConfig:
    force = opts["force_z"].strip()
    try:
        force_z = None if force == "" else float(force)
    except ValueError:
        raise field_error("force_z", "0, 1 or unset", force) from None
    return hm.ModelConfig(
        grid_side=manifest.grid_side, feat_dim=manifest.feat_dim,
        classes=len(manifest.classes), cell_hidden_tanh=_switch(opts, "hidden_tanh"),
        force_z=force_z,
        **{name: opts[name] for name in _MODEL_FIELDS},
    )


def _train_config_from(opts: dict) -> ht.TrainConfig:
    config = ht.TrainConfig(**{f.name: opts[f.name] for f in dataclasses.fields(ht.TrainConfig)})
    config.validate()  # before its seed reaches a generator
    return config


def cmd_train(args) -> int:
    opts = _resolve(args, TRAIN_OPTS, required=("data", "out"))
    if opts["eval_every"] < 0:
        raise ConfigError(f"--eval-every must be 0 (never) or positive, got {opts['eval_every']}")
    data_dir = Path(opts["data"])
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {data_dir}")
    manifest, samples = hd.load_dataset(manifest_path)
    train_samples = [samples[e.id] for e in manifest.split("train")]
    test_samples = [samples[e.id] for e in manifest.split("test")]

    model_cfg = _model_config_from(opts, manifest)
    train_cfg = _train_config_from(opts)
    model = hm.HMAN(model_cfg, np.random.default_rng(train_cfg.seed))
    trainer = ht.Trainer(model, train_cfg)

    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_config.json").write_text(
        json.dumps(opts, indent=1, sort_keys=True), encoding="utf-8")

    adaptive = model_cfg.attention == "gumbel-adaptive"
    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(ht.metrics_header(model_cfg.layers, adaptive) + "\n")
        for epoch in range(1, train_cfg.epochs + 1):
            metrics = trainer.train_epoch(train_samples, epoch)
            f.write(ht.metrics_row(metrics) + "\n")
            f.flush()
            rates = "/".join(f"{r:.2f}" for r in metrics.update_rates)
            print(f"epoch {epoch}: loss={metrics.loss:.4f} acc={metrics.accuracy:.3f} "
                  f"lr={metrics.lr:g} update_rates={rates}")
            model.save(out_dir / f"ckpt_epoch_{epoch:03d}.hman",
                       extra_scalars={"iteration": str(trainer.iteration)})
            if opts["eval_every"] and epoch % opts["eval_every"] == 0 and test_samples:
                report = ht.evaluate(model, test_samples, block_len=train_cfg.window)
                print(f"epoch {epoch}: test accuracy {report.accuracy:.3f}")
    print(f"wrote {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args, EVAL_OPTS, required=("checkpoint", "data"))
    model = hm.HMAN.load(opts["checkpoint"])
    manifest, samples = hd.load_dataset(Path(opts["data"]) / "manifest.json")
    if model.config.classes != len(manifest.classes):
        raise ConfigError(
            f"checkpoint has {model.config.classes} classes, manifest has {len(manifest.classes)}")
    chosen = [samples[e.id] for e in manifest.split(opts["split"])]
    if not chosen:
        raise ConfigError(f"split {opts['split']!r} is empty")
    report = ht.evaluate(model, chosen, block_len=opts["block_len"], with_ap=_switch(opts, "ap"))

    out_dir = Path(opts["out"]) if opts["out"] else Path(opts["checkpoint"]).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    confusion_path = out_dir / "confusion.csv"
    with open(confusion_path, "w", encoding="utf-8") as f:
        f.write("true\\pred," + ",".join(manifest.classes) + "\n")
        for c, row in enumerate(report.confusion):
            f.write(manifest.classes[c] + "," + ",".join(str(int(v)) for v in row) + "\n")
    print(f"overall accuracy: {report.accuracy:.4f} ({opts['split']} split, "
          f"{len(chosen)} clips)")
    for c, acc in enumerate(report.per_class_accuracy):
        print(f"  {manifest.classes[c]}: {acc:.4f}")
    if report.average_precision:
        ap_path = out_dir / "average_precision.csv"
        with open(ap_path, "w", encoding="utf-8") as f:
            f.write("class,ap\n")
            for c, ap in enumerate(report.average_precision):
                f.write(f"{manifest.classes[c]},{repr(ap)}\n")
        print(f"mean AP: {report.mean_ap:.4f} (written to {ap_path})")
    print(f"confusion matrix written to {confusion_path}")
    return 0


def cmd_viz(args) -> int:
    opts = _resolve(args, VIZ_OPTS, required=("checkpoint", "data", "out"))
    for name in ("tolerance", "seed"):
        if opts[name] < 0:
            raise field_error(name, "non-negative", opts[name])
    model = hm.HMAN.load(opts["checkpoint"])
    manifest, samples = hd.load_dataset(Path(opts["data"]) / "manifest.json")
    if opts["sample"]:
        if opts["sample"] not in samples:
            raise ConfigError(f"sample {opts['sample']!r} not in manifest")
        sample = samples[opts["sample"]]
    else:
        test = manifest.split("test") or manifest.samples
        sample = samples[test[0].id]

    # one stream: boundary noise (eval_z=sampled only), then the chance baseline
    rng = np.random.default_rng(opts["seed"])
    with ad.no_grad():
        out = model.forward_batch(sample.features[None], rng=rng, train=False)
    weights = np.stack([a.weights.data[0] for a in out.attention])
    z = out.z_history[:, :, 0]
    out_dir = Path(opts["out"])
    hv.export_clip(out_dir, weights, z, model.config.grid_side)
    print(f"wrote {len(weights)} attention frames and {z.shape[1]} boundary strips to {out_dir}")

    if sample.boundaries is not None:
        lines = ["layer,f1,chance_f1,rate"]
        for layer in range(z.shape[1]):
            zl = z[:, layer]
            f1 = hv.alignment_f1(zl, sample.boundaries, opts["tolerance"])
            rate = float(np.mean(zl))
            chance = hv.chance_f1(rate, len(zl), sample.boundaries, rng,
                                  tolerance=opts["tolerance"])
            lines.append(f"{layer + 1},{repr(f1)},{repr(chance)},{repr(rate)}")
            print(f"layer {layer + 1}: boundary F1 {f1:.3f} "
                  f"(chance at matched rate {chance:.3f}, rate {rate:.2f})")
        (out_dir / "boundary_alignment.csv").write_text("\n".join(lines) + "\n",
                                                        encoding="utf-8")
    return 0


def cmd_grad_check(args) -> int:
    opts = _resolve(args, GRAD_OPTS, required=())
    if not 0 < opts["tolerance"] < math.inf:
        raise field_error("tolerance", "positive and finite", opts["tolerance"])
    if opts["fixed_noise_seed"] < 0:
        raise field_error("fixed_noise_seed", "non-negative", opts["fixed_noise_seed"])
    fault = None
    if opts["inject_fault"]:
        def fault(name, grads):  # deliberately corrupt the first check's gradient
            if name == gc.registered_names()[0]:
                grads[0] += 1.0
    results = gc.run_all(seed=opts["fixed_noise_seed"], tolerance=opts["tolerance"],
                         fault_hook=fault)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:28s} worst rel err {r.worst_rel_err:.3e}  {status}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(tolerance {opts['tolerance']:g})")
    return 0 if not failed else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ad.AutodiffError, TrainingAbort) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
