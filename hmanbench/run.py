"""Benchmark of the hman package: train and evaluate HM-AN, timed end to end.

One workload per process:

    python3 hmanbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run wraps the
public functions of every ``hman`` layer (see ``tracer.py``) and reports
the per-layer metrics instead, and writes its spans to
``.hmanbench_out/``.  ``--tiny`` shrinks every workload for a fast
self-test of the harness.  See ``README.md`` for the workloads, the
metrics and reference figures.
"""

import os

# BLAS runs on one thread (no more than the cores of any machine); the
# variables must be set before numpy loads the library.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hmanbench_out"

MODEL_SEED = 0           # model initialisation and trainer stream: fixed

ACCEPTANCE_MODEL = dict(layers=3, hidden=10, grid_side=4, feat_dim=16, classes=8,
                        attention="soft")
ACCEPTANCE_TRAIN = dict(batch_size=16, window=60, lr=2e-3, lr_drop=2e-3,
                        lr_drop_after=10 ** 9, clip_norm=1.0, seed=MODEL_SEED)


@dataclass(frozen=True)
class Workload:
    """Inputs and the work of one round; a run repeats whole rounds."""

    data: dict            # SyntheticSpec fields other than the seed
    data_seed: int | None  # seed of the synthetic set; None: the run's --seed
    model: dict           # ModelConfig fields
    train: dict           # TrainConfig fields
    train_rounds: bool    # each round trains one epoch before evaluating
    prep_epochs: int      # epochs trained once, before the rounds
    eval_clips: int       # test clips, drawn with --seed, that each evaluate() scores
    predict_clips: int    # test clips each round times one by one with predict_video
    block_len: int        # frames per prediction block
    min_rounds: int
    grad_check: bool      # backward against central differences, before training
    loss_falls: bool      # the last epoch's mean loss must be below the first's
    beats_chance: bool    # the evaluated model must beat chance by a margin


WORKLOADS = {
    # The acceptance configuration: per round one epoch over the 800
    # training clips of the default synthetic set, then evaluate().
    "train-small": Workload(
        data={}, data_seed=None, model=ACCEPTANCE_MODEL, train=ACCEPTANCE_TRAIN,
        train_rounds=True, prep_epochs=0, eval_clips=200, predict_clips=10, block_len=60,
        min_rounds=2, grad_check=True, loss_falls=True, beats_chance=False),
    # A model trained before the rounds for a fixed three epochs on the default
    # synthetic set of a fixed seed, then evaluate() over 200 of its 400
    # test clips and predict_video() on single clips, both drawn with
    # --seed.  The seed of the training data is fixed because on some data
    # seeds the acceptance recipe stalls near chance for several epochs.
    "eval-small": Workload(
        data=dict(test_per_class=50), data_seed=0, model=ACCEPTANCE_MODEL,
        train=ACCEPTANCE_TRAIN, train_rounds=False, prep_epochs=3, eval_clips=200,
        predict_clips=50, block_len=60, min_rounds=1,
        grad_check=False, loss_falls=False, beats_chance=True),
    # The paper's method at the recipe's sizes: gumbel-adaptive hard
    # attention, hidden 128, clips of 63-120 frames (two 60-frame blocks).
    # Batch 32 instead of the recipe's 64 keeps peak memory under 1 GB.
    "train-wide": Workload(
        data=dict(seg_len_min=21, seg_len_max=40, train_per_class=16, test_per_class=3),
        data_seed=None, model=dict(ACCEPTANCE_MODEL, hidden=128, attention="gumbel-adaptive"),
        train=dict(batch_size=32, window=60, seed=MODEL_SEED), train_rounds=True,
        prep_epochs=0, eval_clips=24, predict_clips=6, block_len=60, min_rounds=2,
        grad_check=True, loss_falls=False, beats_chance=False),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at sizes that run in seconds (harness self-test)."""
    return replace(
        wl, data=dict(wl.data, train_per_class=4, test_per_class=4),
        model=dict(wl.model, hidden=min(wl.model["hidden"], 8)),
        train=dict(wl.train, batch_size=8), prep_epochs=min(wl.prep_epochs, 1),
        eval_clips=16, predict_clips=2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="seed of the synthetic inputs")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for a harness self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hman" / "__init__.py").is_file():
        print(f"hmanbench: no hman package under {SRC}; run from the root of a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.sync()  # so that write-back left by earlier work does not land in this run
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import run_workload  # needs the path above

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        result = run_workload(args.workload, workload, args, work, OUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # the deletes' write-back, here rather than in the next run's set-up
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
