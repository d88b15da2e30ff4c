"""Attention-map and boundary-raster export, plus boundary alignment scoring.

Attention weights are written per time step as K*K binary PGM (P5)
images, max-normalized to 255 (a hard selection is a single white
cell).  Each layer's boundary sequence becomes a 1*T strip where black
marks a detected boundary and grey marks steps the layer recomputed or
carried state.  CSV twins of both rasters are written alongside.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BOUNDARY_BLACK = 0    # z = 1: a boundary ends a segment here
BOUNDARY_GREY = 200   # z = 0


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d uint8 array as a binary (P5) PGM file."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-d image, got shape {image.shape}")
    data = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def attention_to_pgm(weights: np.ndarray, grid_side: int) -> np.ndarray:
    """Map one step's location weights onto the K*K grid, max at 255."""
    grid = np.asarray(weights, dtype=np.float64).reshape(grid_side, grid_side)
    peak = grid.max()
    if peak <= 0:
        return np.zeros((grid_side, grid_side), dtype=np.uint8)
    return np.rint(grid / peak * 255.0).astype(np.uint8)


def boundary_strip(z_sequence: np.ndarray) -> np.ndarray:
    """1*T strip: black where z=1 (boundary), grey where z=0."""
    z = np.asarray(z_sequence, dtype=np.float64).reshape(1, -1)
    return np.where(z >= 0.5, BOUNDARY_BLACK, BOUNDARY_GREY).astype(np.uint8)


def export_clip(out_dir, weights_per_step: np.ndarray, z_per_layer: np.ndarray,
                grid_side: int) -> None:
    """Write all rasters and CSVs for one clip.

    ``weights_per_step`` is (T, K*K); ``z_per_layer`` is (T, L).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps, layers = z_per_layer.shape
    for t in range(steps):
        write_pgm(out_dir / f"attention_t{t:03d}.pgm",
                  attention_to_pgm(weights_per_step[t], grid_side))
    with open(out_dir / "attention.csv", "w", encoding="utf-8") as f:
        f.write("t," + ",".join(f"loc{i}" for i in range(weights_per_step.shape[1])) + "\n")
        for t in range(steps):
            f.write(str(t) + "," + ",".join(repr(float(v)) for v in weights_per_step[t]) + "\n")
    for layer in range(layers):
        write_pgm(out_dir / f"boundaries_l{layer + 1}.pgm", boundary_strip(z_per_layer[:, layer]))
    with open(out_dir / "boundaries.csv", "w", encoding="utf-8") as f:
        f.write("t," + ",".join(f"z_l{i + 1}" for i in range(layers)) + "\n")
        for t in range(steps):
            f.write(str(t) + "," + ",".join(str(int(v)) for v in z_per_layer[t]) + "\n")


# -- boundary alignment --------------------------------------------------------


def alignment_f1(predicted: np.ndarray, truth: list[int], tolerance: int = 2) -> float:
    """F1 of predicted boundary steps against ground-truth boundary frames.

    Predicted steps are where z=1 (the final step is ignored: the clip
    ending is not a detected boundary).  Matching is greedy one-to-one
    within +-tolerance frames.
    """
    z = np.asarray(predicted, dtype=np.float64).reshape(-1)
    pred_idx = [t for t in np.flatnonzero(z >= 0.5) if t < len(z) - 1]
    if not pred_idx and not truth:
        return 1.0
    if not pred_idx or not truth:
        return 0.0
    unmatched = list(truth)
    hits = 0
    for p in pred_idx:
        best = None
        for g in unmatched:
            if abs(p - g) <= tolerance and (best is None or abs(p - g) < abs(p - best)):
                best = g
        if best is not None:
            unmatched.remove(best)
            hits += 1
    precision = hits / len(pred_idx)
    recall = hits / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def chance_f1(rate: float, length: int, truth: list[int], rng: np.random.Generator,
              trials: int = 200, tolerance: int = 2) -> float:
    """Mean alignment F1 of a Bernoulli boundary process with the given rate.

    The same ``trials * length`` uniforms are drawn whatever the rate, so
    the baselines of later clips sharing ``rng`` do not depend on it.
    When every trial scores the same (always so at rate 0 or 1), that
    score is returned exactly: a float mean of equal terms can land an
    ulp below them and would let a constant bit sequence beat its own
    baseline through rounding alone.
    """
    scores = []
    for _ in range(trials):
        z = (rng.random(length) < rate).astype(np.float64)
        scores.append(alignment_f1(z, truth, tolerance))
    if min(scores) == max(scores):
        return scores[0]
    return float(np.mean(scores))
