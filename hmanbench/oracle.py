"""Plain-numpy reference for the deterministic evaluation path of HM-AN.

It reads only the model's configuration and parameter arrays and uses
neither ``hman.autodiff`` nor ``hman.cell``.  Evaluation with the default
``eval_z="deterministic"`` draws no noise, so this forward must give the
program's predictions exactly:

* attention: the softmax-weighted mix of locations scored by the
  previous layer-1 hidden state (soft), or the argmax location (every
  hard variant at evaluation);
* the layer stack: the nested UPDATE / COPY / FLUSH cell, with boundary
  bits 1[sigmoid(pre) >= 0.5], masked by the bit of the layer below;
* the head: softmax of the concatenated hidden states, per step;
* prediction: per-step probabilities averaged within each block, then
  the block means averaged, argmax with ties to the lowest class.

Operations follow the program's order (including the tanh form of the
sigmoid) so that, on the same BLAS, the result is normally bit-identical;
callers still compare probabilities with a tolerance.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def _softmax(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


class Oracle:
    """Reference forward of one trained model, frozen at construction."""

    def __init__(self, model):
        cfg = model.config
        if cfg.eval_z != "deterministic":
            raise ValueError("the oracle covers deterministic evaluation only")
        if not isinstance(cfg.hidden, int):
            raise ValueError("the oracle covers one hidden size for every layer")
        p = {name: t.data.copy() for name, t in model.params.items()}
        self.layers = cfg.layers
        self.hidden = cfg.hidden
        self.attention = cfg.attention
        self.tanh_hidden = cfg.cell_hidden_tanh
        self.force_z = cfg.force_z
        self.w_loc_t = np.ascontiguousarray(p["attn.w_loc"].T)
        self.cells = [(p[f"layer{l}.u_rec"], p.get(f"layer{l}.u_top"),
                       p[f"layer{l}.w_bot"], p[f"layer{l}.bias"])
                      for l in range(1, cfg.layers + 1)]
        self.head_w, self.head_b = p["head.w"], p["head.b"]

    def block_probs(self, block: np.ndarray) -> np.ndarray:
        """Mean per-step class probabilities of one (T, K*K, D) block."""
        hid = self.hidden
        c = [np.zeros((1, hid)) for _ in range(self.layers)]
        h = [np.zeros((1, hid)) for _ in range(self.layers)]
        z = [np.zeros((1, 1)) for _ in range(self.layers)]
        one = np.ones((1, 1))
        step_probs = []
        for t in range(block.shape[0]):
            feats = block[t]
            scores = h[0] @ self.w_loc_t
            if self.attention == "soft":
                below_h = np.einsum("bk,bkd->bd", _softmax(scores), feats[None])
            elif self.attention == "reinforce":
                below_h = feats[np.argmax(_softmax(scores)[0])][None, :]
            else:
                below_h = feats[np.argmax(scores[0])][None, :]
            below_z = one
            new_c, new_h, new_z = [], [], []
            for l, (u_rec, u_top, w_bot, bias) in enumerate(self.cells):
                s = (h[l] @ u_rec) + ((below_z * below_h) @ w_bot) + bias
                if u_top is not None:
                    s = s + (z[l] * h[l + 1]) @ u_top
                i = _sigmoid(s[:, :hid])
                f = _sigmoid(s[:, hid:2 * hid])
                o = _sigmoid(s[:, 2 * hid:3 * hid])
                g = np.tanh(s[:, 3 * hid:4 * hid])
                if self.force_z is not None:
                    bit = np.full((1, 1), float(self.force_z))
                else:
                    bit = (_sigmoid(s[:, 4 * hid:]) >= 0.5).astype(np.float64)
                if z[l][0, 0] == 1.0:                      # FLUSH
                    cl = i * g
                elif below_z[0, 0] == 1.0:                 # UPDATE
                    cl = f * c[l] + i * g
                else:                                      # COPY
                    cl = c[l]
                if z[l][0, 0] == 0.0 and below_z[0, 0] == 0.0:
                    hl = h[l]
                else:
                    hl = o * (np.tanh(cl) if self.tanh_hidden else cl)
                new_c.append(cl)
                new_h.append(hl)
                new_z.append(bit * below_z)
                below_h, below_z = hl, new_z[-1]
            c, h, z = new_c, new_h, new_z
            stacked = np.concatenate(h, axis=-1)
            step_probs.append(_softmax(stacked @ self.head_w + self.head_b))
        return np.mean(step_probs, axis=0)[0]

    def predict(self, features: np.ndarray, block_len: int) -> tuple[int, np.ndarray]:
        """Class and averaged probabilities of one (T, K*K, D) clip."""
        blocks = [features[s:s + block_len] for s in range(0, features.shape[0], block_len)]
        avg = np.mean([self.block_probs(b) for b in blocks], axis=0)
        return int(np.argmax(avg)), avg

    def confusion(self, samples, block_len: int, classes: int) -> np.ndarray:
        out = np.zeros((classes, classes), dtype=np.int64)
        for sample in samples:
            out[sample.label, self.predict(sample.features, block_len)[0]] += 1
        return out
