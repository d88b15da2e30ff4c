"""The full hierarchical multi-scale attention network.

Per time step: attend over the K*K feature grid using the previous
first-layer hidden state, draw the boundary noise of every layer at
once, and run the layer stack bottom-up (each layer reads the layer
below at t and the layer above at t-1).  The concatenated per-layer
hidden states of every step are then classified through an affine head
+ softmax.  The sequence loss is per-step cross entropy against the clip
label, summed over steps.  The head, the sequence log-likelihood and
the boundary loss each run once per sequence, as one tape op over all
steps with a hand-written backward.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attention as at
from . import autodiff as ad
from . import cell as hc
from . import stochastic as stu
from .autodiff import ContractError, Tensor
from .errors import (POSITIVE, ConfigError, FormatError, Rule, at_least, check_fields,
                     declared, field_error, one_of, rules)

ATTENTION_MODES = ("soft", "reinforce", "gumbel-constant", "gumbel-adaptive")
EVAL_Z_MODES = ("deterministic", "sampled")
EVAL_NOISE_SEED = 0  # seeds the boundary noise of a sampled evaluation
# Most padded frames per evaluation forward: 64 blocks (the recipe's training
# batch) of 60 frames (its window).
EVAL_CHUNK_FRAMES = 64 * 60

CHECKPOINT_MAGIC = b"HMAN1"


@dataclass
class ModelConfig:
    """Architecture and stochastic-unit configuration.

    ``cell_hidden_tanh`` selects h = o*tanh(c) in the cell (the bounded
    default); clearing it uses the literal h = o*c rule.  ``force_z``
    pins every boundary bit to a constant; ``layers=1`` with
    ``force_z=0`` UPDATEs on every step, the flat LSTM-with-attention
    baseline (``force_z=1`` FLUSHes on every step instead, so c = i*g
    and the forget gate goes unused).  ``eval_z`` picks whether
    evaluation draws boundary noise or thresholds the plain sigmoid.
    """

    layers: int = declared(3, at_least(1))
    hidden: int = declared(128, at_least(1))   # units in every layer
    grid_side: int = declared(4, at_least(1), "read from the dataset manifest")
    feat_dim: int = declared(16, at_least(1), "read from the dataset manifest")
    classes: int = declared(8, at_least(2), "read from the dataset manifest")
    attention: str = declared("soft", one_of(*ATTENTION_MODES))
    cell_hidden_tanh: bool = declared(True, one_of(True, False), "--hidden-tanh")
    eval_z: str = declared("deterministic", one_of(*EVAL_Z_MODES))
    attention_tau: float = declared(0.3, POSITIVE)
    boundary_tau: float = declared(stu.BOUNDARY_TAU, POSITIVE)
    force_z: float | None = declared(
        None, Rule(float, "0, 1 or unset", lambda v: v in (0, 1), optional=True))

    def validate(self) -> None:
        check_fields(self)
        if self.layers < 2 and self.force_z is None:
            raise field_error("layers", "at least 2 layers for the hierarchy, unless "
                              "force_z (--force-z) is set", self.layers)

    @property
    def locations(self) -> int:
        return self.grid_side ** 2


@dataclass
class BatchOutput:
    """Everything the trainer needs from one batched forward pass."""

    step_probs: Tensor                     # (T, B, C) class probabilities of every step
    attention: list[at.AttentionResult]    # per t
    z_history: np.ndarray                  # (T, L, B)
    update_mask: np.ndarray                # (T, L, B); 1 where the layer recomputed state
    z_logits: list[list[Tensor]] = field(default_factory=list)  # per layer, per t: (B, 1)

    def mean_probs(self) -> np.ndarray:
        """Per-sample class probabilities averaged over time steps."""
        return np.mean(self.step_probs.data, axis=0)


class HMAN:
    """Attention + hierarchical recurrent stack + per-step classifier."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        config.validate()
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        self.params: dict[str, Tensor] = {}
        self._build_params(rng)

    # -- parameters -----------------------------------------------------

    def _build_params(self, rng: np.random.Generator) -> None:
        cfg = self.config

        def uniform(rows, cols, scale_dim):
            bound = 1.0 / np.sqrt(scale_dim)
            return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)

        self.params["attn.w_loc"] = uniform(cfg.locations, cfg.hidden, cfg.hidden)
        if cfg.attention == "gumbel-adaptive":
            self.params["attn.w_temp"] = uniform(cfg.hidden, 1, cfg.hidden)
            self.params["attn.b_temp"] = Tensor(np.zeros((1, 1)), requires_grad=True)
        self._layer_params: list[hc.LayerParams] = []
        for layer in range(1, cfg.layers + 1):
            below = cfg.feat_dim if layer == 1 else cfg.hidden
            above = cfg.hidden if layer < cfg.layers else None
            lp = hc.init_layer_params(cfg.hidden, below_dim=below, above_dim=above, rng=rng)
            self._layer_params.append(lp)
            self.params[f"layer{layer}.u_rec"] = lp.u_rec
            if lp.u_top is not None:
                self.params[f"layer{layer}.u_top"] = lp.u_top
            self.params[f"layer{layer}.w_bot"] = lp.w_bot
            self.params[f"layer{layer}.bias"] = lp.bias
        total = cfg.hidden * cfg.layers
        self.params["head.w"] = uniform(total, cfg.classes, total)
        self.params["head.b"] = Tensor(np.zeros((1, cfg.classes)), requires_grad=True)
        for name, p in self.params.items():
            p.name = name

    def layer_params(self, layer: int) -> hc.LayerParams:
        """Layer ``layer``'s (1-based) weights: the tensors in ``params``, built once."""
        return self._layer_params[layer - 1]

    def zero_grad(self) -> None:
        ad.zero_grad(self.params.values())

    # -- forward ---------------------------------------------------------

    def _attend(self, h1_prev: Tensor, feats: Tensor, rng, train: bool,
                soft_attention_sample: bool) -> at.AttentionResult:
        """One step's attention; hard attention samples from ``rng`` only in training."""
        cfg = self.config
        w_loc = self.params["attn.w_loc"]
        batch = h1_prev.shape[0]
        if cfg.attention == "soft":
            return at.soft_attend(h1_prev, feats, w_loc)
        if cfg.attention == "reinforce":
            return at.reinforce_hard_attend(h1_prev, feats, w_loc,
                                            uniforms=rng.random(batch) if train else None)
        if not train:
            return at.gumbel_hard_attend(h1_prev, feats, w_loc, None)
        if cfg.attention == "gumbel-constant":
            tau = cfg.attention_tau
        else:
            tau = stu.adaptive_tau(h1_prev, self.params["attn.w_temp"], self.params["attn.b_temp"])
        return at.gumbel_hard_attend(h1_prev, feats, w_loc, tau,
                                     noise=stu.sample_gumbel((batch, cfg.locations), rng),
                                     soft_sample=soft_attention_sample)

    def forward_batch(self, x: np.ndarray, rng: np.random.Generator | None = None,
                      train: bool = True, soft_boundaries: bool = False,
                      soft_attention_sample: bool = False,
                      lengths: np.ndarray | None = None) -> BatchOutput:
        """Run a (B, T, K*K, D) batch through the network.

        Initial states are zero with boundary bits 0.  Every random number
        of the network is drawn here, from ``rng``, and passed to the unit
        that uses it: per step the hard-attention noise (training only),
        then the boundary noise of the whole stack.  A unit given no noise
        runs noise-free, so the default evaluation is deterministic
        (noise-free boundary bits, argmax attention).

        ``lengths``, a (B,) array of non-increasing ints in [1, T], makes
        the batch ragged: row b is real for its first ``lengths[b]`` steps,
        and step t runs only the n_t rows still running, a prefix of the
        batch (attention, the layer stack and the boundary noise alike).
        ``attention[t]`` and ``z_logits[l][t]`` hold those n_t rows, and a
        row's ``step_probs``, ``z_history`` and ``update_mask`` are zero
        past its length.  The recurrence is causal, so a row's own steps
        are those of a forward of that row alone, to rounding.  Only a
        forward that records no tape (under ``autodiff.no_grad``) can be
        ragged.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[2] != cfg.locations or x.shape[3] != cfg.feat_dim:
            raise ConfigError(
                f"input shape {x.shape} does not match (B, T, {cfg.locations}, {cfg.feat_dim})")
        batch, steps = x.shape[0], x.shape[1]
        if steps < 1:
            raise ConfigError("need at least one time step")
        deterministic_z = (not train and cfg.eval_z == "deterministic")
        needs_rng = (cfg.force_z is None and not deterministic_z) or \
            (train and cfg.attention != "soft")
        if needs_rng and rng is None:
            raise ContractError("this configuration draws noise; pass an rng")
        live = np.ones((steps, batch), dtype=bool) if lengths is None else \
            self._live_steps(lengths, batch, steps)
        running = live.sum(axis=1).tolist()

        states = [hc.initial_state(cfg.hidden, batch) for _ in range(cfg.layers)]
        ones = Tensor(np.ones((batch, 1)))
        draws_z = cfg.force_z is None and not deterministic_z
        attention: list[at.AttentionResult] = []
        z_history = np.zeros((steps, cfg.layers, batch))
        z_logits: list[list[Tensor]] = [[] for _ in range(cfg.layers)]
        stacked = np.zeros((steps, batch, cfg.layers * cfg.hidden))  # [h1|...|hL] per step
        head_inputs: list[Tensor] = []  # the tensors copied into ``stacked``, step-major

        rows = batch
        for t in range(steps):
            if running[t] < rows:  # rows that ended drop out; no tape holds them
                rows = running[t]
                states = [hc.LayerState(c=Tensor(s.c.data[:rows]), h=Tensor(s.h.data[:rows]),
                                        z=Tensor(s.z.data[:rows])) for s in states]
                ones = Tensor(ones.data[:rows])
            feats = Tensor(x[:rows, t])
            result = self._attend(states[0].h, feats, rng, train, soft_attention_sample)
            attention.append(result)
            # every layer's (a, b) pair at once: g[layer] is (2, rows, 1)
            g = stu.sample_gumbel((cfg.layers, 2, rows, 1), rng).data if draws_z else None

            below_h, below_z = result.attended, ones
            new_states = []
            for idx in range(cfg.layers):
                above = states[idx + 1].h if idx + 1 < cfg.layers else None
                state = hc.step(states[idx], below_h, below_z, above, self.layer_params(idx + 1),
                                noise=None if g is None else g[idx],
                                tau=cfg.boundary_tau,
                                soft_boundaries=soft_boundaries,
                                hidden_tanh=cfg.cell_hidden_tanh,
                                force_z=cfg.force_z)
                z_history[t, idx, :rows] = state.z.data[:, 0]
                z_logits[idx].append(state.z_logit)
                new_states.append(state)
                below_h, below_z = state.h, state.z
            states = new_states
            np.concatenate([s.h.data for s in states], axis=-1, out=stacked[t, :rows])
            head_inputs.extend(s.h for s in states)
        probs = _sequence_head(stacked, head_inputs, self.params["head.w"], self.params["head.b"])
        # a layer recomputed its state where its own bit at t-1 or the bit below at t was 1;
        # a row past its length did nothing
        z_prev = np.concatenate([np.zeros_like(z_history[:1]), z_history[:-1]])
        z_below = np.concatenate([live[:, None].astype(np.float64), z_history[:, :-1]], axis=1)
        update_mask = (1.0 - (1.0 - z_prev) * (1.0 - z_below)) * live[:, None]
        probs.data[~live] = 0.0
        return BatchOutput(step_probs=probs, attention=attention, z_history=z_history,
                           update_mask=update_mask, z_logits=z_logits)

    def _live_steps(self, lengths, batch: int, steps: int) -> np.ndarray:
        """The (T, B) mask of the steps each row of a ragged batch runs."""
        lengths = np.asarray(lengths)
        if lengths.shape != (batch,) or not np.issubdtype(lengths.dtype, np.integer):
            raise ContractError(f"lengths must be ({batch},) ints, got {lengths.dtype} "
                                f"{lengths.shape}")
        if batch and (lengths.min() < 1 or lengths.max() > steps):
            raise ContractError(f"lengths must lie in [1, {steps}], got {lengths}")
        if np.any(np.diff(lengths) > 0):
            raise ContractError(f"lengths must not increase, got {lengths}")
        if ad._records(self.params.values()):
            raise ContractError("a ragged batch cannot record a tape; run it under no_grad")
        return np.arange(steps)[:, None] < lengths

    def predict_video(self, blocks: list[np.ndarray],
                      rng: np.random.Generator | None = None) -> tuple[int, np.ndarray]:
        """Average per-step predictions within each block, then across blocks.

        Runs in evaluation mode through :func:`score_clips`: the blocks are
        sorted longest first, zero-padded at the end and scored together by
        one ragged forward (a step runs only the blocks not yet ended), and
        each block is averaged over its own steps only.  Hard attention
        selects by argmax and, with the default ``eval_z``, boundary bits
        are noise-free and ``rng`` is never drawn from.  With
        ``eval_z="sampled"`` the boundary noise comes from ``rng``, or from
        a generator seeded with ``EVAL_NOISE_SEED`` (0) when none is given,
        drawn for the running rows of each step, and a block's noise
        depends on the blocks it is scored with.
        Ties resolve to the lowest class index.
        """
        if rng is None:
            rng = np.random.default_rng(EVAL_NOISE_SEED)
        avg = score_clips(self, [blocks], rng)[0]
        return int(np.argmax(avg)), avg

    # -- persistence -------------------------------------------------------

    def save(self, path, extra_scalars: dict[str, str] | None = None) -> None:
        save_checkpoint(path, self, extra_scalars)

    @classmethod
    def load(cls, path) -> "HMAN":
        return load_checkpoint(path)[0]


def score_clips(model: HMAN, clips: list[list[np.ndarray]],
                rng: np.random.Generator) -> np.ndarray:
    """Block-averaged class probabilities of every clip, as an (N, C) array.

    ``clips[i]`` holds clip i's (T_b, K*K, D) blocks.  All blocks, from
    every clip, are sorted longest first (ties keep their input order) and
    cut into chunks: a chunk takes blocks while its rows times the length
    of its first block stay within ``EVAL_CHUNK_FRAMES``, and a block
    longer than that gets a chunk of its own.  Each chunk is zero-padded
    at the end to its first block and scored by one ragged forward
    (``HMAN.forward_batch`` with ``lengths``) in evaluation mode under
    ``no_grad``, so a step runs only the blocks that have not ended.  Each
    block's row is the mean of its per-step probabilities over its own T_b
    steps, and a clip's row the mean over its blocks in their own order.
    With ``eval_z="sampled"`` each forward draws its chunk's boundary
    noise from ``rng`` for the running rows of each step, so a clip's
    noise depends on the blocks it shares a chunk with.
    """
    if not all(clips):
        raise ContractError("every clip needs at least one block")
    cfg = model.config
    blocks = []
    for i, clip in enumerate(clips):
        for b, block in enumerate(clip):
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 3 or block.shape[0] < 1 or \
                    block.shape[1:] != (cfg.locations, cfg.feat_dim):
                raise ConfigError(f"clip {i} block {b} has shape {block.shape}, expected "
                                  f"(T >= 1, {cfg.locations}, {cfg.feat_dim})")
            blocks.append(block)
    order = sorted(range(len(blocks)), key=lambda k: -len(blocks[k]))
    rows = np.zeros((len(blocks), cfg.classes))
    start = 0
    with ad.no_grad():
        while start < len(order):
            longest = len(blocks[order[start]])
            chunk = order[start:start + max(1, EVAL_CHUNK_FRAMES // longest)]
            start += len(chunk)
            lengths = np.array([len(blocks[k]) for k in chunk])
            padded = np.zeros((len(chunk), longest, cfg.locations, cfg.feat_dim))
            for j, k in enumerate(chunk):
                padded[j, :lengths[j]] = blocks[k]
            probs = model.forward_batch(padded, rng=rng, train=False,
                                        lengths=lengths).step_probs.data
            # the sum of the steps in order, as np.mean over them adds them
            sums = np.add.accumulate(probs, axis=0)[lengths - 1, np.arange(len(chunk))]
            rows[chunk] = sums / lengths[:, None]
    bounds = np.cumsum([0] + [len(clip) for clip in clips])
    scores = np.zeros((len(clips), cfg.classes))
    for i in range(len(clips)):
        scores[i] = np.mean(rows[bounds[i]:bounds[i + 1]], axis=0)
    return scores


def _sequence_head(stacked: np.ndarray, hidden: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """softmax(stacked @ w + b) for every step as one tape op, giving (T, B, C).

    ``stacked`` is the (T, B, L*H) array of [h1|...|hL] per step and
    ``hidden`` the T*L tensors copied into it, step-major.  ``np.matmul``
    runs one (B, L*H) product per step, the BLAS call of a per-step head,
    and the softmax reduces each row alone, so the probabilities are
    bitwise those of classifying one step at a time.
    """
    probs = ad._softmax(np.matmul(stacked, w.data) + b.data, -1)
    layers = len(hidden) // stacked.shape[0]
    width = stacked.shape[-1] // layers

    def backward_fn(g: np.ndarray) -> None:
        g_logits = ad._softmax_adjoint(probs, g, -1)
        rows = g_logits.reshape(-1, g_logits.shape[-1])
        if w.requires_grad:
            ad._accumulate(w, stacked.reshape(-1, stacked.shape[-1]).T @ rows)
        ad._accumulate(b, rows.sum(axis=0, keepdims=True))
        g_stacked = g_logits @ w.data.T
        for k, h in enumerate(hidden):
            if h.requires_grad:
                t, layer = divmod(k, layers)
                ad._accumulate(h, g_stacked[t, :, layer * width:(layer + 1) * width])

    return Tensor._from_op(probs, [w, b, *hidden], backward_fn)


def sequence_log_likelihood(step_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Per-sequence summed log p(label): the (B, 1) episode log-likelihood.

    ``step_probs`` holds the (T, B, C) probabilities of every step;
    ``labels`` is (B,) class ids.  The log is floored at 1e-12, and the
    steps are summed in order, as one tape op.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if step_probs.ndim != 3 or labels.shape != step_probs.shape[1:2]:
        raise ad.DimensionError(f"labels of shape {labels.shape} do not match step "
                                f"probabilities of shape {step_probs.shape}")
    classes = step_probs.shape[-1]
    if labels.min() < 0 or labels.max() >= classes:
        raise ContractError(f"labels must lie in [0, {classes})")
    rows = np.arange(step_probs.shape[1])
    picked = step_probs.data[:, rows, labels]  # (T, B)
    clipped = np.maximum(picked, ad.LOG_FLOOR)
    total = np.add.accumulate(np.log(clipped), axis=0)[-1]  # left to right, like t = 0, 1, ...

    def backward_fn(g: np.ndarray) -> None:
        if step_probs.requires_grad:
            full = np.zeros(step_probs.shape)
            full[:, rows, labels] = g[:, 0] * (picked >= ad.LOG_FLOOR) / clipped
            ad._accumulate(step_probs, full)

    return Tensor._from_op(total[:, None], (step_probs,), backward_fn)


def batch_sequence_loss(step_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Batch mean of the per-sequence summed cross entropy."""
    return -ad.mean(sequence_log_likelihood(step_probs, labels))


def boundary_targets(x: np.ndarray) -> np.ndarray:
    """Label-free boundary targets for a (B, T, K*K, D) batch, as (B, T) 0/1.

    A step is a target where its frame moved further from the previous
    frame (Euclidean distance over the whole grid) than the clip's mean
    frame-to-frame distance; the first frame never is.  A change of
    content between segments is such a step.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(x.shape[0], x.shape[1], -1)
    targets = np.zeros(flat.shape[:2])
    if flat.shape[1] > 1:
        change = np.linalg.norm(np.diff(flat, axis=1), axis=-1)
        targets[:, 1:] = change > change.mean(axis=1, keepdims=True)
    return targets


def boundary_loss(z_logits: list[list[Tensor]], targets: np.ndarray) -> Tensor:
    """Class-balanced logistic loss of every layer's boundary logits.

    ``z_logits[l][t]`` is layer l's (B, 1) boundary pre-activation at step
    t and ``targets`` the (B, T) 0/1 labels of :func:`boundary_targets`.
    Positives and negatives carry half the total weight each, so the
    evaluation rule sigmoid(pre) >= 0.5 is learnt to fire where a
    boundary is likelier than its base rate, not only where it is
    likelier than not.  Summed over steps and layers and averaged over
    the batch, like :func:`batch_sequence_loss`, as one tape op.
    """
    count, positives = targets.size, float(targets.sum())
    weights = np.where(targets > 0, 0.5 * count / max(positives, 1.0),
                       0.5 * count / max(count - positives, 1.0))
    weighted_targets = weights * targets
    batch = targets.shape[0]
    logits = [np.concatenate([z.data for z in layer], axis=-1) for layer in z_logits]  # (B, T)
    total = None
    for a in logits:
        term = np.sum(weights * np.logaddexp(0.0, a) - weighted_targets * a)
        total = term if total is None else total + term

    def backward_fn(g: np.ndarray) -> None:
        scale = g / batch
        for layer, a in zip(z_logits, logits):
            grad = scale * (weights * ad._sigmoid(a) - weighted_targets)
            for t, z in enumerate(layer):
                ad._accumulate(z, grad[:, t:t + 1])

    return Tensor._from_op(np.asarray(total / batch), [z for layer in z_logits for z in layer],
                           backward_fn)


# -- checkpoint format -------------------------------------------------------
# magic "HMAN1", u32 LE config-block length, the config block as UTF-8
# "key=value" lines, u32 LE tensor count, then per tensor: u16 LE name
# length, name, u8 ndim, ndim u32 LE extents, raw little-endian float64.

def _config_to_text(cfg: ModelConfig, extra: dict[str, str] | None) -> str:
    lines = ["format_version=1"]
    for name in rules(ModelConfig):
        value = getattr(cfg, name)
        if value is None:
            text = ""
        elif isinstance(value, bool):
            text = "1" if value else "0"
        elif isinstance(value, float):
            text = repr(float(value))  # a numpy float's repr names its type
        else:
            text = str(value)
        lines.append(f"{name}={text}")
    for key, value in (extra or {}).items():
        lines.append(f"x.{key}={value}")
    return "\n".join(lines) + "\n"


def _parse_value(rule: Rule, text: str):
    """A config-block value as the type its field declares."""
    if rule.optional and text == "":
        return None
    return text == "1" if rule.type is bool else rule.type(text)


def _config_from_text(text: str, path) -> tuple[ModelConfig, dict[str, str]]:
    values: dict[str, str] = {}
    extras: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed config line {line!r}")
        key, _, val = line.partition("=")
        if key.startswith("x."):
            extras[key[2:]] = val
        else:
            values[key] = val
    try:
        cfg = ModelConfig(**{name: _parse_value(rule, values[name])
                             for name, rule in rules(ModelConfig).items()})
    except (KeyError, ValueError) as e:
        raise FormatError(f"{path}: bad config block ({e})") from e
    return cfg, extras


def save_checkpoint(path, model: HMAN, extra_scalars: dict[str, str] | None = None) -> None:
    config_bytes = _config_to_text(model.config, extra_scalars).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(config_bytes)))
        f.write(config_bytes)
        f.write(struct.pack("<I", len(model.params)))
        for name, p in model.params.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", p.ndim))
            f.write(struct.pack(f"<{p.ndim}I", *p.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


class _Reader:
    """Byte reader that reports the offset of any truncation."""

    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.path = path
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(
                f"{self.path}: short read at byte {self.pos}: needed {n} bytes for {what}, "
                f"only {len(self.raw) - self.pos} left")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[HMAN, dict[str, str]]:
    """Rebuild a model, plus the ``x.*`` scalars, from a checkpoint file.

    Tensors that are not parameters of the model, such as the optimizer
    moments that older trainer checkpoints carried, are skipped.
    """
    reader = _Reader(Path(path).read_bytes(), path)
    magic = reader.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {CHECKPOINT_MAGIC!r}")
    config_len = reader.u32("config length")
    cfg, extras = _config_from_text(reader.take(config_len, "config block").decode("utf-8"), path)
    model = HMAN(cfg, np.random.default_rng(0))
    count = reader.u32("tensor count")
    seen = set()
    for _ in range(count):
        name_len = struct.unpack("<H", reader.take(2, "name length"))[0]
        name = reader.take(name_len, "tensor name").decode("utf-8")
        ndim = struct.unpack("<B", reader.take(1, "rank"))[0]
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim, f"shape of {name}"))
        data = np.frombuffer(reader.take(8 * int(np.prod(shape, dtype=np.int64)),
                                         f"data of {name}"), dtype="<f8").reshape(shape)
        if name in model.params:
            if model.params[name].shape != tuple(shape):
                raise FormatError(
                    f"{path}: tensor {name} has shape {tuple(shape)}, model expects "
                    f"{model.params[name].shape}")
            model.params[name].data = np.array(data)
            seen.add(name)
    if reader.pos != len(reader.raw):
        raise FormatError(f"{path}: {len(reader.raw) - reader.pos} trailing bytes at byte {reader.pos}")
    missing = sorted(set(model.params) - seen)
    if missing:
        raise FormatError(f"{path}: checkpoint is missing parameters {missing} "
                          f"(tensor table ends at byte {reader.pos})")
    return model, extras
