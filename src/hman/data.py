"""Feature-file ingestion and the synthetic hierarchical-sequence generator.

Feature files use the HMFT container (bit-exact layout):

    bytes 0..3   magic "HMFT"
    bytes 4..7   u32 LE version (currently 1)
    bytes 8..11  u32 LE T   (frames)
    bytes 12..15 u32 LE K   (grid side; K*K locations per frame)
    bytes 16..19 u32 LE D   (feature depth)
    bytes 20..   T*K*K*D little-endian float32, frame-major then
                 location-major then feature index (C order of (T, K*K, D))

Example: T=1, K=1, D=2 with features [0.5, -1.0] is the 28-byte file
``48 4D 46 54 | 01 00 00 00 | 01 00 00 00 | 01 00 00 00 | 02 00 00 00 |
00 00 00 3F | 00 00 80 BF``.

Values are stored as float32 on disk and widened to float64 in memory.
The dataset manifest is a UTF-8 JSON document listing samples, labels
and splits; synthetic manifests additionally carry ground-truth segment
boundaries (index of the last frame of every segment except the final
one, so S segments yield S-1 boundaries).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from .errors import (NON_NEGATIVE, ConfigError, FormatError, at_least, check_fields,
                     declared, field_error)

HMFT_MAGIC = b"HMFT"
HMFT_VERSION = 1
_HEADER = struct.Struct("<4sIIII")


@dataclass
class VideoSample:
    """One clip: a (T, K*K, D) feature grid plus its class label."""

    id: str
    label: int
    features: np.ndarray
    boundaries: list[int] | None = None


@dataclass
class ManifestEntry:
    id: str
    path: str
    label: int
    split: str
    boundaries: list[int] | None = None


@dataclass
class Manifest:
    dataset: str
    classes: list[str]
    grid_side: int
    feat_dim: int
    samples: list[ManifestEntry] = field(default_factory=list)

    def split(self, name: str) -> list[ManifestEntry]:
        return [s for s in self.samples if s.split == name]


def write_features(path, features: np.ndarray) -> None:
    """Write a (T, K*K, D) array as an HMFT file (float32 on disk)."""
    features = np.asarray(features)
    if features.ndim != 3:
        raise FormatError(f"features must be (T, K*K, D), got shape {features.shape}")
    t, locations, d = features.shape
    k = math.isqrt(locations)
    if k * k != locations:
        raise FormatError(f"location count {locations} is not a square grid")
    if not np.all(np.isfinite(features)):
        raise FormatError("refusing to write non-finite feature values")
    payload = np.ascontiguousarray(features, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(HMFT_MAGIC, HMFT_VERSION, t, k, d))
        f.write(payload)


def read_features(path) -> np.ndarray:
    """Read an HMFT file into a float64 (T, K*K, D) array, fully validated."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: short read at byte {len(raw)}: header needs {_HEADER.size} bytes")
    magic, version, t, k, d = _HEADER.unpack_from(raw, 0)
    if magic != HMFT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {HMFT_MAGIC!r}")
    if version != HMFT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if t < 1 or k < 1 or d < 1:
        raise FormatError(f"{path}: non-positive dimensions (T={t}, K={k}, D={d}) in header")
    expected = t * k * k * d * 4
    actual = len(raw) - _HEADER.size
    if actual != expected:
        raise FormatError(
            f"{path}: payload at byte {_HEADER.size} has {actual} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        offset = _HEADER.size + 4 * int(bad[0])
        raise FormatError(f"{path}: non-finite value at byte {offset}")
    return flat.astype(np.float64).reshape(t, k * k, d)


def load_features(path, sample_id: str | None = None, label: int | None = None,
                  boundaries: list[int] | None = None) -> VideoSample:
    features = read_features(path)
    return VideoSample(id=sample_id or Path(path).stem,
                       label=-1 if label is None else int(label),
                       features=features, boundaries=boundaries)


# -- manifest ----------------------------------------------------------------


def save_manifest(manifest: Manifest, path) -> None:
    doc = {
        "dataset": manifest.dataset,
        "classes": manifest.classes,
        "grid_side": manifest.grid_side,
        "feat_dim": manifest.feat_dim,
        "samples": [
            {k: v for k, v in {
                "id": s.id, "path": s.path, "label": s.label,
                "split": s.split, "boundaries": s.boundaries,
            }.items() if v is not None}
            for s in manifest.samples
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_manifest(path) -> Manifest:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON ({e})") from e
    try:
        manifest = Manifest(
            dataset=doc["dataset"], classes=list(doc["classes"]),
            grid_side=int(doc["grid_side"]), feat_dim=int(doc["feat_dim"]),
            samples=[ManifestEntry(
                id=s["id"], path=s["path"], label=int(s["label"]), split=s["split"],
                boundaries=list(s["boundaries"]) if "boundaries" in s else None,
            ) for s in doc["samples"]],
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: manifest missing field {e}") from e
    n_classes = len(manifest.classes)
    seen_paths = set()
    for s in manifest.samples:
        if not 0 <= s.label < n_classes:
            raise FormatError(f"{path}: sample {s.id} label {s.label} outside [0, {n_classes})")
        if s.split not in ("train", "test"):
            raise FormatError(f"{path}: sample {s.id} has unknown split {s.split!r}")
        if s.path in seen_paths:
            raise FormatError(f"{path}: duplicate sample path {s.path!r}")
        seen_paths.add(s.path)
    return manifest


def load_dataset(manifest_path) -> tuple[Manifest, dict[str, VideoSample]]:
    """Load the manifest and every referenced feature file."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    root = manifest_path.parent
    samples = {}
    for entry in manifest.samples:
        sample = load_features(root / entry.path, sample_id=entry.id,
                               label=entry.label, boundaries=entry.boundaries)
        if sample.features.shape[1] != manifest.grid_side ** 2 \
                or sample.features.shape[2] != manifest.feat_dim:
            raise FormatError(
                f"{entry.path}: feature shape {sample.features.shape} does not match "
                f"manifest grid {manifest.grid_side}^2 x {manifest.feat_dim}")
        samples[entry.id] = sample
    return manifest, samples


# -- synthetic generator -----------------------------------------------------


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic hierarchical dataset.

    Each class is a fixed order of ``segments`` sub-action tokens (no
    two consecutive tokens equal).  A clip renders each token as a run
    of frames in which exactly one grid location (fixed per token)
    carries that token's feature prototype plus Gaussian noise; all
    other locations carry noise only.  The class is recoverable only by
    reading the token order, so a model must both find the right
    location and segment the runs.
    """

    classes: int = declared(8, at_least(1))
    vocab: int = declared(6, at_least(1))
    segments: int = declared(3, at_least(1))
    seg_len_min: int = declared(5, at_least(1))
    seg_len_max: int = declared(10, at_least(1))
    grid_side: int = declared(4, at_least(1))
    feat_dim: int = declared(16, at_least(1))
    noise: float = declared(0.1, NON_NEGATIVE)
    train_per_class: int = declared(100, at_least(0))
    test_per_class: int = declared(25, at_least(0))
    seed: int = declared(0, at_least(0))

    def validate(self) -> None:
        check_fields(self)
        if self.seg_len_max < self.seg_len_min:
            raise field_error("seg_len_max", f"at least seg_len_min ({self.seg_len_min})",
                              self.seg_len_max)
        if self.distinct_sequences() < self.classes:
            raise field_error(
                "classes", f"at most {self.distinct_sequences()}, the number of distinct "
                f"orders of {self.segments} segments over vocab {self.vocab}", self.classes)

    def distinct_sequences(self) -> int:
        if self.segments == 1:
            return self.vocab
        if self.vocab == 1:
            return 0
        return self.vocab * (self.vocab - 1) ** (self.segments - 1)


def _draw_one_sequence(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[int, ...]:
    seq = [int(rng.integers(spec.vocab))]
    for _ in range(spec.segments - 1):
        nxt = int(rng.integers(spec.vocab - 1))
        if nxt >= seq[-1]:
            nxt += 1  # skip the previous token: runs never merge
        seq.append(nxt)
    return tuple(seq)


def _reorderings(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct orderings of the same token multiset, no immediate repeats."""
    seen = set()
    out = []
    for cand in permutations(seq):
        if cand in seen or cand == seq:
            continue
        seen.add(cand)
        if all(a != b for a, b in zip(cand, cand[1:])):
            out.append(cand)
    return out


def _draw_class_sequences(spec: SyntheticSpec, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Class token orders, paired so a class is identified by order, not bag.

    Classes come in pairs sharing one token multiset in two different
    orders wherever the multiset admits a second valid ordering; a model
    that ignores temporal order cannot separate such a pair.
    """
    seqs: list[tuple[int, ...]] = []
    seen = set()
    rejected = 0
    while len(seqs) < spec.classes:
        seq = _draw_one_sequence(spec, rng)
        if seq in seen:
            continue
        partners = [p for p in _reorderings(seq) if p not in seen]
        want_pair = len(seqs) + 1 < spec.classes and spec.segments > 1
        if want_pair and partners:
            partner = partners[int(rng.integers(len(partners)))]
            seen.update((seq, partner))
            seqs.extend((seq, partner))
        elif want_pair and rejected < 200:
            rejected += 1  # unpairable multiset (e.g. aba); redraw while budget lasts
        else:
            seen.add(seq)
            seqs.append(seq)
    return seqs[:spec.classes]


def _render_clip(seq: tuple[int, ...], spec: SyntheticSpec, prototypes: np.ndarray,
                 locations: np.ndarray, rng: np.random.Generator):
    lengths = rng.integers(spec.seg_len_min, spec.seg_len_max + 1, size=len(seq))
    total = int(lengths.sum())
    k2 = spec.grid_side ** 2
    clip = rng.normal(0.0, spec.noise, size=(total, k2, spec.feat_dim)) if spec.noise > 0 \
        else np.zeros((total, k2, spec.feat_dim))
    t0 = 0
    boundaries = []
    for token, length in zip(seq, lengths):
        clip[t0:t0 + length, locations[token], :] += prototypes[token]
        t0 += int(length)
        if t0 < total:
            boundaries.append(t0 - 1)  # last frame of this segment
    return clip, boundaries


def gen_synthetic(spec: SyntheticSpec, out_dir,
                  sequences: list[tuple[int, ...]] | None = None) -> Manifest:
    """Generate the dataset under ``out_dir`` and return its manifest.

    ``sequences`` overrides the random class token orders (used to build
    adversarial class pairs); each must have ``spec.segments`` tokens
    with no immediate repeats.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if sequences is None:
        class_seqs = _draw_class_sequences(spec, rng)
    else:
        class_seqs = [tuple(int(v) for v in s) for s in sequences]
        if len(class_seqs) != spec.classes or len(set(class_seqs)) != spec.classes:
            raise ConfigError("explicit sequences must be distinct, one per class")
        for s in class_seqs:
            if len(s) != spec.segments or any(not 0 <= v < spec.vocab for v in s):
                raise ConfigError(f"sequence {s} does not fit vocab/segments")
            if any(a == b for a, b in zip(s, s[1:])):
                raise ConfigError(f"sequence {s} repeats a token consecutively")

    prototypes = rng.normal(0.0, 1.0, size=(spec.vocab, spec.feat_dim))
    k2 = spec.grid_side ** 2
    if spec.vocab <= k2:
        locations = rng.choice(k2, size=spec.vocab, replace=False)
    else:
        locations = rng.integers(0, k2, size=spec.vocab)

    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        dataset="synthetic",
        classes=["-".join(f"t{v}" for v in seq) for seq in class_seqs],
        grid_side=spec.grid_side,
        feat_dim=spec.feat_dim,
    )
    for split, per_class in (("train", spec.train_per_class), ("test", spec.test_per_class)):
        for label, seq in enumerate(class_seqs):
            for i in range(per_class):
                clip, boundaries = _render_clip(seq, spec, prototypes, locations, rng)
                sample_id = f"{split}_{label:02d}_{i:04d}"
                rel = f"features/{sample_id}.hmft"
                write_features(out_dir / rel, clip)
                manifest.samples.append(ManifestEntry(
                    id=sample_id, path=rel, label=label, split=split,
                    boundaries=boundaries))
    save_manifest(manifest, out_dir / "manifest.json")
    # generator metadata, handy for oracles and debugging
    meta = {
        "sequences": [list(s) for s in class_seqs],
        "prototypes": prototypes.tolist(),
        "locations": [int(v) for v in locations],
        "spec": asdict(spec),
    }
    (out_dir / "generator.json").write_text(json.dumps(meta, indent=1, sort_keys=True),
                                            encoding="utf-8")
    return manifest
