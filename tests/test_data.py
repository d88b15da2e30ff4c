"""Feature-file format, manifest validation, synthetic generator properties."""

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from hman import data as hd
from hman.errors import ConfigError, FormatError


def tiny_spec(**kw):
    base = dict(classes=4, vocab=4, segments=2, seg_len_min=3, seg_len_max=5,
                grid_side=2, feat_dim=6, noise=0.1,
                train_per_class=3, test_per_class=2, seed=0)
    base.update(kw)
    return hd.SyntheticSpec(**base)


class TestFeatureFormat:
    def test_hand_built_header_parses(self, tmp_path):
        # independent construction of a T=2, K=2, D=3 file: 24 float32 payload
        path = tmp_path / "x.hmft"
        values = np.arange(24, dtype="<f4")
        path.write_bytes(struct.pack("<4sIIII", b"HMFT", 1, 2, 2, 3) + values.tobytes())
        feats = hd.read_features(path)
        assert feats.shape == (2, 4, 3)
        assert feats.dtype == np.float64
        npt.assert_array_equal(feats.ravel(), values.astype(np.float64))

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        original = rng.normal(size=(3, 4, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "y.hmft"
        hd.write_features(path, original)
        again = hd.read_features(path)
        assert np.array_equal(original, again)
        hd.write_features(tmp_path / "z.hmft", again)
        assert (tmp_path / "y.hmft").read_bytes() == (tmp_path / "z.hmft").read_bytes()

    def test_truncated_payload_names_expected_and_actual(self, tmp_path):
        path = tmp_path / "t.hmft"
        hd.write_features(path, np.zeros((2, 4, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match=r"88 bytes.*expected 96"):
            hd.read_features(path)

    def test_bad_magic_at_byte_zero(self, tmp_path):
        path = tmp_path / "m.hmft"
        hd.write_features(path, np.zeros((1, 1, 1)))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 0"):
            hd.read_features(path)

    def test_non_finite_value_reports_byte_offset(self, tmp_path):
        path = tmp_path / "n.hmft"
        values = np.zeros(6, dtype="<f4")
        values[4] = np.nan
        path.write_bytes(struct.pack("<4sIIII", b"HMFT", 1, 2, 1, 3) + values.tobytes())
        with pytest.raises(FormatError, match=f"byte {20 + 4 * 4}"):
            hd.read_features(path)

    def test_zero_frames_rejected_at_ingestion(self, tmp_path):
        path = tmp_path / "empty.hmft"
        path.write_bytes(struct.pack("<4sIIII", b"HMFT", 1, 0, 2, 3))
        with pytest.raises(FormatError, match="non-positive"):
            hd.read_features(path)

    def test_writer_rejects_non_square_grid_and_non_finite(self, tmp_path):
        with pytest.raises(FormatError, match="square"):
            hd.write_features(tmp_path / "a.hmft", np.zeros((1, 3, 2)))
        with pytest.raises(FormatError, match="non-finite"):
            hd.write_features(tmp_path / "b.hmft", np.full((1, 4, 2), np.inf))


class TestManifest:
    def _roundtrip(self, tmp_path, **edits):
        manifest = hd.Manifest(dataset="d", classes=["a", "b"], grid_side=2, feat_dim=3,
                               samples=[hd.ManifestEntry("s0", "f/s0.hmft", 0, "train"),
                                        hd.ManifestEntry("s1", "f/s1.hmft", 1, "test", [2])])
        path = tmp_path / "manifest.json"
        hd.save_manifest(manifest, path)
        if edits:
            doc = json.loads(path.read_text())
            doc["samples"][0].update(edits)
            path.write_text(json.dumps(doc))
        return path

    def test_round_trip(self, tmp_path):
        path = self._roundtrip(tmp_path)
        loaded = hd.load_manifest(path)
        assert loaded.classes == ["a", "b"]
        assert loaded.samples[1].boundaries == [2]
        assert [s.id for s in loaded.split("train")] == ["s0"]

    def test_label_out_of_range(self, tmp_path):
        with pytest.raises(FormatError, match="label"):
            hd.load_manifest(self._roundtrip(tmp_path, label=7))

    def test_unknown_split(self, tmp_path):
        with pytest.raises(FormatError, match="split"):
            hd.load_manifest(self._roundtrip(tmp_path, split="val"))

    def test_duplicate_path(self, tmp_path):
        with pytest.raises(FormatError, match="duplicate"):
            hd.load_manifest(self._roundtrip(tmp_path, path="f/s1.hmft"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="JSON"):
            hd.load_manifest(path)


class TestSyntheticGenerator:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        hd.gen_synthetic(tiny_spec(), a)
        hd.gen_synthetic(tiny_spec(), b)
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for f in sorted((a / "features").iterdir()):
            assert f.read_bytes() == (b / "features" / f.name).read_bytes()

    def test_boundary_count_is_segments_minus_one(self, tmp_path):
        spec = tiny_spec(segments=3)
        manifest = hd.gen_synthetic(spec, tmp_path / "d")
        for entry in manifest.samples:
            assert len(entry.boundaries) == 2
            assert all(0 <= b for b in entry.boundaries)

    def test_splits_disjoint_and_cover_everything(self, tmp_path):
        manifest = hd.gen_synthetic(tiny_spec(), tmp_path / "d")
        train = {e.id for e in manifest.split("train")}
        test = {e.id for e in manifest.split("test")}
        assert not train & test
        assert len(train | test) == len(manifest.samples) == 4 * (3 + 2)

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_spec(classes=1000, vocab=2, segments=1).validate()
        with pytest.raises(ConfigError):
            tiny_spec(seg_len_min=5, seg_len_max=4).validate()

    def test_negative_seed_rejected_naming_the_flag(self):
        with pytest.raises(ConfigError, match=r"seed \(--seed\) must be non-negative, got -1"):
            tiny_spec(seed=-1).validate()

    def test_sequences_have_no_immediate_repeats(self, tmp_path):
        hd.gen_synthetic(tiny_spec(segments=4, seed=5), tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "generator.json").read_text())
        for seq in meta["sequences"]:
            assert all(a != b for a, b in zip(seq, seq[1:]))

    def test_paired_classes_share_token_multisets(self, tmp_path):
        # the class is recoverable only from token order: pairs share a bag
        manifest = hd.gen_synthetic(hd.SyntheticSpec(train_per_class=1, test_per_class=1),
                                    tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "generator.json").read_text())
        seqs = [tuple(s) for s in meta["sequences"]]
        assert len(set(seqs)) == len(seqs)
        for even in range(0, len(seqs) - 1, 2):
            assert sorted(seqs[even]) == sorted(seqs[even + 1])

    def test_explicit_sequences_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="repeats"):
            hd.gen_synthetic(tiny_spec(classes=2), tmp_path / "d",
                             sequences=[(0, 0), (1, 2)])
        with pytest.raises(ConfigError, match="distinct"):
            hd.gen_synthetic(tiny_spec(classes=2), tmp_path / "e",
                             sequences=[(0, 1), (0, 1)])


def decode_clip(features, prototypes, locations, first_segment_only=False):
    """Nearest-prototype decoding oracle: recover the token run sequence."""
    per_frame = []
    for frame in features:
        best = None
        for v, (loc, proto) in enumerate(zip(locations, prototypes)):
            dist = np.linalg.norm(frame[loc] - proto)
            if best is None or dist < best[0]:
                best = (dist, v)
        per_frame.append(best[1])
    tokens = [per_frame[0]]
    for v in per_frame[1:]:
        if v != tokens[-1]:
            tokens.append(v)
    return tokens[:1] if first_segment_only else tokens


class TestRecoverability:
    def test_nearest_prototype_oracle_fully_recovers_default_spec(self, tmp_path):
        spec = hd.SyntheticSpec(train_per_class=2, test_per_class=2, seed=3)
        hd.gen_synthetic(spec, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "generator.json").read_text())
        prototypes = np.asarray(meta["prototypes"])
        locations = meta["locations"]
        sequences = [tuple(s) for s in meta["sequences"]]
        manifest, samples = hd.load_dataset(tmp_path / "d" / "manifest.json")
        correct = 0
        for entry in manifest.samples:
            decoded = tuple(decode_clip(samples[entry.id].features, prototypes, locations))
            correct += int(decoded == sequences[entry.label])
        assert correct == len(manifest.samples)

    def test_noise_free_single_segment_is_single_frame_decodable(self, tmp_path):
        spec = tiny_spec(segments=1, noise=0.0, classes=4, vocab=4)
        hd.gen_synthetic(spec, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "generator.json").read_text())
        manifest, samples = hd.load_dataset(tmp_path / "d" / "manifest.json")
        sequences = [tuple(s) for s in meta["sequences"]]
        for entry in manifest.samples:
            first_frame = samples[entry.id].features[:1]
            decoded = decode_clip(first_frame, np.asarray(meta["prototypes"]),
                                  meta["locations"])
            assert tuple(decoded) == sequences[entry.label]

    def test_shared_prefix_classes_are_indistinguishable_early(self, tmp_path):
        # construction: two classes share the first token, so any decoder
        # reading only the first segment produces identical answers
        spec = tiny_spec(classes=2, vocab=3, segments=2, noise=0.0)
        hd.gen_synthetic(spec, tmp_path / "d", sequences=[(0, 1), (0, 2)])
        meta = json.loads((tmp_path / "d" / "generator.json").read_text())
        manifest, samples = hd.load_dataset(tmp_path / "d" / "manifest.json")
        early = {0: set(), 1: set()}
        for entry in manifest.samples:
            token = decode_clip(samples[entry.id].features[:spec.seg_len_min],
                                np.asarray(meta["prototypes"]), meta["locations"],
                                first_segment_only=True)[0]
            early[entry.label].add(token)
        assert early[0] == early[1] == {0}


class TestLoadDataset:
    def test_loads_and_validates_shapes(self, tmp_path):
        hd.gen_synthetic(tiny_spec(), tmp_path / "d")
        manifest, samples = hd.load_dataset(tmp_path / "d" / "manifest.json")
        assert len(samples) == len(manifest.samples)
        for entry in manifest.samples:
            s = samples[entry.id]
            assert s.features.shape[1:] == (4, 6)
            assert s.label == entry.label
            assert s.boundaries == entry.boundaries

    def test_shape_mismatch_with_manifest_rejected(self, tmp_path):
        hd.gen_synthetic(tiny_spec(), tmp_path / "d")
        manifest = hd.load_manifest(tmp_path / "d" / "manifest.json")
        victim = tmp_path / "d" / manifest.samples[0].path
        hd.write_features(victim, np.zeros((2, 9, 6)))
        with pytest.raises(FormatError, match="does not match"):
            hd.load_dataset(tmp_path / "d" / "manifest.json")
