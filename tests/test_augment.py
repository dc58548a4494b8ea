import re

import numpy as np
import pytest

from seqshot import augment, curation, dsp, nn
from seqshot.errors import (
    EmptyInputError,
    FormatError,
    SeqshotError,
    ShapeError,
    TruncatedFileError,
    UnknownTensorError,
)

from test_cli import corrupt_checkpoint


def seq(frames, label=1, provenance="curated"):
    return augment.EmbeddingSequence(np.asarray(frames, dtype=float),
                                     label=label, provenance=provenance)


def rand_seq(t, e=4, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return seq(rng.standard_normal((t, e)), **kw)


def fake_embed(w):
    """Deterministic stand-in embedder: 6 frames, 4 dims, crop-dependent."""
    s = w.samples
    return np.stack([[s[0], s[1], len(s), k] for k in range(6)])


# -- container -----------------------------------------------------------------

def test_sequence_validation():
    with pytest.raises(ShapeError):
        seq(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        seq(np.zeros((4, 4)), provenance="mystery")
    with pytest.raises(ValueError):
        seq(np.full((4, 4), np.nan))


# -- time shift ----------------------------------------------------------------

def test_time_shift_count_and_bounds():
    shot = dsp.Waveform(np.arange(3 * 16000, dtype=float) / 1e6, 16000)
    segment = curation.Segment(0, 1.0, 1.8)
    rng = np.random.default_rng(0)
    out = augment.time_shift_augment(shot, segment, 10, rng, fake_embed)
    assert len(out) == 10
    for s in out:
        assert s.label == 1 and s.provenance == "time_shift"
        assert s.frames.shape == out[0].frames.shape
        start = s.frames[0, 0] * 1e6 / 16000      # first sample index -> s
        assert 0.75 - 1e-6 <= start <= 1.25 + 1e-6
        # 0.8 s segment is padded up to the 1 s embedding minimum
        assert s.frames[0, 2] == int(augment.MIN_CROP_S * 16000)


def test_time_shift_segment_too_long():
    shot = dsp.Waveform(np.zeros(16000), 16000)
    segment = curation.Segment(0, 0.0, 2.0)
    with pytest.raises(SeqshotError):
        augment.time_shift_augment(shot, segment, 1,
                                   np.random.default_rng(0), fake_embed)


# -- delta encoder -------------------------------------------------------------

@pytest.fixture(scope="module")
def shift_delta():
    """Pairs whose degradation is a constant per-pair frame offset."""
    rng = np.random.default_rng(1)
    pairs = []
    for k in range(40):
        clean = rng.standard_normal((12, 4))
        shift = rng.choice([-0.5, 0.5]) * np.ones(4)
        pairs.append((seq(clean), seq(clean + shift)))
    cfg = augment.DeltaConfig(z_dim=4, hidden=32, epochs=200, seed=2)
    return augment.train_delta(pairs, cfg), pairs


def test_delta_learns_simple_deformation(shift_delta):
    model, _ = shift_delta
    assert model.holdout_l1 < 0.5 * model.holdout_identity_l1


def test_delta_transfers_deformation(shift_delta):
    model, _ = shift_delta
    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 4))
    donor_clean = rng.standard_normal((6, 4))
    out = model.apply(base, donor_clean, donor_clean + 0.5)
    err = np.mean(np.abs(out - (base + 0.5)))
    assert err < 0.25


def test_delta_augment_deterministic(shift_delta):
    model, pairs = shift_delta
    target = rand_seq(9, seed=5)
    a = augment.delta_augment(model, target, pairs[0], 3,
                              np.random.default_rng(11))
    b = augment.delta_augment(model, target, pairs[0], 3,
                              np.random.default_rng(11))
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.frames, sb.frames)
        assert sa.label == 1 and sa.provenance == "delta"
        assert sa.frames.shape == target.frames.shape


def test_delta_augment_ignores_target_mean(shift_delta):
    # a constant frame offset is a channel response, not content: it must
    # pass through the deformation unchanged
    model, pairs = shift_delta
    target = rand_seq(9, seed=5)
    offset = np.array([3.0, -2.0, 4.0, 1.5])
    shifted = seq(target.frames + offset)
    a = augment.delta_augment(model, target, pairs[0], 3,
                              np.random.default_rng(11))
    b = augment.delta_augment(model, shifted, pairs[0], 3,
                              np.random.default_rng(11))
    for sa, sb in zip(a, b):
        np.testing.assert_allclose(sb.frames, sa.frames + offset,
                                   rtol=1e-9, atol=1e-9)


def test_delta_augment_bad_donor(shift_delta):
    model, _ = shift_delta
    with pytest.raises(ShapeError):
        augment.delta_augment(model, rand_seq(6),
                              (rand_seq(5), rand_seq(6)), 1,
                              np.random.default_rng(0))


def test_delta_checkpoint_roundtrip(shift_delta, tmp_path):
    model, _ = shift_delta
    model.save(tmp_path / "d.ckpt")
    loaded = augment.DeltaEncoder.load(tmp_path / "d.ckpt")
    rng = np.random.default_rng(3)
    base, c = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    np.testing.assert_allclose(model.apply(base, c, c + 0.5),
                               loaded.apply(base, c, c + 0.5), rtol=1e-5)


def test_train_delta_rejects_misaligned_pair():
    with pytest.raises(ShapeError):
        augment.train_delta([(rand_seq(5), rand_seq(7))])


@pytest.mark.parametrize("fault, error", [
    ("missing_tensor", FormatError), ("unknown_tensor", UnknownTensorError),
    ("shape", FormatError), ("rank", FormatError),
    ("missing_meta", FormatError), ("stray_meta", UnknownTensorError)])
def test_malformed_delta_checkpoint_names_the_file(tmp_path, fault, error):
    path = tmp_path / "delta.ckpt"
    augment.DeltaEncoder(8).save(path)
    corrupt_checkpoint(path, fault)
    with pytest.raises(SeqshotError, match=re.escape(str(path))) as exc:
        augment.DeltaEncoder.load(path)
    assert type(exc.value) is error


def test_huge_delta_meta_size_is_format_error(tmp_path):
    # sizes are checked against the stored tensors before any allocation
    path = tmp_path / "delta.ckpt"
    augment.DeltaEncoder(8).save(path)
    kind, tensors = nn.read_checkpoint(path)
    tensors["meta/hidden"] = np.array([1e15])
    nn.write_checkpoint(path, kind, tensors)
    with pytest.raises(FormatError, match=re.escape(f"{path}: meta/hidden")):
        augment.DeltaEncoder.load(path)


# -- synthesized negatives ---------------------------------------------------------

def test_mask_negative_exact_block(monkeypatch):
    monkeypatch.setattr(augment, "MASK_FRACTION", (0.5, 0.5))   # rho = 0.5
    target = rand_seq(8, seed=2)
    out = augment.synth_negative_mask(target, np.random.default_rng(0))
    assert out.label == 0 and out.provenance == "masked"
    mean = target.frames.mean(axis=0)
    is_mean = np.all(out.frames == mean, axis=1)
    assert is_mean.sum() == 4
    runs = np.flatnonzero(is_mean)
    assert runs[-1] - runs[0] == 3                 # contiguous
    untouched = ~is_mean
    np.testing.assert_array_equal(out.frames[untouched],
                                  target.frames[untouched])


def test_mask_negative_needs_four_frames():
    with pytest.raises(EmptyInputError):
        augment.synth_negative_mask(rand_seq(3), np.random.default_rng(0))


def test_shuffle_negative_preserves_frames():
    target = rand_seq(10, seed=3)
    out = augment.synth_negative_shuffle(target, np.random.default_rng(0))
    assert out.label == 0 and out.provenance == "shuffled"
    assert out.frames.shape == target.frames.shape
    np.testing.assert_array_equal(
        np.sort(out.frames, axis=0), np.sort(target.frames, axis=0))
    assert not np.array_equal(out.frames, target.frames)


def test_shuffle_negative_t10_swaps_halves():
    target = rand_seq(10, seed=4)
    out = augment.synth_negative_shuffle(target, np.random.default_rng(0))
    # T=10 -> two blocks; the only non-identity permutation swaps them
    np.testing.assert_array_equal(out.frames[:5], target.frames[5:])
    np.testing.assert_array_equal(out.frames[5:], target.frames[:5])


# -- training-set assembly ----------------------------------------------------------

def ramp_shots(n):
    return [dsp.Waveform(np.arange(2 * 16000, dtype=float) / 1e6, 16000)
            for _ in range(n)]


def test_build_train_set_counts(shift_delta):
    model, pairs = shift_delta
    shots = ramp_shots(3)
    segments = [curation.Segment(i, 0.5, 1.3) for i in range(3)]
    out = augment.build_train_set(shots, segments, fake_embed, model,
                                  pairs, augment.AugmentConfig(),
                                  np.random.default_rng(0))
    assert len(out) == 99
    labels = [s.label for s in out]
    assert labels.count(1) == 51 and labels.count(0) == 48
    by_prov = {p: sum(1 for s in out if s.provenance == p)
               for p in augment.PROVENANCES}
    assert by_prov == {"curated": 3, "time_shift": 24, "delta": 24,
                       "masked": 24, "shuffled": 24}
    lengths = {s.frames.shape[0] for s in out}
    assert lengths == {6}


def test_build_train_set_without_delta_encoder():
    # no Δ-encoder, no Δ positives
    shots = ramp_shots(3)
    segments = [curation.Segment(i, 0.5, 1.3) for i in range(3)]
    out = augment.build_train_set(shots, segments, fake_embed, None, [],
                                  augment.AugmentConfig(),
                                  np.random.default_rng(0))
    by_prov = {p: sum(1 for s in out if s.provenance == p)
               for p in augment.PROVENANCES}
    assert by_prov == {"curated": 3, "time_shift": 24, "delta": 0,
                       "masked": 24, "shuffled": 24}


def test_build_train_set_delta_encoder_needs_donors(shift_delta):
    model, _ = shift_delta
    shots = ramp_shots(1)
    with pytest.raises(EmptyInputError, match="donor"):
        augment.build_train_set(shots, [curation.Segment(0, 0.5, 1.3)],
                                fake_embed, model, [],
                                augment.AugmentConfig(),
                                np.random.default_rng(0))


def test_build_train_set_empty():
    with pytest.raises(EmptyInputError):
        augment.build_train_set([], [], fake_embed, None, [],
                                augment.AugmentConfig(),
                                np.random.default_rng(0))


# -- serialization ------------------------------------------------------------------

def test_sequence_file_roundtrip(tmp_path):
    s = rand_seq(7, seed=9, label=0, provenance="masked")
    augment.write_embedding_sequence(tmp_path / "s.sqes", s)
    back = augment.read_embedding_sequence(tmp_path / "s.sqes")
    np.testing.assert_allclose(back.frames, s.frames, atol=1e-6)
    assert back.label == 0 and back.provenance == "masked"


def test_sequence_file_errors(tmp_path):
    s = rand_seq(5)
    augment.write_embedding_sequence(tmp_path / "s.sqes", s)
    raw = (tmp_path / "s.sqes").read_bytes()
    (tmp_path / "t.sqes").write_bytes(raw[:-4])
    with pytest.raises(TruncatedFileError):
        augment.read_embedding_sequence(tmp_path / "t.sqes")
    (tmp_path / "u.sqes").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        augment.read_embedding_sequence(tmp_path / "u.sqes")
    # the payload ends with the label byte, then the provenance byte; the
    # first frame's first value sits right after the 16-byte header
    nan = np.array([np.nan], dtype="<f4").tobytes()
    for name, bad in [
            ("provenance", raw[:-1] + bytes([len(augment.PROVENANCES)])),
            ("label", raw[:-2] + bytes([2]) + raw[-1:]),
            ("nan", raw[:16] + nan + raw[20:])]:
        (tmp_path / f"{name}.sqes").write_bytes(bad)
        with pytest.raises(FormatError):
            augment.read_embedding_sequence(tmp_path / f"{name}.sqes")


def test_train_set_roundtrip(tmp_path):
    seqs = [rand_seq(6, seed=i, label=i % 2,
                     provenance="curated" if i % 2 else "masked")
            for i in range(5)]
    augment.save_train_set(tmp_path / "dset", seqs)
    back = augment.load_train_set(tmp_path / "dset")
    assert len(back) == 5
    for a, b in zip(seqs, back):
        np.testing.assert_allclose(a.frames, b.frames, atol=1e-6)
        assert (a.label, a.provenance) == (b.label, b.provenance)


def test_train_set_manifest_not_json_is_format_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{")
    with pytest.raises(FormatError, match=re.escape(f"{manifest}: ")):
        augment.load_train_set(tmp_path)
