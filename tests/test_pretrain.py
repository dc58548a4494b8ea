import copy
import gc
import warnings
import weakref

import numpy as np
import pytest

from seqshot import dsp, evaluate, pretrain
from seqshot.errors import EmptyInputError, SeqshotError, ShapeError

from reference_ops import embed_frames_one_pass, pseudo_logits_per_window

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)


def tone(freq, dur_s, amp=0.2, sr=16000):
    t = np.arange(int(dur_s * sr)) / sr
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def noise(dur_s, seed, amp=0.2, sr=16000):
    rng = np.random.default_rng(seed)
    return dsp.Waveform(amp * rng.standard_normal(int(dur_s * sr)), sr)


def wav_record(path, w, labels):
    """A record of ``w`` written as the wav file ``path``."""
    dsp.write_wav(path, w)
    return pretrain.ClipRecord(wav_path=path, labels=labels)


def make_records(root, n_per_class=16, dur_s=1.0):
    recs = []
    for i in range(n_per_class):
        recs.append(wav_record(root / f"tone{i}.wav",
                               tone(500 + 20 * i, dur_s), (0,)))
        recs.append(wav_record(root / f"noise{i}.wav",
                               noise(dur_s, seed=i), (1,)))
    return recs


def mean_ap(scores, labels):
    """Mean over the label columns of each column's average precision."""
    return np.mean([evaluate.auprc(scores[:, c], labels[:, c])
                    for c in range(labels.shape[1])])


@pytest.fixture(scope="module")
def toy_weak(tmp_path_factory):
    recs = make_records(tmp_path_factory.mktemp("toy"))
    cfg = pretrain.TrainConfig(epochs=15, batch_size=8, crop_frames=98,
                               augment=False, seed=3)
    return pretrain.train_weak(recs, 2, cfg,
                               pretrain.ModelConfig(n_classes=2, seed=3,
                                                    **TINY)), recs


# -- shapes and embeddings -----------------------------------------------------

def test_strong_output_frame_count():
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    for t, expect in [(998, 31), (320, 10), (98, 3)]:
        logits, _ = model.forward(np.zeros((1, 1, t, 64)))
        assert logits.shape == (1, 2, expect)


def test_embed_pooled_fixed_dim_across_durations():
    model = pretrain.WeakModel(pretrain.ModelConfig(n_classes=2, **TINY))
    e1 = pretrain.embed_pooled(model, tone(440, 0.6))
    e2 = pretrain.embed_pooled(model, tone(440, 2.3))
    assert e1.shape == e2.shape == (12,)
    np.testing.assert_array_equal(
        e1, pretrain.embed_pooled(model, tone(440, 0.6)))


def test_embed_too_short():
    model = pretrain.WeakModel(pretrain.ModelConfig(n_classes=2, **TINY))
    with pytest.raises(EmptyInputError):
        pretrain.embed_pooled(model, tone(440, 0.4))


def test_embed_frames_shape_and_hop():
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    frames = pretrain.embed_frames(model, tone(440, 3.2))
    # 3.2 s -> 318 logmel frames -> 9 embedding frames; the stage-3 tap
    # flattens 8 channels x 8 freq bins
    assert frames.shape == (9, 64)


def test_embed_frames_concat_property():
    # embedding frames away from the junction equal the frames of each
    # half embedded alone (one output frame covers exactly 320 ms)
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    a, b = tone(523, 3.2), noise(3.2, seed=9)
    both = dsp.Waveform(np.concatenate([a.samples, b.samples]), 16000)
    fa = pretrain.embed_frames(model, a)
    fb = pretrain.embed_frames(model, b)
    fab = pretrain.embed_frames(model, both)
    np.testing.assert_allclose(fab[:9], fa, atol=1e-10)
    np.testing.assert_allclose(fab[10:19], fb, atol=1e-10)


def test_strong_locality():
    # perturbing audio after 1.6 s leaves the first four 320 ms frames
    # bit-identical
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    w = tone(330, 2.0)
    before = pretrain.embed_frames(model, w)
    bumped = w.samples.copy()
    bumped[int(1.7 * 16000):] += 0.3
    after = pretrain.embed_frames(model, dsp.Waveform(bumped, 16000))
    np.testing.assert_array_equal(before[:4], after[:4])
    assert not np.array_equal(before[4:], after[4:])


@pytest.mark.parametrize("seconds", [20.0, 21.0, 26.0, 41.2, 47.0])
def test_embed_frames_in_chunks_equal_one_pass(seconds):
    # 20.48 s chunks: 20 s fits one, 21 s too (its 0.5 s tail, under 16
    # frames, joins it), 26 s takes two, 41.2 s two (its 0.2 s tail joins
    # the second) and 47 s three, so chunk edges fall inside scan windows.
    # Chunks before the last equal the one-pass frames bit for bit; the
    # last one, at least EMBED_MIN_TAIL frames, to 1e-12 (GEMMs of few rows
    # may round differently)
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    w = noise(seconds, seed=int(seconds))
    want = embed_frames_one_pass(model, w)
    got = pretrain.embed_frames(model, w)
    assert got.shape == want.shape
    spans = dsp.spans(dsp.frame_count(len(w.samples)),
                      pretrain.EMBED_CHUNK * pretrain.FRAMES_PER_EMBED,
                      pretrain.EMBED_MIN_TAIL * pretrain.FRAMES_PER_EMBED)
    assert len(spans) == {20.0: 1, 21.0: 1, 26.0: 2, 41.2: 2, 47.0: 3}[seconds]
    last = spans[-1][0] // pretrain.FRAMES_PER_EMBED
    assert len(got) - last >= pretrain.EMBED_MIN_TAIL
    np.testing.assert_array_equal(got[:last], want[:last])
    np.testing.assert_allclose(got[last:], want[last:], rtol=0, atol=1e-12)


def test_embed_stream_takes_blocks_of_any_size():
    # the signal may arrive in blocks shorter than a frame or than the
    # 240 samples consecutive chunks share; the frames stay the same
    model = pretrain.StrongModel(pretrain.ModelConfig(n_classes=2, **TINY))
    x = noise(43.0, seed=4).samples
    whole = pretrain.embed_frames(model, dsp.Waveform(x))
    cuts = [0, 7, 400, 327_681, 327_921, 330_000, 655_360, 655_361, len(x)]
    blocks = [x[a:b] for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(
        pretrain.embed_stream(model, blocks, len(x)), whole)


def test_centre_frames_subtracts_the_mean_in_place():
    frames = np.random.default_rng(0).standard_normal((7, 5))
    want = frames - frames.mean(axis=0)
    assert pretrain.centre_frames(frames) is frames
    np.testing.assert_array_equal(frames, want)


# -- losses ----------------------------------------------------------------------

def test_bce_hand_example():
    loss, grad = pretrain.bce_with_logits(np.array([[0.0]]), np.array([[1.0]]))
    assert loss == pytest.approx(np.log(2.0))
    assert grad[0, 0] == pytest.approx(-0.5)


def test_bce_extreme_logits_stable():
    loss, _ = pretrain.bce_with_logits(np.array([500.0, -500.0]),
                                       np.array([1.0, 0.0]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_of_very_negative_logit_is_zero_without_warning():
    # exp(1000) overflows; the limit 1 / (1 + inf) = 0 is the answer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pretrain.sigmoid(np.array([-1000.0]))[0] == 0.0


def test_kd_zero_when_logits_match():
    t = np.array([[1.3, -0.4, 0.0]])
    loss, grad = pretrain.kd_binary_kl(t, t.copy(), temperature=2.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_kd_gradient_finite_difference():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 3))
    s = rng.standard_normal((2, 3))
    _, grad = pretrain.kd_binary_kl(t, s, temperature=2.0)
    h = 1e-6
    for idx in [(0, 0), (1, 2)]:
        sp, sm = s.copy(), s.copy()
        sp[idx] += h
        sm[idx] -= h
        num = (pretrain.kd_binary_kl(t, sp, 2.0)[0]
               - pretrain.kd_binary_kl(t, sm, 2.0)[0]) / (2 * h)
        assert grad[idx] == pytest.approx(num, rel=1e-5)


# -- training -------------------------------------------------------------------

def test_zero_epochs_keeps_initialization(tmp_path):
    recs = make_records(tmp_path, 2)
    mc = pretrain.ModelConfig(n_classes=2, seed=5, **TINY)
    cfg = pretrain.TrainConfig(epochs=0, crop_frames=98, seed=5)
    trained = pretrain.train_weak(recs, 2, cfg, mc)
    fresh = pretrain.WeakModel(mc)
    for k, v in trained.params().items():
        np.testing.assert_array_equal(v, fresh.params()[k])


def test_training_deterministic(tmp_path):
    recs = make_records(tmp_path, 4)
    mc = pretrain.ModelConfig(n_classes=2, seed=1, **TINY)

    def run(path):
        cfg = pretrain.TrainConfig(epochs=1, batch_size=4, crop_frames=98,
                                   augment=True, seed=1)
        pretrain.train_weak(recs, 2, cfg, mc).save(path)
        return path.read_bytes()

    assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")


def _reference_batch(records, idxs, targets, rng, cfg, random_crop=True):
    """The batch built the direct way: resample and log-mel each whole
    clip, then crop or pad its frames; the draws are in the same order."""
    n_crop = cfg.crop_frames
    feats, targs = [], []
    for i in idxs:
        w, rate = records[i].load(), 1.0
        if cfg.augment:
            rate = float(rng.uniform(0.9, 1.1))
            gain = float(rng.uniform(-20.0, 20.0))
            w = dsp.augment_gain(dsp.augment_resample(w, rate), gain)
        m = dsp.logmel(w)
        t = m.shape[0]
        if t >= n_crop:
            off = int(rng.integers(0, t - n_crop + 1)) if random_crop else 0
            m, valid = m[off: off + n_crop], n_crop
        else:
            pad = np.full((n_crop - t, m.shape[1]), np.log(dsp.LOG_FLOOR))
            m, off, valid = np.vstack([m, pad]), 0, t
        if cfg.augment:
            m = dsp.spec_augment(m, rng)
        feats.append(m)
        targs.append(targets(int(i), rate, off, valid))
    if cfg.augment and len(idxs) > 1:
        perm = rng.permutation(len(idxs))
        lams = [dsp.draw_mixup_lambda(rng) for _ in idxs]
        mixed = [dsp.mixup(feats[k], feats[j], targs[k], targs[j], lam)
                 for k, (j, lam) in enumerate(zip(perm, lams))]
        feats, targs = [f for f, _ in mixed], [t for _, t in mixed]
    return np.stack(feats)[:, None, :, :], np.stack(targs)


def _crop_targets(records, batch_size):
    """A ``targets`` function and the crops it is called with.

    Each target holds the clip's multi-hot, a one-hot of the item's batch
    position (so mixup's partner and weight show in the mixed target) and
    the crop (record, rate, offset, valid frames)."""
    crops = []

    def targets(i, rate, off, valid):
        position = np.eye(batch_size)[len(crops)]
        crops.append((i, rate, off, valid))
        return np.concatenate([pretrain.multi_hot(records[i].labels, 2),
                               position, [i, rate, off, valid]])
    return targets, crops


class _UnitRate:
    """A Generator whose playback-rate draws come out exactly 1.0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        value = self._rng.uniform(low, high)
        return 1.0 if (low, high) == (0.9, 1.1) else value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _batch_records(root):
    # 98, 68 and 248 log-mel frames at rate 1
    durations = (1.0, 0.7, 2.5, 1.0, 0.7)
    return [wav_record(root / f"{k}.wav", noise(d, seed=40 + k), (k % 2,))
            for k, d in enumerate(durations)]


@pytest.mark.parametrize("augment", [True, False])
@pytest.mark.parametrize("random_crop", [True, False])
@pytest.mark.parametrize("crop_frames", [48, 98, 150, 300])
def test_prepare_batch_equals_whole_clip_crop(tmp_path, augment, random_crop,
                                              crop_frames):
    # 150 and 300 frames pad the short clips (300 pads them all)
    recs = _batch_records(tmp_path)
    cfg = pretrain.TrainConfig(crop_frames=crop_frames, augment=augment)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        idxs = rng_a.choice(len(recs), size=4)
        rng_b.choice(len(recs), size=4)
        got_targets, got_crops = _crop_targets(recs, 4)
        want_targets, want_crops = _crop_targets(recs, 4)
        got = pretrain._prepare_batch(recs, idxs, got_targets, rng_a, cfg,
                                      random_crop, {})
        want = _reference_batch(recs, idxs, want_targets, rng_b, cfg,
                                random_crop)
        assert len(got) == 2
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got_crops == want_crops


def test_prepare_batch_rate_exactly_one(tmp_path):
    recs = _batch_records(tmp_path)
    cfg = pretrain.TrainConfig(crop_frames=60, augment=True)
    idxs = np.arange(len(recs))
    got_targets, got_crops = _crop_targets(recs, len(recs))
    want_targets, want_crops = _crop_targets(recs, len(recs))
    got = pretrain._prepare_batch(recs, idxs, got_targets, _UnitRate(5), cfg,
                                  True, {})
    want = _reference_batch(recs, idxs, want_targets, _UnitRate(5), cfg)
    assert all(rate == 1.0 for _, rate, _, _ in got_crops)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got_crops == want_crops


def test_prepare_batch_computes_only_cropped_frames(tmp_path, monkeypatch):
    recs = _batch_records(tmp_path)
    computed = []
    logmel = dsp.logmel

    def counting_logmel(w):
        m = logmel(w)
        computed.append(m.shape[0])
        return m

    monkeypatch.setattr(dsp, "logmel", counting_logmel)
    cfg = pretrain.TrainConfig(crop_frames=48, augment=True)
    pretrain._prepare_batch(recs, np.arange(len(recs)),
                            _crop_targets(recs, len(recs))[0],
                            np.random.default_rng(0), cfg, True, {})
    assert computed == [48] * len(recs)


def test_strong_frame_targets_under_mixup(tmp_path, monkeypatch):
    # each train_strong batch is replayed with position tags as targets,
    # which read out every item's mixup partner j and weight lam
    recs = _batch_records(tmp_path)
    rng = np.random.default_rng(3)
    psl = [pretrain.PseudoStrongLabels(labels=rng.integers(
               0, 2, size=((len(r.load().samples) - 8000) // 1600 + 1, 2),
               dtype=np.uint8)) for r in recs]
    student = pretrain.WeakModel(pretrain.ModelConfig(n_classes=2, seed=3,
                                                      **TINY))
    cfg = pretrain.TrainConfig(epochs=2, batch_size=4, crop_frames=96,
                               augment=True, seed=3)
    prepare, batches = pretrain._prepare_batch, []

    def spying_prepare(records, idxs, targets, rng, *args):
        crops, replay = [], copy.deepcopy(rng)

        def logging_targets(i, rate, off, valid):
            crops.append((i, rate, off, valid))
            return targets(i, rate, off, valid)
        x, y = prepare(records, idxs, logging_targets, rng, *args)
        tags = prepare(records, idxs, _crop_targets(records, len(idxs))[0],
                       replay, *args)[1][:, 2: 2 + len(idxs)]
        batches.append((crops, y, tags))
        return x, y

    monkeypatch.setattr(pretrain, "_prepare_batch", spying_prepare)
    pretrain.train_strong(student, recs, psl, cfg)
    mixed = 0
    for crops, y, tags in batches:
        t = [pretrain._frame_targets(psl[i], 3, rate, off, valid).T
             for i, rate, off, valid in crops]
        assert y.shape == (len(crops), 2, 3)
        for k, tag in enumerate(tags):
            lam = tag[k]
            j = int(np.argmax(np.where(np.arange(len(tag)) == k, -1, tag)))
            if tag[j] == 0:         # mixed with itself
                j = k
            mixed += j != k and 0 < lam < 1 and not np.array_equal(t[k], t[j])
            np.testing.assert_allclose(y[k], lam * t[k] + (1 - lam) * t[j],
                                       rtol=0, atol=1e-12)
    assert len(batches) == 4 and mixed > 0


def test_strong_model_needs_five_stages():
    for channels in [(4, 6, 8), (4, 6, 8, 10), (4, 6, 8, 10, 12, 14)]:
        with pytest.raises(SeqshotError, match=f"{len(channels)} stages"):
            pretrain.StrongModel(pretrain.ModelConfig(
                n_classes=2, channels=channels, head_hidden=16, embed_dim=8))


@pytest.mark.parametrize("stage", ["weak", "strong"])
def test_unaugmented_run_computes_one_whole_clip_logmel_per_clip(
        tmp_path, monkeypatch, stage):
    recs = make_records(tmp_path, 3, dur_s=1.5)
    mc = pretrain.ModelConfig(n_classes=2, seed=4, **TINY)
    student = pretrain.WeakModel(mc)
    psl = [pretrain.pseudo_label(student, r.load()) for r in recs]
    logmel_inputs, drawn = [], set()
    logmel, prepare = dsp.logmel, pretrain._prepare_batch

    def spying_logmel(w):
        logmel_inputs.append(w)
        return logmel(w)

    def spying_prepare(records, idxs, *args):
        drawn.update(int(i) for i in idxs)
        return prepare(records, idxs, *args)

    monkeypatch.setattr(dsp, "logmel", spying_logmel)
    monkeypatch.setattr(pretrain, "_prepare_batch", spying_prepare)
    # 48-frame crops of 148-frame clips, several draws of each clip
    cfg = pretrain.TrainConfig(epochs=4, batch_size=4, crop_frames=48,
                               augment=False, seed=4)
    if stage == "weak":
        pretrain.train_weak(recs, 2, cfg, mc)
    else:
        pretrain.train_strong(student, recs, psl, cfg)
    assert len(drawn) > 1
    # every clip differs, so each input names the one clip it holds
    assert sorted(next(i for i in drawn
                       if np.array_equal(w.samples, recs[i].load().samples))
                  for w in logmel_inputs) == sorted(drawn)


def test_training_keeps_nothing_after_the_run(tmp_path, monkeypatch):
    recs = make_records(tmp_path, 2, dur_s=1.5)
    mc = pretrain.ModelConfig(n_classes=2, seed=6, **TINY)
    cfg = pretrain.TrainConfig(epochs=2, batch_size=4, crop_frames=48,
                               augment=False, seed=6)
    student = pretrain.train_weak(recs, 2, cfg, mc)
    psl = [pretrain.pseudo_label(student, r.load()) for r in recs]
    stored = []
    logmel = dsp.logmel

    def keeping_logmel(w):
        m = logmel(w)
        stored.append(weakref.ref(m))
        return m

    monkeypatch.setattr(dsp, "logmel", keeping_logmel)
    pretrain.train_weak(recs, 2, cfg, mc)
    pretrain.train_strong(student, recs, psl, cfg)
    gc.collect()
    assert stored and all(ref() is None for ref in stored)
    for r in recs:
        assert not any(isinstance(v, (np.ndarray, dsp.Waveform))
                       for v in vars(r).values())


def test_label_out_of_range():
    # both entry points refuse before they read any audio
    recs = [pretrain.ClipRecord(labels=(3,))]
    cfg = pretrain.TrainConfig(epochs=1)
    mc = pretrain.ModelConfig(n_classes=2, **TINY)
    with pytest.raises(SeqshotError, match="exceeds n_classes"):
        pretrain.train_weak(recs, 2, cfg, mc)
    with pytest.raises(SeqshotError, match="exceeds n_classes"):
        pretrain.distill(pretrain.WeakModel(mc), mc, recs, cfg)


def test_toy_training_separates(toy_weak):
    model, recs = toy_weak
    x = np.stack([dsp.logmel(r.load()) for r in recs])[:, None]
    labels = np.stack([pretrain.multi_hot(r.labels, 2) for r in recs])
    assert mean_ap(model.forward(x)[0], labels) > 0.95


def test_toy_embeddings_separate_classes(toy_weak):
    model, _ = toy_weak
    e_tone = pretrain.embed_pooled(model, tone(640, 1.0))
    e_noise = pretrain.embed_pooled(model, noise(1.0, seed=99))
    cos = (e_tone @ e_noise) / (np.linalg.norm(e_tone)
                                * np.linalg.norm(e_noise) + 1e-12)
    assert cos < 0.98


def test_checkpoint_roundtrip(toy_weak, tmp_path):
    model, _ = toy_weak
    model.save(tmp_path / "weak.ckpt")
    loaded = pretrain.WeakModel.load(tmp_path / "weak.ckpt")
    x = dsp.logmel(tone(500, 1.0))[None, None]
    # on-disk tensors are float32, so trained weights quantize once ...
    np.testing.assert_allclose(model.forward(x)[0], loaded.forward(x)[0],
                               rtol=1e-5)
    # ... but a second save/load cycle is exact
    loaded.save(tmp_path / "weak2.ckpt")
    assert (tmp_path / "weak.ckpt").read_bytes() == \
        (tmp_path / "weak2.ckpt").read_bytes()


def test_distill_runs_and_matches_teacher_direction(toy_weak):
    teacher, recs = toy_weak
    cfg = pretrain.TrainConfig(epochs=6, batch_size=8, crop_frames=98,
                               augment=False, seed=7)
    student = pretrain.distill(
        teacher, pretrain.ModelConfig(n_classes=2, seed=7, channels=(3, 4, 5, 6, 8),
                                      head_hidden=8, embed_dim=8),
        recs, cfg)
    x = np.stack([dsp.logmel(r.load()) for r in recs])[:, None]
    labels = np.stack([pretrain.multi_hot(r.labels, 2) for r in recs])
    assert mean_ap(student.forward(x)[0], labels) > 0.9


# -- pseudo-strong labels ---------------------------------------------------------

def test_pseudo_label_shape_and_strict_threshold():
    mc = pretrain.ModelConfig(n_classes=3, **TINY)
    model = pretrain.WeakModel(mc)
    # zero the head's last layer: every probability is exactly 0.5,
    # which must NOT pass the strictly-greater threshold
    model.head.params()["fc2/W"][...] = 0.0
    model.head.params()["fc2/b"][...] = 0.0
    model.mark_updated()
    psl = pretrain.pseudo_label(model, noise(10.0, seed=1))
    assert psl.labels.shape == (96, 3)
    assert psl.labels.sum() == 0


def test_pseudo_label_too_short():
    model = pretrain.WeakModel(pretrain.ModelConfig(n_classes=2, **TINY))
    with pytest.raises(EmptyInputError):
        pretrain.pseudo_label(model, tone(440, 0.3))


def test_pseudo_label_localizes(toy_weak):
    model, _ = toy_weak
    # 1 s of tone at 1.5 s inside 4 s of noise: tone-class windows must
    # overlap the tone (window starts in [1.0, 2.5])
    sig = noise(4.0, seed=3).samples.copy()
    t = np.arange(16000) / 16000
    sig[24000: 40000] = 0.2 * np.sin(2 * np.pi * 600 * t)
    psl = pretrain.pseudo_label(model, dsp.Waveform(sig, 16000))
    on = np.flatnonzero(psl.labels[:, 0])
    assert len(on) > 0
    assert on.min() * 0.1 >= 1.0 - 1e-9
    assert on.max() * 0.1 <= 2.5 + 1e-9


def split_labels(model, clips):
    """Set ``model``'s output bias to minus each class's median reference
    logit over ``clips``, so its pseudo-labels hold both 0 and 1."""
    logits = np.concatenate([pseudo_logits_per_window(model, w)
                             for w in clips])
    model.head.params()["fc2/b"][...] = -np.median(logits, axis=0)
    model.mark_updated()


@pytest.mark.parametrize("channels", [
    (4,), (4, 6), (3, 4, 5), (4, 6, 8, 10), TINY["channels"],
    pretrain.ModelConfig.channels,
], ids=["1_stage", "2_stages", "3_stages", "4_stages", "tiny", "default"])
def test_pseudo_logits_equal_per_window_reference(channels):
    # one window (0.5 s), a length that is not a whole number of hops, and
    # more than one batch of windows (13.5 s: 131 windows)
    clips = [noise(0.5, seed=4), noise(2.37, seed=5), noise(13.5, seed=6)]
    assert (13.5 - 0.5) / 0.1 + 1 > pretrain.PSEUDO_BATCH
    model = pretrain.WeakModel(pretrain.ModelConfig(
        n_classes=3, channels=channels, head_hidden=16, seed=2))
    split_labels(model, clips)
    labels = []
    for w in clips:
        want = pseudo_logits_per_window(model, w)
        assert np.array_equal(pretrain._pseudo_logits(model, w), want)
        psl = pretrain.pseudo_label(model, w)
        np.testing.assert_array_equal(
            psl.labels, pretrain.sigmoid(want) > pretrain.PSEUDO_THRESHOLD)
        labels.append(psl.labels)
    labels = np.concatenate(labels)
    assert labels.shape == (1 + 19 + 131, 3)
    assert 0 < labels.sum() < labels.size


def test_pseudo_label_six_stages_is_shape_error():
    # 48 log-mel rows leave one time step after five stride-2 stages
    model = pretrain.WeakModel(pretrain.ModelConfig(
        n_classes=2, channels=(4, 6, 8, 10, 12, 14), head_hidden=16))
    with pytest.raises(ShapeError, match="conv5: input .* too small"):
        pretrain.pseudo_label(model, noise(1.0, seed=1))


# -- strong training --------------------------------------------------------------

def test_frame_targets_padding_is_zero():
    psl = pretrain.PseudoStrongLabels(labels=np.ones((96, 2), dtype=np.uint8))
    targets = pretrain._frame_targets(psl, n_out=4, rate=1.0, crop_off=0,
                                      valid=70)
    # frames 0, 1 fit inside 70 valid logmel frames; 2 and 3 are padding
    np.testing.assert_array_equal(targets[:2], 1.0)
    np.testing.assert_array_equal(targets[2:], 0.0)


def test_frame_targets_nearest_window():
    labels = np.zeros((96, 1), dtype=np.uint8)
    labels[20:41] = 1          # windows starting at 2.0 .. 4.0 s
    psl = pretrain.PseudoStrongLabels(labels=labels)
    targets = pretrain._frame_targets(psl, n_out=31, rate=1.0, crop_off=0,
                                      valid=998)
    for f in range(31):
        center = (f + 0.5) * 0.32
        j = int(round((center - 0.25) / 0.1))
        j = min(max(j, 0), 95)
        assert targets[f, 0] == labels[j, 0]


def test_train_strong_initializes_from_student(toy_weak):
    student, recs = toy_weak
    psl = [pretrain.pseudo_label(student, r.load()) for r in recs[:4]]
    cfg = pretrain.TrainConfig(epochs=0, crop_frames=98, seed=2)
    strong = pretrain.train_strong(student, recs[:4], psl, cfg)
    s_params = student.backbone.params()
    for k, v in strong.backbone.params().items():
        if k in s_params:
            np.testing.assert_array_equal(v, s_params[k])


def test_train_strong_learns_toy(toy_weak):
    student, recs = toy_weak
    psl = [pretrain.pseudo_label(student, r.load()) for r in recs]
    cfg = pretrain.TrainConfig(epochs=8, batch_size=8, crop_frames=98,
                               augment=False, seed=2)
    strong = pretrain.train_strong(student, recs, psl, cfg)
    assert strong.loss_curve[-1] < strong.loss_curve[0]
    frames = pretrain.embed_frames(strong, tone(520, 1.0))
    assert frames.shape == (3, 64)


def test_pseudo_count_mismatch(toy_weak):
    student, recs = toy_weak
    with pytest.raises(SeqshotError):
        pretrain.train_strong(student, recs, [], pretrain.TrainConfig())


@pytest.mark.parametrize("shape", [(16, 3), (0, 2)],
                         ids=["other_class_count", "no_window"])
def test_pseudo_labels_must_fit_the_student(toy_weak, shape):
    # labels another model wrote, or that hold no window, are refused
    # before training starts
    student, recs = toy_weak
    assert student.config.n_classes == 2
    psl = [pretrain.PseudoStrongLabels(labels=np.zeros(shape, np.uint8))
           for _ in recs]
    with pytest.raises(SeqshotError, match="pseudo labels of shape"):
        pretrain.train_strong(student, recs, psl,
                              pretrain.TrainConfig(epochs=1, crop_frames=98))
