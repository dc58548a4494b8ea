import numpy as np
import pytest

from seqshot import dsp, evaluate, pretrain
from seqshot.errors import EmptyInputError, SeqshotError, TruncatedFileError

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)


def tone(freq, dur_s, amp=0.2, sr=16000):
    t = np.arange(int(dur_s * sr)) / sr
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def noise(dur_s, seed, amp=0.2, sr=16000):
    rng = np.random.default_rng(seed)
    return dsp.Waveform(amp * rng.standard_normal(int(dur_s * sr)), sr)


def make_records(n_per_class=16, dur_s=1.0):
    recs = []
    for i in range(n_per_class):
        recs.append(pretrain.ClipRecord(labels=(0,),
                                        _waveform=tone(500 + 20 * i, dur_s)))
        recs.append(pretrain.ClipRecord(labels=(1,),
                                        _waveform=noise(dur_s, seed=i)))
    return recs


@pytest.fixture(scope="module")
def toy_weak():
    recs = make_records()
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
    # the neck tap pools frequency away and returns embed_dim features
    neck_model = pretrain.StrongModel(pretrain.ModelConfig(
        n_classes=2, embed_tap=None, **TINY))
    assert pretrain.embed_frames(neck_model, tone(440, 3.2)).shape == (9, 8)


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


# -- losses ----------------------------------------------------------------------

def test_bce_hand_example():
    loss, grad = pretrain.bce_with_logits(np.array([[0.0]]), np.array([[1.0]]))
    assert loss == pytest.approx(np.log(2.0))
    assert grad[0, 0] == pytest.approx(-0.5)


def test_bce_extreme_logits_stable():
    loss, _ = pretrain.bce_with_logits(np.array([500.0, -500.0]),
                                       np.array([1.0, 0.0]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)


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

def test_zero_epochs_keeps_initialization():
    recs = make_records(2)
    mc = pretrain.ModelConfig(n_classes=2, seed=5, **TINY)
    cfg = pretrain.TrainConfig(epochs=0, crop_frames=98, seed=5)
    trained = pretrain.train_weak(recs, 2, cfg, mc)
    fresh = pretrain.WeakModel(mc)
    for k, v in trained.params().items():
        np.testing.assert_array_equal(v, fresh.params()[k])


def test_training_deterministic(tmp_path):
    recs = make_records(4)
    mc = pretrain.ModelConfig(n_classes=2, seed=1, **TINY)

    def run(path):
        cfg = pretrain.TrainConfig(epochs=1, batch_size=4, crop_frames=98,
                                   augment=True, spec_max_t=5, seed=1)
        pretrain.train_weak(recs, 2, cfg, mc).save(path)
        return path.read_bytes()

    assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")


def _reference_batch(records, idxs, n_classes, rng, cfg, random_crop=True):
    """The batch built the direct way: resample and log-mel each whole
    clip, then crop or pad its frames; the draws are in the same order."""
    n_crop = cfg.crop_frames
    feats, targs, meta = [], [], []
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
            m = dsp.spec_augment(m, rng, cfg.spec_time_masks,
                                 cfg.spec_freq_masks, cfg.spec_max_t,
                                 cfg.spec_max_f)
        feats.append(m)
        targs.append(pretrain.multi_hot(records[i].labels, n_classes))
        meta.append({"idx": int(i), "rate": rate, "off": off, "valid": valid,
                     "partner": None, "lam": 1.0})
    if cfg.augment and len(idxs) > 1:
        perm = rng.permutation(len(idxs))
        lams = [dsp.draw_mixup_lambda(rng) for _ in idxs]
        mixed = [dsp.mixup(feats[k], feats[j], targs[k], targs[j], lam)
                 for k, (j, lam) in enumerate(zip(perm, lams))]
        feats, targs = [f for f, _ in mixed], [t for _, t in mixed]
        for k, (j, lam) in enumerate(zip(perm, lams)):
            meta[k].update(partner=int(j), lam=lam)
    return np.stack(feats)[:, None, :, :], np.stack(targs), meta


class _UnitRate:
    """A Generator whose playback-rate draws come out exactly 1.0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        value = self._rng.uniform(low, high)
        return 1.0 if (low, high) == (0.9, 1.1) else value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _batch_records():
    # 98, 68 and 248 log-mel frames at rate 1
    durations = (1.0, 0.7, 2.5, 1.0, 0.7)
    return [pretrain.ClipRecord(labels=(k % 2,),
                                _waveform=noise(d, seed=40 + k))
            for k, d in enumerate(durations)]


@pytest.mark.parametrize("augment", [True, False])
@pytest.mark.parametrize("random_crop", [True, False])
@pytest.mark.parametrize("crop_frames", [48, 98, 150, 300])
def test_prepare_batch_equals_whole_clip_crop(augment, random_crop,
                                              crop_frames):
    # 150 and 300 frames pad the short clips (300 pads them all)
    recs = _batch_records()
    cfg = pretrain.TrainConfig(crop_frames=crop_frames, augment=augment,
                               spec_max_t=5)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        idxs = rng_a.choice(len(recs), size=4)
        rng_b.choice(len(recs), size=4)
        got = pretrain._prepare_batch(recs, idxs, 2, rng_a, cfg, random_crop)
        want = _reference_batch(recs, idxs, 2, rng_b, cfg, random_crop)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


def test_prepare_batch_rate_exactly_one():
    recs = _batch_records()
    cfg = pretrain.TrainConfig(crop_frames=60, augment=True, spec_max_t=5)
    idxs = np.arange(len(recs))
    got = pretrain._prepare_batch(recs, idxs, 2, _UnitRate(5), cfg)
    want = _reference_batch(recs, idxs, 2, _UnitRate(5), cfg)
    assert all(m["rate"] == 1.0 for m in got[2])
    np.testing.assert_array_equal(got[0], want[0])
    assert got[2] == want[2]


def test_prepare_batch_computes_only_cropped_frames(monkeypatch):
    recs = _batch_records()
    computed = []
    logmel = dsp.logmel

    def counting_logmel(w):
        m = logmel(w)
        computed.append(m.shape[0])
        return m

    monkeypatch.setattr(dsp, "logmel", counting_logmel)
    for augment in (True, False):
        cfg = pretrain.TrainConfig(crop_frames=48, augment=augment,
                                   spec_max_t=5)
        pretrain._prepare_batch(recs, np.arange(len(recs)), 2,
                                np.random.default_rng(0), cfg)
    assert computed == [48] * (2 * len(recs))


def test_label_out_of_range():
    recs = [pretrain.ClipRecord(labels=(3,), _waveform=tone(440, 1.0))]
    with pytest.raises(SeqshotError):
        pretrain.train_weak(recs, 2, pretrain.TrainConfig(epochs=1))


def test_toy_training_separates(toy_weak):
    model, recs = toy_weak
    x = np.stack([dsp.logmel(r.load()) for r in recs])[:, None]
    scores = model.logits(x)
    labels = np.stack([pretrain.multi_hot(r.labels, 2) for r in recs])
    map_, dprime = evaluate.map_and_dprime(scores, labels)
    assert map_ > 0.95
    assert dprime > 1.0


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
    np.testing.assert_allclose(model.logits(x), loaded.logits(x), rtol=1e-5)
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
        recs, cfg, temperature=2.0, kd_weight=0.5)
    x = np.stack([dsp.logmel(r.load()) for r in recs])[:, None]
    labels = np.stack([pretrain.multi_hot(r.labels, 2) for r in recs])
    map_, _ = evaluate.map_and_dprime(student.logits(x), labels)
    assert map_ > 0.9


# -- pseudo-strong labels ---------------------------------------------------------

def test_pseudo_window_count():
    assert pretrain.pseudo_window_count(10.0) == 96
    assert pretrain.pseudo_window_count(0.5) == 1
    assert pretrain.pseudo_window_count(1.0) == 6


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


def test_pseudo_label_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    psl = pretrain.PseudoStrongLabels(
        labels=(rng.random((17, 5)) > 0.6).astype(np.uint8))
    pretrain.write_pseudo_labels(tmp_path / "x.sqpl", psl)
    back = pretrain.read_pseudo_labels(tmp_path / "x.sqpl")
    np.testing.assert_array_equal(psl.labels, back.labels)


def test_pseudo_label_file_truncated(tmp_path):
    psl = pretrain.PseudoStrongLabels(labels=np.ones((20, 4), dtype=np.uint8))
    pretrain.write_pseudo_labels(tmp_path / "x.sqpl", psl)
    raw = (tmp_path / "x.sqpl").read_bytes()
    (tmp_path / "y.sqpl").write_bytes(raw[:-3])
    with pytest.raises(TruncatedFileError):
        pretrain.read_pseudo_labels(tmp_path / "y.sqpl")


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
