import warnings

import numpy as np
import pytest

from seqshot import augment, detector, pretrain
from seqshot.errors import (
    DegenerateInputError,
    EmptyInputError,
    ShapeError,
)


def make_toy_set(n_per_class=30, t=5, e=8, seed=0):
    """Positives: ascending ramp pattern; negatives: the reversed ramp."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(e)
    ramp = np.linspace(-1.0, 1.0, t)[:, None] * v[None, :]
    out = []
    for _ in range(n_per_class):
        out.append(augment.EmbeddingSequence(
            ramp + 0.1 * rng.standard_normal((t, e)), 1, "curated"))
        out.append(augment.EmbeddingSequence(
            ramp[::-1] + 0.1 * rng.standard_normal((t, e)), 0, "shuffled"))
    return out


@pytest.fixture(scope="module")
def toy_net():
    train_set = make_toy_set()
    cfg = detector.DetectorTrainConfig(epochs=60, seed=1)
    return detector.train_detector(train_set, cfg), train_set


# -- forward ------------------------------------------------------------------

def test_forward_shapes_and_score_range():
    net = detector.DetectorNet(detector.DetectorConfig(embed_dim=6,
                                                       proj_dim=4))
    x = np.random.default_rng(0).standard_normal((3, 6, 10))
    logits = net.logits(x)
    assert logits.shape == (3, 2)
    s = net.score(x)
    assert np.all((s > 0) & (s < 1))


def test_forward_wrong_dim():
    net = detector.DetectorNet(detector.DetectorConfig(embed_dim=6))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 5, 10)))


# -- loss gradients ---------------------------------------------------------------

def test_detector_loss_gradcheck():
    cfg = detector.DetectorConfig(embed_dim=4, proj_dim=3, n_conv=2, seed=5)
    net = detector.DetectorNet(cfg)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4, 7))
    labels = np.array([1, 0, 1, 0])
    net.zero_grads()
    detector.detector_loss(net, x, labels)
    grads = {k: v.copy() for k, v in net.grads().items()}

    h = 1e-6
    params = net.params()
    rng2 = np.random.default_rng(7)
    for name in ["proj/W", "conv0/W", "conv1/b", "head/W"]:
        p = params[name]
        flat = rng2.integers(0, p.size)
        idx = np.unravel_index(flat, p.shape)
        orig = p[idx]
        p[idx] = orig + h
        net.graph.mark_updated()
        lp = detector.detector_loss(net, x, labels)
        p[idx] = orig - h
        net.graph.mark_updated()
        lm = detector.detector_loss(net, x, labels)
        p[idx] = orig
        net.graph.mark_updated()
        num = (lp - lm) / (2 * h)
        assert grads[name][idx] == pytest.approx(num, rel=1e-4, abs=1e-8)


# -- training ----------------------------------------------------------------------

def test_train_detector_separates_toy(toy_net):
    net, train_set = toy_net
    x = np.stack([s.frames.T for s in train_set])
    labels = np.array([s.label for s in train_set])
    scores = net.score(x)
    acc = np.mean((scores > 0.5) == (labels == 1))
    assert acc == 1.0
    assert net.loss_curve[-1] < net.loss_curve[0]


def test_train_detector_deterministic():
    train_set = make_toy_set(5)
    cfg = detector.DetectorTrainConfig(epochs=3, seed=2)
    a = detector.train_detector(train_set, cfg)
    b = detector.train_detector(train_set, cfg)
    for k, v in a.params().items():
        np.testing.assert_array_equal(v, b.params()[k])


def test_train_detector_single_class():
    seqs = [s for s in make_toy_set(4) if s.label == 1]
    with pytest.raises(DegenerateInputError):
        detector.train_detector(seqs)


def test_train_detector_mixed_lengths():
    seqs = make_toy_set(2, t=5) + make_toy_set(2, t=6)
    with pytest.raises(ShapeError):
        detector.train_detector(seqs)


def test_train_detector_empty():
    with pytest.raises(EmptyInputError):
        detector.train_detector([])


def test_checkpoint_roundtrip(toy_net, tmp_path):
    net, train_set = toy_net
    net.save(tmp_path / "det.ckpt")
    loaded = detector.DetectorNet.load(tmp_path / "det.ckpt")
    x = np.stack([s.frames.T for s in train_set[:4]])
    np.testing.assert_allclose(net.score(x), loaded.score(x), atol=1e-6)


# -- streaming ----------------------------------------------------------------------

def test_window_frame_count():
    assert detector.window_frame_count(0.5) == 1
    assert detector.window_frame_count(3.2) == 9
    assert detector.window_frame_count(1.0) == 3
    # one log-mel window embeds to no frame; the scan window keeps one
    assert detector.window_frame_count(0.025) == 1


def test_stream_scores_localize_pattern(toy_net):
    net, train_set = toy_net
    rng = np.random.default_rng(10)
    frames = 0.1 * rng.standard_normal((20, 8))
    pos = next(s for s in train_set if s.label == 1)
    frames[8:13] = pos.frames
    out = detector.stream_scores(net, frames, n_win_frames=5)
    assert len(out) == 16
    starts = [t for t, _ in out]
    assert starts[0] == pytest.approx(0.0)
    assert starts[1] == pytest.approx(0.32)
    best = max(out, key=lambda p: p[1])
    assert best[0] == pytest.approx(8 * 0.32, abs=0.33)


@pytest.mark.parametrize("t, n", [(300, 4), (20, 5), (5, 5)])
def test_stream_scores_equal_stacked_windows(toy_net, t, n):
    # the windows stacked one by one, SCAN_BATCH at a time, as the
    # reference the strided view must equal exactly
    net, _ = toy_net
    frames = np.random.default_rng(t).standard_normal((t, 8))
    starts = list(range(t - n + 1))
    ref = []
    for b0 in range(0, len(starts), detector.SCAN_BATCH):
        chunk = starts[b0: b0 + detector.SCAN_BATCH]
        x = np.stack([frames[s: s + n] for s in chunk]).transpose(0, 2, 1)
        ref.extend((s * pretrain.EMBED_HOP_S, float(v))
                   for s, v in zip(chunk, net.score(x)))
    assert detector.stream_scores(net, frames, n) == ref


def test_stream_too_short(toy_net):
    net, _ = toy_net
    with pytest.raises(EmptyInputError):
        detector.stream_scores(net, np.zeros((3, 8)), n_win_frames=5)


def test_clip_score_short_clip_uses_whole(toy_net):
    net, train_set = toy_net
    pos = next(s for s in train_set if s.label == 1)
    s = detector.clip_score_from_frames(net, pos.frames[:3], n_win_frames=5)
    assert 0.0 < s < 1.0


# -- saturation ---------------------------------------------------------------------

def test_saturated_logits_score_and_train_without_warnings():
    net = detector.DetectorNet(detector.DetectorConfig(embed_dim=6,
                                                       proj_dim=4, seed=2))
    net.params()["head/W"][...] *= 1e4
    net.graph.mark_updated()
    x = np.random.default_rng(3).standard_normal((8, 6, 5))
    labels = np.array([1, 0] * 4)
    gap = net.logits(x) @ np.array([1.0, -1.0])
    assert gap.min() < -709            # exp(-gap) overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = net.score(x)
        loss = detector.detector_loss(net, x, labels)
    assert np.all((scores >= 0) & (scores <= 1))
    assert np.isfinite(loss) and np.all(np.isfinite(net.flat_grads))
