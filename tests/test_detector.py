import warnings

import numpy as np
import pytest

from seqshot import augment, detector, pretrain
from seqshot.errors import (
    DegenerateInputError,
    EmptyInputError,
    ShapeError,
)
from reference_ops import two_pass_detector_loss
from test_nn import assert_rel_close


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


# -- normalized margin ----------------------------------------------------------

def linear_gap_net(w0, w1):
    """Identity projection, no convs: gap = (w0 - w1) . mean_t(x)."""
    cfg = detector.DetectorConfig(embed_dim=2, proj_dim=2, n_conv=0)
    net = detector.DetectorNet(cfg)
    p = net.params()
    p["proj/W"][...] = np.eye(2)[:, :, None]
    p["proj/b"][...] = 0.0
    p["head/W"][...] = np.stack([w0, w1]).T    # (in, out) layout
    p["head/b"][...] = 0.0
    net.graph.mark_updated()
    return net


def margins_at_eps0(net, x, true_class):
    """Per feature map, one input's normalized margin without the norm
    regularizer: ``detector_loss``'s gap over its gradient norm there."""
    _, details = detector.detector_loss(net, x[None], [true_class])
    return {name: details["gap"][0] / norm[0]
            for name, norm in details["norms"].items()}


def test_margin_hand_example():
    # gap = 3*1 + 4*1 = 7, input gradient (3, 4), norm 5 -> margin 7/5
    net = linear_gap_net(np.array([3.0, 4.0]), np.zeros(2))
    x = np.ones((2, 1))
    assert margins_at_eps0(net, x, 1)["input"] == pytest.approx(7.0 / 5.0)
    _, details = detector.detector_loss(net, x[None], [1])
    assert details["margins"][0, 0] == pytest.approx(7.0 / (5.0 + 1e-6))


def test_margin_sign_for_nontarget():
    net = linear_gap_net(np.array([3.0, 4.0]), np.zeros(2))
    x = np.ones((2, 1))
    assert margins_at_eps0(net, x, 0)["input"] == pytest.approx(-7.0 / 5.0)


def test_margin_invariant_to_head_rescale():
    cfg = detector.DetectorConfig(embed_dim=5, proj_dim=4, seed=3)
    net = detector.DetectorNet(cfg)
    x = np.random.default_rng(4).standard_normal((5, 9))
    before = margins_at_eps0(net, x, 1)
    net.params()["head/W"][...] *= 7.3
    net.params()["head/b"][...] *= 7.3
    net.graph.mark_updated()
    after = margins_at_eps0(net, x, 1)
    assert list(after) == ["input", "conv0", "conv1", "conv2"]
    np.testing.assert_allclose(list(before.values()), list(after.values()),
                               rtol=1e-9)


def test_margin_scales_with_input_rescale():
    # doubling the input doubles the gap but not the input-layer gradient
    net = linear_gap_net(np.array([3.0, 4.0]), np.zeros(2))
    d1 = margins_at_eps0(net, np.ones((2, 1)), 1)["input"]
    d2 = margins_at_eps0(net, 2 * np.ones((2, 1)), 1)["input"]
    assert d2 == pytest.approx(2 * d1)


# -- loss gradients ---------------------------------------------------------------

def test_detector_loss_gradcheck():
    cfg = detector.DetectorConfig(embed_dim=4, proj_dim=3, n_conv=2, seed=5)
    net = detector.DetectorNet(cfg)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4, 7))
    labels = np.array([1, 0, 1, 0])
    _, details = detector.detector_loss(net, x, labels)
    norms = details["norms"]

    detector.detector_loss(net, x, labels, frozen_norms=norms)
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
        lp, _ = detector.detector_loss(net, x, labels, frozen_norms=norms)
        p[idx] = orig - h
        net.graph.mark_updated()
        lm, _ = detector.detector_loss(net, x, labels, frozen_norms=norms)
        p[idx] = orig
        net.graph.mark_updated()
        num = (lp - lm) / (2 * h)
        assert grads[name][idx] == pytest.approx(num, rel=1e-4, abs=1e-8)


def test_detector_loss_has_margin_and_bce_terms():
    cfg = detector.DetectorConfig(embed_dim=4, proj_dim=3, seed=8)
    net = detector.DetectorNet(cfg)
    x = np.random.default_rng(9).standard_normal((2, 4, 6))
    labels = np.array([1, 0])
    loss, details = detector.detector_loss(net, x, labels)
    assert loss == pytest.approx(
        detector.MARGIN_WEIGHT * details["margin_loss"]
        + detector.BCE_WEIGHT * details["bce"])
    assert details["margins"].shape == (4, 2)   # input + 3 convs, 2 items


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


# -- the fused step against the two-pass reference --------------------------------

FUSED_CASES = ("default", "frozen_norms", "no_bce", "short_window")
# frames per item; the others run at 9, where every tap reads the input.
# At 3, conv1 keeps 2 of its 3 taps and conv2 keeps 1, and the input norm
# still comes from the projection's Gram matrix
FUSED_FRAMES = {"short_window": 3}


@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_step_matches_two_pass_reference(case, monkeypatch):
    if case == "no_bce":            # both losses read the module's weight
        monkeypatch.setattr(detector, "BCE_WEIGHT", 0.0)
    rng = np.random.default_rng(21)
    net = detector.DetectorNet(detector.DetectorConfig(embed_dim=6,
                                                       proj_dim=5, seed=3))
    for p in net.params().values():
        p += 0.1 * rng.standard_normal(p.shape)
    net.graph.mark_updated()
    x = rng.standard_normal((7, 6, FUSED_FRAMES.get(case, 9)))
    labels = np.array([1, 0, 0, 1, 0, 1, 0])
    frozen = None
    if case == "frozen_norms":
        frozen = {k: v * rng.uniform(0.5, 2.0, v.shape) for k, v in
                  detector.detector_loss(net, x, labels)[1]["norms"].items()}

    def run(loss_fn):
        loss, details = loss_fn(net, x, labels, frozen_norms=frozen)
        return loss, details, {k: v.copy() for k, v in net.grads().items()}

    loss, details, grads = run(detector.detector_loss)
    ref_loss, ref_details, ref_grads = run(two_pass_detector_loss)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name in ("input", *net.conv_layer_names()):
        assert_rel_close(details["norms"][name], ref_details["norms"][name])
    for k in ref_grads:
        assert_rel_close(grads[k], ref_grads[k])


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
        loss, details = detector.detector_loss(net, x, labels)
    assert np.all((scores >= 0) & (scores <= 1))
    assert np.isfinite(loss) and np.isfinite(details["bce"])
