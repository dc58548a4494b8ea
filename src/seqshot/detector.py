"""Few-shot sequence detector over embedding frames.

A small dilated causal conv net maps an embedding sequence (E x T) to
two logits (target, non-target).  Training maximizes a normalized
margin at several internal feature maps — the logit gap divided by the
Frobenius norm of its gradient at that feature map — plus a small
binary cross-entropy term.  The norms act as frozen scale estimates:
gradients flow through the logit gap only.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import dsp, nn, pretrain
from .errors import (
    DegenerateInputError,
    EmptyInputError,
    ShapeError,
)


@dataclass
class DetectorConfig:
    embed_dim: int = 64
    proj_dim: int = 32
    n_conv: int = 3               # causal convs, dilation 1, 2, 4, ...
    kernel: int = 3
    seed: int = 0


class DetectorNet(nn.Module):
    """1x1 projection, then dilated causal convs with ReLU, mean over
    time, linear head to logits [target, non-target]."""

    KIND = "detector"
    CONFIG = DetectorConfig
    META = ("embed_dim", "proj_dim", "n_conv", "kernel")

    def __init__(self, config: DetectorConfig = None):
        cfg = config or DetectorConfig()
        rng = np.random.default_rng(cfg.seed + 101)
        layers = [nn.Conv1d(cfg.embed_dim, cfg.proj_dim, kernel=1,
                            name="proj", rng=rng)]
        for i in range(cfg.n_conv):
            layers.append(nn.Conv1d(cfg.proj_dim, cfg.proj_dim,
                                    kernel=cfg.kernel, name=f"conv{i}",
                                    rng=rng, dilation=2 ** i, causal=True))
            layers.append(nn.ReLU(f"relu{i}"))
        layers.append(nn.MeanOverTime("pool"))
        layers.append(nn.Linear(cfg.proj_dim, 2, "head", rng))
        super().__init__(cfg, graph=nn.Graph(layers))

    @classmethod
    def stored_sizes(cls, shapes):
        convs = cls.numbered_shapes(shapes, "conv{}/W")
        sizes = {"embed_dim": shapes["proj/W"][1],
                 "proj_dim": shapes["proj/W"][0], "n_conv": len(convs)}
        if convs:
            sizes["kernel"] = convs[0][2]
        return sizes

    def conv_layer_names(self):
        return [f"conv{i}" for i in range(self.config.n_conv)]

    def forward(self, x):
        """x: (B, E, T) -> (logits (B, 2), cache)."""
        if x.ndim != 3 or x.shape[1] != self.config.embed_dim:
            raise ShapeError(f"expected (B, {self.config.embed_dim}, T), "
                             f"got {x.shape}")
        return super().forward(x)

    def logits(self, x):
        return self.forward(x)[0]

    def score(self, x):
        """sigma(f_target - f_nontarget) per item, in (0, 1)."""
        logits = self.logits(x)
        return expit(logits[:, 0] - logits[:, 1])


# -- normalized margin ----------------------------------------------------------

@dataclass
class MarginConfig:
    gamma: float = 1.0            # target normalized margin
    eps: float = 1e-6             # norm regularizer in the denominator
    margin_weight: float = 1.0
    bce_weight: float = 0.1
    layer_set: tuple = None       # default: input + every conv output

    def layers(self, net: DetectorNet):
        if self.layer_set is not None:
            return tuple(self.layer_set)
        return ("input", *net.conv_layer_names())


def _gap_seeds(labels):
    """Backward seeds for the logit gap f_true - f_other, shape (B, 2)."""
    labels = np.asarray(labels)
    seeds = np.empty((len(labels), 2))
    seeds[:, 0] = np.where(labels == 1, 1.0, -1.0)
    seeds[:, 1] = -seeds[:, 0]
    return seeds


def _feature_norms(feature_grads, layer_names):
    """Per-sample Frobenius norm of each requested feature-map gradient."""
    return {name: np.sqrt(np.sum(feature_grads[name] ** 2,
                                 axis=tuple(range(1, feature_grads[name].ndim))))
            for name in layer_names}


def margin_distance(net: DetectorNet, x, true_class, layer, eps=1e-6):
    """Normalized margin of one input at one feature map.

    (f_true - f_other) / (||d(f_true - f_other)/d feature||_F + eps);
    invariant to rescaling of all layers above the feature map.  Leaves
    the net's parameter gradients untouched.
    """
    if x.ndim == 2:
        x = x[None]
    logits, (cache,) = net.forward(x)
    gap = float(logits[0, 0] - logits[0, 1]) * (1.0 if true_class == 1 else -1.0)
    result = net.graph.backward(cache, _gap_seeds([true_class]),
                                param_grads=False)
    g = result.feature_grads[layer]
    return gap / (float(np.linalg.norm(g)) + eps)


def detector_loss(net: DetectorNet, x, labels, config: MarginConfig = None,
                  frozen_norms=None):
    """Margin + BCE loss over a batch; sets the net's parameter gradients.

    Margin term: mean over items and feature maps of
    max(0, gamma - gap / (norm + eps)) with the norms held constant
    (optionally supplied via ``frozen_norms`` for finite-difference
    checks).  BCE term: on sigma(f_target - f_nontarget) against the
    labels.  Returns (loss, details dict).

    One forward and one backward pass per step.  Items do not interact
    and the norms are constants, so at every layer's output the loss
    gradient of item b is a scalar c_b = dloss/dgap_b times the gradient
    of its gap f_true - f_other.  One input-gradient pass seeded with the
    gaps gives the norms and those gradients; the parameter gradients
    then come from the gap gradients scaled by c_b.  The first layer's
    input gradient is computed only when a norm needs it.
    """
    cfg = config or MarginConfig()
    labels = np.asarray(labels)
    layer_names = cfg.layers(net)
    logits, (cache,) = net.forward(x)
    gap_signed = logits[:, 0] - logits[:, 1]          # f_target - f_nontarget
    sign = np.where(labels == 1, 1.0, -1.0)
    gap = sign * gap_signed                           # f_true - f_other

    probe = net.graph.backward(
        cache, _gap_seeds(labels), param_grads=False,
        input_grad=frozen_norms is None and "input" in layer_names)
    if frozen_norms is None:
        norms = _feature_norms(probe.feature_grads, layer_names)
    else:
        norms = frozen_norms

    b = len(labels)
    margins = np.stack([gap / (norms[name] + cfg.eps)
                        for name in layer_names])     # (L, B)
    hinge = np.maximum(0.0, cfg.gamma - margins)
    margin_loss = float(hinge.mean())
    # d margin_loss / d gap, norms frozen
    active = (hinge > 0).astype(np.float64)
    dgap_margin = -(active / np.stack([norms[n] + cfg.eps
                                       for n in layer_names])).sum(axis=0) \
        / hinge.size

    p = expit(gap_signed)
    y = (labels == 1).astype(np.float64)
    eps = 1e-12
    bce = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    dgap_signed_bce = (p - y) / b

    loss = cfg.margin_weight * margin_loss + cfg.bce_weight * bce
    dgap = cfg.margin_weight * dgap_margin \
        + cfg.bce_weight * sign * dgap_signed_bce    # c_b
    output_grads = {}
    for layer in net.graph.layers:
        if layer.params:
            g = probe.feature_grads[layer.name]
            output_grads[layer.name] = dgap.reshape(-1, *[1] * (g.ndim - 1)) * g
    net.graph.zero_grads()
    net.graph.backward_params(cache, output_grads)
    details = {"margin_loss": margin_loss, "bce": bce, "gap": gap,
               "margins": margins, "norms": norms}
    return loss, details


# -- training and streaming detection ---------------------------------------------

@dataclass
class DetectorTrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 128
    seed: int = 0
    margin: MarginConfig = field(default_factory=MarginConfig)


def train_detector(train_set, config: DetectorTrainConfig = None,
                   net_config: DetectorConfig = None):
    """Train from EmbeddingSequences (all the same frame count).

    Requires both classes present.  Fixed learning rate, AdamW
    (``nn.fit``).
    """
    cfg = config or DetectorTrainConfig()
    if not train_set:
        raise EmptyInputError("empty training set")
    labels = np.array([s.label for s in train_set])
    if len(set(labels.tolist())) < 2:
        raise DegenerateInputError("training set needs both classes")
    lengths = {s.frames.shape[0] for s in train_set}
    if len(lengths) != 1:
        raise ShapeError(f"mixed sequence lengths {sorted(lengths)}")
    embed_dim = train_set[0].frames.shape[1]
    if net_config is None:
        net_config = DetectorConfig(embed_dim=embed_dim, seed=cfg.seed)
    net = DetectorNet(net_config)
    # (N, E, T) over (N, T, E) memory: batches index it without reordering,
    # and the projection's im2col reads each frame as one row
    x_all = np.stack([s.frames for s in train_set]).transpose(0, 2, 1)
    rng = np.random.default_rng(cfg.seed)

    def batches():
        order = rng.permutation(len(train_set))
        for b0 in range(0, len(order), cfg.batch_size):
            yield order[b0: b0 + cfg.batch_size]

    def step_loss(idx):
        return detector_loss(net, x_all[idx], labels[idx], cfg.margin)[0]

    net.loss_curve = nn.fit(net, cfg.epochs, batches, step_loss,
                            lambda step: cfg.lr, cfg.weight_decay)
    return net


def window_frame_count(window_s):
    """Embedding frames produced by a crop of the given duration (at
    least one log-mel window, 0.025 s)."""
    n = int(round(window_s * dsp.SAMPLE_RATE))
    return dsp.frame_count(n) // pretrain.FRAMES_PER_EMBED


def stream_scores(net: DetectorNet, frames, n_win_frames, batch_size=256):
    """Sliding-window scores over precomputed embedding frames (T, E)
    at one-frame hops; list of (start_time_s, score)."""
    t = frames.shape[0]
    if t < n_win_frames:
        raise EmptyInputError(
            f"recording too short: {t} embedding frames < window "
            f"{n_win_frames}")
    starts = list(range(t - n_win_frames + 1))
    out = []
    for b0 in range(0, len(starts), batch_size):
        chunk = starts[b0: b0 + batch_size]
        x = np.stack([frames[s: s + n_win_frames]
                      for s in chunk]).transpose(0, 2, 1)
        scores = net.score(x)
        out.extend((s * pretrain.EMBED_HOP_S, float(v))
                   for s, v in zip(chunk, scores))
    return out


def detect_stream(net: DetectorNet, strong_model, w, window_s,
                  batch_size=256):
    """Score a long recording with a sliding window.

    The audio is embedded once; windows of the scan window's frame count
    (``window_s`` from enrollment) slide at one-frame (320 ms) hops.
    Returns a list of (start_time_s, score) pairs.
    """
    frames = pretrain.embed_frames_normalized(strong_model, w)  # (T', E)
    n_win_frames = max(1, window_frame_count(window_s))
    return stream_scores(net, frames, n_win_frames, batch_size)


def clip_score_from_frames(net: DetectorNet, frames, n_win_frames):
    """Max sliding-window score; the whole clip if shorter than window."""
    if frames.shape[0] < n_win_frames:
        return float(net.score(frames.T[None])[0])
    return max(v for _, v in stream_scores(net, frames, n_win_frames))

