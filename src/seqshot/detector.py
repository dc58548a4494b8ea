"""Few-shot sequence detector over embedding frames.

A small dilated causal conv net maps an embedding sequence (E x T) to
two logits (target, non-target).  Training maximizes a normalized
margin at several internal feature maps — the logit gap divided by the
Frobenius norm of its gradient at that feature map — plus a small
binary cross-entropy term.  The norms act as frozen scale estimates:
gradients flow through the logit gap only.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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

    def logits(self, x):
        """x: (B, E, T) -> logits (B, 2)."""
        return self.forward(x)[0]

    def score(self, x):
        """sigma(f_target - f_nontarget) per item, in (0, 1)."""
        logits = self.logits(x)
        return expit(logits[:, 0] - logits[:, 1])


# -- normalized margin ----------------------------------------------------------

MARGIN_EPS = 1e-6                # norm regularizer in the denominator


@dataclass
class DetectorTrainConfig:
    """Training settings and the margin loss's weights: the CLI's
    ``detector`` table, field for field (less ``seed``)."""
    epochs: int = 200
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    gamma: float = 1.0            # target normalized margin
    margin_weight: float = 1.0
    bce_weight: float = 0.1


def _gap_seeds(labels):
    """Backward seeds for the logit gap f_true - f_other, shape (B, 2)."""
    labels = np.asarray(labels)
    seeds = np.empty((len(labels), 2))
    seeds[:, 0] = np.where(labels == 1, 1.0, -1.0)
    seeds[:, 1] = -seeds[:, 0]
    return seeds


def _item_dots(a, b):
    """Per-item sum of a * b over all axes but the first."""
    return np.einsum("ij,ij->i", a.reshape(len(a), -1), b.reshape(len(b), -1))


def _gap_norms(net, grads, layer_names):
    """Per-item Frobenius norm of the gap gradient at each named feature
    map, from a gradient pass that stopped at the projection.  The
    projection is 1x1, so the input gradient at frame t is W^T g_t (W the
    P x E projection, g_t its output gradient) and its squared norm is
    g_t^T (W W^T) g_t: the (B, T, E) input gradient is never built."""
    norms = {}
    for name in layer_names:
        if name == "input":
            proj = net.graph.layers[0]
            w = proj.params["W"][:, :, 0]                 # (P, E)
            g = grads[proj.name].transpose(0, 2, 1)       # (B, T, P)
            gw = g.reshape(-1, len(w)) @ (w @ w.T)
            sq = _item_dots(gw.reshape(g.shape), g)
        else:
            g = grads[name]
            g = g.transpose(0, *range(2, g.ndim), 1)      # memory order
            sq = _item_dots(g, g)
        norms[name] = np.sqrt(sq)
    return norms


def detector_loss(net: DetectorNet, x, labels,
                  config: DetectorTrainConfig = None, frozen_norms=None):
    """Margin + BCE loss over a batch; sets the net's parameter gradients.

    Margin term: mean over items and feature maps (the input and every
    conv output) of
    max(0, gamma - gap / (norm + eps)) with the norms held constant
    (optionally supplied via ``frozen_norms`` for finite-difference
    checks).  BCE term: on sigma(f_target - f_nontarget) against the
    labels.  Returns (loss, details dict).

    One forward and one backward pass per step.  Items do not interact
    and the norms are constants, so at every layer's output the loss
    gradient of item b is a scalar c_b = dloss/dgap_b times the gradient
    of its gap f_true - f_other.  One gradient pass seeded with the gaps,
    stopping at the projection, gives the norms (``_gap_norms``) and
    those gradients; the parameter gradients then come from the gap
    gradients scaled by c_b.
    """
    cfg = config or DetectorTrainConfig()
    labels = np.asarray(labels)
    b = len(labels)
    layer_names = ("input", *net.conv_layer_names())
    logits, (cache,) = net.forward(x)
    seeds = _gap_seeds(labels)
    sign = seeds[:, 0]
    gap_signed = logits[:, 0] - logits[:, 1]          # f_target - f_nontarget
    gap = sign * gap_signed                           # f_true - f_other

    grads = net.graph.output_grads(cache, seeds)
    norms = _gap_norms(net, grads, layer_names) if frozen_norms is None \
        else frozen_norms

    denom = np.stack([norms[name] for name in layer_names]) + MARGIN_EPS
    margins = gap / denom                             # (L, B)
    hinge = np.maximum(0.0, cfg.gamma - margins)
    margin_loss = float(hinge.mean())
    # d margin_loss / d gap, norms frozen
    dgap_margin = -((hinge > 0) / denom).sum(axis=0) / hinge.size

    p = expit(gap_signed)
    y = labels == 1
    bce = float(-np.mean(np.log(np.where(y, p, 1 - p) + 1e-12)))

    loss = cfg.margin_weight * margin_loss + cfg.bce_weight * bce
    dgap = cfg.margin_weight * dgap_margin \
        + cfg.bce_weight * sign * ((p - y) / b)     # c_b
    output_grads = {
        layer.name: dgap.reshape(-1, *[1] * (grads[layer.name].ndim - 1))
        * grads[layer.name] for layer in net.graph.layers if layer.params}
    net.zero_grads()
    net.graph.backward_params(cache, output_grads)
    details = {"margin_loss": margin_loss, "bce": bce, "gap": gap,
               "margins": margins, "norms": norms}
    return loss, details


# -- training and streaming detection ---------------------------------------------

TRAIN_BATCH = 128                # items per detector training step


def train_detector(train_set, config: DetectorTrainConfig = None):
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
    net = DetectorNet(DetectorConfig(embed_dim=train_set[0].frames.shape[1],
                                     seed=cfg.seed))
    # (N, E, T) over (N, T, E) memory: batches index it without reordering,
    # and the projection's im2col reads each frame as one row
    x_all = np.stack([s.frames for s in train_set]).transpose(0, 2, 1)
    rng = np.random.default_rng(cfg.seed)

    def batches():
        order = rng.permutation(len(train_set))
        for b0 in range(0, len(order), TRAIN_BATCH):
            yield order[b0: b0 + TRAIN_BATCH]

    def step_loss(idx):
        return detector_loss(net, x_all[idx], labels[idx], cfg)[0]

    net.loss_curve = nn.fit(net, cfg.epochs, batches, step_loss,
                            lambda step: cfg.lr, cfg.weight_decay)
    return net


SCAN_BATCH = 256                 # windows scored per forward pass


def window_frame_count(window_s):
    """The scan window's frame count: the embedding frames a crop of
    ``window_s`` (at least one log-mel window, 0.025 s) produces, and at
    least one."""
    n = int(round(window_s * dsp.SAMPLE_RATE))
    return max(1, dsp.frame_count(n) // pretrain.FRAMES_PER_EMBED)


def stream_scores(net: DetectorNet, frames, n_win_frames):
    """Sliding-window scores over precomputed embedding frames (T, E)
    at one-frame hops; list of (start_time_s, score)."""
    t = frames.shape[0]
    if t < n_win_frames:
        raise EmptyInputError(
            f"recording too short: {t} embedding frames < window "
            f"{n_win_frames}")
    windows = sliding_window_view(frames, n_win_frames, axis=0)  # (N, E, T)
    out = []
    for b0 in range(0, len(windows), SCAN_BATCH):
        scores = net.score(windows[b0: b0 + SCAN_BATCH])
        out.extend((s * pretrain.EMBED_HOP_S, float(v))
                   for s, v in enumerate(scores, b0))
    return out


def detect_stream(net: DetectorNet, strong_model, path, window_s):
    """Score a long recording, the PCM16 WAV file ``path``, with a sliding
    window.

    The file is read, resampled, turned into log-mel and embedded in
    blocks (``dsp.WavReader``, ``pretrain.embed_stream``), so only its
    embedding frames are held whole: E floats per 320 ms.  They are
    centred on their recording-wide mean, and windows of the scan
    window's frame count (``window_s`` from enrollment) slide over them at
    one-frame (320 ms) hops.  Returns a list of (start_time_s, score)
    pairs.
    """
    reader = dsp.WavReader(path)
    frames = pretrain.centre_frames(pretrain.embed_stream(
        strong_model, reader.blocks(), reader.n_samples))       # (T', E)
    return stream_scores(net, frames, window_frame_count(window_s))


def clip_score_from_frames(net: DetectorNet, frames, n_win_frames):
    """Max sliding-window score; the whole clip if shorter than window."""
    if frames.shape[0] < n_win_frames:
        return float(net.score(frames.T[None])[0])
    return max(v for _, v in stream_scores(net, frames, n_win_frames))

