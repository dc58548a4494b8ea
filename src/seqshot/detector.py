"""Few-shot sequence detector over embedding frames.

A small dilated causal conv net maps an embedding sequence (E x T) to
two logits (target, non-target).  It trains on the binary cross-entropy
of sigma(f_target - f_nontarget) against the labels.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def logits(self, x):
        """x: (B, E, T) -> logits (B, 2)."""
        return self.forward(x)[0]

    def score(self, x):
        """sigma(f_target - f_nontarget) per item, in (0, 1)."""
        logits = self.logits(x)
        return pretrain.sigmoid(logits[:, 0] - logits[:, 1])


# -- training and streaming detection ---------------------------------------------

LR = 1e-3                        # fixed AdamW learning rate
WEIGHT_DECAY = 1e-4


@dataclass
class DetectorTrainConfig:
    """Training settings: the CLI's ``detector`` table, field for field
    (less ``seed``)."""
    epochs: int = 200
    seed: int = 0


def detector_loss(net: DetectorNet, x, labels):
    """Binary cross-entropy of sigma(f_target - f_nontarget) against the
    labels over a batch; accumulates the net's parameter gradients and
    returns the loss."""
    logits, cache = net.forward(x)
    loss, dgap = pretrain.bce_with_logits(
        logits[:, 0] - logits[:, 1], (np.asarray(labels) == 1).astype(float))
    net.backward(cache, np.stack([dgap, -dgap], axis=1))
    return loss


TRAIN_BATCH = 128                # items per detector training step


def train_detector(train_set, config: DetectorTrainConfig = None):
    """Train from EmbeddingSequences (all the same frame count).

    Requires both classes present.  Fixed learning rate LR, AdamW with
    WEIGHT_DECAY (``nn.fit``).
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
        return detector_loss(net, x_all[idx], labels[idx])

    net.loss_curve = nn.fit(net, cfg.epochs, batches, step_loss,
                            lambda step: LR, WEIGHT_DECAY)
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

