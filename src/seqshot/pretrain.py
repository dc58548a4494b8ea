"""Embedding pretraining: weak-label classifier, distilled student,
pseudo-strong labeling, and the frame-level (strong) embedding.

Architectures are desk-scale conv stacks that keep the pooling
topologies that matter:

  WeakModel    conv2d stack -> channel-wise global pool -> 2-layer FC head
               (one logit vector per clip, any duration >= 0.5 s)
  StrongModel  same conv stack -> frequency-only pooling -> 1x1 conv neck
               -> 1x1 conv classifier (one logit vector per 320 ms)

The conv stack halves the time axis five times with non-overlapping
kernels, so one output frame covers exactly 32 logmel frames (320 ms)
and floor(T/32) frames come out.
"""

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dsp, nn
from .errors import (
    EmptyInputError,
    FormatError,
    SeqshotError,
    TruncatedFileError,
    VersionMismatchError,
)

FRAMES_PER_EMBED = 32            # logmel frames per strong-embedding frame
EMBED_HOP_S = FRAMES_PER_EMBED * dsp.FRAME_HOP_S   # 0.32
MIN_EMBED_S = 0.5                # shortest audio the embedders take
# Largest strong-embedding size train_strong builds: a student's
# embed_dim is a stored meta/ field that none of its tensors fixes.
MAX_EMBED_DIM = 4096

PSEUDO_WIN_S = 0.5
PSEUDO_HOP_S = 0.1
PSEUDO_THRESHOLD = 0.5


# -- data ---------------------------------------------------------------------

@dataclass
class ClipRecord:
    wav_path: Path = None
    labels: tuple = ()
    events: tuple = ()
    _waveform: object = None    # audio given at construction, kept as is

    def load(self):
        """The clip's audio: the waveform given at construction, else a
        fresh read of ``wav_path``.  The record keeps nothing it reads, so
        records held after training pin no audio; a training run keeps
        each clip it reads until it returns (``_training_plan``)."""
        if self._waveform is not None:
            return self._waveform
        return dsp.load_wav(self.wav_path)


def load_manifest(path):
    """Read a JSON-lines dataset manifest; wav paths resolve relative to it."""
    path = Path(path)
    records = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        records.append(ClipRecord(
            wav_path=path.parent / r["wav"],
            labels=tuple(r["labels"]),
            events=tuple(tuple(e) for e in r.get("events", ())),
        ))
    return records


def multi_hot(labels, n_classes):
    v = np.zeros(n_classes)
    for c in labels:
        v[c] = 1.0
    return v


# -- losses ---------------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def bce_with_logits(logits, targets):
    """Mean binary cross entropy; returns (loss, dloss/dlogits)."""
    z = logits
    # stable: log(1+e^z) = max(z,0) + log1p(e^{-|z|})
    loss = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    return float(loss.sum() / n), (sigmoid(z) - targets) / n


def kd_binary_kl(teacher_logits, student_logits, temperature):
    """Per-class binary KL(sigma(t/T) || sigma(s/T)) * T^2, averaged.

    Returns (loss, dloss/dstudent_logits).
    """
    tau = temperature
    p = sigmoid(teacher_logits / tau)
    q = sigmoid(student_logits / tau)
    eps = 1e-12
    kl = p * (np.log(p + eps) - np.log(q + eps)) \
        + (1 - p) * (np.log(1 - p + eps) - np.log(1 - q + eps))
    n = teacher_logits.size
    loss = float(tau * tau * kl.sum() / n)
    dstudent = tau * (q - p) / n
    return loss, dstudent


# -- models -----------------------------------------------------------------------

@dataclass
class ModelConfig:
    n_classes: int
    channels: tuple = (16, 32, 48, 64, 128)
    head_hidden: int = 128
    embed_dim: int = 64          # strong-embedding dim (1x1 neck output)
    seed: int = 0
    # Backbone stage whose output provides the embedding frames: the
    # frequency axis is flattened, not pooled, so the spectral detail
    # that separates same-vocabulary sequences survives.  None taps the
    # pre-classifier neck (fully frequency-pooled) instead.
    embed_tap: int = 3

    @property
    def pooled_dim(self):
        return self.channels[-1]


def _backbone_layers(cfg, rng):
    layers = []
    c_prev = 1
    for i, c in enumerate(cfg.channels):
        layers.append(nn.Conv2d(c_prev, c, kernel=(2, 3), name=f"conv{i}",
                                rng=rng, stride=(2, 2), pad=(0, 1)))
        layers.append(nn.ReLU(f"relu{i}"))
        c_prev = c
    return layers


class _Embedder(nn.Module):
    CONFIG = ModelConfig
    META = ("n_classes", "channels", "head_hidden", "embed_dim", "embed_tap")
    # checkpoints written before embed_tap existed load with the default tap
    OPTIONAL_META = ("embed_tap",)
    NULLABLE_META = ("embed_tap",)

    @classmethod
    def _stored_channels(cls, shapes):
        return tuple(s[0] for s in
                     cls.numbered_shapes(shapes, "backbone/conv{}/W"))


class WeakModel(_Embedder):
    """Weak-label multi-label classifier with a pooled embedding.

    ``forward`` maps a (B, 1, T, 64) log-mel batch to (B, C) logits.
    """

    KIND = "weak"

    def __init__(self, config: ModelConfig):
        rng = np.random.default_rng(config.seed)
        super().__init__(
            config,
            backbone=nn.Graph(_backbone_layers(config, rng)
                              + [nn.GlobalChannelPool("pool")]),
            head=nn.Graph([
                nn.Linear(config.pooled_dim, config.head_hidden, "fc1", rng),
                nn.ReLU("fc_relu"),
                nn.Linear(config.head_hidden, config.n_classes, "fc2", rng),
            ]))

    @classmethod
    def stored_sizes(cls, shapes):
        return {"channels": cls._stored_channels(shapes),
                "head_hidden": shapes["head/fc1/W"][1],
                "n_classes": shapes["head/fc2/W"][1]}

    def logits(self, x):
        return self.forward(x)[0]

    def embed(self, x):
        return self.backbone.forward(x)[0]


class StrongModel(_Embedder):
    """Frame-level embedding/classifier; one output frame per 320 ms.

    ``forward`` maps (B, 1, T, 64) to (B, C, T//32) logits.
    """

    KIND = "strong"

    def __init__(self, config: ModelConfig):
        rng = np.random.default_rng(config.seed + 1)
        super().__init__(
            config,
            backbone=nn.Graph(_backbone_layers(config, rng)
                              + [nn.MeanOverFreq("fpool")]),
            neck=nn.Graph([
                nn.Conv1d(config.pooled_dim, config.embed_dim, kernel=1,
                          name="neck", rng=rng),
                nn.ReLU("neck_relu"),
            ]),
            classifier=nn.Graph([
                nn.Conv1d(config.embed_dim, config.n_classes, kernel=1,
                          name="cls", rng=rng),
            ]))

    @classmethod
    def stored_sizes(cls, shapes):
        return {"channels": cls._stored_channels(shapes),
                "embed_dim": shapes["neck/neck/W"][0],
                "n_classes": shapes["classifier/cls/W"][0]}

    def features(self, x):
        """Pre-classifier embedding frames: (B, embed_dim, T//32)."""
        h, _ = self.backbone.forward(x)
        return self.neck.forward(h)[0]

    def init_backbone_from(self, weak: WeakModel):
        """Copy the (distilled) student's convolutional weights."""
        src = weak.backbone.params()
        dst = self.backbone.params()
        for k, v in dst.items():
            if k in src:
                v[...] = src[k]
        self.backbone.mark_updated()


# -- training -------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    peak_lr: float = 0.01
    final_lr: float = 0.0001
    warmup_frac: float = 0.1
    weight_decay: float = 1e-4
    crop_frames: int = 998
    augment: bool = True
    spec_time_masks: int = 2
    spec_freq_masks: int = 2
    spec_max_t: int = 20
    spec_max_f: int = 8


def _class_weights(records, n_classes):
    """Per-clip sampling weight, proportional to 1/sqrt(class frequency)
    of the clip's rarest class."""
    counts = np.zeros(n_classes)
    for r in records:
        for c in r.labels:
            counts[c] += 1
    counts = np.maximum(counts, 1.0)
    w = np.array([max(1.0 / np.sqrt(counts[c]) for c in r.labels)
                  if r.labels else min(1.0 / np.sqrt(counts))
                  for r in records])
    return w / w.sum()


def _prepare_batch(records, idxs, n_classes, rng, cfg, random_crop=True,
                   audio=None):
    """Load + augment a batch; returns (x (B,1,T,64), targets, meta).

    ``audio`` maps a record index to the waveform already read for it;
    clips this call reads are added to it.

    Per clip the draws are: playback rate and gain (with ``augment``),
    the crop offset, SpecAugment (with ``augment``); then mixup across
    the batch.  The crop is placed on the frame count the rate-changed
    clip has, which follows from its sample count, and only the samples
    under the crop are resampled and turned into log-mel frames.  The
    batch therefore equals, bit for bit, cropping the log-mel of the
    whole augmented clip.  A clip shorter than ``crop_frames`` is padded
    at the end with log-floor frames.

    meta holds (record_idx, rate, crop_off, valid_frames, mix_partner, lam)
    for per-frame label mapping in strong training.
    """
    n_crop = cfg.crop_frames
    audio = {} if audio is None else audio
    feats, targs, meta = [], [], []
    for i in idxs:
        r = records[i]
        if i not in audio:
            audio[i] = r.load()
        w = audio[i]
        rate = 1.0
        if cfg.augment:
            rate = float(rng.uniform(0.9, 1.1))
            gain = float(rng.uniform(-20.0, 20.0))
        n_frames = dsp.frame_count(dsp.resampled_length(len(w.samples), rate))
        off, valid = 0, min(n_frames, n_crop)
        if n_frames >= n_crop and random_crop:
            off = int(rng.integers(0, n_frames - n_crop + 1))
        start = off * dsp.FRAME_HOP
        stop = start + (valid - 1) * dsp.FRAME_HOP + dsp.FRAME_LEN
        if cfg.augment:
            w = dsp.augment_gain(dsp.augment_resample(w, rate, start, stop),
                                 gain)
        else:
            w = dsp.Waveform(w.samples[start:stop], w.sample_rate)
        m = dsp.logmel(w)
        if valid < n_crop:
            pad = np.full((n_crop - valid, m.shape[1]), np.log(dsp.LOG_FLOOR))
            m = np.vstack([m, pad])
        if cfg.augment:
            m = dsp.spec_augment(m, rng, cfg.spec_time_masks,
                                 cfg.spec_freq_masks, cfg.spec_max_t,
                                 cfg.spec_max_f)
        feats.append(m)
        targs.append(multi_hot(r.labels, n_classes))
        meta.append({"idx": int(i), "rate": rate, "off": off, "valid": valid,
                     "partner": None, "lam": 1.0})
    # mixup within the batch
    if cfg.augment and len(idxs) > 1:
        perm = rng.permutation(len(idxs))
        lams = [dsp.draw_mixup_lambda(rng) for _ in idxs]
        mixed_f, mixed_t = [], []
        for k, (j, lam) in enumerate(zip(perm, lams)):
            f, t = dsp.mixup(feats[k], feats[j], targs[k], targs[j], lam)
            mixed_f.append(f)
            mixed_t.append(t)
            meta[k]["partner"] = int(j)
            meta[k]["lam"] = lam
        feats, targs = mixed_f, mixed_t
    x = np.stack(feats)[:, None, :, :]
    return x, np.stack(targs), meta


def _training_plan(records, n_classes, config, random_crop=True):
    """(batches, lr) for ``nn.fit``: each batch draws its clips with
    replacement, weighted by ``_class_weights``, and ``_prepare_batch``
    draws from the same RNG, seeded with ``config.seed``; the learning
    rate follows the one-cycle schedule over the whole run.  Each clip is
    read once, on first draw, and kept until the batches are dropped at
    the end of the run."""
    rng = np.random.default_rng(config.seed)
    weights = _class_weights(records, n_classes)
    steps_per_epoch = max(1, (len(records) + config.batch_size - 1)
                          // config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)
    audio = {}

    def batches():
        for _ in range(steps_per_epoch):
            idxs = rng.choice(len(records), size=min(config.batch_size,
                                                     len(records)),
                              replace=True, p=weights)
            yield _prepare_batch(records, idxs, n_classes, rng, config,
                                 random_crop, audio)

    def lr(step):
        return nn.one_cycle_lr(step, total_steps, config.peak_lr,
                               config.final_lr, config.warmup_frac)
    return batches, lr


def train_weak(records, n_classes, config: TrainConfig,
               model_config: ModelConfig = None, teacher=None,
               temperature=2.0, kd_weight=0.5):
    """Train the weak-label multi-label classifier.

    With ``teacher`` set this is distillation: the loss becomes
    kd_weight * tau^2 * KL(sigma(t/tau) || sigma(s/tau)) per class plus
    (1 - kd_weight) * BCE(labels).
    """
    if not records:
        raise EmptyInputError("empty dataset")
    for r in records:
        if any(c >= n_classes for c in r.labels):
            raise SeqshotError("label id exceeds n_classes")
    if model_config is None:
        model_config = ModelConfig(n_classes=n_classes, seed=config.seed)
    if model_config.n_classes != n_classes:
        raise SeqshotError("model/dataset class count mismatch")
    if teacher is not None and teacher.config.n_classes != n_classes:
        raise SeqshotError("teacher class count mismatch")
    model = WeakModel(model_config)
    batches, lr = _training_plan(records, n_classes, config)

    def step_loss(batch):
        x, y, _ = batch
        logits, cache = model.forward(x)
        if teacher is None:
            loss, dlogits = bce_with_logits(logits, y)
        else:
            t_logits, _ = teacher.forward(x)
            kd, d_kd = kd_binary_kl(t_logits, logits, temperature)
            bce, d_bce = bce_with_logits(logits, y)
            loss = kd_weight * kd + (1 - kd_weight) * bce
            dlogits = kd_weight * d_kd + (1 - kd_weight) * d_bce
        model.backward(cache, dlogits)
        return loss

    model.loss_curve = nn.fit(model, config.epochs, batches, step_loss, lr,
                              config.weight_decay)
    return model


def distill(teacher, student_config: ModelConfig, records, config: TrainConfig,
            temperature=2.0, kd_weight=0.5):
    """Train a student against teacher logits + ground-truth labels."""
    return train_weak(records, teacher.config.n_classes, config,
                      model_config=student_config, teacher=teacher,
                      temperature=temperature, kd_weight=kd_weight)


# -- pseudo-strong labels -----------------------------------------------------------

@dataclass
class PseudoStrongLabels:
    labels: np.ndarray            # (windows, classes) uint8


def pseudo_label(model: WeakModel, w: dsp.Waveform, batch_size=128):
    """Sigmoid predictions per 0.5 s window at 0.1 s hops, thresholded
    strictly above 0.5."""
    win = int(PSEUDO_WIN_S * dsp.SAMPLE_RATE)
    hop = int(PSEUDO_HOP_S * dsp.SAMPLE_RATE)
    if len(w.samples) < win:
        raise EmptyInputError("clip shorter than one 0.5 s window")
    n_win = (len(w.samples) - win) // hop + 1
    m = dsp.logmel(w)
    frames_per_win = 1 + (win - dsp.FRAME_LEN) // dsp.FRAME_HOP   # 48
    hop_frames = hop // dsp.FRAME_HOP                             # 10
    out = np.zeros((n_win, model.config.n_classes), dtype=np.uint8)
    for b0 in range(0, n_win, batch_size):
        ids = range(b0, min(b0 + batch_size, n_win))
        x = np.stack([m[j * hop_frames: j * hop_frames + frames_per_win]
                      for j in ids])[:, None, :, :]
        probs = sigmoid(model.logits(x))
        out[b0: b0 + x.shape[0]] = (probs > PSEUDO_THRESHOLD).astype(np.uint8)
    return PseudoStrongLabels(labels=out)


PSEUDO_MAGIC = b"SQPL"
PSEUDO_VERSION = 1


def write_pseudo_labels(path, psl: PseudoStrongLabels):
    packed = np.packbits(psl.labels.reshape(-1))
    with open(path, "wb") as f:
        f.write(PSEUDO_MAGIC)
        f.write(struct.pack("<III", PSEUDO_VERSION, psl.labels.shape[0],
                            psl.labels.shape[1]))
        f.write(packed.tobytes())


def read_pseudo_labels(path):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != PSEUDO_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        head = f.read(12)
        if len(head) != 12:
            raise TruncatedFileError("pseudo-label header truncated")
        version, n_win, n_cls = struct.unpack("<III", head)
        if version != PSEUDO_VERSION:
            raise VersionMismatchError(f"pseudo-label version {version}")
        need = (n_win * n_cls + 7) // 8
        raw = f.read(need)
        if len(raw) != need:
            raise TruncatedFileError("pseudo-label payload truncated")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: n_win * n_cls]
    return PseudoStrongLabels(labels=bits.reshape(n_win, n_cls))


# -- strong training ------------------------------------------------------------------

def _frame_targets(psl: PseudoStrongLabels, n_out, rate, crop_off, valid):
    """Per-output-frame target: the pseudo window whose center is nearest
    the 320 ms frame center, mapped back through resample/crop."""
    n_win, n_cls = psl.labels.shape
    targets = np.zeros((n_out, n_cls))
    for f in range(n_out):
        center_aug = (crop_off + (f + 0.5) * FRAMES_PER_EMBED) * dsp.FRAME_HOP_S
        if (f + 1) * FRAMES_PER_EMBED > valid:
            continue   # padded region: all-zero target
        center_orig = center_aug * rate
        j = int(round((center_orig - PSEUDO_WIN_S / 2) / PSEUDO_HOP_S))
        j = min(max(j, 0), n_win - 1)
        targets[f] = psl.labels[j]
    return targets


def train_strong(student: WeakModel, records, pseudo_per_clip,
                 config: TrainConfig):
    """Train the frame-level model from pseudo-strong labels.

    The conv backbone starts from the student's weights; loss is
    per-output-frame BCE against the nearest pseudo window.
    """
    if len(pseudo_per_clip) != len(records):
        raise SeqshotError("pseudo labels missing for some clips")
    if not 0 < student.config.embed_dim <= MAX_EMBED_DIM:
        raise SeqshotError(f"student embed_dim {student.config.embed_dim} "
                           f"is not in 1..{MAX_EMBED_DIM}")
    n_classes = student.config.n_classes
    model = StrongModel(replace(student.config, seed=config.seed))
    model.init_backbone_from(student)
    batches, lr = _training_plan(records, n_classes, config, random_crop=False)

    def step_loss(batch):
        x, _, meta = batch
        logits, cache = model.forward(x)
        n_out = logits.shape[2]
        y = np.zeros((len(meta), n_classes, n_out))
        for k, mt in enumerate(meta):
            t_self = _frame_targets(pseudo_per_clip[mt["idx"]], n_out,
                                    mt["rate"], mt["off"], mt["valid"])
            if mt["partner"] is not None and mt["lam"] < 1.0:
                pm = meta[mt["partner"]]
                t_mix = _frame_targets(pseudo_per_clip[pm["idx"]], n_out,
                                       pm["rate"], pm["off"], pm["valid"])
                t_self = mt["lam"] * t_self + (1 - mt["lam"]) * t_mix
            y[k] = t_self.T
        loss, dlogits = bce_with_logits(logits, y)
        model.backward(cache, dlogits)
        return loss

    model.loss_curve = nn.fit(model, config.epochs, batches, step_loss, lr,
                              config.weight_decay)
    return model


# -- embedding extraction ----------------------------------------------------------------

def _logmel_input(w):
    if len(w.samples) < int(MIN_EMBED_S * dsp.SAMPLE_RATE):
        raise EmptyInputError(
            f"need at least {MIN_EMBED_S} s of audio to embed")
    return dsp.logmel(w)[None, None, :, :]


def embed_pooled(model: WeakModel, w: dsp.Waveform):
    """Fixed-length pooled embedding, any duration >= 0.5 s."""
    return model.embed(_logmel_input(w))[0]


def embed_frames(model: StrongModel, w: dsp.Waveform):
    """(T//32, E) embedding sequence, one frame per 320 ms.

    With the default config the frames tap an intermediate backbone
    stage and flatten (channels x frequency); E = C_tap * F_tap.  With
    ``embed_tap=None`` the frames are the pre-classifier neck features
    (E = embed_dim), which pool frequency away entirely.
    """
    x = _logmel_input(w)
    tap = model.config.embed_tap
    if tap is None:
        feats = model.features(x)
        return feats[0].T.copy()
    if not 1 <= tap <= len(model.config.channels):
        raise SeqshotError(f"embed_tap {tap} outside backbone depth")
    h = x
    for layer in model.backbone.layers[:2 * tap]:     # conv+relu per stage
        h, _ = layer.forward(h)
    per_block = FRAMES_PER_EMBED // 2 ** tap
    if per_block < 1:
        raise SeqshotError(f"embed_tap {tap} below the 320 ms frame rate")
    t = h.shape[2] // per_block
    return np.stack([
        h[0, :, i * per_block: (i + 1) * per_block, :].mean(axis=1).reshape(-1)
        for i in range(t)])


def embed_frames_normalized(model: StrongModel, w: dsp.Waveform):
    """Embedding frames minus their per-recording mean frame.

    Removing the recording-wide mean discards the static channel
    response (microphone distance, room coloration, broadband gain), so
    the few-shot detector sees what changes over time rather than what
    the recording sounds like overall.
    """
    frames = embed_frames(model, w)
    return frames - frames.mean(axis=0)
