"""Embedding pretraining: weak-label classifier, distilled student,
pseudo-strong labeling, and the frame-level (strong) embedding.

Architectures are desk-scale conv stacks that keep the pooling
topologies that matter:

  WeakModel    conv2d stack -> channel-wise global pool -> 2-layer FC head
               (one logit vector per clip, any duration >= 0.5 s)
  StrongModel  same conv stack -> frequency-only pooling -> 1x1 conv neck
               -> 1x1 conv classifier (one logit vector per 320 ms)

The conv stack halves the time axis once per stage with non-overlapping
kernels.  A StrongModel is refused unless it has exactly five stages, so
one output frame covers exactly 32 logmel frames (320 ms), floor(T/32)
frames come out, and each training batch's frame targets, fixed before
the forward pass, line up with them.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dsp, nn
from .errors import EmptyInputError, FormatError, SeqshotError, decoding

FRAMES_PER_EMBED = 32            # logmel frames per strong-embedding frame
EMBED_HOP_S = FRAMES_PER_EMBED * dsp.FRAME_HOP_S   # 0.32
MIN_EMBED_S = 0.5                # shortest audio the embedders take
# Largest strong-embedding size train_strong builds: a student's
# embed_dim is a stored meta/ field that none of its tensors fixes.
MAX_EMBED_DIM = 4096
# Backbone stage the embedding frames tap: frequency is flattened, not
# pooled, so the spectral detail that separates same-vocabulary
# sequences survives.  Embedder checkpoints store it as meta/embed_tap.
EMBED_TAP = 3
PSEUDO_BATCH = 128               # pseudo-label windows per forward pass
# Embedding frames per chunk of the backbone pass (embed_stream): 2048
# log-mel frames, 20.48 s.  EMBED_MIN_TAIL is the shortest last chunk
# (the min_last of dsp.spans).
EMBED_CHUNK = 64
EMBED_MIN_TAIL = 16
# Backbone stages a pseudo-label batch's windows share (_pseudo_logits).
# Stage i runs once per phase of the window starts, on 2**(i-1) maps that
# each span the batch: 5 output positions per window, against 24 and 12
# for windows run one by one at stages 1 and 2, but 6 at stage 3.
PSEUDO_SHARED_STAGES = 2

# Distillation: the student's loss weights the teacher's tempered
# logits by KD_WEIGHT and the ground-truth labels by 1 - KD_WEIGHT.
KD_TEMPERATURE = 2.0
KD_WEIGHT = 0.5

PSEUDO_WIN_S = 0.5
PSEUDO_HOP_S = 0.1
PSEUDO_THRESHOLD = 0.5


# -- data ---------------------------------------------------------------------

@dataclass
class ClipRecord:
    wav_path: Path = None
    labels: tuple = ()
    events: tuple = ()

    def load(self):
        """The clip's audio, read afresh from ``wav_path``.  The record
        keeps nothing it reads, so records held after training pin no
        audio; a training run keeps each clip it reads, as audio or as
        log-mel, until it returns (``_fit``)."""
        return dsp.load_wav(self.wav_path)


def load_manifest(path):
    """Read a JSON-lines dataset manifest; wav paths resolve relative to it.
    A label that is not a JSON integer >= 0 is a FormatError."""
    path = Path(path)
    records = []
    with decoding(path):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            r = json.loads(line)
            labels = tuple(r["labels"])
            if not all(type(c) is int and c >= 0 for c in labels):
                raise FormatError(f"{path}: labels {r['labels']!r} are not "
                                  f"all integers >= 0")
            records.append(ClipRecord(
                wav_path=path.parent / r["wav"],
                labels=labels,
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
    # exp(-x) overflows to inf below x = -709, where 1 / (1 + inf) is the
    # exact limit 0
    with np.errstate(over="ignore"):
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

    def meta(self):
        return {f: EMBED_TAP if f == "embed_tap" else getattr(self.config, f)
                for f in self.META}

    @classmethod
    def from_meta(cls, fields):
        if fields.pop("embed_tap") != EMBED_TAP:
            raise FormatError(f"meta/embed_tap: only {EMBED_TAP} is read")
        return super().from_meta(fields)

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

    def embed(self, x):
        return self.backbone.forward(x)[0]


class StrongModel(_Embedder):
    """Frame-level embedding/classifier; one output frame per 320 ms.

    ``forward`` maps (B, 1, T, 64) to (B, C, T//32) logits.
    """

    KIND = "strong"

    def __init__(self, config: ModelConfig):
        if 2 ** len(config.channels) != FRAMES_PER_EMBED:
            raise SeqshotError(
                f"strong model of {len(config.channels)} stages: one output "
                f"frame per {FRAMES_PER_EMBED} log-mel frames takes "
                f"{FRAMES_PER_EMBED.bit_length() - 1} stride-2 stages")
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

    def init_backbone_from(self, weak: WeakModel):
        """Copy the (distilled) student's convolutional weights."""
        src = weak.backbone.params()
        dst = self.backbone.params()
        for k, v in dst.items():
            if k in src:
                v[...] = src[k]
        self.backbone.mark_updated()


# -- training -------------------------------------------------------------------

WEIGHT_DECAY = 1e-4              # AdamW's decoupled decay, every stage


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    crop_frames: int = 998
    augment: bool = True


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


def _prepare_batch(records, idxs, targets, rng, cfg, random_crop, clips):
    """Load + augment a batch; returns (x (B,1,T,64), y).

    ``targets(i, rate, off, valid)`` gives the target of record ``i``
    cropped at log-mel frame ``off`` of the clip played at ``rate``, with
    ``valid`` frames of audio before the padding; it is called once per
    item, in batch order, and every item's target has the same shape.
    ``y`` stacks them, mixed with the features.

    ``clips`` maps a record index to what the run keeps of that clip, and
    clips this call reads are added to it: with ``augment`` the waveform,
    without it the log-mel of the whole clip.

    Per clip the draws are: playback rate and gain (with ``augment``),
    the crop offset, SpecAugment (with ``augment``); then mixup across
    the batch, which gives each item's features and target the same
    weight.  With ``augment`` the crop is placed on the frame count
    the rate-changed clip has, which follows from its sample count, and
    only the samples under the crop are resampled and turned into log-mel
    frames.  Without it the crop is rows of the stored log-mel, which
    equal the log-mel of the samples under the crop.  Either way the
    batch equals, bit for bit, cropping the log-mel of the whole
    (augmented) clip.  A clip shorter than ``crop_frames`` is padded at
    the end with log-floor frames.
    """
    n_crop = cfg.crop_frames
    feats, targs = [], []
    for i in idxs:
        if i not in clips:
            r = records[i]
            clips[i] = r.load() if cfg.augment else dsp.logmel(r.load())
        clip = clips[i]
        if cfg.augment:
            rate = float(rng.uniform(0.9, 1.1))
            gain = float(rng.uniform(-20.0, 20.0))
            n_frames = dsp.frame_count(
                dsp.resampled_length(len(clip.samples), rate))
        else:
            rate, n_frames = 1.0, clip.shape[0]
        off, valid = 0, min(n_frames, n_crop)
        if n_frames >= n_crop and random_crop:
            off = int(rng.integers(0, n_frames - n_crop + 1))
        if cfg.augment:
            start = off * dsp.FRAME_HOP
            stop = start + (valid - 1) * dsp.FRAME_HOP + dsp.FRAME_LEN
            m = dsp.logmel(dsp.augment_gain(
                dsp.augment_resample(clip, rate, start, stop), gain))
        else:
            m = clip[off: off + valid]
        if valid < n_crop:
            pad = np.full((n_crop - valid, m.shape[1]), np.log(dsp.LOG_FLOOR))
            m = np.vstack([m, pad])
        if cfg.augment:
            m = dsp.spec_augment(m, rng)
        feats.append(m)
        targs.append(targets(int(i), rate, off, valid))
    # mixup within the batch
    if cfg.augment and len(idxs) > 1:
        perm = rng.permutation(len(idxs))
        lams = [dsp.draw_mixup_lambda(rng) for _ in idxs]
        mixed = [dsp.mixup(feats[k], feats[j], targs[k], targs[j], lam)
                 for k, (j, lam) in enumerate(zip(perm, lams))]
        feats, targs = zip(*mixed)
    x = np.stack(feats)[:, None, :, :]
    # C order: the loss sums its terms in memory order, so a target's
    # layout (a transposed frame target, say) would move it by rounding
    return x, np.ascontiguousarray(np.stack(targs))


def _fit(model, records, targets, config, random_crop=True, teacher=None):
    """Train ``model`` on ``_prepare_batch`` batches of ``records`` with
    ``targets``; returns it with ``.loss_curve`` set.

    The loss is BCE between the logits and the batch targets; with
    ``teacher`` set it becomes KD_WEIGHT * tau^2 * KL(sigma(t/tau) ||
    sigma(s/tau)) per class, at tau = KD_TEMPERATURE, plus
    (1 - KD_WEIGHT) * BCE.

    Each batch draws its clips with replacement, weighted by
    ``_class_weights``, and ``_prepare_batch`` draws from the same RNG,
    seeded with ``config.seed``; the learning rate follows the one-cycle
    schedule over the whole run.

    Each clip is read once, on first draw, and kept until the run
    returns: as its waveform with ``augment``, and without it as its
    whole-clip log-mel, which every later crop slices.  A log-mel holds
    64 values per 160 samples, 0.4 times the audio it replaces, and
    computing it whole pays off once a clip is drawn about
    ``clip_frames / crop_frames`` times (21 for 48-frame crops of 10 s
    clips; whole-clip crops from the second draw).  Teacher runs draw each
    clip far more often than that, so there is no switch."""
    if not records:
        raise EmptyInputError("empty dataset")
    rng = np.random.default_rng(config.seed)
    weights = _class_weights(records, model.config.n_classes)
    steps_per_epoch = max(1, (len(records) + config.batch_size - 1)
                          // config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)
    clips = {}

    def batches():
        for _ in range(steps_per_epoch):
            idxs = rng.choice(len(records), size=min(config.batch_size,
                                                     len(records)),
                              replace=True, p=weights)
            yield _prepare_batch(records, idxs, targets, rng, config,
                                 random_crop, clips)

    def step_loss(batch):
        x, y = batch
        logits, cache = model.forward(x)
        loss, dlogits = bce_with_logits(logits, y)
        if teacher is not None:
            kd, d_kd = kd_binary_kl(teacher.forward(x)[0], logits,
                                    KD_TEMPERATURE)
            loss = KD_WEIGHT * kd + (1 - KD_WEIGHT) * loss
            dlogits = KD_WEIGHT * d_kd + (1 - KD_WEIGHT) * dlogits
        model.backward(cache, dlogits)
        return loss

    model.loss_curve = nn.fit(
        model, config.epochs, batches, step_loss,
        lambda step: nn.one_cycle_lr(step, total_steps), WEIGHT_DECAY)
    return model


def _clip_targets(records, n_classes, model_config):
    """Each clip's multi-hot target, for a ``model_config`` model; refuses
    a label id or class count that does not fit."""
    for r in records:
        if any(c >= n_classes for c in r.labels):
            raise SeqshotError("label id exceeds n_classes")
    if model_config.n_classes != n_classes:
        raise SeqshotError("model/dataset class count mismatch")
    return lambda i, rate, off, valid: multi_hot(records[i].labels, n_classes)


def train_weak(records, n_classes, config: TrainConfig,
               model_config: ModelConfig):
    """Train the weak-label multi-label classifier on clip multi-hots."""
    targets = _clip_targets(records, n_classes, model_config)
    return _fit(WeakModel(model_config), records, targets, config)


def distill(teacher, student_config: ModelConfig, records,
            config: TrainConfig):
    """Train a student against teacher logits + ground-truth labels."""
    targets = _clip_targets(records, teacher.config.n_classes,
                            student_config)
    return _fit(WeakModel(student_config), records, targets, config,
                teacher=teacher)


# -- pseudo-strong labels -----------------------------------------------------------

@dataclass
class PseudoStrongLabels:
    labels: np.ndarray            # (windows, classes) uint8


def pseudo_label(model: WeakModel, w: dsp.Waveform):
    """Sigmoid predictions per 0.5 s window at 0.1 s hops, thresholded
    strictly above 0.5.  The windows' logits come from ``_pseudo_logits``,
    which shares the backbone's first stages between them."""
    probs = sigmoid(_pseudo_logits(model, w))
    return PseudoStrongLabels(
        labels=(probs > PSEUDO_THRESHOLD).astype(np.uint8))


def _pseudo_logits(model: WeakModel, w: dsp.Waveform):
    """(windows, classes) teacher logits of the PSEUDO_WIN_S windows at
    PSEUDO_HOP_S hops: window j is log-mel rows 10j to 10j + 47.

    The windows of a batch overlap 4.8 times, so the first
    PSEUDO_SHARED_STAGES backbone stages run on the rows the batch
    covers, not on each window.  This is exact: every stage has time
    kernel = time stride and no time padding, so its output at time t
    reads only input rows s*t to s*t + k - 1.  A window starting at row
    a of a stage's input, with a % s = p, is therefore the same as
    positions a // s onward of that stage run once on rows p onward.
    Stage 1 runs once (the hop, 10 rows, is a multiple of its stride),
    stage 2 once per phase, at offsets 0 and 1 of the stage-1 map.  Each
    window's positions are gathered from its map, and the later stages,
    the pool and the head run on the batch, as they do on a window taken
    whole.  The maps span one batch of PSEUDO_BATCH windows, so memory
    does not grow with the clip's length beyond its log-mel.
    """
    win = int(PSEUDO_WIN_S * dsp.SAMPLE_RATE)
    hop = int(PSEUDO_HOP_S * dsp.SAMPLE_RATE)
    if len(w.samples) < win:
        raise EmptyInputError("clip shorter than one 0.5 s window")
    n_win = (len(w.samples) - win) // hop + 1
    m = dsp.logmel(w)
    frames_per_win = 1 + (win - dsp.FRAME_LEN) // dsp.FRAME_HOP   # 48
    hop_frames = hop // dsp.FRAME_HOP                             # 10
    layers = model.backbone.layers          # conv, relu per stage; pool
    n_shared = 2 * min(PSEUDO_SHARED_STAGES, len(model.config.channels))
    out = []
    for b0, b1 in dsp.spans(n_win, PSEUDO_BATCH):
        # window j of the batch starts at time row at[j][1] of maps[at[j][0]]
        maps = [m[None, None, b0 * hop_frames:
                  (b1 - 1) * hop_frames + frames_per_win]]
        at = [(0, j * hop_frames) for j in range(b1 - b0)]
        n = frames_per_win
        for conv, relu in zip(layers[0:n_shared:2], layers[1:n_shared:2]):
            k, s = conv.kernel[0], conv.stride[0]
            phases = sorted({(i, a % s) for i, a in at})
            maps = [relu.forward(conv.forward(maps[i][:, :, p:])[0])[0]
                    for i, p in phases]
            at = [(phases.index((i, a % s)), a // s) for i, a in at]
            n = (n - k) // s + 1
        # stacked channels-last, the layout a stage's output has
        h = np.concatenate([maps[i][:, :, a: a + n].transpose(0, 2, 3, 1)
                            for i, a in at]).transpose(0, 3, 1, 2)
        for layer in layers[n_shared:]:
            h, _ = layer.forward(h)
        out.append(model.head.forward(h)[0])
    return np.concatenate(out)


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

    The conv backbone starts from the student's weights, so the student
    needs the strong model's five stages; loss is per-output-frame BCE
    against the nearest pseudo window.
    """
    if len(pseudo_per_clip) != len(records):
        raise SeqshotError("pseudo labels missing for some clips")
    n_classes = student.config.n_classes
    for psl in pseudo_per_clip:
        if psl.labels.shape[0] == 0 or psl.labels.shape[1] != n_classes:
            raise SeqshotError(f"pseudo labels of shape {psl.labels.shape} "
                               f"for a {n_classes}-class student")
    if not 0 < student.config.embed_dim <= MAX_EMBED_DIM:
        raise SeqshotError(f"student embed_dim {student.config.embed_dim} "
                           f"is not in 1..{MAX_EMBED_DIM}")
    model = StrongModel(replace(student.config, seed=config.seed))
    model.init_backbone_from(student)
    n_out = config.crop_frames // FRAMES_PER_EMBED
    return _fit(model, records,
                lambda i, rate, off, valid: _frame_targets(
                    pseudo_per_clip[i], n_out, rate, off, valid).T,
                config, random_crop=False)


# -- embedding extraction ----------------------------------------------------------------

def _check_embed_length(n_samples):
    if n_samples < int(MIN_EMBED_S * dsp.SAMPLE_RATE):
        raise EmptyInputError(
            f"need at least {MIN_EMBED_S} s of audio to embed")


def embed_pooled(model: WeakModel, w: dsp.Waveform):
    """Fixed-length pooled embedding, any duration >= 0.5 s."""
    _check_embed_length(len(w.samples))
    return model.embed(dsp.logmel(w)[None, None, :, :])[0]


def embed_frames(model: StrongModel, w: dsp.Waveform):
    """(T//32, E) embedding sequence, one frame per 320 ms.

    The frames tap backbone stage EMBED_TAP and flatten (channels x
    frequency); E = C_tap * F_tap.  They are computed in chunks of whole
    embedding frames (``embed_stream``).
    """
    return embed_stream(model, [w.samples], len(w.samples))


def embed_stream(model: StrongModel, blocks, n_samples):
    """``embed_frames`` of the 16 kHz signal that ``blocks`` yield in
    order, ``n_samples`` samples in all; (T//32, E).

    The backbone runs up to EMBED_TAP on chunks of ``EMBED_CHUNK``
    embedding frames (32 log-mel frames each) taken from the signal as it
    arrives, so what it holds beyond the frames returned is one chunk's
    samples, log-mel and stage outputs.  This is exact: each stage up to
    the tap has time kernel = stride = 2 and no time padding, so an
    embedding frame reads only its own 32 log-mel frames, and each chunk
    starts on a multiple of 256 frames, where ``dsp.logmel`` starts its
    blocks.  The chunks are the ``dsp.spans`` of the log-mel frames with
    ``min_last`` ``EMBED_MIN_TAIL`` embedding frames, as a shorter chunk
    could differ in the last bit, and ``dsp.regroup`` gathers the samples
    each chunk's frames read.  So each chunk equals the same frames of
    the whole signal at once bit for bit, and the last chunk runs to the
    last log-mel frame, as the one-pass computation does.
    """
    _check_embed_length(n_samples)
    chunks = dsp.spans(dsp.frame_count(n_samples),
                       EMBED_CHUNK * FRAMES_PER_EMBED,
                       EMBED_MIN_TAIL * FRAMES_PER_EMBED)
    samples = [(f0 * dsp.FRAME_HOP, (f1 - 1) * dsp.FRAME_HOP + dsp.FRAME_LEN)
               for f0, f1 in chunks]
    per_block = FRAMES_PER_EMBED // 2 ** EMBED_TAP
    out = None
    for x, (f0, _) in zip(dsp.regroup(blocks, samples), chunks):
        h = dsp.logmel(dsp.Waveform(x))[None, None]
        for layer in model.backbone.layers[:2 * EMBED_TAP]:  # conv+relu
            h, _ = layer.forward(h)
        if out is None:
            out = np.empty((chunks[-1][1] // FRAMES_PER_EMBED,
                            h.shape[1] * h.shape[3]))
        t0 = f0 // FRAMES_PER_EMBED
        for i in range(h.shape[2] // per_block):
            out[t0 + i] = h[0, :, i * per_block: (i + 1) * per_block,
                            :].mean(axis=1).reshape(-1)
    return out


def centre_frames(frames):
    """Subtract the recording-wide mean frame from ``frames``, in place.

    Removing the recording-wide mean discards the static channel
    response (microphone distance, room coloration, broadband gain), so
    the few-shot detector sees what changes over time rather than what
    the recording sounds like overall.
    """
    frames -= frames.mean(axis=0)
    return frames


def embed_frames_normalized(model: StrongModel, w: dsp.Waveform):
    """Embedding frames minus their per-recording mean frame
    (``centre_frames``)."""
    return centre_frames(embed_frames(model, w))
