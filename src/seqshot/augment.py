"""Expands curated enrollment segments into a detector training set.

Positives: the curated segments, time-shifted re-crops of the audio,
and delta-encoder deformations in embedding space.  Negatives: masked
or block-shuffled copies of target embedding sequences.  Nothing here
ever reads non-target audio.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, nn
from .errors import (
    EmptyInputError,
    FormatError,
    SeqshotError,
    ShapeError,
    decoding,
)
from .nn.checkpoint import read_exact, read_header, write_header

PROVENANCES = ("curated", "time_shift", "delta", "masked", "shuffled")

ENLARGE_S = 0.5          # curation bounds grow by this much, split evenly
MIN_FRAMES = 4           # shortest sequence the negative synthesizers take
MIN_CROP_S = 1.4         # shortest audio crop that embeds to >= MIN_FRAMES
MASK_FRACTION = (0.25, 0.5)
SHUFFLE_BLOCK_DIVISOR = 5


def crop_duration_s(duration_s, shot_duration_s=float("inf")):
    """Length of the audio crop the detector trains on for a curated
    segment of ``duration_s``: at least MIN_CROP_S, or the whole shot
    when the shot is shorter.  Its frame count is the scan window's."""
    return max(duration_s, min(MIN_CROP_S, shot_duration_s))


def _padded_sample_bounds(shot, onset_s, offset_s):
    """Sample bounds for [onset, offset), widened symmetrically to
    ``crop_duration_s`` and clipped to the shot.  Every training crop of
    the segment, curated or time-shifted, is ``b - a`` samples long.

    This is not ``curation.embed_crop``, which widens at the end only,
    to the pooled embedder's 0.5 s: the detector's training crops are
    centred on the segment, with bounds rounded to samples.
    """
    sr = shot.sample_rate
    a = int(round(onset_s * sr))
    b = int(round(offset_s * sr))
    need = int(crop_duration_s((b - a) / sr) * sr)
    if b - a < need:
        mid = (a + b) // 2
        a = max(0, mid - need // 2)
        b = a + need
        if b > len(shot.samples):
            b = len(shot.samples)
            a = max(0, b - need)
    return a, b


@dataclass
class EmbeddingSequence:
    frames: np.ndarray            # (T, E)
    label: int                    # 1 target, 0 nontarget
    provenance: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ShapeError("embedding sequence needs >= 2 frames")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("non-finite embedding frames")


# -- time-domain positive augmentation ----------------------------------------

def time_shift_augment(shot: dsp.Waveform, segment, n, rng, embed_fn):
    """Re-crop the curated segment within bounds enlarged by 250 ms per
    side and embed each crop; every crop has the curated crop's length
    (``_padded_sample_bounds``), so all outputs share one frame count."""
    sr = shot.sample_rate
    dur = segment.offset_s - segment.onset_s
    if dur > shot.duration_s + 1e-9:
        raise SeqshotError("segment longer than its shot")
    dur = crop_duration_s(dur, shot.duration_s)
    lo = max(0.0, segment.onset_s - ENLARGE_S / 2)
    hi = min(shot.duration_s, segment.onset_s + dur + ENLARGE_S / 2)
    max_start = max(lo, hi - dur)
    a, b = _padded_sample_bounds(shot, segment.onset_s, segment.offset_s)
    n_samples = b - a
    out = []
    for _ in range(n):
        start = float(rng.uniform(lo, max_start)) if max_start > lo else lo
        a = int(round(start * sr))
        a = min(a, len(shot.samples) - n_samples)
        crop = dsp.Waveform(shot.samples[a: a + n_samples], sr)
        out.append(EmbeddingSequence(embed_fn(crop), label=1,
                                     provenance="time_shift"))
    return out


# -- delta encoder ---------------------------------------------------------------

DELTA_LR = 1e-3                  # fixed AdamW learning rate
DELTA_WEIGHT_DECAY = 0.0
DELTA_HOLDOUT_FRAC = 0.2         # share of frames held out for holdout_l1
DELTA_BATCH = 256                # frames per Δ-encoder training step


@dataclass
class DeltaConfig:
    z_dim: int = 16
    hidden: int = 128
    epochs: int = 300
    seed: int = 0


class DeltaEncoder(nn.Module):
    """Encoder-decoder over embedding frames: a low-dim deformation code z
    extracted from a (clean, degraded) frame pair is applied to new frames.

    The encoder learns from mean-removed frames
    (``pretrain.embed_frames_normalized``); ``delta_augment`` centres its
    target to match.
    """

    KIND = "delta"
    CONFIG = DeltaConfig
    META = ("embed_dim", "z_dim", "hidden")

    def __init__(self, embed_dim, config: DeltaConfig = None):
        self.embed_dim = embed_dim
        config = config or DeltaConfig()
        rng = np.random.default_rng(config.seed + 77)
        e, z, h = embed_dim, config.z_dim, config.hidden
        super().__init__(
            config,
            encoder=nn.Graph([
                nn.Linear(2 * e, h, "enc1", rng),
                nn.ReLU("enc_relu"),
                nn.Linear(h, z, "enc2", rng),
            ]),
            decoder=nn.Graph([
                nn.Linear(e + z, h, "dec1", rng),
                nn.ReLU("dec_relu"),
                nn.Linear(h, e, "dec2", rng),
            ]))
        self.holdout_l1 = None

    def meta(self):
        return {"embed_dim": self.embed_dim, "z_dim": self.config.z_dim,
                "hidden": self.config.hidden}

    @classmethod
    def from_meta(cls, fields):
        return cls(fields.pop("embed_dim"), DeltaConfig(**fields))

    @classmethod
    def stored_sizes(cls, shapes):
        return {"embed_dim": shapes["decoder/dec2/W"][1],
                "z_dim": shapes["encoder/enc2/W"][1],
                "hidden": shapes["encoder/enc1/W"][1]}

    def forward(self, clean, degraded, base):
        """Dec(base || Enc(clean || degraded)), per frame; (out, cache)."""
        z, enc_cache = self.encoder.forward(np.hstack([clean, degraded]))
        out, dec_cache = self.decoder.forward(np.hstack([base, z]))
        return out, (enc_cache, dec_cache)

    def backward(self, cache, dy):
        enc_cache, dec_cache = cache
        d_in = self.decoder.backward(dec_cache, dy)
        self.encoder.backward(enc_cache, d_in[:, self.embed_dim:],
                              input_grad=False)

    def apply(self, base, clean, degraded):
        return self.forward(clean, degraded, base)[0]


def train_delta(pairs, config: DeltaConfig = None):
    """Train from time-aligned (clean, degraded) embedding sequences.

    Per frame: z = Enc(clean || degraded), reconstruction
    Dec(clean || z) ~ degraded, L1 loss.  The pairs are expected to be
    mean-removed frames (``pretrain.embed_frames_normalized``): the model
    learns the deformation in that domain, and ``delta_augment`` applies
    it there.  Returns the model with its held-out L1 recorded in
    ``holdout_l1`` and its mean training L1 per epoch in ``loss_curve``.
    """
    cfg = config or DeltaConfig()
    if not pairs:
        raise EmptyInputError("no training pairs")
    # the code z comes from frame t but is applied to a different frame
    # t+1 of the same pair, so z cannot smuggle frame content through
    clean_rows, deg_rows, base_rows, tgt_rows = [], [], [], []
    for c, d in pairs:
        cf, df = c.frames, d.frames
        if cf.shape != df.shape:
            raise ShapeError(f"pair length mismatch: {cf.shape} vs {df.shape}")
        clean_rows.append(cf)
        deg_rows.append(df)
        base_rows.append(np.roll(cf, -1, axis=0))
        tgt_rows.append(np.roll(df, -1, axis=0))
    clean = np.vstack(clean_rows)
    deg = np.vstack(deg_rows)
    base = np.vstack(base_rows)
    tgt = np.vstack(tgt_rows)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(clean))
    n_hold = max(1, int(DELTA_HOLDOUT_FRAC * len(clean)))
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0:
        train = hold
    model = DeltaEncoder(clean.shape[1], cfg)

    def batches():
        order = rng.permutation(len(train))
        for b0 in range(0, len(order), DELTA_BATCH):
            yield train[order[b0: b0 + DELTA_BATCH]]

    def step_loss(idx):
        recon, cache = model.forward(clean[idx], deg[idx], base[idx])
        resid = recon - tgt[idx]
        model.backward(cache, np.sign(resid) / resid.size)
        return float(np.mean(np.abs(resid)))

    model.loss_curve = nn.fit(model, cfg.epochs, batches, step_loss,
                              lambda step: DELTA_LR, DELTA_WEIGHT_DECAY)
    recon_hold = model.apply(base[hold], clean[hold], deg[hold])
    model.holdout_l1 = float(np.mean(np.abs(recon_hold - tgt[hold])))
    model.holdout_identity_l1 = float(np.mean(np.abs(base[hold] - tgt[hold])))
    return model


def delta_augment(model: DeltaEncoder, target: EmbeddingSequence, donor_pair,
                  n, rng):
    """Apply donor deformations to the target sequence, n variants.

    Per variant a random donor start offset is drawn; donor frames pair
    with target frames by index modulo donor length.  Output keeps the
    target's frame count and stays a positive.

    The encoder learns from mean-removed frames, and a recording's mean
    frame is a static channel response, not part of the deformation.  So
    the target's mean frame is removed before the deformation and added
    back afterwards: shifting the target by a constant frame shifts every
    output by the same constant.  The donor pair is used as given, since
    its clean-to-degraded difference is the deformation itself.
    """
    cf, df = donor_pair[0].frames, donor_pair[1].frames
    if cf.shape != df.shape:
        raise ShapeError("donor pair not time-aligned")
    t = target.frames.shape[0]
    td = cf.shape[0]
    mean = target.frames.mean(axis=0)
    centred = target.frames - mean
    out = []
    for _ in range(n):
        off = int(rng.integers(0, td))
        idx = (np.arange(t) + off) % td
        frames = model.apply(centred, cf[idx], df[idx]) + mean
        out.append(EmbeddingSequence(frames, label=1, provenance="delta"))
    return out


# -- negative synthesis ------------------------------------------------------------

def synth_negative_mask(target: EmbeddingSequence, rng):
    """Replace a contiguous block (25-50 % of T) with the mean frame."""
    t = target.frames.shape[0]
    if t < MIN_FRAMES:
        raise EmptyInputError(f"need >= {MIN_FRAMES} frames to mask")
    rho = float(rng.uniform(*MASK_FRACTION))
    length = max(1, int(round(rho * t)))
    start = int(rng.integers(0, t - length + 1))
    frames = target.frames.copy()
    frames[start: start + length] = target.frames.mean(axis=0)
    return EmbeddingSequence(frames, label=0, provenance="masked")


def synth_negative_shuffle(target: EmbeddingSequence, rng):
    """Permute blocks (about T/5 of them, min 2) with a non-identity
    permutation; preserves the frame multiset exactly."""
    t = target.frames.shape[0]
    if t < MIN_FRAMES:
        raise EmptyInputError(f"need >= {MIN_FRAMES} frames to shuffle")
    n_blocks = max(2, int(round(t / SHUFFLE_BLOCK_DIVISOR)))
    base = t // n_blocks
    bounds = [(i * base, (i + 1) * base if i < n_blocks - 1 else t)
              for i in range(n_blocks)]
    while True:
        perm = rng.permutation(n_blocks)
        if np.any(perm != np.arange(n_blocks)):
            break
    frames = np.vstack([target.frames[bounds[j][0]: bounds[j][1]]
                        for j in perm])
    return EmbeddingSequence(frames, label=0, provenance="shuffled")


# -- training-set assembly -----------------------------------------------------------

N_DELTA = 8              # Δ positives per segment, given a Δ-encoder


@dataclass
class AugmentConfig:
    n_time_shift: int = 8
    n_masked: int = 8
    n_shuffled: int = 8


def build_train_set(shots, segments, embed_fn, delta_model, donor_pairs,
                    config: AugmentConfig, rng):
    """D_train from curated segments only: positives (curated, shifted,
    delta) and synthesized negatives (masked, shuffled).  ``N_DELTA``
    delta positives per segment are made only when a ``delta_model`` is
    given, and it needs at least one donor pair."""
    if not segments:
        raise EmptyInputError("no curated segments")
    if delta_model is not None and not donor_pairs:
        raise EmptyInputError("a delta encoder needs at least one donor pair")
    out = []
    for shot, seg in zip(shots, segments):
        sr = shot.sample_rate
        a, b = _padded_sample_bounds(shot, seg.onset_s, seg.offset_s)
        curated = EmbeddingSequence(
            embed_fn(dsp.Waveform(shot.samples[a:b], sr)),
            label=1, provenance="curated",
        )
        out.append(curated)
        out.extend(time_shift_augment(shot, seg, config.n_time_shift, rng,
                                      embed_fn))
        if delta_model is not None:
            donor = donor_pairs[int(rng.integers(0, len(donor_pairs)))]
            out.extend(delta_augment(delta_model, curated, donor, N_DELTA,
                                     rng))
        for _ in range(config.n_masked):
            out.append(synth_negative_mask(curated, rng))
        for _ in range(config.n_shuffled):
            out.append(synth_negative_shuffle(curated, rng))
    return out


# -- serialization ----------------------------------------------------------------------

SEQ_MAGIC = b"SQES"
SEQ_VERSION = 1


def write_embedding_sequence(path, seq: EmbeddingSequence):
    frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    with open(path, "wb") as f:
        write_header(f, SEQ_MAGIC, SEQ_VERSION, *frames.shape)
        f.write(frames.tobytes())
        f.write(bytes([seq.label, PROVENANCES.index(seq.provenance)]))


def read_embedding_sequence(path):
    """Raises FormatError for a label other than 0 or 1, an unknown
    provenance or a non-finite frame, besides the header's errors."""
    with open(path, "rb") as f:
        t, e = read_header(f, SEQ_MAGIC, SEQ_VERSION, 2)
        raw = read_exact(f, 4 * t * e + 2)
    frames = np.frombuffer(raw[:-2], dtype="<f4").reshape(t, e)
    label, prov = raw[-2], raw[-1]
    if label > 1:
        raise FormatError(f"{path}: label {label} is not 0 or 1")
    if prov >= len(PROVENANCES):
        raise FormatError(f"{path}: unknown provenance {prov}")
    if not np.all(np.isfinite(frames)):
        raise FormatError(f"{path}: non-finite embedding frames")
    return EmbeddingSequence(frames.astype(np.float64), label=int(label),
                             provenance=PROVENANCES[prov])


def save_train_set(directory, seqs):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, s in enumerate(seqs):
        name = f"seq_{i:05d}.sqes"
        write_embedding_sequence(directory / name, s)
        entries.append({"file": name, "label": s.label,
                        "provenance": s.provenance})
    with open(directory / "manifest.json", "w") as f:
        json.dump(entries, f, indent=1, sort_keys=True)


def load_train_set(directory):
    directory = Path(directory)
    manifest = directory / "manifest.json"
    with decoding(manifest):
        return [read_embedding_sequence(directory / e["file"])
                for e in json.loads(manifest.read_text())]
