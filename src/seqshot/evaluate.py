"""Metrics and the few-shot evaluation protocol.

Average precision with tie grouping, an episode runner that trains a
detector from enrollment shots only and scores held-out clips, a
weak-label baseline, and CSV reporting.
Episode audio access is audited so tests can prove the detector never
reads evaluation audio while training.
"""

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import augment, curation, detector, dsp, pretrain
from .errors import (DegenerateInputError, EmptyInputError, FormatError,
                     ShapeError, decoding)


# -- ranking metrics -----------------------------------------------------------

def auprc(scores, labels):
    """Average precision, summing precision over recall increments with
    tied scores collapsed into one operating point."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    if len(scores) == 0:
        raise EmptyInputError("no items")
    if labels.min() == labels.max():
        raise DegenerateInputError("need both classes for average precision")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order].astype(np.float64)
    ends = np.append(np.flatnonzero(np.diff(s) != 0), len(s) - 1)
    tp = np.cumsum(y)[ends]
    fp = np.cumsum(1.0 - y)[ends]
    recall = tp / tp[-1]
    precision = tp / (tp + fp)
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def difficulty_index(target_centroid, negative_embeddings):
    """Mean cosine similarity between the enrollment centroid and the
    negatives' pooled embeddings: near 1 = confusable, near 0 = easy."""
    if len(negative_embeddings) == 0:
        raise EmptyInputError("no negatives")
    return float(np.mean([curation.cosine_similarity(target_centroid, e)
                          for e in negative_embeddings]))


# -- episode protocol ------------------------------------------------------------

@dataclass
class EvalItem:
    wav: str
    label: int


class Episode:
    """One few-shot episode on disk, with audited audio access.

    Every waveform read is logged as (phase, kind, index); the phase is
    set by the runner ('train' while building the detector, 'eval'
    while scoring) so tests can assert evaluation audio is never read
    during training.  A ``wav`` that is not a string, or an eval label
    that is not the JSON integer 0 or 1, is a FormatError naming the
    descriptor.
    """

    def __init__(self, descriptor_path):
        descriptor_path = Path(descriptor_path)
        with decoding(descriptor_path):
            desc = json.loads(descriptor_path.read_text())
            self.enrollment_wavs = [e["wav"] for e in desc["enrollment"]]
            self.eval_items = [EvalItem(e["wav"], e["label"])
                               for e in desc["eval"]]
        for wav in self.enrollment_wavs + [it.wav for it in self.eval_items]:
            if not isinstance(wav, str):
                raise FormatError(f"{descriptor_path}: wav {wav!r} is not "
                                  f"a string")
        for it in self.eval_items:
            if type(it.label) is not int or it.label not in (0, 1):
                raise FormatError(f"{descriptor_path}: eval label "
                                  f"{it.label!r} is not 0 or 1")
        self.root = descriptor_path.parent
        self.phase = "train"
        self.audit = []

    def set_phase(self, phase):
        self.phase = phase

    def load_enrollment(self, i):
        self.audit.append((self.phase, "enrollment", i))
        return dsp.load_wav(self.root / self.enrollment_wavs[i])

    def load_eval(self, i):
        self.audit.append((self.phase, "eval", i))
        return dsp.load_wav(self.root / self.eval_items[i].wav)

    @property
    def labels(self):
        return np.array([it.label for it in self.eval_items])


REPS = 10                        # detectors trained per episode


@dataclass
class PretrainedModels:
    """Everything frozen before any episode is seen."""
    weak: pretrain.WeakModel
    strong: pretrain.StrongModel
    delta: augment.DeltaEncoder   # None: no Δ-encoder augmentation
    donor_pairs: list


@dataclass
class EpisodeResult:
    psl_auprc: float              # median over reps
    wl_auprc: float               # deterministic baseline
    psl_per_rep: list
    difficulty: float
    target_duration_s: float
    n_pos: int
    n_neg: int
    audit: list = field(default_factory=list)


@dataclass
class Enrollment:
    """One target enrolled from K shots."""
    segments: list                # curated, aligned: one Segment per shot
    curation_report: dict
    window_s: float               # the scan window: the crop trained on
    detectors: list               # one DetectorNet per seed
    train_items: list             # train-set size per seed


def enroll(shots, models: PretrainedModels, seeds,
           augment_config: augment.AugmentConfig = None,
           train_config: detector.DetectorTrainConfig = None):
    """Curate the shots once, then per seed ``s`` build a train set with
    ``default_rng(s)`` and train a detector with seed ``s``.  The scan
    window is the training crops' length, the ``augment.crop_bounds`` of
    the first curated segment.  A shot shorter than ``augment.MIN_CROP``
    samples, the fewest that embed to ``augment.MIN_FRAMES`` frames, is
    refused before curation: no training crop of it could be masked or
    shuffled."""
    for i, w in enumerate(shots):
        if len(w.samples) < augment.MIN_CROP:
            raise EmptyInputError(
                f"enrollment shot {i} lasts {w.duration_s:.3f} s, under the "
                f"{augment.MIN_CROP / dsp.SAMPLE_RATE:.3f} s that embed to "
                f"{augment.MIN_FRAMES} frames")
    aug_cfg = augment_config or augment.AugmentConfig()
    train_cfg = train_config or detector.DetectorTrainConfig()
    segments, report = curation.curate(
        shots, lambda w: pretrain.embed_pooled(models.weak, w))
    a, b = augment.crop_bounds(shots[0], segments[0].onset_s,
                               segments[0].offset_s)
    window_s = (b - a) / shots[0].sample_rate
    detectors, train_items = [], []
    for s in seeds:
        train_set = augment.build_train_set(
            shots, segments,
            lambda w: pretrain.embed_frames_normalized(models.strong, w),
            models.delta, models.donor_pairs, aug_cfg,
            np.random.default_rng(s))
        detectors.append(detector.train_detector(
            train_set, replace(train_cfg, seed=s)))
        train_items.append(len(train_set))
    return Enrollment(segments, report, window_s, detectors, train_items)


def run_episode(episode: Episode, models: PretrainedModels, reps=REPS, seed=0,
                augment_config: augment.AugmentConfig = None,
                train_config: detector.DetectorTrainConfig = None):
    """Run the full protocol on one episode.

    Training phase: ``enroll`` from the enrollment shots, one detector
    per rep, rep ``r`` seeded ``seed * 10007 + r``.  Eval phase: embed
    every held-out clip once, score with each detector (max over sliding
    windows of the scan window, each centred on its own mean) and with
    the weak-label cosine baseline.  Reports median-over-reps AUPRC.
    """
    episode.set_phase("train")
    shots = [episode.load_enrollment(i)
             for i in range(len(episode.enrollment_wavs))]
    enrolled = enroll(shots, models,
                      [seed * 10007 + rep for rep in range(reps)],
                      augment_config, train_config)
    n_win_frames = detector.window_frame_count(enrolled.window_s)
    centroid = np.mean([
        pretrain.embed_pooled(models.weak, curation.embed_crop(shot, seg))
        for shot, seg in zip(shots, enrolled.segments)], axis=0)

    episode.set_phase("eval")
    labels = episode.labels
    eval_frames, eval_pooled = [], []
    for i in range(len(episode.eval_items)):
        w = episode.load_eval(i)
        eval_frames.append(pretrain.embed_frames(models.strong, w))
        eval_pooled.append(pretrain.embed_pooled(models.weak, w))

    psl_per_rep = []
    for net in enrolled.detectors:
        scores = np.array([detector.clip_score_from_frames(net, f,
                                                           n_win_frames)
                           for f in eval_frames])
        psl_per_rep.append(auprc(scores, labels))

    wl_scores = np.array([curation.cosine_similarity(centroid, e)
                          for e in eval_pooled])
    wl = auprc(wl_scores, labels)
    neg_pooled = [e for e, y in zip(eval_pooled, labels) if y == 0]
    return EpisodeResult(
        psl_auprc=float(np.median(psl_per_rep)),
        wl_auprc=wl,
        psl_per_rep=psl_per_rep,
        difficulty=difficulty_index(centroid, neg_pooled),
        target_duration_s=enrolled.segments[0].duration_s,
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
        audit=list(episode.audit),
    )


# -- reporting ------------------------------------------------------------------

DURATION_BINS = ((0.0, 3.0), (3.0, 5.0), (5.0, float("inf")))


def _rel_improvement(psl, wl):
    return (psl - wl) / wl if wl > 0 else float("nan")


def report(results, out_path):
    """Per-episode CSV plus a duration-binned summary alongside it."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["episode", "target_duration_s", "difficulty",
                     "psl_auprc", "wl_auprc", "rel_improvement"])
        for i, r in enumerate(results):
            wr.writerow([i, f"{r.target_duration_s:.3f}",
                         f"{r.difficulty:.4f}", f"{r.psl_auprc:.4f}",
                         f"{r.wl_auprc:.4f}",
                         f"{_rel_improvement(r.psl_auprc, r.wl_auprc):.4f}"])
    summary_path = out_path.with_name(out_path.stem + "_summary.csv")
    with open(summary_path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["duration_bin", "n_episodes", "mean_psl_auprc",
                     "mean_wl_auprc", "mean_rel_improvement"])
        for lo, hi in DURATION_BINS:
            rows = [r for r in results if lo <= r.target_duration_s < hi]
            if not rows:
                continue
            wr.writerow([
                f"[{lo:g}, {hi:g})", len(rows),
                f"{np.mean([r.psl_auprc for r in rows]):.4f}",
                f"{np.mean([r.wl_auprc for r in rows]):.4f}",
                f"{np.mean([_rel_improvement(r.psl_auprc, r.wl_auprc) for r in rows]):.4f}",
            ])
    return out_path, summary_path
