"""Metrics and the few-shot evaluation protocol.

Ranking metrics (average precision with tie grouping, ROC AUC, d'),
an episode runner that trains a detector from enrollment shots only
and scores held-out clips, a weak-label baseline, and CSV reporting.
Episode audio access is audited so tests can prove the detector never
reads evaluation audio while training.
"""

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from . import augment, curation, detector, dsp, pretrain
from .errors import (DegenerateInputError, EmptyInputError, FormatError,
                     ShapeError, decoding)

log = logging.getLogger(__name__)


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


def roc_auc(scores, labels):
    """ROC AUC via the rank statistic, average ranks on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.min() == labels.max():
        raise DegenerateInputError("need both classes for ROC AUC")
    ranks = rankdata(scores)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


def map_and_dprime(scores, labels):
    """Multi-class summary over (N, C) score/label matrices.

    Returns (mAP, d') where mAP averages per-class average precision and
    d' = sqrt(2) * Phi^-1(mean per-class ROC AUC).  Classes with one
    label value are skipped with a warning.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    aps, aucs = [], []
    for c in range(scores.shape[1]):
        col = labels[:, c]
        if col.min() == col.max():
            log.warning("class %d has a single label value; skipped", c)
            continue
        aps.append(auprc(scores[:, c], col))
        aucs.append(roc_auc(scores[:, c], col))
    if not aps:
        raise DegenerateInputError("every class is single-label")
    mean_auc = float(np.mean(aucs))
    mean_auc = min(max(mean_auc, 1e-12), 1 - 1e-12)
    return float(np.mean(aps)), float(np.sqrt(2.0) * ndtri(mean_auc))


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
    during training.  An eval label that is not the JSON integer 0 or 1
    is a FormatError naming the descriptor.
    """

    def __init__(self, descriptor_path):
        descriptor_path = Path(descriptor_path)
        with decoding(descriptor_path):
            desc = json.loads(descriptor_path.read_text())
            self.enrollment_wavs = [e["wav"] for e in desc["enrollment"]]
            self.eval_items = [EvalItem(e["wav"], e["label"])
                               for e in desc["eval"]]
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
    window is the training crops' length, ``augment.crop_duration_s`` of
    the curated window."""
    aug_cfg = augment_config or augment.AugmentConfig()
    train_cfg = train_config or detector.DetectorTrainConfig()
    segments, report = curation.curate(
        shots, lambda w: pretrain.embed_pooled(models.weak, w))
    window_s = augment.crop_duration_s(segments[0].duration_s,
                                       min(w.duration_s for w in shots))
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
    every held-out clip once, score with each detector (max over
    sliding windows of the scan window) and with the weak-label cosine
    baseline.  Reports median-over-reps AUPRC.
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
        eval_frames.append(pretrain.embed_frames_normalized(models.strong, w))
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
