"""Audio curation: estimate one onset/offset per unsegmented enrollment
shot and align all shots to the shortest segment.

Pipeline: (1) a loud/quiet logistic regression over logmel frames finds
candidate segments per shot, (2) candidates are grouped across shots by
cosine distance of pooled embeddings, keeping first onset to last
offset per shot, (3) every segment is trimmed to the exemplar (shortest)
length at the position of highest normalized cross-correlation in the
logmel domain.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import dsp, pretrain
from .errors import CurationError, DegenerateInputError, EmptyInputError

log = logging.getLogger(__name__)

PERCENTILE = 0.15
TAU = 0.5                # cosine-distance grouping threshold
SMOOTH_FRAMES = 5        # median smoothing of loud decisions
MERGE_GAP_S = 0.45       # runs closer than this merge
MIN_DURATION_S = 0.1     # shorter runs are dropped
LOUDNESS_MAX_ITERS = 5000
LOUDNESS_TOL = 1e-8
LOUDNESS_LR = 1.0
LOUDNESS_L2 = 1e-4
CORR_ROWS = 8            # windows centred and scored at a time (alignment)


@dataclass
class Segment:
    shot_id: int
    onset_s: float
    offset_s: float

    def __post_init__(self):
        if not 0 <= self.onset_s < self.offset_s:
            raise ValueError(f"bad segment ({self.onset_s}, {self.offset_s})")

    @property
    def duration_s(self):
        return self.offset_s - self.onset_s


@dataclass
class LoudnessModel:
    weights: np.ndarray           # (64,)
    bias: float

    def decide(self, frames):
        """Per-frame loud decision: sigma(w.x + b) > 0.5."""
        return frames @ self.weights + self.bias > 0.0


def fit_loudness(shots):
    """Fit the loud/quiet logistic regression on pooled frames.

    The top/bottom 15 % of frames by linear-domain energy across all
    shots are the training labels; a wide loud quantile keeps every
    event note represented, not just the loudest one.  Gradient descent
    on the BCE plus an L2 penalty stops when |dloss| < LOUDNESS_TOL or
    after LOUDNESS_MAX_ITERS steps, whichever comes first.
    """
    if not shots:
        raise EmptyInputError("no shots")
    pooled = np.vstack(shots)
    n = pooled.shape[0]
    if n < 40:
        raise EmptyInputError(f"need >= 40 pooled frames, got {n}")
    # energy in the linear power domain: a narrowband event frame must
    # outrank broadband background even though most of its log bands are
    # near the silence floor
    energy = logsumexp(pooled, axis=1)
    if np.ptp(energy) < 1e-10:
        raise DegenerateInputError("constant frame energy; percentiles degenerate")
    k = int(np.floor(PERCENTILE * n))
    order = np.argsort(energy, kind="stable")
    quiet_idx, loud_idx = order[:k], order[-k:]
    x = pooled[np.concatenate([loud_idx, quiet_idx])]
    y = np.concatenate([np.ones(k), np.zeros(k)])
    mu = x.mean(axis=0)
    sd = x.std(axis=0) + 1e-8
    xs = (x - mu) / sd
    w = np.zeros(xs.shape[1])
    b = 0.0
    prev = np.inf
    for _ in range(LOUDNESS_MAX_ITERS):
        bce, g = pretrain.bce_with_logits(xs @ w + b, y)
        loss = bce + 0.5 * LOUDNESS_L2 * float(w @ w)
        if abs(prev - loss) < LOUDNESS_TOL:
            break
        prev = loss
        w -= LOUDNESS_LR * (xs.T @ g + LOUDNESS_L2 * w)
        b -= LOUDNESS_LR * float(g.sum())
    # fold standardization into the raw-frame decision rule
    w_raw = w / sd
    b_raw = b - float((w * mu / sd).sum())
    return LoudnessModel(weights=w_raw, bias=b_raw)


def _median_smooth(dec):
    """The majority of each SMOOTH_FRAMES-frame window of ``dec``."""
    half = SMOOTH_FRAMES // 2
    padded = np.pad(dec.astype(np.int64), half, mode="edge")
    counts = np.convolve(padded, np.ones(SMOOTH_FRAMES, dtype=np.int64),
                         mode="valid")
    return counts * 2 > SMOOTH_FRAMES


def _runs(mask):
    """Maximal runs of True as [start, end] frame index pairs (inclusive)."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[splits + 1]])
    ends = np.concatenate([idx[splits], [idx[-1]]])
    return list(zip(starts.tolist(), ends.tolist()))


def loud_segments(model: LoudnessModel, shot, shot_id=0):
    """Candidate segments for one shot's logmel, as a list of Segments."""
    dec = _median_smooth(model.decide(shot))
    runs = _runs(dec)
    merge_gap = int(round(MERGE_GAP_S / dsp.FRAME_HOP_S))
    merged = []
    for s, e in runs:
        if merged and s - merged[-1][1] - 1 < merge_gap:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    min_frames = int(round(MIN_DURATION_S / dsp.FRAME_HOP_S))
    return [
        Segment(shot_id, s * dsp.FRAME_HOP_S, (e + 1) * dsp.FRAME_HOP_S)
        for s, e in merged
        if (e - s + 1) >= min_frames
    ]


def cosine_similarity(a, b):
    """a.b / (|a| |b|) of two vectors; 0 where the norm product is 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return 0.0 if denom == 0 else float(a @ b / denom)


def match_across_shots(candidates, embed_fn):
    """Pick one span per shot by grouping candidates across shots.

    ``candidates``: list (per shot) of Segment lists; ``embed_fn``
    returns a pooled embedding for a Segment.  Greedy grouping seeds
    with the candidate closest (summed nearest-distance) to every other
    shot; each shot contributes all candidates within ``TAU`` of the
    seed, spanning first matched onset to last matched offset.  A shot
    with no match falls back to its longest candidate (warned).
    """
    for s, cands in enumerate(candidates):
        if not cands:
            raise CurationError(f"shot {s} has no candidate segments")
    embs = [[np.asarray(embed_fn(seg)) for seg in cands]
            for cands in candidates]
    n_shots = len(candidates)
    best_seed, best_score = None, np.inf
    for s in range(n_shots):
        for i in range(len(candidates[s])):
            score = 0.0
            for s2 in range(n_shots):
                if s2 == s:
                    continue
                score += min(1.0 - cosine_similarity(embs[s][i], e2)
                             for e2 in embs[s2])
            if score < best_score:
                best_score, best_seed = score, (s, i)
    seed_emb = embs[best_seed[0]][best_seed[1]]
    out = []
    for s in range(n_shots):
        matched = [seg for seg, e in zip(candidates[s], embs[s])
                   if 1.0 - cosine_similarity(seed_emb, e) <= TAU]
        if not matched:
            fallback = max(candidates[s], key=lambda seg: seg.duration_s)
            log.warning("shot %d: no candidate within tau=%.3f of seed; "
                        "falling back to longest candidate", s, TAU)
            matched = [fallback]
        onset = min(seg.onset_s for seg in matched)
        offset = max(seg.offset_s for seg in matched)
        out.append(Segment(s, onset, offset))
    return out


def _frame_span(seg: Segment):
    a = int(round(seg.onset_s / dsp.FRAME_HOP_S))
    b = int(round(seg.offset_s / dsp.FRAME_HOP_S))
    return a, b


def _window_correlation(frames, t_e, ex0, ex_norm):
    """Pearson correlation of every T_e-frame window of ``frames`` with
    the centred exemplar ``ex0``.  The flattened windows are a view of
    ``frames``; they are centred and scored ``CORR_ROWS`` at a time, so
    the copies held at once are that many windows long, however many
    windows the shot has.  Each window's score is the same as that of
    all windows centred and scored at once, bit for bit with one BLAS
    thread: the groups are the ``dsp.spans`` with ``min_last`` 2, as
    ``@`` would take a group of one window as a vector dot product."""
    flat = np.lib.stride_tricks.sliding_window_view(
        frames.reshape(-1), t_e * frames.shape[1])[::frames.shape[1]]
    out = np.empty(len(flat))
    for a, b in dsp.spans(len(flat), CORR_ROWS, 2):
        rows0 = flat[a:b] - flat[a:b].mean(axis=1, keepdims=True)
        out[a:b] = (rows0 @ ex0) \
            / (np.linalg.norm(rows0, axis=1) * ex_norm + 1e-12)
    return out


def align_to_exemplar(segments, shots):
    """Trim every segment to the exemplar (shortest) frame length at the
    max-correlation position; returns (aligned segments, scores).

    Correlation is Pearson over the flattened T_e x 64 logmel windows;
    ties break toward the earliest offset.  The exemplar scores 1.0.
    """
    spans = [_frame_span(seg) for seg in segments]
    lengths = [b - a for a, b in spans]
    ex_i = int(np.argmin(lengths))
    t_e = lengths[ex_i]
    ea, eb = spans[ex_i]
    ex = shots[ex_i][ea:eb].reshape(-1)
    ex0 = ex - ex.mean()
    ex_norm = np.linalg.norm(ex0)
    aligned, scores = [], []
    for i, (seg, (a, b), shot) in enumerate(zip(segments, spans, shots)):
        if i == ex_i:
            aligned.append(Segment(seg.shot_id, a * dsp.FRAME_HOP_S,
                                   b * dsp.FRAME_HOP_S))
            scores.append(1.0)
            continue
        corr = _window_correlation(shot[a:b], t_e, ex0, ex_norm)
        pos = int(np.argmax(corr))               # argmax takes the earliest tie
        aligned.append(Segment(seg.shot_id, (a + pos) * dsp.FRAME_HOP_S,
                               (a + pos + t_e) * dsp.FRAME_HOP_S))
        scores.append(float(corr[pos]))
    return aligned, scores


def embed_crop(w: dsp.Waveform, seg: Segment):
    """The audio under ``seg``, widened at its end (or, at the end of the
    shot, at its start) to the pooled embedder's minimum duration."""
    min_len = int(pretrain.MIN_EMBED_S * w.sample_rate)
    a = int(round(seg.onset_s * w.sample_rate))
    b = int(round(seg.offset_s * w.sample_rate))
    if b - a < min_len:
        b = a + min_len
    if b > len(w.samples):
        b = len(w.samples)
        a = max(0, b - min_len)
    return dsp.Waveform(w.samples[a: b], w.sample_rate)


def curate(shots_audio, embed_fn):
    """Full curation for K enrollment shots.

    ``shots_audio``: list of Waveforms; ``embed_fn(waveform) -> vector``
    is the pooled embedder.  Returns (aligned segments, report dict).
    """
    logmels = [dsp.logmel(w) for w in shots_audio]
    model = fit_loudness(logmels)
    candidates = [loud_segments(model, m, shot_id=s)
                  for s, m in enumerate(logmels)]

    def seg_embed(seg: Segment):
        return embed_fn(embed_crop(shots_audio[seg.shot_id], seg))

    matched = match_across_shots(candidates, seg_embed)
    aligned, scores = align_to_exemplar(matched, logmels)
    report = {
        "shots": [
            {
                "shot": s,
                "candidates": [[c.onset_s, c.offset_s] for c in candidates[s]],
                "matched": [matched[s].onset_s, matched[s].offset_s],
                "aligned": [aligned[s].onset_s, aligned[s].offset_s],
                "correlation": scores[s],
            }
            for s in range(len(shots_audio))
        ]
    }
    return aligned, report
