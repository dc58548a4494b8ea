"""Reference computations the benchmark checks the program against.

Everything here is computed apart from the program: brute-force average
precision, window and frame ground truth from the planted events, and the
frame and window counts that follow from a sample count.
"""

import math

import numpy as np

SR = 16000
FRAME_LEN, FRAME_HOP = 400, 160          # 25 ms log-mel frames at 10 ms hops
FRAMES_PER_EMBED = 32                    # log-mel frames per 320 ms frame
EMBED_HOP_S = FRAMES_PER_EMBED * FRAME_HOP / SR
PSEUDO_WIN, PSEUDO_HOP = 8000, 1600      # 0.5 s windows at 0.1 s hops


def ap(scores, labels):
    """Average precision by sweeping every distinct score as a threshold."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision needs a positive")
    out, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tp = int((labels[sel] == 1).sum())
        out += (tp / n_pos - prev_recall) * (tp / int(sel.sum()))
        prev_recall = tp / n_pos
    return out


def f1(tp, fp, fn):
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    return 2 * precision * recall / max(precision + recall, 1e-12)


def pseudo_window_truth(events, n_win, n_classes):
    """(n_win, n_classes) truth: a 0.5 s window at j * 0.1 s holds class c
    when it overlaps one of c's events by at least 0.25 s."""
    gt = np.zeros((n_win, n_classes), dtype=bool)
    for c, on, off in events:
        for j in range(n_win):
            if min(j * 0.1 + 0.5, off) - max(j * 0.1, on) >= 0.25:
                gt[j, int(c)] = True
    return gt


def frame_truth(events, n_frames, n_classes):
    """(n_frames, n_classes) truth: a 320 ms frame holds class c when one
    of c's events covers at least half of it."""
    gt = np.zeros((n_frames, n_classes), dtype=bool)
    for c, on, off in events:
        for j in range(n_frames):
            a, b = j * EMBED_HOP_S, (j + 1) * EMBED_HOP_S
            if min(b, off) - max(a, on) >= EMBED_HOP_S / 2:
                gt[j, int(c)] = True
    return gt


def mean_ap(scores, truth):
    """Mean over classes that have a positive of the per-class AP."""
    aps = [ap(scores[:, c], truth[:, c]) for c in range(truth.shape[1])
           if truth[:, c].any()]
    return float(np.mean(aps))


def n_pseudo_windows(n_samples):
    return (n_samples - PSEUDO_WIN) // PSEUDO_HOP + 1


def n_logmel_frames(n_samples):
    return 1 + (n_samples - FRAME_LEN) // FRAME_HOP


def n_embed_frames(n_samples):
    return n_logmel_frames(n_samples) // FRAMES_PER_EMBED


def n_resampled(n_samples, rate):
    """Samples at 16 kHz from ``n_samples`` at ``rate``, rounded half to even."""
    return round(n_samples * SR / rate)


def n_scan_windows(n_samples_16k, window_s):
    """Windows a scan yields: embedding frames minus window frames plus one."""
    n_win = max(1, n_embed_frames(round(window_s * SR)))
    return n_embed_frames(n_samples_16k) - n_win + 1, n_win


def iou(a, b):
    """Intersection over union of two (onset, offset) intervals."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 0.0


def window_covers(start_s, length_s, events):
    """True when the window overlaps an event by at least half of the
    shorter of the two."""
    for on, off in events:
        inter = min(start_s + length_s, off) - max(start_s, on)
        if inter >= 0.5 * min(length_s, off - on):
            return True
    return False


def tone(freq_hz, n, rate, amp=0.5):
    return amp * np.sin(2 * math.pi * freq_hz * np.arange(n) / rate)
