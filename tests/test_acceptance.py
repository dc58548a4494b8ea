"""System-level acceptance gate.

Each test is one pass/fail property of the whole pipeline: gradient
correctness, oracle equivalence of the numeric kernels, pseudo-label
fidelity, curation accuracy, the detector-vs-baseline benchmark with its
duration and difficulty trends, the no-negative-audio guarantee,
negative-synthesis efficacy, byte-level determinism, and metric unit
cases. The heavy fixtures live in conftest.py.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from seqshot import (augment, corpus, curation, detector, dsp,
                     evaluate, nn, pretrain)
from conftest import EPISODE_LENGTHS
from gradcheck import numeric_grad_at, rel_err
from pipeline_digests import run_pipeline


# -- 1. gradients vs central finite differences --------------------------------

N_GRAD_CASES = 100
GRAD_RTOL = 1e-3


def _check_case(graph, x, rng, n_idx=2):
    def loss():
        y, _ = graph.forward(x)
        return 0.5 * float((y ** 2).sum())

    y, cache = graph.forward(x)
    graph.zero_grads()
    dx = graph.backward(cache, y.copy())
    params = graph.params()
    grads = graph.grads()
    tensors = [(x, dx)] + [(params[k], grads[k]) for k in params]
    for tensor, analytic in tensors:
        for i in rng.choice(tensor.size, size=min(n_idx, tensor.size),
                            replace=False):
            num = numeric_grad_at(loss, tensor, int(i))
            assert rel_err(analytic.flat[int(i)], num) < GRAD_RTOL


def _layer_case(name, rng):
    b = int(rng.integers(1, 3))
    if name == "linear":
        n_in, n_out = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        return nn.Linear(n_in, n_out, "l", rng), rng.normal(size=(b, n_in))
    if name == "conv1d":
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        causal = bool(rng.integers(0, 2))
        layer = nn.Conv1d(c_in, c_out, kernel=k, name="c", rng=rng,
                          stride=1 if causal else int(rng.integers(1, 3)),
                          dilation=int(rng.integers(1, 3)),
                          causal=causal)
        return layer, rng.normal(size=(b, c_in, int(rng.integers(7, 12))))
    if name == "conv2d":
        c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        layer = nn.Conv2d(c_in, c_out, kernel=(2, 3), name="c", rng=rng,
                          stride=(int(rng.integers(1, 3)),
                                  int(rng.integers(1, 3))),
                          pad=(0, int(rng.integers(0, 2))))
        return layer, rng.normal(size=(b, c_in, int(rng.integers(4, 7)),
                                       int(rng.integers(4, 7))))
    if name == "relu":
        x = rng.normal(size=(b, 6))
        x[np.abs(x) < 0.05] = 0.1          # stay clear of the kink
        return nn.ReLU("r"), x
    if name == "mean_time":
        return nn.MeanOverTime("p"), rng.normal(size=(b, 3, 7))
    if name == "mean_freq":
        return nn.MeanOverFreq("p"), rng.normal(size=(b, 3, 5, 4))
    return nn.GlobalChannelPool("p"), rng.normal(size=(b, 3, 5, 4))


LAYER_KINDS = ("linear", "conv1d", "conv2d", "relu", "mean_time",
               "mean_freq", "channel_pool")


def test_every_layer_matches_finite_differences_100_cases():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for kind in LAYER_KINDS:
        for _ in range(N_GRAD_CASES):
            layer, x = _layer_case(kind, rng)
            _check_case(nn.Graph([layer]), x, rng)
    assert time.monotonic() - t0 < 60.0


def test_detector_loss_matches_finite_differences_100_cases():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for case in range(N_GRAD_CASES):
        net = detector.DetectorNet(detector.DetectorConfig(
            embed_dim=3, proj_dim=3, n_conv=2, seed=case))
        # zero-initialized biases put the first causal output exactly on
        # the ReLU kink, where finite differences are undefined; check at
        # a generic parameter point instead
        for p in net.graph.params().values():
            p += 0.1 * rng.standard_normal(p.shape)
        x = rng.normal(size=(2, 3, 6))
        labels = np.array([1, 0])
        cfg = detector.DetectorTrainConfig()
        _, details = detector.detector_loss(net, x, labels, cfg)
        norms = details["norms"]            # denominators frozen below

        def loss():
            net.graph.zero_grads()
            val, _ = detector.detector_loss(net, x, labels, cfg,
                                            frozen_norms=norms)
            return val

        net.graph.zero_grads()
        detector.detector_loss(net, x, labels, cfg, frozen_norms=norms)
        grads = net.graph.grads()
        params = net.graph.params()
        for key in ("proj/W", "conv0/W", "conv1/b", "head/W"):
            p, g = params[key], grads[key]
            i = int(rng.integers(0, p.size))
            num = numeric_grad_at(loss, p, i)
            assert rel_err(g.flat[i], num) < GRAD_RTOL
    assert time.monotonic() - t0 < 60.0


# -- 2. oracle equivalence ------------------------------------------------------

def _ap_oracle(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    ap, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tp = int((labels[sel] == 1).sum())
        ap += (tp / n_pos - prev_recall) * (tp / int(sel.sum()))
        prev_recall = tp / n_pos
    return ap


def test_auprc_equals_exhaustive_oracle_500_cases():
    rng = np.random.default_rng(11)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 21))
        scores = rng.integers(0, 6, size=n) / 5.0   # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert evaluate.auprc(scores, labels) == \
            pytest.approx(_ap_oracle(scores, labels), abs=1e-12)
        done += 1


def test_alignment_equals_bruteforce_argmax_200_cases():
    hop = dsp.FRAME_HOP_S
    rng = np.random.default_rng(12)
    for _ in range(200):
        t_e = int(rng.integers(4, 15))
        a1 = int(rng.integers(0, 20))
        b1 = a1 + t_e + int(rng.integers(1, 40))
        ex = rng.standard_normal((t_e, 64))
        shot = rng.standard_normal((b1 + 5, 64))
        segments = [curation.Segment(0, 0.0, t_e * hop),
                    curation.Segment(1, a1 * hop, b1 * hop)]
        aligned, scores = curation.align_to_exemplar(segments, [ex, shot])

        e = (ex - ex.mean()).reshape(-1)
        best, best_pos = -np.inf, None
        for pos in range(a1, b1 - t_e + 1):
            w = shot[pos: pos + t_e].reshape(-1)
            w = w - w.mean()
            c = float(w @ e / (np.linalg.norm(w) * np.linalg.norm(e)))
            if c > best:
                best, best_pos = c, pos
        assert int(round(aligned[1].onset_s / hop)) == best_pos
        assert scores[1] == pytest.approx(best, abs=1e-12)


def test_rir_convolution_equals_direct_convolution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(200, 800))
        m = int(rng.integers(10, n // 2))
        w = dsp.Waveform(rng.standard_normal(n))
        rir = dsp.Waveform(rng.standard_normal(m) * np.exp(-np.arange(m) / m))
        got = dsp.convolve_rir(w, rir).samples
        ref = np.convolve(w.samples, rir.samples)[:n]
        peak, cur = np.abs(w.samples).max(), np.abs(ref).max()
        if cur > 0:
            ref = ref * (peak / cur)
        np.testing.assert_allclose(got, ref, atol=1e-9)


# -- 3. pseudo-label fidelity ---------------------------------------------------

def test_pseudo_labels_reach_window_f1(accept_corpus, accept_weak,
                                       accept_pseudo):
    tp = fp = fn = 0
    for record, psl in zip(accept_corpus.value, accept_pseudo.value):
        n_win = psl.labels.shape[0]
        gt = np.zeros((n_win, 12), dtype=bool)
        for c, on, off in record.events:
            for j in range(n_win):
                if min(j * 0.1 + 0.5, off) - max(j * 0.1, on) >= 0.25:
                    gt[j, int(c)] = True
        pred = psl.labels.astype(bool)
        tp += int(np.sum(pred & gt))
        fp += int(np.sum(pred & ~gt))
        fn += int(np.sum(~pred & gt))
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    f1 = 2 * precision * recall / max(precision + recall, 1e-12)
    assert f1 >= 0.7, f"window F1 {f1:.3f} (P {precision:.3f} R {recall:.3f})"
    elapsed = (accept_corpus.seconds + accept_weak.seconds
               + accept_pseudo.seconds)
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


# -- 4. curation accuracy -------------------------------------------------------

def test_curated_segments_match_ground_truth(tmp_path, accept_weak):
    weak = accept_weak.value
    hits = total = 0
    for i in range(20):
        spec = corpus.EpisodeSpec(family_seed=3000 + i, eval_pos=1,
                                  eval_neg_per_seq=0, n_sequences=2,
                                  length_range=(1.5, 6.0))
        desc_path = corpus.gen_episode(spec, tmp_path / f"enroll{i}")
        desc = json.loads(desc_path.read_text())
        shots = [dsp.load_wav(tmp_path / f"enroll{i}" / e["wav"])
                 for e in desc["enrollment"]]
        segments, _ = curation.curate(
            shots, lambda w: pretrain.embed_pooled(weak, w))
        by_shot = {seg.shot_id: seg for seg in segments}
        for shot_id, entry in enumerate(desc["enrollment"]):
            total += 1
            seg = by_shot.get(shot_id)
            if seg is None:
                continue
            on, off = float(entry["event"][1]), float(entry["event"][2])
            inter = max(0.0, min(seg.offset_s, off) - max(seg.onset_s, on))
            union = max(seg.offset_s, off) - min(seg.onset_s, on)
            if inter / union > 0.5:
                hits += 1
    assert total == 60
    assert hits / total >= 0.8, f"IoU>0.5 on only {hits}/{total} shots"


# -- 5./6. detector vs pooled baseline across duration and difficulty -----------

def _rel_improvement(r):
    return (r.psl_auprc - r.wl_auprc) / max(r.wl_auprc, 1e-12)


def test_detector_beats_baseline_most_on_long_targets(accept_episodes):
    results = accept_episodes.value
    assert len(results) >= 12
    short = [r for r in results if r.target_duration_s < 3.0]
    long = [r for r in results if r.target_duration_s >= 5.0]
    assert len(short) >= 3 and len(long) >= 3
    assert np.median([r.psl_auprc for r in long]) > \
        np.median([r.wl_auprc for r in long])
    assert np.median([_rel_improvement(r) for r in long]) > \
        np.median([_rel_improvement(r) for r in short])
    assert accept_episodes.seconds < 1800.0, \
        f"episodes took {accept_episodes.seconds:.0f}s"


def test_improvement_correlates_with_episode_difficulty(accept_episodes):
    results = accept_episodes.value
    rho = stats.spearmanr([r.difficulty for r in results],
                          [_rel_improvement(r) for r in results]).statistic
    assert rho > 0, f"spearman {rho:.3f}"


# -- 7. training never reads negative or evaluation audio -----------------------

def test_training_phase_reads_no_eval_audio(accept_episodes):
    for r in accept_episodes.value:
        train_reads = [(kind, i) for phase, kind, i in r.audit
                       if phase == "train"]
        assert train_reads, "no audited reads during training"
        assert all(kind == "enrollment" for kind, _ in train_reads)
        eval_reads_during_train = [1 for phase, kind, _ in r.audit
                                   if phase == "train" and kind == "eval"]
        assert len(eval_reads_during_train) == 0


# -- 8. synthesized negatives score below their source positives ----------------

def test_masked_and_shuffled_variants_score_below_source(tmp_path,
                                                         accept_models):
    spec = corpus.EpisodeSpec(family_seed=4242, eval_neg_per_seq=0,
                              n_sequences=2, length_range=(5.0, 6.0))
    desc = json.loads(corpus.gen_episode(spec, tmp_path / "ep").read_text())
    shots = [dsp.load_wav(tmp_path / "ep" / e["wav"])
             for e in desc["enrollment"]]
    segments, _ = curation.curate(
        shots, lambda w: pretrain.embed_pooled(accept_models.weak, w))
    rng = np.random.default_rng(0)
    train_set = augment.build_train_set(
        shots, segments,
        lambda w: pretrain.embed_frames(accept_models.strong, w),
        accept_models.delta, accept_models.donor_pairs,
        augment.AugmentConfig(), rng)
    net = detector.train_detector(train_set,
                                  detector.DetectorTrainConfig(seed=0))
    positives = [s for s in train_set
                 if s.provenance in ("curated", "time_shift", "delta")]
    below = total = 0
    by_prov = {p: [0, 0] for p in ("curated", "time_shift", "delta")}
    for pos in positives:
        src = float(net.score(pos.frames.T[None])[0])
        for _ in range(5):
            for make in (augment.synth_negative_mask,
                         augment.synth_negative_shuffle):
                variant = make(pos, rng)
                hit = float(net.score(variant.frames.T[None])[0]) < src
                total += 1
                below += hit
                by_prov[pos.provenance][0] += hit
                by_prov[pos.provenance][1] += 1
    per_prov = ", ".join(f"{p} {b}/{t}" for p, (b, t) in by_prov.items())
    assert below / total >= 0.9, \
        f"only {below}/{total} variants below source ({per_prov})"


# -- 9. byte-level determinism --------------------------------------------------

def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path):
    # every file the seven subcommands write, and each command's stdout
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert list(first) == list(second)
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"


# -- 10. metric unit cases ------------------------------------------------------

def test_chance_auc_gives_zero_dprime():
    scores = np.array([[0.5], [0.5], [0.5], [0.5]])
    labels = np.array([[1], [0], [1], [0]])
    _, dprime = evaluate.map_and_dprime(scores, labels)
    assert dprime == pytest.approx(0.0, abs=1e-9)


def test_map_matches_hand_computation():
    # class 0: ranking (1, 0, 1) -> AP = (1/1 + 2/3) / 2 = 5/6
    # class 1: ranking (0, 1, 0) -> AP = 1/2
    scores = np.array([[0.9, 0.8], [0.5, 0.7], [0.4, 0.1]])
    labels = np.array([[1, 0], [0, 1], [1, 0]])
    map_, _ = evaluate.map_and_dprime(scores, labels)
    assert map_ == pytest.approx((5 / 6 + 0.5) / 2, abs=1e-12)
