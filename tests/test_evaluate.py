import csv
import json

import numpy as np
import pytest

from seqshot import (augment, corpus, curation, detector, dsp, evaluate,
                     pretrain)
from seqshot.errors import (DegenerateInputError, EmptyInputError,
                            FormatError)

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)


# -- average precision ----------------------------------------------------------

def ap_bruteforce(scores, labels):
    """Independent implementation: walk distinct thresholds descending,
    accumulate precision * recall increment."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    ap, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tp = int((labels[sel] == 1).sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_auprc_perfect_ranking():
    assert evaluate.auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auprc_worst_ranking():
    # positive ranked last among n=4: AP = 1/4
    assert evaluate.auprc([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == \
        pytest.approx(0.25)


def test_auprc_all_tied_is_prevalence():
    assert evaluate.auprc([0.5] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) == \
        pytest.approx(0.3)


def test_auprc_matches_bruteforce_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 21))
        # coarse score grid forces frequent ties
        scores = rng.integers(0, 5, size=n) / 4.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert evaluate.auprc(scores, labels) == \
            pytest.approx(ap_bruteforce(scores, labels), abs=1e-12)


def test_auprc_errors():
    with pytest.raises(DegenerateInputError):
        evaluate.auprc([0.4, 0.6], [1, 1])
    with pytest.raises(EmptyInputError):
        evaluate.auprc([], [])


# -- difficulty index --------------------------------------------------------------

def test_difficulty_extremes_and_scale_invariance():
    c = np.array([1.0, 0.0, 0.0])
    assert evaluate.difficulty_index(c, [c, 2 * c]) == pytest.approx(1.0)
    assert evaluate.difficulty_index(c, [np.array([0.0, 1.0, 0.0])]) == \
        pytest.approx(0.0)
    negs = [np.array([0.6, 0.8, 0.0])]
    assert evaluate.difficulty_index(c, negs) == \
        pytest.approx(evaluate.difficulty_index(5 * c, [10 * negs[0]]))
    with pytest.raises(EmptyInputError):
        evaluate.difficulty_index(c, [])


def test_zero_vector_has_zero_similarity():
    # the one zero-norm rule, shared by curation's distance and the index
    c = np.array([1.0, 2.0, 0.0])
    assert curation.cosine_similarity(c, np.zeros(3)) == 0.0
    assert curation.cosine_similarity(np.zeros(3), np.zeros(3)) == 0.0
    assert evaluate.difficulty_index(c, [np.zeros(3), c]) == pytest.approx(0.5)


# -- reporting ---------------------------------------------------------------------

def fake_result(duration, psl, wl):
    return evaluate.EpisodeResult(psl_auprc=psl, wl_auprc=wl,
                                  psl_per_rep=[psl], difficulty=0.5,
                                  target_duration_s=duration, n_pos=3,
                                  n_neg=9)


def test_report_csv(tmp_path):
    results = [fake_result(2.0, 0.8, 0.5), fake_result(4.0, 0.9, 0.6),
               fake_result(6.0, 0.7, 0.7)]
    per_ep, summary = evaluate.report(results, tmp_path / "out.csv")
    with open(per_ep, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert float(rows[0]["rel_improvement"]) == pytest.approx(0.6, abs=1e-3)
    with open(summary, newline="") as f:
        srows = list(csv.DictReader(f))
    assert [r["duration_bin"] for r in srows] == \
        ["[0, 3)", "[3, 5)", "[5, inf)"]
    assert all(r["n_episodes"] == "1" for r in srows)


# -- episode protocol ---------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_models():
    rng = np.random.default_rng(0)
    weak = pretrain.WeakModel(pretrain.ModelConfig(n_classes=4, seed=0,
                                                   **TINY))
    strong = pretrain.StrongModel(pretrain.ModelConfig(n_classes=4, seed=0,
                                                       **TINY))
    # embedding frames are 64-d for TINY: 8 channels x 8 freq bins at
    # the default backbone tap
    delta = augment.DeltaEncoder(64, augment.DeltaConfig(z_dim=4, hidden=16))
    donors = [(augment.EmbeddingSequence(rng.standard_normal((10, 64)), 1,
                                         "curated"),
               augment.EmbeddingSequence(rng.standard_normal((10, 64)), 1,
                                         "curated"))]
    return evaluate.PretrainedModels(weak=weak, strong=strong, delta=delta,
                                     donor_pairs=donors)


@pytest.mark.parametrize("label", [2, -1, 1.7, "1", True, None])
def test_episode_label_must_be_zero_or_one(tmp_path, label):
    descriptor = tmp_path / "episode.json"
    descriptor.write_text(json.dumps({
        "enrollment": [{"wav": "e0.wav"}],
        "eval": [{"wav": "p.wav", "label": 1}, {"wav": "n.wav", "label": 0},
                 {"wav": "x.wav", "label": label}]}))
    with pytest.raises(FormatError, match=f"{descriptor}: eval label"):
        evaluate.Episode(descriptor)


@pytest.fixture(scope="module")
def small_episode(tmp_path_factory):
    spec = corpus.EpisodeSpec(family_seed=13, eval_neg_per_seq=1,
                              length_range=(1.5, 2.5))
    path = corpus.gen_episode(spec, tmp_path_factory.mktemp("ep"))
    return evaluate.Episode(path)


def test_run_episode_structure_and_audit(small_episode, tiny_models):
    cfg = detector.DetectorTrainConfig(epochs=4, seed=0)
    aug = augment.AugmentConfig(n_time_shift=2, n_masked=2, n_shuffled=2)
    result = evaluate.run_episode(small_episode, tiny_models, reps=2, seed=1,
                                  augment_config=aug, train_config=cfg)
    assert result.n_pos == 3 and result.n_neg == 9
    assert 0.0 <= result.psl_auprc <= 1.0
    assert 0.0 <= result.wl_auprc <= 1.0
    assert len(result.psl_per_rep) == 2
    assert -1.0 <= result.difficulty <= 1.0
    assert result.target_duration_s > 0
    # evaluation audio is never read while the detector is being built
    assert not any(phase == "train" and kind == "eval"
                   for phase, kind, _ in result.audit)
    # every eval clip is read exactly once (embeddings are cached)
    eval_reads = [i for phase, kind, i in result.audit if kind == "eval"]
    assert sorted(eval_reads) == list(range(12))


@pytest.mark.parametrize("curated_s", [0.36, 0.76, 1.0, 1.52, 3.6])
def test_enroll_window_is_every_train_item_frame_count(tiny_models,
                                                       monkeypatch,
                                                       curated_s):
    rng = np.random.default_rng(3)
    shots = [dsp.Waveform(0.1 * rng.standard_normal(8 * 16000))
             for _ in range(2)]
    segments = [curation.Segment(k, 2.07 + k, 2.07 + k + curated_s)
                for k in range(2)]
    monkeypatch.setattr(curation, "curate",
                        lambda shots, embed_fn, config=None: (segments, {}))
    trained = []
    train_detector = detector.train_detector

    def spy(train_set, config=None):
        trained.extend(s.frames.shape[0] for s in train_set)
        return train_detector(train_set, config)
    monkeypatch.setattr(detector, "train_detector", spy)

    aug = augment.AugmentConfig(n_time_shift=3, n_masked=1, n_shuffled=1)
    enrolled = evaluate.enroll(shots, tiny_models, [4, 5], aug,
                               detector.DetectorTrainConfig(epochs=1))
    assert enrolled.segments == segments
    assert len(enrolled.detectors) == 2
    per_seed = 2 * (1 + 3 + augment.N_DELTA + 1 + 1)
    assert enrolled.train_items == [per_seed, per_seed]
    assert len(trained) == 2 * per_seed
    assert set(trained) == {detector.window_frame_count(enrolled.window_s)}
    assert enrolled.window_s == max(curated_s, augment.MIN_CROP_S)
