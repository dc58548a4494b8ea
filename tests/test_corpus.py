import json

import numpy as np
import pytest

from seqshot import corpus, dsp


def test_family_counts_and_distinctness():
    motifs = corpus.gen_motif_family(42, n_sequences=10, length_range=(2.0, 5.0))
    assert len(motifs) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            d = (motifs[i].note_indices != motifs[j].note_indices).sum()
            assert d >= 3


def test_family_deterministic():
    a = corpus.gen_motif_family(7, n_sequences=5, length_range=(1.0, 3.0))
    b = corpus.gen_motif_family(7, n_sequences=5, length_range=(1.0, 3.0))
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma.note_freqs_hz, mb.note_freqs_hz)
        np.testing.assert_array_equal(ma.note_amps, mb.note_amps)


def test_family_shares_vocabulary():
    motifs = corpus.gen_motif_family(3, n_sequences=6, length_range=(2.0, 4.0))
    vocabs = [set(np.round(m.note_freqs_hz / m.note_amps * 0, 6)) for m in motifs]
    # same vocabulary: every note frequency of one motif appears in another's
    all_freqs = set()
    for m in motifs:
        all_freqs |= set(np.round(m.note_freqs_hz, 6))
    assert len(all_freqs) <= 8


def test_scrambled_motif_changes_class():
    motifs = corpus.gen_motif_family(11, n_sequences=4, length_range=(2.0, 3.0))
    assert motifs[0].class_id != motifs[1].class_id
    assert motifs[0].family_id == motifs[1].family_id


def test_render_degenerate_spec_is_identity():
    motif = corpus.gen_motif_family(5, n_sequences=2, length_range=(1.0, 2.0))[0]
    spec = corpus.SceneSpec(duration_s=4.0, background="silence",
                            insert_time_s=1.0, field="near")
    w, events, weak = corpus.render_scene(motif, spec, np.random.default_rng(0))
    ref = corpus.synth_motif(motif).samples
    i0 = int(1.0 * 16000)
    np.testing.assert_allclose(w.samples[i0: i0 + len(ref)], ref)
    np.testing.assert_allclose(w.samples[:i0], 0.0)
    assert weak == {motif.class_id}


def test_event_duration_matches_motif():
    motif = corpus.gen_motif_family(5, n_sequences=2, length_range=(1.0, 2.0))[0]
    spec = corpus.SceneSpec(duration_s=5.0, insert_time_s=0.5)
    _, events, _ = corpus.render_scene(motif, spec, np.random.default_rng(0))
    (_, onset, offset), = events
    assert offset - onset == pytest.approx(motif.duration_s)


def test_far_field_reverb_tail():
    motif = corpus.gen_motif_family(9, n_sequences=2, length_range=(1.5, 2.0))[0]
    dur = motif.duration_s + 2.0

    def tail_energy(field):
        spec = corpus.SceneSpec(duration_s=dur, background="silence",
                                insert_time_s=0.2, field=field, rt60_s=0.5)
        w, _, _ = corpus.render_scene(motif, spec, np.random.default_rng(1))
        t0 = int((0.2 + motif.duration_s + 0.1) * 16000)
        return float(np.mean(w.samples[t0: t0 + 400] ** 2))

    near, far = tail_energy("near"), tail_energy("far")
    eps = 1e-12
    assert 10 * np.log10((far + eps) / (near + eps)) >= 3.0


def test_pretrain_dataset(tmp_path):
    cfg = corpus.PretrainConfig(n_classes=4, clips_per_class=3,
                                clip_duration_s=6.0, seed=5)
    manifest = corpus.gen_pretrain_dataset(cfg, tmp_path)
    with open(manifest) as f:
        records = [json.loads(l) for l in f]
    assert len(records) == 12
    classes = set()
    for r in records:
        assert r["labels"] == sorted({e[0] for e in r["events"]})
        for c, onset, offset in r["events"]:
            assert 0 <= onset < offset <= 6.0 + 1e-6
        classes |= set(r["labels"])
        w = dsp.load_wav(tmp_path / r["wav"])
        assert len(w.samples) == 6 * 16000
    assert classes == {0, 1, 2, 3}


def test_pretrain_dataset_deterministic(tmp_path):
    cfg = corpus.PretrainConfig(n_classes=3, clips_per_class=2,
                                clip_duration_s=4.0, seed=9)
    m1 = corpus.gen_pretrain_dataset(cfg, tmp_path / "a")
    m2 = corpus.gen_pretrain_dataset(cfg, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "a/wavs/clip_00000.wav").read_bytes() == \
        (tmp_path / "b/wavs/clip_00000.wav").read_bytes()


def test_episode_counts_and_fields(tmp_path):
    spec = corpus.EpisodeSpec(family_seed=21, eval_neg_per_seq=2,
                              length_range=(1.5, 3.0))
    path = corpus.gen_episode(spec, tmp_path)
    desc = json.loads(path.read_text())
    assert len(desc["enrollment"]) == 3
    pos = [e for e in desc["eval"] if e["label"] == 1]
    neg = [e for e in desc["eval"] if e["label"] == 0]
    assert len(pos) == 3
    assert len(neg) == 2 * 9
    far = sum(1 for e in desc["eval"] if e["field"] == "far")
    near = sum(1 for e in desc["eval"] if e["field"] == "near")
    assert abs(far - near) <= 1 + 1  # each group is 50/50 up to odd counts
    for e in desc["eval"] + desc["enrollment"]:
        assert (tmp_path / e["wav"]).exists()


def test_episode_negatives_per_sequence(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "SHOT_PAD_RANGE", (1.0, 1.5))   # short shots
    spec = corpus.EpisodeSpec(family_seed=4, eval_neg_per_seq=20,
                              length_range=(1.0, 1.5))
    path = corpus.gen_episode(spec, tmp_path)
    desc = json.loads(path.read_text())
    neg = [e for e in desc["eval"] if e["label"] == 0]
    assert len(neg) == 180
    # 20 renderings per non-target motif
    by_class = {}
    for e in neg:
        by_class.setdefault(tuple(e["event"][0]), []).append(e)
    assert len(by_class) == 9
    assert all(len(v) == 20 for v in by_class.values())
