import numpy as np
import pytest

from seqshot import curation, dsp
from seqshot.errors import (
    CurationError,
    DegenerateInputError,
    EmptyInputError,
)

from reference_ops import window_correlation_one_pass

HOP = dsp.FRAME_HOP_S   # 0.01 s


def two_level_logmel(loud_frames, quiet_frames, seed=0, loud=2.0, quiet=-6.0):
    rng = np.random.default_rng(seed)
    m = np.vstack([
        loud + 0.05 * rng.standard_normal((loud_frames, 64)),
        quiet + 0.05 * rng.standard_normal((quiet_frames, 64)),
    ])
    return m


# -- loudness model ---------------------------------------------------------------

def test_fit_loudness_separable():
    m = two_level_logmel(100, 100)
    model = curation.fit_loudness([m])
    dec = model.decide(m)
    assert dec[:100].all()
    assert not dec[100:].any()


def test_fit_loudness_duplication_invariant():
    m = two_level_logmel(60, 60, seed=4)
    a = curation.fit_loudness([m])
    b = curation.fit_loudness([m, m])
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)
    assert a.bias == pytest.approx(b.bias, abs=1e-8)


def test_fit_loudness_too_few_frames():
    with pytest.raises(EmptyInputError):
        curation.fit_loudness([two_level_logmel(10, 10)])


def test_fit_loudness_constant_energy():
    with pytest.raises(DegenerateInputError):
        curation.fit_loudness([np.ones((100, 64))])


def test_fit_loudness_empty():
    with pytest.raises(EmptyInputError):
        curation.fit_loudness([])


# -- segment extraction --------------------------------------------------------------

def step_model():
    """Decision = first mel band positive."""
    w = np.zeros(64)
    w[0] = 1.0
    return curation.LoudnessModel(weights=w, bias=0.0)


def frames_with_runs(n, runs):
    m = np.full((n, 64), -1.0)
    for a, b in runs:
        m[a:b, 0] = 1.0
    return m


def test_loud_segments_simple_run():
    segs = curation.loud_segments(step_model(), frames_with_runs(300, [(100, 150)]))
    assert len(segs) == 1
    assert segs[0].onset_s == pytest.approx(1.0)
    assert segs[0].offset_s == pytest.approx(1.5)


def test_loud_segments_merges_close_runs():
    # 10-frame gap < 45-frame merge threshold -> one segment
    segs = curation.loud_segments(step_model(),
                                  frames_with_runs(300, [(50, 100), (110, 160)]))
    assert len(segs) == 1
    assert segs[0].onset_s == pytest.approx(0.5)
    assert segs[0].offset_s == pytest.approx(1.6)


def test_loud_segments_keeps_distant_runs():
    segs = curation.loud_segments(step_model(),
                                  frames_with_runs(400, [(100, 150), (200, 260)]))
    assert [(s.onset_s, s.offset_s) for s in segs] == [
        (pytest.approx(1.0), pytest.approx(1.5)),
        (pytest.approx(2.0), pytest.approx(2.6)),
    ]


def test_loud_segments_drops_short_runs():
    segs = curation.loud_segments(step_model(),
                                  frames_with_runs(300, [(100, 105)]))
    assert segs == []


def test_loud_segments_median_smoothing_removes_blips():
    m = frames_with_runs(300, [(100, 150)])
    m[120, 0] = -1.0        # one-frame dropout inside the run
    m[250, 0] = 1.0         # one-frame blip outside
    segs = curation.loud_segments(step_model(), m)
    assert len(segs) == 1
    assert segs[0].onset_s == pytest.approx(1.0)
    assert segs[0].offset_s == pytest.approx(1.5)


def test_loud_segments_empty_decision():
    assert curation.loud_segments(step_model(), frames_with_runs(200, [])) == []


# -- cross-shot grouping ----------------------------------------------------------------

def unit(i, dim=8):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def test_match_across_shots_picks_common_candidate(monkeypatch):
    monkeypatch.setattr(curation, "TAU", 0.35)
    cands = [
        [curation.Segment(0, 1.0, 2.0), curation.Segment(0, 4.0, 5.0)],
        [curation.Segment(1, 0.5, 1.5), curation.Segment(1, 3.0, 4.0)],
        [curation.Segment(2, 2.0, 3.0)],
    ]
    # first candidate of each shot shares a direction, rest are orthogonal
    table = {(0, 1.0): unit(0), (0, 4.0): unit(3),
             (1, 0.5): unit(0) + 0.1 * unit(1), (1, 3.0): unit(4),
             (2, 2.0): unit(0) + 0.1 * unit(2)}
    out = curation.match_across_shots(
        cands, lambda s: table[(s.shot_id, s.onset_s)])
    assert [(s.onset_s, s.offset_s) for s in out] == [(1.0, 2.0), (0.5, 1.5),
                                                      (2.0, 3.0)]


def test_match_across_shots_spans_multiple_matches(monkeypatch):
    monkeypatch.setattr(curation, "TAU", 0.35)
    cands = [
        [curation.Segment(0, 1.0, 1.5), curation.Segment(0, 2.0, 2.6)],
        [curation.Segment(1, 0.0, 1.0)],
    ]
    out = curation.match_across_shots(cands, lambda s: unit(0))
    # both shot-0 candidates match the seed: span first onset to last offset
    assert (out[0].onset_s, out[0].offset_s) == (1.0, 2.6)


def test_match_across_shots_fallback_longest(caplog, monkeypatch):
    monkeypatch.setattr(curation, "TAU", 0.35)
    cands = [
        [curation.Segment(0, 1.0, 2.0)],
        [curation.Segment(1, 1.0, 1.4), curation.Segment(1, 3.0, 5.0)],
    ]
    table = {(0, 1.0): unit(0), (1, 1.0): unit(1), (1, 3.0): unit(2)}
    with caplog.at_level("WARNING"):
        out = curation.match_across_shots(
            cands, lambda s: table[(s.shot_id, s.onset_s)])
    assert (out[1].onset_s, out[1].offset_s) == (3.0, 5.0)
    assert any("fall" in r.message for r in caplog.records)


def test_match_across_shots_empty_shot():
    with pytest.raises(CurationError):
        curation.match_across_shots([[curation.Segment(0, 0.0, 1.0)], []],
                                    lambda s: unit(0))


# -- alignment ----------------------------------------------------------------------------

def test_align_recovers_planted_pattern():
    rng = np.random.default_rng(8)
    pattern = rng.standard_normal((50, 64))
    exemplar = np.vstack([pattern, rng.standard_normal((10, 64))])
    long_shot = rng.standard_normal((200, 64)).copy()
    long_shot[80:130] = pattern
    segments = [curation.Segment(0, 0.0, 0.5),    # the 50-frame exemplar
                curation.Segment(1, 0.3, 1.7)]    # 140 frames containing it
    aligned, scores = curation.align_to_exemplar(
        segments, [exemplar[:50], long_shot])
    assert aligned[0].onset_s == pytest.approx(0.0)
    assert aligned[1].onset_s == pytest.approx(0.8, abs=HOP)
    assert all(s.duration_s == pytest.approx(0.5) for s in aligned)
    assert scores[1] > 0.99


def test_align_matches_bruteforce_argmax():
    rng = np.random.default_rng(5)
    ex = rng.standard_normal((20, 64))
    shot = rng.standard_normal((120, 64))
    segments = [curation.Segment(0, 0.0, 0.2), curation.Segment(1, 0.1, 1.1)]
    aligned, scores = curation.align_to_exemplar(segments, [ex, shot])

    # independent search: Pearson correlation at every offset
    best, best_pos = -np.inf, None
    e = (ex - ex.mean()).reshape(-1)
    for pos in range(10, 110 - 20 + 1):
        w = shot[pos: pos + 20].reshape(-1)
        w = w - w.mean()
        c = float(w @ e / (np.linalg.norm(w) * np.linalg.norm(e)))
        if c > best:
            best, best_pos = c, pos
    assert aligned[1].onset_s == pytest.approx(best_pos * HOP)
    assert scores[1] == pytest.approx(best, abs=1e-9)


def test_align_scores_a_shot_of_the_exemplar_length():
    # only the exemplar itself scores 1: another shot whose span has the
    # same frame length is correlated with it like any other
    rng = np.random.default_rng(3)
    ex = rng.standard_normal((20, 64))
    other = rng.standard_normal((20, 64))
    segments = [curation.Segment(0, 0.0, 0.2), curation.Segment(1, 0.0, 0.2)]
    aligned, scores = curation.align_to_exemplar(segments, [ex, other])
    e, w = ex.reshape(-1) - ex.mean(), other.reshape(-1) - other.mean()
    assert scores[0] == 1.0
    assert scores[1] < 1.0
    assert scores[1] == pytest.approx(
        w @ e / (np.linalg.norm(w) * np.linalg.norm(e)), abs=1e-12)
    assert [(s.onset_s, s.offset_s) for s in aligned] == \
        [(s.onset_s, s.offset_s) for s in segments]


def test_align_tie_takes_earliest():
    ex = np.zeros((10, 64))
    ex[:, 0] = np.ones(10)
    shot = np.tile(ex, (4, 1))       # periodic: every offset 0,10,20 ties
    segments = [curation.Segment(0, 0.0, 0.1), curation.Segment(1, 0.0, 0.4)]
    aligned, _ = curation.align_to_exemplar(segments, [ex, shot])
    assert aligned[1].onset_s == pytest.approx(0.0)


@pytest.mark.parametrize("n_windows", [1, 2, 8, 9, 10, 17, 300, 401])
def test_window_correlation_in_groups_equals_one_pass(n_windows):
    # windows are centred and scored CORR_ROWS at a time; a group of one
    # joins the group before.  Equal to all windows at once, bit for bit
    # with one BLAS thread; a threaded GEMV splits its rows by thread, so
    # across thread counts the two may differ in the last bit
    rng = np.random.default_rng(n_windows)
    t_e = 37
    frames = 3.0 * rng.standard_normal((t_e + n_windows - 1, 64)) - 5.0
    ex = rng.standard_normal(t_e * 64)
    ex0 = ex - ex.mean()
    args = frames, t_e, ex0, np.linalg.norm(ex0)
    got = curation._window_correlation(*args)
    assert got.shape == (n_windows,)
    np.testing.assert_allclose(got, window_correlation_one_pass(*args),
                               rtol=0, atol=1e-12)


# -- end to end --------------------------------------------------------------------------

def tone_burst_shot(offset_s, dur_s=0.8, total_s=3.0, seed=0):
    rng = np.random.default_rng(seed)
    sig = 0.002 * rng.standard_normal(int(total_s * 16000))
    t = np.arange(int(dur_s * 16000)) / 16000
    a = int(offset_s * 16000)
    sig[a: a + len(t)] += 0.3 * np.sin(2 * np.pi * 700 * t)
    return dsp.Waveform(sig, 16000)


def spectral_embed(w):
    return dsp.logmel(w).mean(axis=0)


def test_curate_end_to_end():
    shots = [tone_burst_shot(0.5, seed=1), tone_burst_shot(1.2, seed=2),
             tone_burst_shot(1.9, seed=3)]
    aligned, report = curation.curate(shots, spectral_embed)
    assert len(aligned) == 3
    durations = {round(s.duration_s, 6) for s in aligned}
    assert len(durations) == 1
    for seg, true_onset in zip(aligned, [0.5, 1.2, 1.9]):
        assert seg.onset_s == pytest.approx(true_onset, abs=0.15)
    assert len(report["shots"]) == 3
    assert all(r["candidates"] for r in report["shots"])
