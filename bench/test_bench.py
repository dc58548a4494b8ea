"""Tests of the benchmark's own checks and span arithmetic; seconds to run.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import common  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import wl_enroll_scan  # noqa: E402
import wl_episodes  # noqa: E402


def _tracer(spans):
    return tracing.Tracer(spans=[tracing.Span(n, a, b, p)
                                 for n, a, b, p in spans])


def test_self_times_of_a_hand_made_tree():
    rec = _tracer([
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 2),
        ("a", 11.0, 12.0, -1),
    ])
    assert rec.self_times() == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert rec.total("a") == 11.0
    assert rec.self_total("a") == 4.0
    assert rec.total("d", outside=("c",)) == 0.0
    assert rec.calls("a") == 2


def test_nested_calls_of_one_function_count_once():
    rec = _tracer([("f", 0.0, 5.0, -1), ("f", 1.0, 3.0, 0)])
    assert rec.total("f") == 5.0
    assert rec.self_total("f") == 5.0


def test_wrapper_records_spans_and_unwraps():
    box = SimpleNamespace(f=lambda x: x + 1)
    original = box.f
    tracer = tracing.Tracer()
    tracer.wrap(box, "f", "box.f",
                lambda t, args, kwargs, result: t.count("n", result))
    assert box.f(1) == 2
    assert [s.name for s in tracer.spans] == ["box.f"]
    assert tracer.counts["n"] == 2
    tracer.unwrap_all()
    assert box.f is original


def test_ap_oracle_on_a_known_ranking():
    # ranks: pos, neg, pos -> precision 1 at recall 1/2, 2/3 at recall 1
    assert oracles.ap([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(
        0.5 + 0.5 * 2 / 3)


def _episode_result(audit, n_pos=3, n_neg=9, reps=(0.5, 0.7)):
    return SimpleNamespace(audit=audit, n_pos=n_pos, n_neg=n_neg,
                           psl_per_rep=list(reps))


DESC = {"eval": [{"label": 1}] * 3 + [{"label": 0}] * 9}
CLEAN_AUDIT = [("train", "enrollment", 0), ("eval", "eval", 0)]


def test_episode_check_passes_a_clean_result():
    problems = []
    wl_episodes.check_episode(DESC, _episode_result(CLEAN_AUDIT), problems,
                              "ep")
    assert problems == []


@pytest.mark.parametrize("result", [
    _episode_result(CLEAN_AUDIT + [("train", "eval", 3)]),
    _episode_result([("eval", "eval", 0)]),
    _episode_result(CLEAN_AUDIT, n_neg=8),
    _episode_result(CLEAN_AUDIT, reps=(0.5, 1.2)),
])
def test_episode_check_catches_a_planted_fault(result):
    problems = []
    wl_episodes.check_episode(DESC, result, problems, "ep")
    assert problems


def _scan(n_windows_delta=0, score=0.5):
    rec = {"rate": 44100, "n_samples": 60 * 44100, "path": "r.wav",
           "events": [(0, 10.0, 12.0, True), (0, 20.0, 22.0, False)]}
    window_s = 1.5
    want, n_win = oracles.n_scan_windows(60 * 16000, window_s)
    events = [[j * oracles.EMBED_HOP_S, score] for j in range(want)]
    summary = {"n_windows": want + n_windows_delta, "events": events}
    problems = []
    scores, labels = wl_enroll_scan._check_detect(0, rec, summary, window_s,
                                                  problems)
    return problems, labels


def test_scan_check_passes_a_clean_scan():
    problems, labels = _scan()
    assert problems == []
    assert labels.sum() > 0


@pytest.mark.parametrize("fault", [dict(n_windows_delta=1),
                                   dict(score=1.0), dict(score=float("nan"))])
def test_scan_check_catches_a_planted_fault(fault):
    problems, _ = _scan(**fault)
    assert problems


def test_window_count_follows_from_the_sample_count():
    # 60 s at 16 kHz: 5998 log-mel frames, 187 embedding frames; a 1.5 s
    # window is 148 frames -> 4 embedding frames
    assert oracles.n_scan_windows(60 * 16000, 1.5) == (184, 4)
    assert oracles.n_resampled(60 * 44100, 44100) == 60 * 16000


def test_a_changed_frozen_file_is_refused(tmp_path, monkeypatch):
    if not common.DIGESTS.exists():
        pytest.skip("no frozen models")
    frozen = tmp_path / "frozen"
    shutil.copytree(common.FROZEN_DIR, frozen)
    monkeypatch.setattr(common, "FROZEN_DIR", frozen)
    monkeypatch.setattr(common, "DIGESTS", frozen / "DIGESTS.json")
    common.verify_frozen()
    target = frozen / "weak.ckpt"
    data = bytearray(target.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))
    with pytest.raises(SystemExit):
        common.verify_frozen()
    digests = json.loads((frozen / "DIGESTS.json").read_text())
    assert "weak.ckpt" in digests


def test_tone_reference_is_in_band():
    x = oracles.tone(1000.0, 16000, 16000)
    spectrum = np.abs(np.fft.rfft(x))
    assert int(np.argmax(spectrum)) == 1000
