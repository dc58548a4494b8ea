"""`enroll-scan`: the README's user path through the command-line interface.

Three targets of different durations, each with K=3 unsegmented enrollment
shots (``corpus.gen_episode``), and two long recordings rendered from the
workload seed, one written at 16 kHz and one at 44.1 kHz.  Occurrences of
every target and of the other members of its motif family are planted in
them at known times.  The target families are fixed: the cost of an
enrollment follows the target's duration and how curation cuts it, and it
should not change with the seed.  A round enrolls each target with
``seqshot enroll`` (frozen weak and strong models, no Δ-encoder, the CLI
default, ``--seed`` the workload seed) and scans both recordings with
``seqshot detect``; every CLI call is one operation.
"""

import contextlib
import io
import json
import time
from types import SimpleNamespace

import numpy as np
from scipy.signal import resample_poly

from seqshot import cli, corpus, dsp, pretrain

import common
import oracles
from common import Checked, Op, Round

TARGET_LENGTHS = ((1.2, 1.8), (3.0, 4.0), (5.0, 6.5))   # seconds
FAMILY_SEED = 20_000           # target k is motif 0 of family FAMILY_SEED + k
FAMILY_SIZE = 4                # the target and three look-alike members
RECORDINGS = ((16000, 90.0), (44100, 60.0))            # (rate, seconds)
TONE_HZ, TONE_TOL = 1000.0, 2e-3


def _plan(rng, n_families):
    """Planted occurrences in a shuffled cycle: per family two of the target
    and one look-alike member."""
    cycle = [(k, True) for k in range(n_families)] * 2 \
        + [(k, False) for k in range(n_families)]
    return [cycle[j] for j in rng.permutation(len(cycle))]


def _render_recording(families, seconds, rng):
    """Scenes of planted occurrences back to back, padded with faint pink
    noise to exactly ``seconds``; returns (16 kHz samples, events), with
    events as (family index, onset, offset, is_target).  Scenes are added
    in cycles of ``_plan`` until the next one does not fit; the first cycle
    always fits."""
    n_total = int(round(seconds * oracles.SR))
    pieces, events, n = [], [], 0
    plan = []
    while True:
        if not plan:
            plan = _plan(rng, len(families))
        k, target = plan.pop()
        fam = families[k]
        motif = fam[0] if target else fam[int(rng.integers(1, len(fam)))]
        pad = float(rng.uniform(1.0, 2.0))
        duration = motif.duration_s + pad
        if n + int(round(duration * oracles.SR)) > n_total:
            break
        spec = corpus.SceneSpec(
            duration_s=duration,
            background=("pink", "babble")[int(rng.integers(0, 2))],
            snr_db=15.0, insert_time_s=float(rng.uniform(0.3, pad - 0.3)),
            field=("near", "far")[int(rng.integers(0, 2))], rt60_s=0.5)
        w, scene_events, _ = corpus.render_scene(motif, spec, rng)
        _, on, off = scene_events[0]
        t0 = n / oracles.SR
        events.append((k, t0 + on, t0 + off, target))
        pieces.append(w.samples)
        n += len(w.samples)
    pieces.append(0.003 * corpus.pink_noise(rng, n_total - n))
    return np.concatenate(pieces), events


def setup(work, seed):
    common.verify_frozen()
    st = SimpleNamespace()
    st.seed = seed
    st.work = work
    st.weak = str(common.FROZEN_DIR / "weak.ckpt")
    st.strong = str(common.FROZEN_DIR / "strong.ckpt")
    st.targets, families = [], []
    for k, lengths in enumerate(TARGET_LENGTHS):
        spec = corpus.EpisodeSpec(family_seed=FAMILY_SEED + k,
                                  eval_pos=0, eval_neg_per_seq=0,
                                  n_sequences=FAMILY_SIZE,
                                  length_range=lengths)
        desc_path = corpus.gen_episode(spec, work / f"target{k}")
        desc = json.loads(desc_path.read_text())
        st.targets.append({
            "shots": [str(desc_path.parent / e["wav"])
                      for e in desc["enrollment"]],
            "events": [(e["event"][1], e["event"][2])
                       for e in desc["enrollment"]],
        })
        families.append(corpus.gen_motif_family(
            spec.family_seed, n_sequences=FAMILY_SIZE, length_range=lengths,
            family_id=spec.family_seed))
    rng = np.random.default_rng(seed)
    st.recordings = []
    for rate, seconds in RECORDINGS:
        x16, events = _render_recording(families, seconds, rng)
        x = x16 if rate == oracles.SR else resample_poly(x16, 441, 160)
        path = work / f"recording_{rate}.wav"
        dsp.write_wav(path, dsp.Waveform(np.clip(x, -1.0, 1.0), rate))
        st.recordings.append({"path": str(path), "rate": rate,
                              "n_samples": len(x), "events": events})
    tone = oracles.tone(TONE_HZ, 2 * 44100, 44100)
    st.tone = work / "tone_44100.wav"
    dsp.write_wav(st.tone, dsp.Waveform(tone, 44100))
    # the frozen models load as the CLI loads them
    pretrain.WeakModel.load(st.weak)
    pretrain.StrongModel.load(st.strong)
    return st


def _cli(argv):
    """Run one CLI call in this process; (exit code, stdout JSON or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if code == 0 and text.strip() else None)


def run_round(st):
    ops, outputs = [], {"enroll": [], "detect": []}
    t_round = time.perf_counter()
    for k, target in enumerate(st.targets):
        out_dir = st.work / f"enrolled{k}"
        t0 = time.perf_counter()
        code, summary = _cli(["--seed", str(st.seed), "enroll",
                              "--shots", *target["shots"],
                              "--weak", st.weak, "--strong", st.strong,
                              "--out", str(out_dir)])
        ops.append(Op("enroll", time.perf_counter() - t0, code != 0))
        enrollment = None
        if code == 0:
            enrollment = json.loads((out_dir / "enrollment.json").read_text())
        outputs["enroll"].append((k, code, enrollment))
        if code != 0:
            continue
        for rec in st.recordings:
            t0 = time.perf_counter()
            code, summary = _cli(["detect", "--recording", rec["path"],
                                  "--detector", str(out_dir / "detector.ckpt"),
                                  "--strong", st.strong,
                                  "--enrollment",
                                  str(out_dir / "enrollment.json"),
                                  "--threshold", "-1"])
            seconds = time.perf_counter() - t0
            ops.append(Op("detect", seconds, code != 0))
            outputs["detect"].append((k, rec, code, summary, seconds))
    return Round(ops, time.perf_counter() - t_round, outputs)


def _check_detect(k, rec, summary, window_s, problems):
    """Checks one scan; returns (scores, labels) for the AP."""
    n16 = oracles.n_resampled(rec["n_samples"], rec["rate"])
    want, n_win = oracles.n_scan_windows(n16, window_s)
    where = f"target {k} on the {rec['rate']} Hz recording"
    events = summary["events"]
    if summary["n_windows"] != want or len(events) != want:
        problems.append(f"{where}: {summary['n_windows']} windows "
                        f"({len(events)} scored), want {want}")
    scores = np.array([s for _, s in events], float)
    if not (np.all(np.isfinite(scores)) and np.all(scores > 0)
            and np.all(scores < 1)):
        problems.append(f"{where}: a score is not finite or not in (0, 1)")
    planted = [(on, off) for fam, on, off, is_target in rec["events"]
               if fam == k and is_target]
    labels = [oracles.window_covers(t, n_win * oracles.EMBED_HOP_S, planted)
              for t, _ in events]
    return scores, np.array(labels, int)


def check(st, rounds):
    problems, aps, ious = [], [], []
    enroll_s, detect_s, audio_s = [], 0.0, 0.0
    for r in rounds:
        enroll_s += [op.seconds for op in r.ops if op.name == "enroll"]
        windows = {}
        for k, code, enrollment in r.outputs["enroll"]:
            if code != 0:           # counted as a failed operation
                continue
            windows[k] = enrollment["window_s"]
            for shot, on, off in enrollment["segments"]:
                ious.append(oracles.iou((on, off),
                                        st.targets[k]["events"][shot]))
        per_target = {}
        for k, rec, code, summary, seconds in r.outputs["detect"]:
            if code != 0:
                continue
            detect_s += seconds
            audio_s += rec["n_samples"] / rec["rate"]
            s, y = _check_detect(k, rec, summary, windows[k], problems)
            per_target.setdefault(k, []).append((s, y))
        for k, scans in per_target.items():
            y = np.concatenate([y for _, y in scans])
            if y.any():
                aps.append(oracles.ap(np.concatenate([s for s, _ in scans]),
                                      y))
            else:
                problems.append(f"target {k}: no window covers a planted "
                                "occurrence")
    got = dsp.load_wav(st.tone)
    want = oracles.tone(TONE_HZ, oracles.n_resampled(2 * 44100, 44100),
                        oracles.SR)
    edge = 16
    err = float(np.max(np.abs(got.samples[edge:-edge] - want[edge:-edge]))) \
        if got.samples.shape == want.shape else float("inf")
    if got.sample_rate != oracles.SR or not err <= TONE_TOL:
        problems.append(f"44.1 kHz tone read back with error {err:.2e} "
                        f"(tolerance {TONE_TOL})")
    scan_ap = float(np.median(aps)) if aps else 0.0
    figures = {
        "enroll_s": (float(np.median(enroll_s)) if enroll_s else 0.0, "s"),
        "scan_audio_s_per_s": (audio_s / detect_s if detect_s else 0.0,
                               "audio-s/s"),
        "scan_window_ap": (scan_ap, "ratio"),
        "tone_max_error": (err, "ratio")}
    layer = {"curation.shot_iou_ok_ratio":
             float(np.mean([i > 0.5 for i in ious])) if ious else 0.0}
    return Checked(problems, figures, layer)
