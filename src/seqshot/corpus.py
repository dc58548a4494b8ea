"""Deterministic synthetic acoustic-sequence datasets.

A *motif* is an ordered list of sine notes drawn from a per-family
vocabulary; motifs in one family share the vocabulary but differ in
note order, so fine-grained identity is temporal order.  Scenes plant
a motif into a background at a known time, optionally through a
synthetic room impulse response (far field), giving exact weak and
strong labels.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, pretrain
from .errors import ConfigError, SeqshotError

NOTE_RAMP_S = 0.010
FAR_FIELD_SNR_PENALTY_DB = 6.0

BACKGROUNDS = ("silence", "pink", "babble")

N_VOCAB = 8                 # notes in a family's vocabulary
MIN_ORDER_DISTANCE = 3      # note-order Hamming distance between motifs
NOTE_DUR_S = 0.35           # target note length; notes fill the motif length
BABBLE_TONES = 8            # tones in a babble cluster


@dataclass
class Motif:
    family_id: int
    motif_id: int
    note_freqs_hz: np.ndarray     # per-note frequency
    note_dur_s: float
    note_amps: np.ndarray
    note_indices: np.ndarray      # indices into the family vocabulary

    @property
    def duration_s(self):
        return self.note_dur_s * len(self.note_freqs_hz)

    @property
    def class_id(self):
        return (self.family_id, self.motif_id)


@dataclass
class SceneSpec:
    duration_s: float
    background: str = "pink"            # silence | pink | babble
    snr_db: float = 15.0
    insert_time_s: float = 0.0
    field: str = "near"                 # near | far
    rt60_s: float = 0.5

    def __post_init__(self):
        if self.background not in BACKGROUNDS:
            raise ValueError(f"unknown background {self.background!r}")
        if self.field not in ("near", "far"):
            raise ValueError(f"unknown field {self.field!r}")


# -- motif families ------------------------------------------------------------

def _hamming(a, b):
    return int((a != b).sum())


def gen_motif_family(family_seed, n_sequences=10, length_range=(1.0, 10.0),
                     family_id=0):
    """One family: shared ``N_VOCAB``-note vocabulary, order-distinct
    motifs.

    All motifs have the same note count, at least 4; pairwise note-order
    Hamming distance is at least ``MIN_ORDER_DISTANCE`` so family members
    are coarse-alike but fine-grained distinct.
    """
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences per family")
    rng = np.random.default_rng(family_seed)
    length_s = float(rng.uniform(*length_range))
    n_notes = max(4, int(round(length_s / NOTE_DUR_S)))
    dur = length_s / n_notes
    # Independent log-uniform notes per family (so coarse classes are
    # spectrally distinct), kept >= 2 semitones apart within the family.
    lo, hi = np.log(500.0), np.log(3520.0)
    min_gap = np.log(2.0) / 6.0
    for _ in range(5000):
        vocab = np.sort(np.exp(rng.uniform(lo, hi, size=N_VOCAB)))
        if np.all(np.log(vocab[1:] / vocab[:-1]) >= min_gap):
            break
    else:
        raise SeqshotError("could not draw a well-separated note vocabulary")
    sequences = []
    attempts = 0
    while len(sequences) < n_sequences:
        attempts += 1
        if attempts > 5000:
            raise SeqshotError("order-distance constraint looks infeasible")
        cand = rng.integers(0, N_VOCAB, size=n_notes)
        if all(_hamming(cand, s) >= MIN_ORDER_DISTANCE for s in sequences):
            sequences.append(cand)
    motifs = []
    for i, idxs in enumerate(sequences):
        amps = rng.uniform(0.65, 0.8, size=n_notes)
        motifs.append(Motif(
            family_id=family_id,
            motif_id=i,
            note_freqs_hz=vocab[idxs],
            note_dur_s=dur,
            note_amps=amps,
            note_indices=idxs,
        ))
    return motifs


def synth_motif(motif):
    """Render a motif as concatenated sine notes with 10 ms cosine ramps."""
    sr = dsp.SAMPLE_RATE
    n = int(round(motif.note_dur_s * sr))
    ramp = min(int(NOTE_RAMP_S * sr), n // 2)
    env = np.ones(n)
    if ramp > 0:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[:ramp] = fade
        env[-ramp:] = fade[::-1]
    t = np.arange(n) / sr
    parts = [amp * env * np.sin(2 * np.pi * f * t)
             for f, amp in zip(motif.note_freqs_hz, motif.note_amps)]
    return dsp.Waveform(np.concatenate(parts), sr)


# -- backgrounds and RIRs ---------------------------------------------------------

def pink_noise(rng, n):
    """1/f-shaped noise via spectral shaping, unit-ish RMS."""
    spec = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    f = np.arange(n // 2 + 1, dtype=np.float64)
    f[0] = 1.0
    x = np.fft.irfft(spec / np.sqrt(f), n=n)
    return x / (x.std() + 1e-12)


def babble_cluster(rng, n):
    """Babble-like cluster: slowly amplitude-modulated random tones."""
    t = np.arange(n) / dsp.SAMPLE_RATE
    out = np.zeros(n)
    for _ in range(BABBLE_TONES):
        f = rng.uniform(150.0, 450.0)
        mod_f = rng.uniform(0.3, 3.0)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        env = 0.5 * (1.0 + np.sin(2 * np.pi * mod_f * t + phase[0]))
        out += env * np.sin(2 * np.pi * f * t + phase[1])
    return out / (out.std() + 1e-12)


def synth_rir(rng, rt60_s):
    """Exponentially decaying white noise; -60 dB at rt60."""
    sr = dsp.SAMPLE_RATE
    n = max(8, int(rt60_s * sr))
    t = np.arange(n) / sr
    h = rng.normal(size=n) * np.exp(-6.9078 * t / rt60_s)
    h[0] = 1.0
    return dsp.Waveform(h / np.abs(h).max(), sr)


def _background(rng, kind, n):
    """Pink or babble noise; silence mixes no background."""
    if kind == "pink":
        return pink_noise(rng, n)
    return babble_cluster(rng, n)


# -- scene rendering -----------------------------------------------------------------

def render_scene(motif, spec: SceneSpec, rng):
    """Render one scene; returns (Waveform, strong_events, weak_labels).

    Far field convolves the placed motif with a synthetic RIR and pays a
    6 dB SNR penalty.  The strong event stays (class, insert, insert+dur):
    the reverb tail is degradation, not event extent.
    """
    sr = dsp.SAMPLE_RATE
    n = int(round(spec.duration_s * sr))
    event_wav = synth_motif(motif)
    if spec.insert_time_s + motif.duration_s > spec.duration_s + 1e-9:
        raise ValueError("motif does not fit in the scene")
    i0 = int(round(spec.insert_time_s * sr))
    placed = np.zeros(n)
    seg = event_wav.samples[: n - i0]
    placed[i0: i0 + len(seg)] = seg
    snr_db = spec.snr_db
    if spec.field == "far":
        rir = synth_rir(rng, spec.rt60_s)
        placed = dsp.convolve_rir(dsp.Waveform(placed, sr), rir).samples
        snr_db = snr_db - FAR_FIELD_SNR_PENALTY_DB
    sig_power = float(np.mean(event_wav.samples ** 2))
    mix = placed.copy()
    if spec.background != "silence":
        bg = _background(rng, spec.background, n)
        bg_power = float(np.mean(bg ** 2))
        scale = np.sqrt(sig_power / (bg_power * 10.0 ** (snr_db / 10.0)))
        mix = mix + scale * bg
    peak = np.abs(mix).max()
    if peak > 0.99:
        mix *= 0.99 / peak
    events = [(motif.class_id, spec.insert_time_s,
               spec.insert_time_s + motif.duration_s)]
    weak = {motif.class_id}
    return dsp.Waveform(mix, sr), events, weak


# -- pretraining dataset ---------------------------------------------------------------

EVENT_DURATION_RANGE = (1.5, 4.0)  # motif lengths and noise-burst lengths, s
EVENT_SNR_DB_RANGE = (12.0, 25.0)  # each event over the clip's noise floor
SECOND_EVENT_PROB = 0.2            # share of clips that hold a second class
N_NOISE_CLASSES = 2                # the last classes: pink and babble bursts


@dataclass
class PretrainConfig:
    n_classes: int = 12
    clips_per_class: int = 42
    clip_duration_s: float = 10.0
    seed: int = 0

    def __post_init__(self):
        # a second class is drawn from the others; every clip must embed
        if self.n_classes < 2:
            raise ConfigError(f"corpus needs at least 2 classes, got "
                              f"{self.n_classes}")
        if self.clip_duration_s < pretrain.MIN_EMBED_S:
            raise ConfigError(
                f"clip_duration_s {self.clip_duration_s} is under the "
                f"{pretrain.MIN_EMBED_S} s the embedders take")


def _noise_event(rng, kind, dur_s):
    sr = dsp.SAMPLE_RATE
    n = int(dur_s * sr)
    x = _background(rng, kind, n) * 0.4
    ramp = int(NOTE_RAMP_S * sr)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    x[:ramp] *= fade
    x[-ramp:] *= fade[::-1]
    return x


def gen_pretrain_dataset(config: PretrainConfig, out_dir):
    """Write WAVs + a JSON-lines manifest; returns the manifest path.

    Coarse class c < n_families is motif family c; the last
    ``N_NOISE_CLASSES`` classes are pink-burst and babble-burst events.
    Strong events are retained in the manifest for pseudo-label
    validation but carry no role in weak training.
    """
    out_dir = Path(out_dir)
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)
    n_fam = config.n_classes - N_NOISE_CLASSES
    families = [
        gen_motif_family(
            family_seed=config.seed * 1000 + 17 * c + 3,
            n_sequences=6,
            length_range=EVENT_DURATION_RANGE,
            family_id=c,
        )
        for c in range(n_fam)
    ]
    rng = np.random.default_rng(config.seed)
    records = []
    clip_idx = 0
    for cls in range(config.n_classes):
        for _ in range(config.clips_per_class):
            classes = [cls]
            if rng.uniform() < SECOND_EVENT_PROB:
                other = int(rng.integers(0, config.n_classes - 1))
                if other >= cls:
                    other += 1
                classes.append(other)
            sr = dsp.SAMPLE_RATE
            n = int(config.clip_duration_s * sr)
            mix = pink_noise(rng, n) * 0.003   # faint floor so clips are not dead silent
            events = []
            # repeat events across the clip (alternating classes when a
            # second class is present) so that short training crops
            # nearly always contain one, never overlapping
            t = float(rng.uniform(0.2, 0.8))
            placements = []
            k = 0
            while True:
                c = classes[k % len(classes)]
                if c < n_fam:
                    fam = families[c]
                    motif = fam[int(rng.integers(0, len(fam)))]
                    dur = motif.duration_s
                    ev = synth_motif(motif).samples
                else:
                    kind = "pink" if c == n_fam else "babble"
                    dur = float(rng.uniform(*EVENT_DURATION_RANGE))
                    ev = _noise_event(rng, kind, dur)
                if t + dur > config.clip_duration_s - 0.2:
                    if not placements:     # always fit at least one event
                        t = max(0.2, config.clip_duration_s - 0.2 - dur)
                        placements.append((c, t, ev, dur))
                    break
                placements.append((c, t, ev, dur))
                t += dur + float(rng.uniform(0.5, 1.5))
                k += 1
            for c, insert, ev, dur in placements:
                snr = rng.uniform(*EVENT_SNR_DB_RANGE)
                i0 = int(insert * sr)
                ev = ev[: n - i0]
                sig_power = float(np.mean(ev ** 2))
                floor_power = float(np.mean(mix ** 2))
                gain = np.sqrt(
                    10.0 ** (snr / 10.0) * floor_power / max(sig_power, 1e-12)
                )
                # keep event amplitudes sane regardless of the faint floor
                gain = min(gain, 0.9 / (np.abs(ev).max() + 1e-9))
                mix[i0: i0 + len(ev)] += gain * ev
                events.append((c, insert, insert + dur))
            peak = np.abs(mix).max()
            if peak > 0.99:
                mix *= 0.99 / peak
            name = f"wavs/clip_{clip_idx:05d}.wav"
            dsp.write_wav(out_dir / name, dsp.Waveform(mix))
            records.append({
                "wav": name,
                "labels": sorted({c for c, _, _ in events}),
                "events": [[c, round(a, 6), round(b, 6)] for c, a, b in events],
            })
            clip_idx += 1
    manifest = out_dir / "manifest.jsonl"
    with open(manifest, "w") as f:
        for r in records:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    return manifest


# -- episodes ------------------------------------------------------------------------

K_SHOTS = 3                  # enrollment shots per episode
ENROLL_SNR_DB = 18.0
EVAL_SNR_DB = 15.0
EPISODE_RT60_S = 0.5         # far-field reverberation
EPISODE_BACKGROUNDS = ("pink", "babble")
SHOT_PAD_RANGE = (2.0, 4.0)  # seconds of scene around each rendered motif


@dataclass
class EpisodeSpec:
    family_seed: int
    eval_pos: int = 3
    eval_neg_per_seq: int = 20
    n_sequences: int = 10
    length_range: tuple = (1.0, 10.0)


def _fields_5050(count, rng):
    """Half near, half far (extra one near on odd counts), shuffled."""
    tags = ["near"] * ((count + 1) // 2) + ["far"] * (count // 2)
    rng.shuffle(tags)
    return tags


def gen_episode(spec: EpisodeSpec, out_dir):
    """Render one few-shot episode to disk; returns the descriptor path.

    Target is motif 0 of the family; negatives are the remaining
    order-scrambled family members.  Eval positives and negatives are
    split 50/50 near/far field.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    motifs = gen_motif_family(
        spec.family_seed, n_sequences=spec.n_sequences,
        length_range=spec.length_range, family_id=spec.family_seed,
    )
    target = motifs[0]
    rng = np.random.default_rng(spec.family_seed * 7919 + 11)

    def render(motif, field, snr, tag, idx):
        pad = float(rng.uniform(*SHOT_PAD_RANGE))
        duration = motif.duration_s + pad
        insert = float(rng.uniform(0.2, max(0.21, duration - motif.duration_s - 0.2)))
        sc = SceneSpec(
            duration_s=duration,
            background=EPISODE_BACKGROUNDS[
                int(rng.integers(0, len(EPISODE_BACKGROUNDS)))],
            snr_db=snr,
            insert_time_s=insert,
            field=field,
            rt60_s=EPISODE_RT60_S,
        )
        w, events, _ = render_scene(motif, sc, rng)
        name = f"{tag}_{idx:03d}.wav"
        dsp.write_wav(out_dir / name, w)
        return {
            "wav": name,
            "field": field,
            "event": [list(events[0][0]), events[0][1], events[0][2]],
        }

    enrollment = [render(target, "near", ENROLL_SNR_DB, "enroll", i)
                  for i in range(K_SHOTS)]
    pos_fields = _fields_5050(spec.eval_pos, rng)
    positives = [render(target, f, EVAL_SNR_DB, "pos", i)
                 for i, f in enumerate(pos_fields)]
    negatives = []
    idx = 0
    for m in motifs[1:]:
        for f in _fields_5050(spec.eval_neg_per_seq, rng):
            negatives.append(render(m, f, EVAL_SNR_DB, "neg", idx))
            idx += 1
    desc = {
        "family_seed": spec.family_seed,
        "target_duration_s": round(target.duration_s, 6),
        "enrollment": enrollment,
        "eval": (
            [{**p, "label": 1} for p in positives]
            + [{**m, "label": 0} for m in negatives]
        ),
    }
    path = out_dir / "episode.json"
    with open(path, "w") as f:
        json.dump(desc, f, indent=1, sort_keys=True)
    return path
