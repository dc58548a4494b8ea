import argparse
import json
import shlex
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from seqshot import cli, corpus, curation, detector, dsp, nn, pretrain

from reference_ops import pseudo_logits_per_window
from test_dsp import write_pcm16, write_pcm16_header
from test_pretrain import split_labels

TINY_MODEL = [
    "--set", "model.channels=[4,6,8,10,12]",
    "--set", "model.head_hidden=16",
    "--set", "model.embed_dim=8",
]
TINY_CORPUS = [
    "--set", "corpus.n_classes=4",          # 2 motif families + 2 noise
    "--set", "corpus.clips_per_class=2",
    "--set", "corpus.clip_duration_s=6.0",
]
FAST_TRAIN = [
    "--set", "train.epochs=1",
    "--set", "train.batch_size=8",
    "--set", "train.crop_frames=598",
]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_full_pipeline(tmp_path, capsys):
    root = tmp_path

    # synthesize a small dataset
    code, out = run(capsys, [*TINY_CORPUS, "synth-corpus",
                             "--out", str(root / "data")])
    assert code == 0
    assert out["clips"] == 8 and out["classes"] == 4
    manifest = out["manifest"]
    assert (root / "data" / "config.json").exists()   # config echoed

    # weak-label teacher
    code, out = run(capsys, [*TINY_CORPUS, *TINY_MODEL, *FAST_TRAIN,
                             "pretrain", "--data", manifest,
                             "--out", str(root / "teacher")])
    assert code == 0
    teacher = out["checkpoint"]
    assert out["final_loss"] is not None

    # distilled student
    code, out = run(capsys, [*TINY_CORPUS, *TINY_MODEL, *FAST_TRAIN,
                             "--set", "distill.channels=[4,6,8,10,12]",
                             "distill", "--data", manifest,
                             "--teacher", teacher,
                             "--out", str(root / "student")])
    assert code == 0
    student = out["checkpoint"]

    # frame-level model, on the student's pseudo labels
    code, out = run(capsys, [*TINY_CORPUS, *TINY_MODEL, *FAST_TRAIN,
                             "train-strong", "--data", manifest,
                             "--labeler", student, "--student", student,
                             "--out", str(root / "strong")])
    assert code == 0
    assert out["clips"] == 8
    assert 0.0 <= out["positive_rate"] <= 1.0
    strong = out["checkpoint"]

    # a small episode to enroll against
    spec = corpus.EpisodeSpec(family_seed=13, eval_neg_per_seq=1,
                              length_range=(1.5, 2.5))
    ep_dir = root / "episode"
    desc = json.loads(corpus.gen_episode(spec, ep_dir).read_text())
    shots = [str(ep_dir / e["wav"]) for e in desc["enrollment"]]

    code, out = run(capsys, ["--set", "detector.epochs=3",
                             "enroll", "--shots", *shots,
                             "--weak", teacher, "--strong", strong,
                             "--out", str(root / "enrolled")])
    assert code == 0
    assert out["window_s"] > 0
    assert out["train_items"] == 3 * (1 + 8 + 8 + 8)   # no Δ-encoder
    detector_ckpt = out["detector"]
    enrollment = out["enrollment"]

    # scan one evaluation clip
    rec = str(ep_dir / desc["eval"][0]["wav"])
    code, out = run(capsys, ["detect", "--recording", rec,
                             "--detector", detector_ckpt,
                             "--strong", strong,
                             "--enrollment", enrollment,
                             "--threshold", "0.0"])
    assert code == 0
    assert out["n_windows"] >= 1
    assert len(out["events"]) == out["n_windows"]      # threshold 0 keeps all
    assert 0.0 < out["max_score"] < 1.0

    # episode protocol
    code, out = run(capsys, ["--set", "detector.epochs=2",
                             "--set", "evaluate.reps=1",
                             "evaluate", "--episodes", str(ep_dir),
                             "--weak", teacher, "--strong", strong,
                             "--out", str(root / "report")])
    assert code == 0
    assert (root / "report" / "episodes.csv").exists()
    assert len(out["episodes"]) == 1
    assert 0.0 <= out["median_psl_auprc"] <= 1.0


def test_enroll_without_shots_is_usage_error(tmp_path, capsys):
    code, _ = run(capsys, ["enroll", "--weak", "w", "--strong", "s",
                           "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    code, _ = run(capsys, ["--set", "train.warp=1", "synth-corpus",
                           "--out", str(tmp_path / "d")])
    assert code == 2


def test_unused_detector_proj_dim_key_is_usage_error(tmp_path, capsys):
    # the detector's projection width is not configurable from the CLI
    code, _ = run(capsys, ["--set", "detector.proj_dim=8", "synth-corpus",
                           "--out", str(tmp_path / "d")])
    assert code == 2


@pytest.mark.parametrize("key", [
    "corpus.n_noise_classes", "train.peak_lr", "train.final_lr",
    "train.warmup_frac", "train.weight_decay", "detector.lr",
    "detector.weight_decay", "detector.gamma", "detector.margin_weight",
    "detector.bce_weight"])
def test_fixed_recipe_value_is_unknown_key(tmp_path, capsys, caplog, key):
    # these parts of the recipe are module constants, not config values
    code, out = run(capsys, ["--set", f"{key}=2", "synth-corpus",
                             "--out", str(tmp_path / "d")])
    assert code == 2 and out is None
    assert _logged_error(caplog, f"unknown config key: {key}")


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    code, _ = run(capsys, ["pretrain", "--data",
                           str(tmp_path / "absent.jsonl"),
                           "--out", str(tmp_path / "o")])
    assert code == 1


def test_bad_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


COMMAND_OPTIONS = {
    "seqshot": {"--config", "--seed", "--set"},
    "synth-corpus": {"--out"},
    "pretrain": {"--data", "--out"},
    "distill": {"--data", "--teacher", "--out"},
    "train-strong": {"--data", "--labeler", "--student", "--out"},
    "enroll": {"--shots", "--weak", "--strong", "--out"},
    "detect": {"--recording", "--detector", "--strong", "--enrollment",
               "--threshold"},
    "evaluate": {"--episodes", "--weak", "--strong", "--out"},
}


def _options(parser):
    return {s for a in parser._actions for s in a.option_strings} \
        - {"-h", "--help"}


def test_command_options_are_pinned():
    # an option added to or dropped from a command shows up here, as a
    # config key does in tests/test_config.py
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: _options(p) for name, p in sub.choices.items()}
    assert {"seqshot": _options(parser), **got} == COMMAND_OPTIONS


def test_readme_quick_start_parses():
    # every command line of the README's quick start parses
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Quick start", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "seqshot", line
        commands.add(parser.parse_args(argv[1:]).command)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert commands == set(sub.choices)       # and it shows every command


@pytest.fixture(scope="module")
def three_clips(tmp_path_factory):
    return corpus.gen_pretrain_dataset(
        corpus.PretrainConfig(n_classes=3, clips_per_class=1,
                              clip_duration_s=2.0),
        tmp_path_factory.mktemp("three_clips"))


@pytest.mark.parametrize("override", [
    "train.epochs=abc",
    "corpus.clip_duration_s=-1",
    "train.batch_size=0",
    "model.channels=5",
    'train.augment="yes"',
    "train.epochs=-1",
], ids=["not_a_number", "negative_lr", "zero_batch", "not_a_list",
        "string_bool", "negative_epochs"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, three_clips,
                                         override):
    # one epoch unless the override sets epochs itself: a value accepted
    # by mistake then trains briefly and fails the assertions below
    code, out = run(capsys, ["--set", "train.epochs=1", "--set", override,
                             "pretrain", "--data", str(three_clips),
                             "--out", str(tmp_path / "t")])
    assert code == 2 and out is None
    assert not (tmp_path / "t" / "teacher.ckpt").exists()


@pytest.mark.parametrize("override, error", [
    ("corpus.n_classes=1", "corpus needs at least 2 classes, got 1"),
    ("corpus.clip_duration_s=0.00001", "clip_duration_s 1e-05 is under"),
], ids=["one_class", "clip_too_short"])
def test_degenerate_corpus_is_usage_error(tmp_path, capsys, caplog,
                                          override, error):
    code, out = run(capsys, ["--set", "corpus.clips_per_class=1",
                             "--set", override, "synth-corpus",
                             "--out", str(tmp_path / "d")])
    assert code == 2 and out is None
    assert _logged_error(caplog, error)
    assert not (tmp_path / "d" / "manifest.jsonl").exists()
    assert not (tmp_path / "d" / "config.json").exists()


# -- malformed checkpoints ----------------------------------------------------------

TINY_CONFIG = pretrain.ModelConfig(n_classes=2, channels=(4, 6, 8, 10, 12),
                                   head_hidden=16, embed_dim=8)


def _write_models(root):
    paths = {k: root / f"{k}.ckpt" for k in ("weak", "strong", "detector")}
    pretrain.WeakModel(TINY_CONFIG).save(paths["weak"])
    pretrain.StrongModel(TINY_CONFIG).save(paths["strong"])
    # the strong model's frames tap stage 3: 8 channels x 8 frequency bins
    detector.DetectorNet(detector.DetectorConfig(embed_dim=64)).save(
        paths["detector"])
    return paths


def corrupt_checkpoint(path, fault):
    kind, tensors = nn.read_checkpoint(path)
    param = next(k for k in tensors if not k.startswith("meta/"))
    if fault == "missing_tensor":
        del tensors[param]
    elif fault == "unknown_tensor":
        tensors["stray/W"] = np.zeros((2, 2))
    elif fault == "shape":
        tensors[param] = np.zeros(tensors[param].shape + (2,))
    elif fault == "rank":       # every parameter loses its last dimension
        for k in tensors:
            if not k.startswith("meta/"):
                tensors[k] = tensors[k][..., 0]
    elif fault == "stray_meta":
        tensors["meta/stray"] = np.array([1.0])
    else:   # the first meta tensor is one the loader needs
        del tensors[next(k for k in tensors if k.startswith("meta/"))]
    nn.write_checkpoint(path, kind, tensors)


def _argv(model, paths, root):
    """A command that loads ``model`` before it reads any audio."""
    if model in ("weak", "student"):
        (root / "empty.jsonl").write_text("")
        return ["train-strong", "--data", str(root / "empty.jsonl"),
                "--labeler", str(paths["weak"]),
                "--student", str(paths["weak"]), "--out", str(root / "o")]
    # valid inputs, so only the checkpoint can make detect fail
    rng = np.random.default_rng(0)
    dsp.write_wav(root / "rec.wav",
                  dsp.Waveform(0.1 * rng.standard_normal(3 * 16000)))
    (root / "enrollment.json").write_text(json.dumps({"window_s": 1.0}))
    return ["detect", "--recording", str(root / "rec.wav"),
            "--detector", str(paths["detector"]),
            "--strong", str(paths["strong"]),
            "--enrollment", str(root / "enrollment.json")]


@pytest.mark.parametrize("fault", ["missing_tensor", "unknown_tensor",
                                   "shape", "rank", "missing_meta",
                                   "stray_meta"])
@pytest.mark.parametrize("model", ["weak", "strong", "detector"])
def test_malformed_checkpoint_is_runtime_error(tmp_path, capsys, caplog,
                                               model, fault):
    paths = _write_models(tmp_path)
    corrupt_checkpoint(paths[model], fault)
    code, out = run(capsys, _argv(model, paths, tmp_path))
    assert code == 1 and out is None
    # the weak case's train-strong has no clips, so it fails with any
    # checkpoint: the refusal must be the loader's.  A refused run echoes
    # no config
    assert _logged_error(caplog, str(paths[model]))
    assert not (tmp_path / "o" / "config.json").exists()


def _logged_error(caplog, text):
    """An ERROR record holds ``text``, and no record carries a traceback."""
    assert not any(r.exc_info for r in caplog.records)
    return any(r.levelname == "ERROR" and text in r.getMessage()
               for r in caplog.records)


def test_checkpoint_error_names_the_file(tmp_path, capsys, caplog):
    paths = _write_models(tmp_path)
    corrupt_checkpoint(paths["weak"], "unknown_tensor")
    dsp.write_wav(tmp_path / "shot.wav", dsp.Waveform(np.zeros(16000)))
    code, out = run(capsys, ["enroll", "--shots", str(tmp_path / "shot.wav"),
                             "--weak", str(paths["weak"]),
                             "--strong", str(paths["strong"]),
                             "--out", str(tmp_path / "o")])
    assert code == 1 and out is None
    assert _logged_error(caplog, f"{paths['weak']}: unknown tensor")
    assert not (tmp_path / "o" / "config.json").exists()


@pytest.mark.parametrize("rate", [0, 1, 384000])
def test_wav_rate_outside_range_is_runtime_error(tmp_path, capsys, caplog,
                                                 rate):
    argv = _argv("detector", _write_models(tmp_path), tmp_path)
    write_pcm16_header(tmp_path / "rec.wav", rate, np.zeros(1000))
    code, out = run(capsys, argv)
    assert code == 1 and out is None
    assert "Traceback" not in capsys.readouterr().err
    assert _logged_error(caplog, f"{tmp_path / 'rec.wav'}: sample rate "
                                 f"{rate} Hz")


def test_enroll_refuses_shot_too_short_to_mask(tmp_path, capsys, caplog):
    # 1.2 s embeds to 3 frames: the synthesizers need 4, so the shot is
    # refused before curation, and nothing is trained or written
    paths = _write_models(tmp_path)
    rng = np.random.default_rng(4)
    shots = []
    for i, seconds in enumerate((1.2, 3.0, 3.0)):
        shots.append(str(tmp_path / f"shot{i}.wav"))
        dsp.write_wav(shots[-1], dsp.Waveform(
            0.1 * rng.standard_normal(int(seconds * 16000))))
    code, out = run(capsys, ["enroll", "--shots", *shots,
                             "--weak", str(paths["weak"]),
                             "--strong", str(paths["strong"]),
                             "--out", str(tmp_path / "o")])
    assert code == 1 and out is None
    assert _logged_error(caplog, "enrollment shot 0 lasts 1.200 s, under "
                                 "the 1.295 s that embed to 4 frames")
    assert not (tmp_path / "o" / "detector.ckpt").exists()


@pytest.mark.parametrize("cut", [3, 400], ids=["mid_sample", "whole_frames"])
@pytest.mark.parametrize("command", ["enroll", "detect"])
def test_truncated_wav_is_runtime_error(tmp_path, capsys, caplog, command,
                                        cut):
    # a stereo file cut short after its header was written: it ends in
    # the middle of a sample, or 100 frames before the frames it declares
    paths = _write_models(tmp_path)
    argv = _argv("detector", paths, tmp_path)
    wav = tmp_path / "rec.wav"
    write_pcm16(wav, 16000, np.random.default_rng(2).integers(
        -3000, 3000, (2 * 16000, 2)))
    wav.write_bytes(wav.read_bytes()[:-cut])
    if command == "enroll":
        argv = ["enroll", "--shots", str(wav), "--weak", str(paths["weak"]),
                "--strong", str(paths["strong"]), "--out", str(tmp_path / "o")]
    code, out = run(capsys, argv)
    assert code == 1 and out is None
    assert "Traceback" not in capsys.readouterr().err
    assert _logged_error(caplog, f"{wav}: truncated")


@pytest.mark.parametrize("seconds, error", [
    (1.0, "recording too short: 3 embedding frames < window 4"),
    (0.3, "need at least 0.5 s of audio"),
], ids=["shorter_than_window", "shorter_than_half_a_second"])
def test_detect_on_too_short_recording_is_runtime_error(
        tmp_path, capsys, caplog, seconds, error):
    argv = _argv("detector", _write_models(tmp_path), tmp_path)
    (tmp_path / "enrollment.json").write_text(json.dumps({"window_s": 1.4}))
    rng = np.random.default_rng(1)
    dsp.write_wav(tmp_path / "rec.wav", dsp.Waveform(
        0.1 * rng.standard_normal(int(seconds * 16000))))
    code, out = run(capsys, argv)
    assert code == 1 and out is None
    assert "Traceback" not in capsys.readouterr().err
    assert _logged_error(caplog, error)


@pytest.mark.parametrize("labels", [[-1], ["x"], [0, True]],
                         ids=["negative", "string", "bool"])
def test_manifest_label_must_be_integer(tmp_path, capsys, caplog, labels):
    dsp.write_wav(tmp_path / "a.wav", dsp.Waveform(np.zeros(16000)))
    manifest = tmp_path / "data.jsonl"
    manifest.write_text(json.dumps({"wav": "a.wav", "labels": labels}) + "\n")
    code, out = run(capsys, ["pretrain", "--data", str(manifest),
                             "--out", str(tmp_path / "t")])
    assert code == 1 and out is None
    assert _logged_error(caplog, f"{manifest}: labels")
    assert not (tmp_path / "t" / "teacher.ckpt").exists()


@pytest.mark.parametrize("key, value", [
    ("meta/n_classes", np.zeros(0)),
    ("meta/channels", np.array([4, -6, 8, 10, 12])),
    ("meta/head_hidden", np.array([16, 16])),
    ("meta/embed_dim", np.array([8.5])),
    ("meta/embed_tap", np.array([-2])),
], ids=["empty", "negative_entry", "two_values", "not_integer",
        "negative_not_none"])
def test_malformed_meta_value_is_runtime_error(tmp_path, capsys, caplog,
                                               key, value):
    paths = _write_models(tmp_path)
    kind, tensors = nn.read_checkpoint(paths["weak"])
    tensors[key] = value
    nn.write_checkpoint(paths["weak"], kind, tensors)
    code, out = run(capsys, _argv("weak", paths, tmp_path))
    assert code == 1 and out is None
    assert _logged_error(caplog, str(paths["weak"]))


@pytest.mark.parametrize("tap", [-1, 2, None])
def test_strong_embed_tap_must_be_three(tmp_path, capsys, caplog, tap):
    # None: a checkpoint without the field
    paths = _write_models(tmp_path)
    kind, tensors = nn.read_checkpoint(paths["strong"])
    if tap is None:
        del tensors["meta/embed_tap"]
    else:
        tensors["meta/embed_tap"] = np.array([tap])
    nn.write_checkpoint(paths["strong"], kind, tensors)
    code, out = run(capsys, _argv("strong", paths, tmp_path))
    assert code == 1 and out is None
    assert _logged_error(caplog, str(paths["strong"]))
    if tap is None:
        assert _logged_error(caplog, "missing meta tensors: ['embed_tap']")


@pytest.mark.parametrize("model, key", [
    ("weak", "head_hidden"),
    ("strong", "embed_dim"),
    ("detector", "proj_dim"),
    ("detector", "n_conv"),
    ("student", "embed_dim"),
])
def test_huge_meta_size_is_runtime_error(tmp_path, capsys, caplog, model,
                                        key):
    # sizes are checked against the stored tensors before any allocation;
    # a weak model's embed_dim, which no tensor fixes, when train-strong
    # builds the strong model from it
    paths = _write_models(tmp_path)
    path = paths["weak" if model == "student" else model]
    kind, tensors = nn.read_checkpoint(path)
    tensors[f"meta/{key}"] = np.array([1e15])
    nn.write_checkpoint(path, kind, tensors)
    code, out = run(capsys, _argv(model, paths, tmp_path))
    assert code == 1 and out is None
    assert _logged_error(caplog, str(path) if model != "student"
                         else "is not in 1..4096")


# -- the scan window is the window trained on -----------------------------------

@pytest.mark.parametrize("curated_s", [0.36, 0.76, 1.0])
def test_detect_scans_the_trained_window(tmp_path, capsys, monkeypatch,
                                         curated_s):
    paths = _write_models(tmp_path)
    rng = np.random.default_rng(0)
    shots = []
    for k in range(2):
        shots.append(str(tmp_path / f"shot{k}.wav"))
        dsp.write_wav(shots[-1], dsp.Waveform(
            0.1 * rng.standard_normal(4 * 16000)))
    recording = dsp.Waveform(0.1 * rng.standard_normal(6 * 16000))
    dsp.write_wav(tmp_path / "rec.wav", recording)
    # curation of random-weight models is arbitrary: fix the window
    segments = [curation.Segment(k, 1.23, 1.23 + curated_s)
                for k in range(2)]
    monkeypatch.setattr(curation, "curate",
                        lambda shots, embed_fn, config=None: (segments, {}))
    trained = []
    train_detector = detector.train_detector

    def spy(train_set, config=None):
        trained.extend(s.frames.shape[0] for s in train_set)
        return train_detector(train_set, config)
    monkeypatch.setattr(detector, "train_detector", spy)

    code, out = run(capsys, ["--set", "detector.epochs=1",
                             "--set", "augment.n_time_shift=2",
                             "--set", "augment.n_masked=1",
                             "--set", "augment.n_shuffled=1",
                             "enroll", "--shots", *shots,
                             "--weak", str(paths["weak"]),
                             "--strong", str(paths["strong"]),
                             "--out", str(tmp_path / "e")])
    assert code == 0
    t = trained[0]
    assert set(trained) == {t} and t >= 4
    enrolled = tmp_path / "e"
    code, out = run(capsys, ["detect", "--recording", str(tmp_path / "rec.wav"),
                             "--detector", str(enrolled / "detector.ckpt"),
                             "--strong", str(paths["strong"]),
                             "--enrollment", str(enrolled / "enrollment.json")])
    assert code == 0
    strong = pretrain.StrongModel.load(paths["strong"])
    n_frames = pretrain.embed_frames(strong, recording).shape[0]
    assert out["n_windows"] == n_frames - t + 1


# -- detect reads the recording in blocks -------------------------------------

def test_detect_memory_does_not_grow_with_the_recording(tmp_path, capsys):
    # detect keeps E floats per 320 ms of the recording and one chunk of
    # everything else: its allocation peak on 4 minutes of 44.1 kHz audio
    # is within 10% of its peak on 1 minute
    paths = _write_models(tmp_path)
    (tmp_path / "enrollment.json").write_text(json.dumps({"window_s": 1.0}))
    rng = np.random.default_rng(3)
    minute = (3000.0 * rng.standard_normal(60 * 44100)).astype("<i2")

    def peak(minutes):
        path = tmp_path / f"rec{minutes}.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(44100)
            for _ in range(minutes):
                f.writeframes(minute.tobytes())
        tracemalloc.start()
        try:
            # no score reaches 1, so the summary lists no events
            code, out = run(capsys, [
                "detect", "--recording", str(path),
                "--detector", str(paths["detector"]),
                "--strong", str(paths["strong"]),
                "--enrollment", str(tmp_path / "enrollment.json"),
                "--threshold", "1"])
            assert code == 0 and out["events"] == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    four = peak(4)      # first, so tables made once count against it
    assert four <= 1.1 * peak(1)


# -- malformed enrollment and the dropped Δ-encoder flags ------------------------

@pytest.mark.parametrize("text", [
    "not json {",
    json.dumps({"segments": []}),
    json.dumps({"window_s": "abc"}),
    json.dumps({"window_s": 0}),
    json.dumps({"window_s": 1e305}),
    json.dumps({"window_s": 10 ** 400}),
], ids=["not_json", "no_window_s", "not_a_number", "zero",
        "infinite_sample_count", "huge_int"])
def test_malformed_enrollment_is_runtime_error(tmp_path, capsys, text):
    argv = _argv("detector", _write_models(tmp_path), tmp_path)
    (tmp_path / "enrollment.json").write_text(text)
    code, out = run(capsys, argv)
    assert code == 1 and out is None


def _malformed_json_argv(case, root):
    """A command whose named JSON input is malformed, the path of that
    input, and nothing else wrong before the command reads it."""
    paths = _write_models(root)
    if case in ("manifest_not_json", "manifest_without_wav"):
        bad = root / "data.jsonl"
        bad.write_text("not json\n" if case == "manifest_not_json"
                       else json.dumps({"labels": [0]}) + "\n")
        return ["pretrain", "--data", str(bad), "--out", str(root / "o")], bad
    models = ["--weak", str(paths["weak"]), "--strong", str(paths["strong"])]
    (root / "episode").mkdir()
    bad = root / "episode" / "episode.json"
    bad.write_text(json.dumps(
        {"enrollment": [{"wav": "e0.wav"}]} if case == "episode_without_eval"
        else {"enrollment": [{"wav": 5}],
              "eval": [{"wav": "p.wav", "label": 1}]}))
    return ["evaluate", "--episodes", str(root / "episode"), *models,
            "--out", str(root / "o")], bad


@pytest.mark.parametrize("case", [
    "manifest_not_json", "manifest_without_wav", "episode_without_eval",
    "episode_wav_not_a_string"])
def test_malformed_json_input_is_runtime_error(tmp_path, capsys, caplog,
                                               case):
    argv, bad = _malformed_json_argv(case, tmp_path)
    code, out = run(capsys, argv)
    assert code == 1 and out is None
    assert any(r.levelname == "ERROR" and str(bad) in r.getMessage()
               for r in caplog.records)


@pytest.mark.parametrize("flag", ["--delta", "--donors"],
                         ids=["delta", "donors"])
@pytest.mark.parametrize("command", ["enroll", "evaluate"])
def test_delta_flags_are_usage_error(tmp_path, capsys, command, flag):
    # the CLI offers no Δ-encoder: the flags are unknown options
    paths = _write_models(tmp_path)
    argv = [command, "--weak", str(paths["weak"]),
            "--strong", str(paths["strong"]), "--out", str(tmp_path / "o")]
    argv += (["--shots", str(tmp_path / "shot.wav")] if command == "enroll"
             else ["--episodes", str(tmp_path / "episode")])
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# -- train-strong labels its own clips; the strong model's stage count ------

def _student(root, channels):
    """An untrained student for the 3-class ``three_clips`` corpus."""
    path = root / "student.ckpt"
    pretrain.WeakModel(pretrain.ModelConfig(
        n_classes=3, channels=channels, head_hidden=16,
        embed_dim=8)).save(path)
    return path


def _train_strong(capsys, root, labeler, student, data):
    return run(capsys, ["--set", "train.epochs=1", "train-strong",
                        "--data", str(data), "--labeler", str(labeler),
                        "--student", str(student),
                        "--out", str(root / "strong")])


def test_train_strong_trains_on_reference_labels(tmp_path, capsys,
                                                 three_clips):
    # a labeler whose labels mix 0 and 1, and another model as the student:
    # the checkpoint is train_strong's on the labels of every window run
    # through the whole labeler on its own
    records = pretrain.load_manifest(three_clips)
    labeler = pretrain.WeakModel(pretrain.ModelConfig(
        n_classes=3, channels=(4, 6, 8, 10, 12), head_hidden=16))
    split_labels(labeler, [r.load() for r in records])
    labeler.save(tmp_path / "weak.ckpt")
    labeler = pretrain.WeakModel.load(tmp_path / "weak.ckpt")   # f32 bias
    student = _student(tmp_path, (4, 6, 8, 10, 12))
    code, out = _train_strong(capsys, tmp_path, tmp_path / "weak.ckpt",
                              student, three_clips)
    pseudo = [pretrain.PseudoStrongLabels(labels=(pretrain.sigmoid(
        pseudo_logits_per_window(labeler, r.load()))
        > pretrain.PSEUDO_THRESHOLD).astype(np.uint8)) for r in records]
    labels = np.concatenate([psl.labels for psl in pseudo])
    assert code == 0 and out["positive_rate"] == labels.mean()
    assert 0 < labels.mean() < 1
    want = pretrain.train_strong(pretrain.WeakModel.load(student), records,
                                 pseudo, pretrain.TrainConfig(epochs=1))
    want.save(tmp_path / "want.ckpt")
    assert (tmp_path / "strong" / "strong.ckpt").read_bytes() == \
        (tmp_path / "want.ckpt").read_bytes()


def test_train_strong_from_three_stage_student_is_runtime_error(
        tmp_path, capsys, caplog, three_clips):
    student = _student(tmp_path, (4, 6, 8))
    code, out = _train_strong(capsys, tmp_path, student, student,
                              three_clips)
    assert code == 1 and out is None
    assert not (tmp_path / "strong" / "strong.ckpt").exists()
    assert _logged_error(caplog, "strong model of 3 stages")


def test_train_strong_on_empty_data_is_runtime_error(tmp_path, capsys):
    # an empty manifest leaves no clip to label or train on
    code, out = run(capsys, _argv("student", _write_models(tmp_path),
                                  tmp_path))
    assert code == 1 and out is None
    assert not (tmp_path / "o" / "strong.ckpt").exists()


def test_detect_with_three_stage_strong_checkpoint_names_the_file(
        tmp_path, capsys, caplog):
    paths = _write_models(tmp_path)
    kind, tensors = nn.read_checkpoint(paths["strong"])
    tensors = {k: v for k, v in tensors.items()
               if not k.startswith(("backbone/conv3/", "backbone/conv4/"))}
    tensors["meta/channels"] = np.array([4, 6, 8])
    tensors["neck/neck/W"] = tensors["neck/neck/W"][:, :8]
    nn.write_checkpoint(paths["strong"], kind, tensors)
    code, out = run(capsys, _argv("detector", paths, tmp_path))
    assert code == 1 and out is None
    assert _logged_error(caplog,
                         f"{paths['strong']}: strong model of 3 stages")


@pytest.mark.parametrize("label", [2, True])
def test_evaluate_episode_label_must_be_zero_or_one(tmp_path, capsys,
                                                    caplog, label):
    paths = _write_models(tmp_path)
    (tmp_path / "episode").mkdir()
    descriptor = tmp_path / "episode" / "episode.json"
    descriptor.write_text(json.dumps({
        "enrollment": [{"wav": "e0.wav"}],
        "eval": [{"wav": "p.wav", "label": label}]}))
    code, out = run(capsys, ["evaluate", "--episodes",
                             str(tmp_path / "episode"),
                             "--weak", str(paths["weak"]),
                             "--strong", str(paths["strong"]),
                             "--out", str(tmp_path / "o")])
    assert code == 1 and out is None
    assert _logged_error(caplog, f"{descriptor}: eval label")
