import json

import numpy as np
import pytest

from seqshot import (augment, cli, corpus, curation, detector, dsp, nn,
                     pretrain)

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

    # pseudo labels
    code, out = run(capsys, ["pseudolabel", "--data", manifest,
                             "--model", student,
                             "--out", str(root / "psl")])
    assert code == 0
    assert out["clips"] == 8
    assert 0.0 <= out["positive_rate"] <= 1.0
    assert (root / "psl" / "pseudo_manifest.jsonl").exists()

    # frame-level model
    code, out = run(capsys, [*TINY_CORPUS, *TINY_MODEL, *FAST_TRAIN,
                             "train-strong", "--data", manifest,
                             "--student", student,
                             "--pseudo", str(root / "psl"),
                             "--out", str(root / "strong")])
    assert code == 0
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
    assert out["train_items"] == 3 * (1 + 8 + 8 + 8)   # no delta model given
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


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    code, _ = run(capsys, ["pretrain", "--data",
                           str(tmp_path / "absent.jsonl"),
                           "--out", str(tmp_path / "o")])
    assert code == 1


def test_bad_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# -- malformed checkpoints ----------------------------------------------------------

TINY_CONFIG = pretrain.ModelConfig(n_classes=2, channels=(4, 6, 8, 10, 12),
                                   head_hidden=16, embed_dim=8)


def _write_models(root):
    paths = {k: root / f"{k}.ckpt"
             for k in ("weak", "strong", "delta", "detector")}
    pretrain.WeakModel(TINY_CONFIG).save(paths["weak"])
    pretrain.StrongModel(TINY_CONFIG).save(paths["strong"])
    augment.DeltaEncoder(8).save(paths["delta"])
    # the strong model's frames tap stage 3: 8 channels x 8 frequency bins
    detector.DetectorNet(detector.DetectorConfig(embed_dim=64)).save(
        paths["detector"])
    return paths


def _corrupt(path, fault):
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
    else:   # the first meta tensor is one the loader needs
        del tensors[next(k for k in tensors if k.startswith("meta/"))]
    nn.write_checkpoint(path, kind, tensors)


def _argv(model, paths, root):
    """A command that loads ``model`` before it reads any audio."""
    if model == "weak":
        (root / "empty.jsonl").write_text("")
        return ["pseudolabel", "--data", str(root / "empty.jsonl"),
                "--model", str(paths["weak"]), "--out", str(root / "o")]
    if model == "student":
        (root / "empty.jsonl").write_text("")
        (root / "pseudo").mkdir()
        (root / "pseudo" / "pseudo_manifest.jsonl").write_text("")
        return ["train-strong", "--data", str(root / "empty.jsonl"),
                "--student", str(paths["weak"]),
                "--pseudo", str(root / "pseudo"), "--out", str(root / "o")]
    if model == "delta":
        return ["enroll", "--shots", str(root / "shot.wav"),
                "--weak", str(paths["weak"]), "--strong", str(paths["strong"]),
                "--delta", str(paths["delta"]), "--out", str(root / "o")]
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
                                   "shape", "rank", "missing_meta"])
@pytest.mark.parametrize("model", ["weak", "strong", "delta", "detector"])
def test_malformed_checkpoint_is_runtime_error(tmp_path, capsys, model,
                                               fault):
    paths = _write_models(tmp_path)
    _corrupt(paths[model], fault)
    code, out = run(capsys, _argv(model, paths, tmp_path))
    assert code == 1 and out is None


@pytest.mark.parametrize("key, value", [
    ("meta/n_classes", np.zeros(0)),
    ("meta/channels", np.array([4, -6, 8, 10, 12])),
    ("meta/head_hidden", np.array([16, 16])),
    ("meta/embed_dim", np.array([8.5])),
    ("meta/embed_tap", np.array([-2])),
], ids=["empty", "negative_entry", "two_values", "not_integer",
        "negative_not_none"])
def test_malformed_meta_value_is_runtime_error(tmp_path, capsys, key,
                                               value):
    paths = _write_models(tmp_path)
    kind, tensors = nn.read_checkpoint(paths["weak"])
    tensors[key] = value
    nn.write_checkpoint(paths["weak"], kind, tensors)
    code, out = run(capsys, _argv("weak", paths, tmp_path))
    assert code == 1 and out is None


@pytest.mark.parametrize("model, key", [
    ("weak", "head_hidden"),
    ("strong", "embed_dim"),
    ("delta", "hidden"),
    ("detector", "proj_dim"),
    ("detector", "n_conv"),
    ("student", "embed_dim"),
])
def test_huge_meta_size_is_runtime_error(tmp_path, capsys, model, key):
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


# -- malformed enrollment and half-given Δ-encoder flags -------------------------

@pytest.mark.parametrize("text", [
    "not json {",
    json.dumps({"segments": []}),
    json.dumps({"window_s": "abc"}),
    json.dumps({"window_s": 0}),
], ids=["not_json", "no_window_s", "not_a_number", "zero"])
def test_malformed_enrollment_is_runtime_error(tmp_path, capsys, text):
    argv = _argv("detector", _write_models(tmp_path), tmp_path)
    (tmp_path / "enrollment.json").write_text(text)
    code, out = run(capsys, argv)
    assert code == 1 and out is None


@pytest.mark.parametrize("given", ["delta", "donors"])
@pytest.mark.parametrize("command", ["enroll", "evaluate"])
def test_half_given_delta_flags_are_usage_error(tmp_path, capsys, command,
                                                given):
    paths = _write_models(tmp_path)
    argv = [command, "--weak", str(paths["weak"]),
            "--strong", str(paths["strong"]), "--out", str(tmp_path / "o")]
    argv += (["--shots", str(tmp_path / "shot.wav")] if command == "enroll"
             else ["--episodes", str(tmp_path / "episode")])
    argv += (["--delta", str(paths["delta"])] if given == "delta"
             else ["--donors", str(tmp_path / "donors")])
    code, out = run(capsys, argv)
    assert code == 2 and out is None
