import dataclasses
import inspect
import json

import pytest

from seqshot import augment, config, corpus, detector, evaluate, pretrain
from seqshot.errors import ConfigError


def _fields(*classes):
    return {f.name: f.default for cls in classes
            for f in dataclasses.fields(cls)}


def _params(fn):
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()}


@pytest.mark.parametrize("table, library", [
    ("train", _fields(pretrain.TrainConfig)),
    ("model", _fields(pretrain.ModelConfig)),
    ("augment", _fields(augment.AugmentConfig)),
    ("detector", _fields(detector.DetectorTrainConfig)),
    ("corpus", _fields(corpus.PretrainConfig)),
    ("evaluate", _params(evaluate.run_episode)),
])
def test_defaults_agree_with_library(table, library):
    # each table is read from the library config it feeds
    cli_defaults = {k: tuple(v) if isinstance(v, list) else v
                    for k, v in config.DEFAULTS[table].items()}
    assert cli_defaults == {k: library[k] for k in cli_defaults}


TABLE_KEYS = {
    "corpus": {"n_classes", "clips_per_class", "clip_duration_s"},
    "model": {"channels", "head_hidden", "embed_dim"},
    "train": {"epochs", "batch_size", "crop_frames", "augment"},
    "distill": {"channels"},
    "augment": {"n_time_shift", "n_masked", "n_shuffled"},
    "detector": {"epochs"},
    "evaluate": {"reps"},
}


def test_table_keys_are_pinned():
    # the 17 settable values: a new field of a library config is a new CLI
    # option, so it must show up here, not slip into the tables unseen
    assert set(config.DEFAULTS) == {"seed", *TABLE_KEYS}
    assert {t: set(config.DEFAULTS[t]) for t in TABLE_KEYS} == TABLE_KEYS


def test_defaults_returned_without_file():
    cfg = config.load_config()
    assert cfg["train"]["epochs"] == 30
    assert cfg["detector"]["epochs"] == 200
    # the student's backbone has no library default: config.py sets it
    assert cfg["distill"]["channels"] == [8, 16, 24, 32, 64]
    assert cfg["seed"] == 0


def test_file_merges_over_defaults(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"train": {"epochs": 3}, "seed": 9}))
    cfg = config.load_config(p)
    assert cfg["train"]["epochs"] == 3
    assert cfg["train"]["batch_size"] == 32     # untouched default
    assert cfg["seed"] == 9


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"train": {"epochz": 3}}))
    with pytest.raises(ConfigError, match="train.epochz"):
        config.load_config(p)
    p.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(ConfigError, match="mystery"):
        config.load_config(p)


def test_overrides_parse_types():
    cfg = config.load_config(overrides=["train.epochs=5",
                                        "train.augment=false",
                                        "corpus.clip_duration_s=2.5",
                                        "model.channels=[2,3,4,5,6]"])
    assert cfg["train"]["epochs"] == 5
    assert cfg["train"]["augment"] is False
    assert cfg["corpus"]["clip_duration_s"] == 2.5
    assert cfg["model"]["channels"] == [2, 3, 4, 5, 6]


def test_override_errors():
    with pytest.raises(ConfigError):
        config.load_config(overrides=["train.epochs"])
    with pytest.raises(ConfigError):
        config.load_config(overrides=["nope.epochs=1"])
    with pytest.raises(ConfigError):
        config.load_config(overrides=["train=1"])


def test_table_override_merges_over_defaults():
    cfg = config.load_config(overrides=['train={"epochs": 3}'])
    defaults = config.load_config()
    assert cfg["train"] == {**defaults["train"], "epochs": 3}


def test_unknown_key_in_table_override_rejected():
    with pytest.raises(ConfigError, match="train.epochz"):
        config.load_config(overrides=['train={"epochz": 3}'])


def test_seed_argument_wins(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 4}))
    assert config.load_config(p, seed=11)["seed"] == 11


def test_echo_roundtrip(tmp_path):
    cfg = config.load_config(overrides=["train.epochs=2"])
    path = config.echo_config(cfg, tmp_path / "run")
    assert json.loads(path.read_text()) == cfg


def test_malformed_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        config.load_config(p)


@pytest.mark.parametrize("override", [
    "train.epochs=2.5", "train.augment=1", "corpus.clip_duration_s=0",
    "corpus.clip_duration_s=Infinity", "model.channels=[]",
    "model.channels=[8,true]", "seed=-1", "train=3",
])
def test_bad_values_rejected(override):
    with pytest.raises(ConfigError):
        config.load_config(overrides=[override])


def test_edge_values_accepted():
    cfg = config.load_config(overrides=["corpus.clip_duration_s=1",
                                        "augment.n_masked=0"])
    assert cfg["corpus"]["clip_duration_s"] == 1
    assert cfg["augment"]["n_masked"] == 0
