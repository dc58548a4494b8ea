"""Run configuration: JSON file plus dotted command-line overrides,
validated against a schema of known keys and echoed into output
directories for reproducibility.  The defaults are read from the
library configs each table feeds."""

import dataclasses
import json
import math
from pathlib import Path

from . import augment, corpus, detector, evaluate, pretrain
from .errors import ConfigError


def _table(*classes):
    """The settable fields of library configs and their defaults: every
    field whose default is not ``None``, less ``seed``, which the run
    seed sets.  A tuple default becomes a list, as JSON holds it."""
    return {f.name: list(f.default) if isinstance(f.default, tuple)
            else f.default
            for cls in classes for f in dataclasses.fields(cls)
            if f.name != "seed" and f.default is not None
            and f.default is not dataclasses.MISSING}


DEFAULTS = {
    "seed": 0,
    "corpus": _table(corpus.PretrainConfig),
    "model": _table(pretrain.ModelConfig),
    "train": _table(pretrain.TrainConfig),
    "distill": {"channels": [8, 16, 24, 32, 64]},   # the student's backbone
    "augment": _table(augment.AugmentConfig),
    "detector": _table(detector.DetectorTrainConfig),
    "evaluate": {"reps": evaluate.REPS},
}

MAY_BE_ZERO = {"seed", "augment.n_time_shift", "augment.n_masked",
               "augment.n_shuffled"}


def _merge(base, update, path=""):
    out = dict(base)
    for key, value in update.items():
        full = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {full}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, full + ".")
        else:
            out[key] = value          # a value for a table fails _check
    return out


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _override(dotted):
    """``KEY.SUBKEY=VALUE`` as the nested table ``_merge`` overlays."""
    if "=" not in dotted:
        raise ConfigError(f"override {dotted!r} is not KEY=VALUE")
    key, _, raw = dotted.partition("=")
    value = _parse_value(raw.strip())
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


def _check(name, value, default):
    """Raise ConfigError unless ``value`` has the type of ``default`` (an
    int may stand for a float, a bool for nothing else; a list holds at
    least one element of its default's element type) and every number in
    it is finite and above 0, or at least 0 where ``MAY_BE_ZERO``."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a table, got {value!r}")
        for key, sub in default.items():
            _check(f"{name}.{key}" if name else key, value[key], sub)
    elif isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, "
                              f"got {value!r}")
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", item, default[0])
    elif isinstance(value, bool) != isinstance(default, bool) \
            or not isinstance(value, (int, float) if isinstance(default, float)
                              else type(default)):
        raise ConfigError(f"{name} must be of type {type(default).__name__}"
                          f", got {value!r}")
    elif not isinstance(value, bool):
        zero_ok = name in MAY_BE_ZERO
        if not math.isfinite(value) or value < 0 or value == 0 and not zero_ok:
            raise ConfigError(f"{name} must be above 0{' or 0' * zero_ok}, "
                              f"got {value!r}")


def load_config(path=None, overrides=(), seed=None):
    """Defaults, overlaid by a JSON file, then by each KEY.SUBKEY=VALUE
    pair the same way (a table value merges key by key); every value
    must pass ``_check`` against its default."""
    cfg = json.loads(json.dumps(DEFAULTS))     # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge(cfg, user)
    for item in overrides:
        cfg = _merge(cfg, _override(item))
    if seed is not None:
        cfg["seed"] = int(seed)
    _check("", cfg, DEFAULTS)
    return cfg


def echo_config(cfg, out_dir):
    """Write the resolved configuration next to a run's outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return path
