"""Minimal dense/conv NN engine with reverse-mode differentiation.

Layers operate on plain numpy arrays.  Conventions:
  - 1-d feature maps are (batch, channels, time)
  - 2-d feature maps are (batch, channels, time, freq)
  - Linear acts on the last axis, any number of leading axes.

All models in this package are feedforward chains, so a ``Graph`` is an
ordered layer list rather than a general tape.
"""

from .layers import (
    Layer,
    Linear,
    Conv1d,
    Conv2d,
    ReLU,
    Sigmoid,
    MeanOverTime,
    MeanOverFreq,
    GlobalChannelPool,
)
from .graph import Graph, BackwardResult
from .optim import adamw_init, adamw_step, one_cycle_lr
from .checkpoint import (
    write_checkpoint,
    read_checkpoint,
    save_checkpoint,
    load_checkpoint,
    load_params,
)

__all__ = [
    "Layer",
    "Linear",
    "Conv1d",
    "Conv2d",
    "ReLU",
    "Sigmoid",
    "MeanOverTime",
    "MeanOverFreq",
    "GlobalChannelPool",
    "Graph",
    "BackwardResult",
    "adamw_init",
    "adamw_step",
    "one_cycle_lr",
    "write_checkpoint",
    "read_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_params",
]
