"""Trained models: named graphs plus a config, one checkpoint layout and
one AdamW loop for all of them."""

import dataclasses

import numpy as np

from ..errors import FormatError

# calls go through the package, so a wrapper set on ``nn`` (a profiler,
# say) sees every optimizer step and checkpoint read or write
from .. import nn


def _encode(value):
    """A meta field as stored: an int, a tuple of ints, or None as -1."""
    return np.atleast_1d(np.asarray(-1 if value is None else value,
                                    dtype=np.float64))


def _decode(name, arr, as_tuple, nullable):
    """A stored meta field back as its value.  Raises FormatError unless
    it holds whole numbers >= 0, at least one, and exactly one for a
    field that is not a tuple; -1 reads as None where ``nullable``."""
    values = arr.reshape(-1)
    if values.size == 0 or (not as_tuple and values.size != 1):
        raise FormatError(f"meta/{name} holds {values.size} values")
    if nullable and values[0] == -1:
        return None
    if not np.all(np.isfinite(values) & (values >= 0)
                  & (values == np.floor(values))):
        raise FormatError(f"meta/{name} {values.tolist()} is negative or "
                          f"not whole")
    ints = tuple(int(v) for v in values)
    return ints if as_tuple else ints[0]


class Module:
    """A model made of named ``Graph``s and a config dataclass.

    Subclasses set ``KIND`` (the checkpoint kind), ``CONFIG`` (the config
    class) and ``META`` (the fields stored as ``meta/<field>``, in file
    order; those in ``OPTIONAL_META`` may be missing from a checkpoint
    and then take the config's default, those in ``NULLABLE_META`` may
    be None), and pass their graphs, in file order, to ``__init__``,
    which makes each an attribute.  Parameters are named
    ``<graph>/<layer>/<param>``; a module of one graph leaves the graph
    name out.

    ``forward``/``backward`` chain the graphs in order; a module whose
    graphs are not a chain overrides both.
    """

    KIND = None
    CONFIG = None
    META = ()
    OPTIONAL_META = ()
    NULLABLE_META = ()

    def __init__(self, config, **graphs):
        self.config = config
        self.graphs = graphs
        for name, graph in graphs.items():
            setattr(self, name, graph)

    def forward(self, x):
        """Run the graphs in order; returns (output, cache)."""
        caches = []
        for graph in self.graphs.values():
            x, cache = graph.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, cache, dy):
        """Accumulate parameter gradients; returns the input gradient.

        No per-layer output gradient is kept (``features=False``).
        """
        for graph, c in zip(reversed(list(self.graphs.values())),
                            reversed(cache)):
            dy = graph.backward(c, dy, features=False).dx
        return dy

    # -- parameters ------------------------------------------------------------

    def _named(self, attr):
        one = len(self.graphs) == 1
        return {k if one else f"{name}/{k}": v
                for name, graph in self.graphs.items()
                for k, v in getattr(graph, attr)().items()}

    def params(self):
        return self._named("params")

    def grads(self):
        return self._named("grads")

    def zero_grads(self):
        for graph in self.graphs.values():
            graph.zero_grads()

    def mark_updated(self):
        """Invalidate outstanding forward caches after a parameter write."""
        for graph in self.graphs.values():
            graph.mark_updated()

    # -- checkpoints -----------------------------------------------------------

    def meta(self):
        """Field -> value of every ``META`` field."""
        return {f: getattr(self.config, f) for f in self.META}

    @classmethod
    def from_meta(cls, fields):
        """A fresh module from the decoded ``meta/`` fields."""
        return cls(cls.CONFIG(**fields))

    def save(self, path):
        meta = {f"meta/{k}": _encode(v) for k, v in self.meta().items()}
        nn.write_checkpoint(path, self.KIND, {**self.params(), **meta})

    @classmethod
    def load(cls, path):
        """Load through ``nn.load_params``, which checks every tensor."""
        tuples = {f.name for f in dataclasses.fields(cls.CONFIG)
                  if f.type is tuple}

        def build(meta):
            return cls.from_meta({
                f: _decode(f, meta[f"meta/{f}"], f in tuples,
                           f in cls.NULLABLE_META)
                for f in cls.META if f"meta/{f}" in meta})
        required = tuple(f"meta/{f}" for f in cls.META
                         if f not in cls.OPTIONAL_META)
        return nn.load_params(nn.read_checkpoint(path), cls.KIND, build,
                              required)


def fit(module, epochs, batches, step_loss, lr, weight_decay):
    """Train ``module`` with AdamW; returns the mean loss of each epoch.

    Each epoch iterates ``batches()``.  Per batch the gradients are
    zeroed, ``step_loss(batch)`` runs forward and backward and returns
    the loss, and one AdamW step is taken at learning rate ``lr(step)``,
    with ``step`` counting batches from 0 over the whole run.  A
    ``step_loss`` that keeps no reference to its activations frees them
    before the next batch is built.
    """
    params = module.params()
    state = nn.adamw_init(params)
    curve, step = [], 0
    for _ in range(epochs):
        total, n = 0.0, 0
        for batch in batches():
            module.zero_grads()
            loss = step_loss(batch)
            nn.adamw_step(params, module.grads(), state, lr(step),
                          weight_decay)
            module.mark_updated()
            total += loss
            n += 1
            step += 1
        curve.append(total / n)
    return curve
