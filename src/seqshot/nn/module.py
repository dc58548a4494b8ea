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

    ``stored_sizes`` says which ``META`` sizes the stored tensors fix;
    ``load`` compares them before it builds (allocates) anything.
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
        """Accumulate parameter gradients.

        The first graph's input gradient (the gradient at the model's
        input) is not computed: no caller reads it.  No per-layer output
        gradient is kept (``features=False``).
        """
        graphs = list(self.graphs.values())
        for i in reversed(range(len(graphs))):
            dy = graphs[i].backward(cache[i], dy, features=False,
                                    input_grad=i > 0).dx

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

    @classmethod
    def stored_sizes(cls, shapes):
        """Field -> value of the ``META`` sizes that the parameter shapes
        ``shapes`` (name -> shape) fix.  Raises KeyError for a tensor it
        needs that is missing, IndexError for one of too low a rank."""
        return {}

    @staticmethod
    def numbered_shapes(shapes, pattern):
        """Shapes of ``pattern.format(0)``, ``pattern.format(1)``, ... up
        to the first name ``shapes`` lacks."""
        found = []
        while pattern.format(len(found)) in shapes:
            found.append(shapes[pattern.format(len(found))])
        return found

    def save(self, path):
        meta = {f"meta/{k}": _encode(v) for k, v in self.meta().items()}
        nn.write_checkpoint(path, self.KIND, {**self.params(), **meta})

    @classmethod
    def load(cls, path):
        """Load through ``nn.load_params``, which checks every tensor.

        Every ``meta/`` size must equal what the stored tensors fix
        (``stored_sizes``), or FormatError is raised before the module is
        built, so a checkpoint cannot make the loader allocate more than
        the tensors it holds.
        """
        tuples = {f.name for f in dataclasses.fields(cls.CONFIG)
                  if f.type is tuple}
        checkpoint = nn.read_checkpoint(path)
        shapes = {k: v.shape for k, v in checkpoint[1].items()
                  if not k.startswith("meta/")}

        def build(meta):
            fields = {f: _decode(f, meta[f"meta/{f}"], f in tuples,
                                 f in cls.NULLABLE_META)
                      for f in cls.META if f"meta/{f}" in meta}
            try:
                stored = cls.stored_sizes(shapes)
            except KeyError as e:
                raise FormatError(f"checkpoint missing tensor {e}") from None
            except IndexError:
                raise FormatError("checkpoint tensor of too low a rank") \
                    from None
            for f, value in stored.items():
                if f in fields and fields[f] != value:
                    raise FormatError(f"meta/{f} {fields[f]} does not match "
                                      f"the stored tensors ({value})")
            return cls.from_meta(fields)
        required = tuple(f"meta/{f}" for f in cls.META
                         if f not in cls.OPTIONAL_META)
        return nn.load_params(checkpoint, cls.KIND, build, required)


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
