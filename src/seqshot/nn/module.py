"""Trained models: named graphs plus a config, one checkpoint layout and
one AdamW loop for all of them."""

import dataclasses

import numpy as np

from ..errors import FormatError, SeqshotError, UnknownTensorError

# calls go through the package, so a wrapper set on ``nn`` (a profiler,
# say) sees every optimizer step and checkpoint read or write
from .. import nn


def _encode(value):
    """A meta field as stored: an int or a tuple of ints."""
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def _decode(name, arr, as_tuple):
    """A stored meta field back as its value.  Raises FormatError unless
    it holds whole numbers >= 0, at least one, and exactly one for a
    field that is not a tuple."""
    values = arr.reshape(-1)
    if values.size == 0 or (not as_tuple and values.size != 1):
        raise FormatError(f"meta/{name} holds {values.size} values")
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
    order; a checkpoint must hold every one of them), and pass
    their graphs, in file order, to ``__init__``, which makes each an
    attribute.  Parameters are named ``<graph>/<layer>/<param>``; a
    module of one graph leaves the graph name out.

    ``forward``/``backward`` chain the graphs in order; a module whose
    graphs are not a chain overrides both.

    ``stored_sizes`` says which ``META`` sizes the stored tensors fix;
    ``load`` compares them before it builds (allocates) anything.

    All parameters are held in one flat array, ``flat_params``, and their
    gradients in another, ``flat_grads``; the layers keep views of them.
    """

    KIND = None
    CONFIG = None
    META = ()

    def __init__(self, config, **graphs):
        self.config = config
        self.graphs = graphs
        for name, graph in graphs.items():
            setattr(self, name, graph)
        held = [(layer, key) for graph in graphs.values()
                for layer in graph.layers for key in layer.params]
        sizes = [layer.params[key].size for layer, key in held]
        self.flat_params = np.empty(sum(sizes))
        self.flat_grads = np.empty(sum(sizes))
        end = 0
        for (layer, key), size in zip(held, sizes):
            layer.bind(key, self.flat_params[end: end + size],
                       self.flat_grads[end: end + size])
            end += size

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
        input) is not computed: no caller reads it.
        """
        graphs = list(self.graphs.values())
        for i in reversed(range(len(graphs))):
            dy = graphs[i].backward(cache[i], dy, input_grad=i > 0)

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
        self.flat_grads.fill(0.0)

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
        """The one checkpoint loader.  FormatError is raised for another
        kind, a missing or malformed ``META`` field, a size that differs
        from what the stored tensors fix (``stored_sizes``, compared before
        the module is built, so a checkpoint cannot make the loader
        allocate more than the tensors it holds) and a missing or
        misshapen parameter; UnknownTensorError for any other tensor.
        Every error names ``path``."""
        kind, tensors = nn.read_checkpoint(path)    # its errors name path
        try:
            return cls._from_tensors(kind, tensors)
        except SeqshotError as e:
            raise type(e)(f"{path}: {e}") from e

    @classmethod
    def _from_tensors(cls, kind, tensors):
        if kind != cls.KIND:
            raise FormatError(f"checkpoint kind {kind!r}, expected "
                              f"{cls.KIND!r}")
        meta = {k[len("meta/"):]: v for k, v in tensors.items()
                if k.startswith("meta/")}
        stray = sorted(set(meta) - set(cls.META))
        if stray:
            raise UnknownTensorError(f"unknown tensor meta/{stray[0]}")
        missing = sorted(set(cls.META) - set(meta))
        if missing:
            raise FormatError(f"checkpoint missing meta tensors: {missing}")
        tuples = {f.name for f in dataclasses.fields(cls.CONFIG)
                  if f.type is tuple}
        fields = {f: _decode(f, meta[f], f in tuples) for f in cls.META}
        shapes = {k: v.shape for k, v in tensors.items()
                  if not k.startswith("meta/")}
        try:
            stored = cls.stored_sizes(shapes)
        except (KeyError, IndexError) as e:  # a tensor missing or of low rank
            raise FormatError(f"stored tensors: {e!r}") from e
        for f, value in stored.items():
            if fields[f] != value:
                raise FormatError(f"meta/{f} {fields[f]} does not match "
                                  f"the stored tensors ({value})")
        model = cls.from_meta(fields)
        params = model.params()
        for name, shape in shapes.items():
            if name not in params:
                raise UnknownTensorError(f"unknown tensor {name!r}")
            if params[name].shape != shape:
                raise FormatError(
                    f"tensor {name!r} shape {shape} != {params[name].shape}")
        missing = sorted(set(params) - set(shapes))
        if missing:
            raise FormatError(f"checkpoint missing tensors: {missing}")
        for name, arr in params.items():
            arr[...] = tensors[name]
        model.mark_updated()
        return model


def fit(module, epochs, batches, step_loss, lr, weight_decay):
    """Train ``module`` with AdamW; returns the mean loss of each epoch.

    Each epoch iterates ``batches()``.  Per batch the gradients are
    zeroed, ``step_loss(batch)`` runs forward and backward and returns
    the loss, and one AdamW step is taken at learning rate ``lr(step)``,
    with ``step`` counting batches from 0 over the whole run.  The step
    updates the flat parameter array as one tensor: AdamW acts element
    by element, so this equals a step per parameter bit for bit.  A
    ``step_loss`` that keeps no reference to its activations frees them
    before the next batch is built.
    """
    state = nn.adamw_init(module.flat_params)
    curve, step = [], 0
    for _ in range(epochs):
        total, n = 0.0, 0
        for batch in batches():
            module.zero_grads()
            loss = step_loss(batch)
            nn.adamw_step(module.flat_params, module.flat_grads, state,
                          lr(step), weight_decay)
            module.mark_updated()
            total += loss
            n += 1
            step += 1
        curve.append(total / n)
    return curve
