"""Static layer-list graph with forward caching and reverse-mode backward."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import SeqshotError, ShapeError, StaleCacheError


@dataclass
class ForwardCache:
    graph: "Graph"
    version: int
    layer_caches: list
    output: np.ndarray


@dataclass
class BackwardResult:
    """Gradient w.r.t. the graph input plus per-layer output gradients."""

    dx: np.ndarray
    feature_grads: dict = field(default_factory=dict)


class Graph:
    def __init__(self, layers):
        names = [l.name for l in layers]
        if len(set(names)) != len(names):
            raise SeqshotError(f"duplicate layer names: {names}")
        self.layers = list(layers)
        self.version = 0

    def forward(self, x):
        caches = []
        h = x
        for layer in self.layers:
            try:
                h, c = layer.forward(h)
            except ShapeError:
                raise
            except ValueError as e:
                raise ShapeError(f"{layer.name}: {e}") from e
            caches.append(c)
        return h, ForwardCache(self, self.version, caches, h)

    def backward(self, cache, dy, features=True, input_grad=True,
                 param_grads=True):
        """Backprop dL/dy; accumulates parameter grads, returns input grad.

        ``feature_grads[name]`` is the loss gradient at layer ``name``'s
        output; ``feature_grads["input"]`` aliases the returned dx.  With
        ``features=False`` it stays empty, so each layer's output gradient
        is freed once the layer below has used it.  ``input_grad=False``
        skips the first layer's input gradient (dx is None and
        ``feature_grads`` has no ``"input"``); ``param_grads=False`` leaves
        every parameter gradient untouched.
        """
        self._check(cache, dy)
        feature_grads = {}
        g = dy
        last = len(self.layers) - 1
        for i, (layer, c) in enumerate(zip(reversed(self.layers),
                                           reversed(cache.layer_caches))):
            if features:
                feature_grads[layer.name] = g
            g = layer.backward(c, g, input_grad=input_grad or i < last,
                               param_grads=param_grads)
        if features and g is not None:
            feature_grads["input"] = g
        return BackwardResult(dx=g, feature_grads=feature_grads)

    def backward_params(self, cache, output_grads):
        """Accumulate each layer's parameter gradients from the loss
        gradient at its output, ``output_grads[name]``, without
        propagating further down.  For a loss whose output gradients are
        known per layer, as ``detector.detector_loss`` knows them from
        one input-gradient pass."""
        self._check(cache)
        for layer, c in zip(self.layers, cache.layer_caches):
            if layer.params:
                layer.backward(c, output_grads[layer.name], input_grad=False)

    def _check(self, cache, dy=None):
        if cache.graph is not self or cache.version != self.version:
            raise StaleCacheError("activation cache is stale for this graph")
        if dy is not None and dy.shape != cache.output.shape:
            raise ShapeError(
                f"dy shape {dy.shape} != output shape {cache.output.shape}"
            )

    # -- parameter access ---------------------------------------------------

    def params(self):
        return {
            f"{l.name}/{k}": v for l in self.layers for k, v in l.params.items()
        }

    def grads(self):
        return {
            f"{l.name}/{k}": v for l in self.layers for k, v in l.grads.items()
        }

    def zero_grads(self):
        for l in self.layers:
            l.zero_grads()

    def mark_updated(self):
        """Invalidate outstanding forward caches after a parameter write."""
        self.version += 1
