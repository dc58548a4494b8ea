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

    def __getitem__(self, name):
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)

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

    def backward(self, cache, dy, features=True):
        """Backprop dL/dy; accumulates parameter grads, returns input grad.

        ``feature_grads[name]`` is the loss gradient at layer ``name``'s
        output; ``feature_grads["input"]`` aliases the returned dx.  With
        ``features=False`` it stays empty, so each layer's output gradient
        is freed once the layer below has used it.
        """
        if cache.graph is not self or cache.version != self.version:
            raise StaleCacheError("activation cache is stale for this graph")
        if dy.shape != cache.output.shape:
            raise ShapeError(
                f"dy shape {dy.shape} != output shape {cache.output.shape}"
            )
        feature_grads = {}
        g = dy
        for layer, c in zip(reversed(self.layers), reversed(cache.layer_caches)):
            if features:
                feature_grads[layer.name] = g
            g = layer.backward(c, g)
        if features:
            feature_grads["input"] = g
        return BackwardResult(dx=g, feature_grads=feature_grads)

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
