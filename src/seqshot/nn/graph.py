"""Static layer-list graph with forward caching and reverse-mode backward."""

from dataclasses import dataclass

import numpy as np

from ..errors import SeqshotError, ShapeError, StaleCacheError


@dataclass
class ForwardCache:
    graph: "Graph"
    version: int
    layer_caches: list
    output: np.ndarray


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
            except ValueError as e:
                raise ShapeError(f"{layer.name}: {e}") from e
            caches.append(c)
        return h, ForwardCache(self, self.version, caches, h)

    def backward(self, cache, dy, input_grad=True):
        """Backprop dL/dy; accumulates parameter grads and returns the
        input grad.  ``input_grad=False`` skips the first layer's input
        gradient (returns None).  Each layer's output gradient is freed
        once the layer below has used it."""
        if cache.graph is not self or cache.version != self.version:
            raise StaleCacheError("activation cache is stale for this graph")
        if dy.shape != cache.output.shape:
            raise ShapeError(
                f"dy shape {dy.shape} != output shape {cache.output.shape}"
            )
        g = dy
        last = len(self.layers) - 1
        for i, (layer, c) in enumerate(zip(reversed(self.layers),
                                           reversed(cache.layer_caches))):
            g = layer.backward(c, g, input_grad=input_grad or i < last)
        return g

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
