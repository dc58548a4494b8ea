"""Layer implementations.

Each layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, dy, input_grad=True, param_grads=True) -> dx``:
parameter gradients accumulate into ``layer.grads`` unless
``param_grads=False``, and ``input_grad=False`` skips dx (returns None).
Parameters are float64 in memory but initialized on a float32 grid so
that freshly initialized graphs survive the f32 on-disk checkpoint format
bit-exactly.

Convolutions are im2col GEMMs (``_Conv``): the input windows are copied
once into a (positions, kernel * c_in) matrix, so the output, the weight
gradient and the input gradient are one matmul each.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError


def he_uniform(rng, shape, fan_in):
    """He-uniform init, drawn at float32 precision, held as float64."""
    limit = np.sqrt(6.0 / fan_in)
    vals = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return vals.astype(np.float64)


class Layer:
    def __init__(self, name):
        self.name = name
        self.params = {}
        self.grads = {}

    def _register(self, key, value):
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x):
        raise NotImplementedError

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        raise NotImplementedError


class Linear(Layer):
    """y = x @ W + b on the last axis; any leading axes."""

    def __init__(self, n_in, n_out, name, rng):
        super().__init__(name)
        self.n_in = n_in
        self.n_out = n_out
        self._register("W", he_uniform(rng, (n_in, n_out), n_in))
        self._register("b", np.zeros(n_out))

    def forward(self, x):
        if x.shape[-1] != self.n_in:
            raise ShapeError(
                f"{self.name}: expected last axis {self.n_in}, got {x.shape}"
            )
        y = x @ self.params["W"] + self.params["b"]
        return y, x

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        if param_grads:
            x2 = cache.reshape(-1, self.n_in)
            dy2 = dy.reshape(-1, self.n_out)
            self.grads["W"] += x2.T @ dy2
            self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None


class _Conv(Layer):
    """Convolution over the trailing (spatial) axes of (B, C, *spatial)
    as an im2col GEMM.  Subclasses set ``c_in``, ``c_out``, the ``W``
    (c_out, c_in, *kernel) and ``b`` parameters, and ``_geometry()``:
    per spatial axis the kernel, stride, dilation and (before, after)
    zero padding.

    The im2col matrix has one row per output position and columns
    (kernel offsets..., c_in), read from a channels-last copy of the
    input, so each window is whole channel vectors.  Outputs are
    (B, C, *spatial) views of channels-last memory: the next layer's
    im2col and the backward row view read them without reordering.
    """

    AXES = ()

    def _w_rows(self):
        """W as (c_out, kernel offsets... * c_in), the im2col column order."""
        return np.moveaxis(self.params["W"], 1, -1).reshape(self.c_out, -1)

    def forward(self, x):
        if x.ndim != 2 + len(self.AXES) or x.shape[1] != self.c_in:
            raise ShapeError(f"{self.name}: expected (B, {self.c_in}, "
                             f"{', '.join(self.AXES)}), got {x.shape}")
        kernel, stride, dilation, pads = self._geometry()
        b, spatial = x.shape[0], x.shape[2:]
        xp = np.moveaxis(x, 1, -1)                 # (B, *spatial, C_in)
        if any(lo or hi for lo, hi in pads):
            padded = np.zeros((b, *_padded(spatial, pads), self.c_in))
            padded[_interior(spatial, pads)] = xp
            xp = padded
        out = tuple((n - (k - 1) * d - 1) // s + 1 for n, k, s, d
                    in zip(xp.shape[1:-1], kernel, stride, dilation))
        if min(out) < 1:
            raise ShapeError(f"{self.name}: input {x.shape} too small for "
                             f"kernel {kernel} (dilation {dilation})")
        sb, *sx, sc = xp.strides
        cols = as_strided(
            xp, (b, *out, *kernel, self.c_in),
            (sb, *(s * st for s, st in zip(stride, sx)),
             *(d * st for d, st in zip(dilation, sx)), sc),
        ).reshape(b * int(np.prod(out)), -1)
        y = cols @ self._w_rows().T
        y += self.params["b"]
        return np.moveaxis(y.reshape(b, *out, self.c_out), -1, 1), \
            (cols, x.shape)

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        """Weight and bias gradients (unless ``param_grads=False``) and
        the input gradient (unless ``input_grad=False``): one GEMM each."""
        cols, x_shape = cache
        kernel, stride, dilation, pads = self._geometry()
        out = dy.shape[2:]
        dy2 = np.moveaxis(dy, 1, -1).reshape(-1, self.c_out)
        if param_grads:
            dw = (dy2.T @ cols).reshape(self.c_out, *kernel, self.c_in)
            self.grads["W"] += np.moveaxis(dw, -1, 1)
            self.grads["b"] += dy2.sum(axis=0)
        if not input_grad:
            return None
        # col2im: each kernel offset adds its column block back onto the
        # input positions it was read from
        dwin = (dy2 @ self._w_rows()).reshape(x_shape[0], *out, *kernel,
                                              self.c_in)
        dxp = np.zeros((x_shape[0], *_padded(x_shape[2:], pads), self.c_in))
        for offs in np.ndindex(*kernel):
            read = tuple(slice(o * d, o * d + s * (n - 1) + 1, s)
                         for o, d, s, n in zip(offs, dilation, stride, out))
            dxp[(slice(None), *read)] += \
                dwin[(slice(None),) * (1 + len(out)) + offs]
        return np.moveaxis(dxp[_interior(x_shape[2:], pads)], -1, 1)


def _padded(spatial, pads):
    return tuple(n + lo + hi for n, (lo, hi) in zip(spatial, pads))


def _interior(spatial, pads):
    """Index of the unpadded input in a padded (B, *spatial, C) array."""
    return (slice(None),
            *(slice(lo, lo + n) for n, (lo, _) in zip(spatial, pads)))


class Conv1d(_Conv):
    """1-d convolution on (batch, channels, time).

    ``causal=True`` left-pads by (kernel-1)*dilation zeros so output at
    time t depends only on inputs <= t.
    """

    AXES = ("T",)

    def __init__(self, c_in, c_out, kernel, name, rng,
                 stride=1, dilation=1, causal=False, pad=0):
        super().__init__(name)
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        self.causal = causal
        self.pad = pad
        self._register("W", he_uniform(rng, (c_out, c_in, kernel), c_in * kernel))
        self._register("b", np.zeros(c_out))

    def _geometry(self):
        pads = ((self.kernel - 1) * self.dilation, 0) if self.causal \
            else (self.pad, self.pad)
        return (self.kernel,), (self.stride,), (self.dilation,), (pads,)


class Conv2d(_Conv):
    """2-d convolution on (batch, channels, time, freq)."""

    AXES = ("T", "F")

    def __init__(self, c_in, c_out, kernel, name, rng, stride=(1, 1), pad=(0, 0)):
        super().__init__(name)
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.pad = tuple(pad)
        kt, kf = self.kernel
        self._register("W", he_uniform(rng, (c_out, c_in, kt, kf), c_in * kt * kf))
        self._register("b", np.zeros(c_out))

    def _geometry(self):
        return self.kernel, self.stride, (1, 1), tuple((p, p) for p in self.pad)


class ReLU(Layer):
    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        return dy * (cache > 0) if input_grad else None


class MeanOverTime(Layer):
    """(B, C, T) -> (B, C)."""

    def forward(self, x):
        if x.ndim != 3:
            raise ShapeError(f"{self.name}: expected (B, C, T), got {x.shape}")
        return x.mean(axis=2), x.shape

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        if not input_grad:
            return None
        b, c, t = cache
        return np.broadcast_to(dy[:, :, None] / t, (b, c, t)).copy()


class MeanOverFreq(Layer):
    """(B, C, T, F) -> (B, C, T); preserves the time axis."""

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected (B, C, T, F), got {x.shape}")
        return x.mean(axis=3), x.shape

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        if not input_grad:
            return None
        b, c, t, f = cache
        return np.broadcast_to(dy[:, :, :, None] / f, (b, c, t, f)).copy()


class GlobalChannelPool(Layer):
    """(B, C, T, F) -> (B, C): mean over all time and frequency steps."""

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected (B, C, T, F), got {x.shape}")
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        if not input_grad:
            return None
        b, c, t, f = cache
        return np.broadcast_to(dy[:, :, None, None] / (t * f), (b, c, t, f)).copy()
