"""Layer implementations.

Each layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, dy, input_grad=True) -> dx``: parameter gradients
accumulate into ``layer.grads``, and ``input_grad=False`` skips dx
(returns None).
Parameters are float64 in memory but initialized on a float32 grid so
that freshly initialized graphs survive the f32 on-disk checkpoint format
bit-exactly.  A ``Module`` moves all its parameters into one flat array
and all their gradients into another (``Layer.bind``); its layers keep
views of them.

Convolutions (``_Conv``) work on channels-last memory and only on their
live kernel offsets.  An offset whose every read falls in the zero
padding adds exactly zero, so it gets no im2col columns, no weight rows
and no col2im GEMM, and its weight gradient stays 0.  The live offsets'
input windows are copied once into a (positions, offsets * c_in) matrix,
so the output and the weight gradient are one matmul each.  The input
gradient is one GEMM per live offset, each added onto a contiguous block
of a buffer laid out by stride phase (col2im by contiguous blocks).  The
geometry behind this is worked out once per spatial input size and kept
while that size repeats.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError


def he_uniform(rng, shape, fan_in):
    """He-uniform init, drawn at float32 precision, held as float64."""
    limit = np.sqrt(6.0 / fan_in)
    vals = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return vals.astype(np.float64)


class Layer:
    # parameter -> the order its axes are held in memory, where not C order
    LAYOUT = {}

    def __init__(self, name):
        self.name = name
        self.params = {}
        self.grads = {}

    def _register(self, key, value):
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)
        self.bind(key, np.empty(value.size), np.empty(value.size))

    def bind(self, key, params, grads):
        """Move parameter ``key`` and its gradient into ``params`` and
        ``grads``, flat float64 arrays of its size, held in ``LAYOUT``
        order; the layer keeps views of them."""
        for store, flat in ((self.params, params), (self.grads, grads)):
            value = store[key]
            order = self.LAYOUT.get(key, tuple(range(value.ndim)))
            view = flat.reshape([value.shape[i] for i in order]) \
                .transpose(np.argsort(order))
            view[...] = value
            store[key] = view

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x):
        raise NotImplementedError

    def backward(self, cache, dy, input_grad=True):
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

    def backward(self, cache, dy, input_grad=True):
        x2 = cache.reshape(-1, self.n_in)
        dy2 = dy.reshape(-1, self.n_out)
        self.grads["W"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None


class _Conv(Layer):
    """Convolution over the trailing (spatial) axes of (B, C, *spatial)
    as an im2col GEMM over the live kernel offsets.  Subclasses set
    ``c_in``, ``c_out``, the ``W`` (c_out, c_in, *kernel) and ``b``
    parameters, and ``_geometry()``: per spatial axis the kernel, stride,
    dilation and (before, after) zero padding.

    ``W`` is held as (c_out, *kernel, c_in), so the weight rows of the
    live offsets, and each offset's (c_out, c_in) matrix, are views.
    The im2col matrix has one row per output position and columns
    (live offsets..., c_in), read from a channels-last copy of the input,
    so each window is whole channel vectors.  Outputs are (B, C,
    *spatial) views of channels-last memory: the next layer's im2col and
    the backward row view read them without reordering.
    """

    AXES = ()

    def __init__(self, name):
        super().__init__(name)
        self._geo = None

    def _held(self, store):
        """``store["W"]`` (a parameter or its gradient) as held in memory:
        (c_out, *kernel, c_in)."""
        return store["W"].transpose(self.LAYOUT["W"])

    def _at(self, x_shape):
        """The geometry for inputs of ``x_shape``'s spatial size.  The
        last one is kept, whatever the batch: a training run or a scan
        works its geometry out once, and recordings of ever new lengths
        leave behind no more than one."""
        if self._geo is None or self._geo.spatial != x_shape[2:]:
            self._geo = _ConvGeometry(self, x_shape)
        return self._geo

    def forward(self, x):
        if x.ndim != 2 + len(self.AXES) or x.shape[1] != self.c_in:
            raise ShapeError(f"{self.name}: expected (B, {self.c_in}, "
                             f"{', '.join(self.AXES)}), got {x.shape}")
        geo = self._at(x.shape)
        b = x.shape[0]
        if geo.padded:
            buf = np.zeros((b, *geo.buffer))
            buf[geo.interior] = x.transpose(geo.to_last)
        else:
            buf = np.ascontiguousarray(x.transpose(geo.to_last),
                                       dtype=np.float64)
        cols = as_strided(buf[geo.first_read], (b, *geo.windows),
                          geo.strides).reshape(b * geo.positions, -1)
        y = cols @ self._held(self.params)[geo.live].reshape(self.c_out, -1).T
        y += self.params["b"]
        return y.reshape(b, *geo.out, self.c_out).transpose(geo.to_first), \
            (cols, x.shape)

    def backward(self, cache, dy, input_grad=True):
        """Weight and bias gradients: one GEMM; the input gradient
        (unless ``input_grad=False``): one GEMM per live offset."""
        cols, x_shape = cache
        geo = self._at(x_shape)
        dy2 = dy.transpose(geo.to_last).reshape(-1, self.c_out)
        dw = self._held(self.grads)[geo.live]
        dw += (dy2.T @ cols).reshape(dw.shape)
        self.grads["b"] += dy2.sum(axis=0)
        if not input_grad:
            return None
        b = x_shape[0]
        w = self._held(self.params)
        buf = np.zeros((b, *geo.phases))
        for offset, block in geo.blocks:
            buf[block] += (dy2 @ w[offset]).reshape(b, *geo.out, self.c_in)
        dxp = buf.transpose(geo.interleave).reshape(b, *geo.unphased)
        return dxp[geo.interior].transpose(geo.to_first)


class _ConvGeometry:
    """Where a convolution reads and writes, for one spatial input size.

    Per axis, a kernel offset is live when one of its reads falls inside
    the input; the offsets from the first live one to the last are kept
    (a dead offset between live ones, possible only along a strided
    axis, adds exact zeros).  The buffer along an axis spans the
    input and every position a kept offset reads, so it is the input
    itself unless a kept offset reads padding.  The input gradient's
    buffer holds buffer position ``q*s + r`` of an axis of stride ``s``
    at phase ``r``, block ``q``: output ``t`` of offset ``o`` reads
    position ``t*s + e`` with ``e = o*d - (buffer start)``, which is block
    ``t + e//s`` at phase ``e % s``, so each offset's gradient is added
    onto a contiguous run of blocks.
    """

    def __init__(self, conv, x_shape):
        kernel, stride, dilation, pads = conv._geometry()
        nd = len(kernel)
        self.spatial = x_shape[2:]
        self.out, live, buffer, interior, read, phases, blocks = \
            [], [], [], [], [], [], []
        for n, k, s, d, (lo, hi) in zip(x_shape[2:], kernel, stride,
                                        dilation, pads):
            m = (n + lo + hi - (k - 1) * d - 1) // s + 1
            if m < 1:
                raise ShapeError(f"{conv.name}: input {x_shape} too small "
                                 f"for kernel {kernel} (dilation {dilation})")

            def reads_input(o):
                t = max(0, -((o * d - lo) // s))  # first read at or past lo
                return t < m and t * s + o * d < lo + n
            alive = [o for o in range(k) if reads_input(o)] or [0]
            first, last = alive[0], alive[-1]
            start = min(lo, first * d)
            end = max(lo + n, last * d + (m - 1) * s + 1)
            self.out.append(m)
            live.append(slice(first, last + 1))
            buffer.append(end - start)
            interior.append(slice(lo - start, lo - start + n))
            read.append(first * d - start)
            phases.append(s)
            blocks.append(-(-(end - start) // s))
        self.out = tuple(self.out)
        c = conv.c_in
        self.positions = int(np.prod(self.out))
        self.padded = tuple(buffer) != tuple(x_shape[2:])
        self.buffer = (*buffer, c)
        self.interior = (slice(None), *interior, slice(None))
        self.first_read = (slice(None), *read)
        self.live = (slice(None), *live, slice(None))
        n_live = [sl.stop - sl.start for sl in live]
        self.windows = (*self.out, *n_live, c)
        # the buffer's strides, in items, per spatial axis
        step = [int(np.prod(buffer[a + 1:])) * c for a in range(nd)]
        item = np.dtype(np.float64).itemsize
        self.strides = tuple(item * v for v in (
            int(np.prod(buffer)) * c,
            *(s * st for s, st in zip(stride, step)),
            *(d * st for d, st in zip(dilation, step)), 1))
        self.phases = (*phases, *blocks, c)
        self.unphased = (*(q * s for q, s in zip(blocks, phases)), c)
        self.interleave = (0, *(i for a in range(nd)
                                for i in (1 + nd + a, 1 + a)), 1 + 2 * nd)
        # per kept offset: its (c_out, c_in) weights, and its block
        self.blocks = []
        for j in np.ndindex(*n_live):
            e = [r + i * d for r, i, d in zip(read, j, dilation)]
            self.blocks.append((
                (slice(None), *(sl.start + i for sl, i in zip(live, j)),
                 slice(None)),
                (slice(None), *(ea % s for ea, s in zip(e, phases)),
                 *(slice(ea // s, ea // s + m)
                   for ea, s, m in zip(e, phases, self.out)),
                 slice(None))))
        self.to_last = (0, *range(2, nd + 2), 1)
        self.to_first = (0, nd + 1, *range(1, nd + 1))


class Conv1d(_Conv):
    """1-d convolution on (batch, channels, time), stride 1.

    ``causal=True`` left-pads by (kernel-1)*dilation zeros so output at
    time t depends only on inputs <= t; otherwise there is no padding.
    """

    AXES = ("T",)
    LAYOUT = {"W": (0, 2, 1)}

    def __init__(self, c_in, c_out, kernel, name, rng, dilation=1,
                 causal=False):
        super().__init__(name)
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.dilation = dilation
        self.causal = causal
        self._register("W", he_uniform(rng, (c_out, c_in, kernel), c_in * kernel))
        self._register("b", np.zeros(c_out))

    def _geometry(self):
        left = (self.kernel - 1) * self.dilation if self.causal else 0
        return (self.kernel,), (1,), (self.dilation,), ((left, 0),)


class Conv2d(_Conv):
    """2-d convolution on (batch, channels, time, freq)."""

    AXES = ("T", "F")
    LAYOUT = {"W": (0, 2, 3, 1)}

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

    def backward(self, cache, dy, input_grad=True):
        return dy * (cache > 0) if input_grad else None


class _MeanPool(Layer):
    """Mean over the trailing ``POOLED`` axes of a rank-``len(SHAPE)``
    input; ``SHAPE`` names its axes for the error message."""

    SHAPE = ()
    POOLED = ()

    def forward(self, x):
        if x.ndim != len(self.SHAPE):
            raise ShapeError(f"{self.name}: expected ({', '.join(self.SHAPE)})"
                             f", got {x.shape}")
        return x.mean(axis=self.POOLED), x.shape

    def backward(self, cache, dy, input_grad=True):
        if not input_grad:
            return None
        return _spread(dy / math.prod(cache[a] for a in self.POOLED), cache)


class MeanOverTime(_MeanPool):
    """(B, C, T) -> (B, C)."""

    SHAPE = ("B", "C", "T")
    POOLED = (2,)


class MeanOverFreq(_MeanPool):
    """(B, C, T, F) -> (B, C, T); preserves the time axis."""

    SHAPE = ("B", "C", "T", "F")
    POOLED = (3,)


class GlobalChannelPool(_MeanPool):
    """(B, C, T, F) -> (B, C): mean over all time and frequency steps."""

    SHAPE = ("B", "C", "T", "F")
    POOLED = (2, 3)


def _spread(d, shape):
    """``d`` (B, C, *kept) repeated along the pooled trailing axes of
    ``shape`` (B, C, *kept, *pooled), as a view of channels-last memory:
    the layout a convolution's backward reads without reordering."""
    b, c, *spatial = shape
    nd, kept = len(spatial), d.ndim - 2
    out = np.empty((b, *spatial, c))
    out[...] = d.transpose(0, *range(2, d.ndim), 1).reshape(
        b, *spatial[:kept], *(1,) * (nd - kept), c)
    return out.transpose(0, nd + 1, *range(1, nd + 1))
