"""Layer implementations.

Each layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, dy) -> dx``; parameter gradients accumulate into
``layer.grads``.  Parameters are float64 in memory but initialized on a
float32 grid so that freshly initialized graphs survive the f32 on-disk
checkpoint format bit-exactly.
"""

import numpy as np

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

    def backward(self, cache, dy):
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

    def backward(self, cache, dy):
        x = cache
        x2 = x.reshape(-1, self.n_in)
        dy2 = dy.reshape(-1, self.n_out)
        self.grads["W"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T


class Conv1d(Layer):
    """1-d convolution on (batch, channels, time).

    ``causal=True`` left-pads by (kernel-1)*dilation zeros so output at
    time t depends only on inputs <= t.
    """

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

    def _padding(self):
        if self.causal:
            return (self.kernel - 1) * self.dilation, 0
        return self.pad, self.pad

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ShapeError(
                f"{self.name}: expected (B, {self.c_in}, T), got {x.shape}"
            )
        pl, pr = self._padding()
        xp = np.pad(x, ((0, 0), (0, 0), (pl, pr)))
        eff_k = (self.kernel - 1) * self.dilation + 1
        t_out = (xp.shape[2] - eff_k) // self.stride + 1
        if t_out < 1:
            raise ShapeError(
                f"{self.name}: input time {x.shape[2]} too short for "
                f"kernel {self.kernel} (dilation {self.dilation})"
            )
        span = self.stride * (t_out - 1) + 1
        cols = np.stack(
            [xp[:, :, j * self.dilation: j * self.dilation + span: self.stride]
             for j in range(self.kernel)],
            axis=2,
        )  # (B, C_in, k, T_out)
        y = np.einsum("oik,bikt->bot", self.params["W"], cols, optimize=True)
        y += self.params["b"][:, None]
        return y, (cols, x.shape)

    def backward(self, cache, dy):
        cols, x_shape = cache
        self.grads["W"] += np.einsum("bot,bikt->oik", dy, cols, optimize=True)
        self.grads["b"] += dy.sum(axis=(0, 2))
        pl, pr = self._padding()
        dxp = np.zeros((x_shape[0], x_shape[1], x_shape[2] + pl + pr))
        t_out = dy.shape[2]
        span = self.stride * (t_out - 1) + 1
        for j in range(self.kernel):
            dxp[:, :, j * self.dilation: j * self.dilation + span: self.stride] += \
                np.einsum("oi,bot->bit", self.params["W"][:, :, j], dy, optimize=True)
        return dxp[:, :, pl: dxp.shape[2] - pr] if (pl or pr) else dxp


class Conv2d(Layer):
    """2-d convolution on (batch, channels, time, freq)."""

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

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ShapeError(
                f"{self.name}: expected (B, {self.c_in}, T, F), got {x.shape}"
            )
        kt, kf = self.kernel
        st, sf = self.stride
        pt, pf = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (pf, pf)))
        t_out = (xp.shape[2] - kt) // st + 1
        f_out = (xp.shape[3] - kf) // sf + 1
        if t_out < 1 or f_out < 1:
            raise ShapeError(
                f"{self.name}: input {x.shape} too small for kernel {self.kernel}"
            )
        tspan = st * (t_out - 1) + 1
        fspan = sf * (f_out - 1) + 1
        cols = np.stack(
            [xp[:, :, jt: jt + tspan: st, jf: jf + fspan: sf]
             for jt in range(kt) for jf in range(kf)],
            axis=2,
        )  # (B, C_in, kt*kf, T_out, F_out)
        w2 = self.params["W"].reshape(self.c_out, self.c_in, kt * kf)
        y = np.einsum("oiq,biqtf->botf", w2, cols, optimize=True)
        y += self.params["b"][:, None, None]
        return y, (cols, x.shape)

    def backward(self, cache, dy):
        cols, x_shape = cache
        kt, kf = self.kernel
        st, sf = self.stride
        pt, pf = self.pad
        dw = np.einsum("botf,biqtf->oiq", dy, cols, optimize=True)
        self.grads["W"] += dw.reshape(self.params["W"].shape)
        self.grads["b"] += dy.sum(axis=(0, 2, 3))
        dxp = np.zeros(
            (x_shape[0], x_shape[1], x_shape[2] + 2 * pt, x_shape[3] + 2 * pf)
        )
        t_out, f_out = dy.shape[2], dy.shape[3]
        tspan = st * (t_out - 1) + 1
        fspan = sf * (f_out - 1) + 1
        for jt in range(kt):
            for jf in range(kf):
                dxp[:, :, jt: jt + tspan: st, jf: jf + fspan: sf] += np.einsum(
                    "oi,botf->bitf", self.params["W"][:, :, jt, jf], dy,
                    optimize=True,
                )
        if pt or pf:
            return dxp[:, :, pt: dxp.shape[2] - pt or None, pf: dxp.shape[3] - pf or None]
        return dxp


class ReLU(Layer):
    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, cache, dy):
        return dy * (cache > 0)


class MeanOverTime(Layer):
    """(B, C, T) -> (B, C)."""

    def forward(self, x):
        if x.ndim != 3:
            raise ShapeError(f"{self.name}: expected (B, C, T), got {x.shape}")
        return x.mean(axis=2), x.shape

    def backward(self, cache, dy):
        b, c, t = cache
        return np.broadcast_to(dy[:, :, None] / t, (b, c, t)).copy()


class MeanOverFreq(Layer):
    """(B, C, T, F) -> (B, C, T); preserves the time axis."""

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected (B, C, T, F), got {x.shape}")
        return x.mean(axis=3), x.shape

    def backward(self, cache, dy):
        b, c, t, f = cache
        return np.broadcast_to(dy[:, :, :, None] / f, (b, c, t, f)).copy()


class GlobalChannelPool(Layer):
    """(B, C, T, F) -> (B, C): mean over all time and frequency steps."""

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected (B, C, T, F), got {x.shape}")
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, cache, dy):
        b, c, t, f = cache
        return np.broadcast_to(dy[:, :, None, None] / (t * f), (b, c, t, f)).copy()
