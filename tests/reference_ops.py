"""Reference implementations the fast paths are checked against.

``EinsumConv1d``/``EinsumConv2d`` are the convolutions as ``np.stack``
im2col plus ``einsum``, and ``two_pass_detector_loss`` is the detector
step as one forward and two full backward passes (a probe pass for the
norms, then a loss pass).  They are the definitions ``nn.Conv1d``,
``nn.Conv2d`` and ``detector.detector_loss`` must agree with to rounding.
``logmel_one_pass`` is the log-mel of every frame at once, which the
block-wise ``dsp.logmel`` must equal bit for bit.  ``pseudo_logits_per_window``
runs each pseudo-label window through the whole weak model on its own;
``pretrain._pseudo_logits``, which shares the first stages between
windows, must equal it bit for bit.  ``embed_frames_one_pass`` runs the
backbone over the whole recording at once, which the chunked
``pretrain.embed_stream`` must equal, and ``window_correlation_one_pass``
centres and scores every alignment window at once, as
``curation._window_correlation`` does a few windows at a time.
"""

import numpy as np

from seqshot import detector, dsp, nn, pretrain


def logmel_one_pass(w):
    x = w.samples
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(dsp.frame_count(len(x)), dsp.FRAME_LEN),
        strides=(x.strides[0] * dsp.FRAME_HOP, x.strides[0]),
    )
    spec = np.fft.rfft(frames * dsp._WINDOW, n=dsp.FFT_SIZE, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    return np.log(power @ dsp._FILTERBANK.T + dsp.LOG_FLOOR)


def embed_frames_one_pass(model, w):
    h = dsp.logmel(w)[None, None, :, :]
    for layer in model.backbone.layers[:2 * pretrain.EMBED_TAP]:
        h, _ = layer.forward(h)
    per_block = pretrain.FRAMES_PER_EMBED // 2 ** pretrain.EMBED_TAP
    return np.stack([
        h[0, :, i * per_block: (i + 1) * per_block, :].mean(axis=1).reshape(-1)
        for i in range(h.shape[2] // per_block)])


def window_correlation_one_pass(frames, t_e, ex0, ex_norm):
    flat = np.lib.stride_tricks.sliding_window_view(
        frames.reshape(-1), t_e * frames.shape[1])[::frames.shape[1]]
    flat0 = flat - flat.mean(axis=1, keepdims=True)
    return (flat0 @ ex0) / (np.linalg.norm(flat0, axis=1) * ex_norm + 1e-12)


def pseudo_logits_per_window(model, w):
    win = int(pretrain.PSEUDO_WIN_S * dsp.SAMPLE_RATE)
    hop = int(pretrain.PSEUDO_HOP_S * dsp.SAMPLE_RATE)
    n_win = (len(w.samples) - win) // hop + 1
    m = dsp.logmel(w)
    frames_per_win = 1 + (win - dsp.FRAME_LEN) // dsp.FRAME_HOP
    hop_frames = hop // dsp.FRAME_HOP
    out = []
    for b0 in range(0, n_win, pretrain.PSEUDO_BATCH):
        ids = range(b0, min(b0 + pretrain.PSEUDO_BATCH, n_win))
        x = np.stack([m[j * hop_frames: j * hop_frames + frames_per_win]
                      for j in ids])[:, None, :, :]
        out.append(model.forward(x)[0])
    return np.concatenate(out)


class EinsumConv1d(nn.Conv1d):
    def _left_pad(self):
        return (self.kernel - 1) * self.dilation if self.causal else 0

    def forward(self, x):
        xp = np.pad(x, ((0, 0), (0, 0), (self._left_pad(), 0)))
        eff_k = (self.kernel - 1) * self.dilation + 1
        t_out = xp.shape[2] - eff_k + 1
        cols = np.stack(
            [xp[:, :, j * self.dilation: j * self.dilation + t_out]
             for j in range(self.kernel)],
            axis=2,
        )  # (B, C_in, k, T_out)
        y = np.einsum("oik,bikt->bot", self.params["W"], cols, optimize=True)
        y += self.params["b"][:, None]
        return y, (cols, x.shape)

    def backward(self, cache, dy, input_grad=True, param_grads=True):
        cols, x_shape = cache
        self.grads["W"] += np.einsum("bot,bikt->oik", dy, cols, optimize=True)
        self.grads["b"] += dy.sum(axis=(0, 2))
        pl = self._left_pad()
        dxp = np.zeros((x_shape[0], x_shape[1], x_shape[2] + pl))
        t_out = dy.shape[2]
        for j in range(self.kernel):
            dxp[:, :, j * self.dilation: j * self.dilation + t_out] += \
                np.einsum("oi,bot->bit", self.params["W"][:, :, j], dy,
                          optimize=True)
        return dxp[:, :, pl:]


class EinsumConv2d(nn.Conv2d):
    def forward(self, x):
        kt, kf = self.kernel
        st, sf = self.stride
        pt, pf = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (pf, pf)))
        t_out = (xp.shape[2] - kt) // st + 1
        f_out = (xp.shape[3] - kf) // sf + 1
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

    def backward(self, cache, dy, input_grad=True, param_grads=True):
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
            return dxp[:, :, pt: dxp.shape[2] - pt or None,
                       pf: dxp.shape[3] - pf or None]
        return dxp


def two_pass_detector_loss(net, x, labels, config=None, frozen_norms=None):
    """The detector step as a probe backward pass for the norms, then a
    full backward pass of the loss; sets the parameter gradients."""
    cfg = config or detector.DetectorTrainConfig()
    labels = np.asarray(labels)
    layer_names = ("input", *net.conv_layer_names())
    logits, (cache,) = net.forward(x)
    gap_signed = logits[:, 0] - logits[:, 1]
    sign = np.where(labels == 1, 1.0, -1.0)
    gap = sign * gap_signed
    if frozen_norms is None:
        net.graph.zero_grads()
        seeds = detector._gap_seeds(labels)
        grads = {**net.graph.output_grads(cache, seeds),
                 "input": net.graph.backward(cache, seeds)}
        norms = {name: np.sqrt(np.sum(
            grads[name] ** 2, axis=tuple(range(1, grads[name].ndim))))
            for name in layer_names}
    else:
        norms = frozen_norms
    b = len(labels)
    margins = np.stack([gap / (norms[name] + detector.MARGIN_EPS)
                        for name in layer_names])
    hinge = np.maximum(0.0, cfg.gamma - margins)
    margin_loss = float(hinge.mean())
    active = (hinge > 0).astype(np.float64)
    dgap_margin = -(active / np.stack([norms[n] + detector.MARGIN_EPS
                                       for n in layer_names])).sum(axis=0) \
        / hinge.size
    p = 1.0 / (1.0 + np.exp(-gap_signed))
    y = (labels == 1).astype(np.float64)
    eps = 1e-12
    bce = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    dgap_signed_bce = (p - y) / b
    loss = cfg.margin_weight * margin_loss + cfg.bce_weight * bce
    dgap_signed = cfg.margin_weight * sign * dgap_margin \
        + cfg.bce_weight * dgap_signed_bce
    net.graph.zero_grads()
    net.graph.backward(cache, np.stack([dgap_signed, -dgap_signed], axis=1))
    return loss, {"margin_loss": margin_loss, "bce": bce, "gap": gap,
                  "margins": margins, "norms": norms}
