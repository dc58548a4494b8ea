"""AdamW with decoupled weight decay and the one-cycle LR schedule."""

import math

import numpy as np


def adamw_init(params):
    """Fresh optimizer state for a name->array parameter dict."""
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adamw_step(params, grads, state, lr, weight_decay=0.0,
               betas=(0.9, 0.999), eps=1e-8):
    """One AdamW update, in place.

    Decay is decoupled and applied before the Adam update:
    p <- p - lr*wd*p, then the bias-corrected moment step.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    b1, b2 = betas
    state["t"] += 1
    t = state["t"]
    for k, p in params.items():
        g = grads[k]
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch for {k}: {p.shape} vs {g.shape}")
        if weight_decay:
            p -= lr * weight_decay * p
        m = state["m"][k]
        v = state["v"][k]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        g2 = (1 - b2) * g
        g2 *= g
        v += g2
        # p -= lr * m_hat / (sqrt(v_hat) + eps), in two temporaries
        den = np.divide(v, 1 - b2 ** t, out=g2)
        np.sqrt(den, out=den)
        den += eps
        step = m / (1 - b1 ** t)
        step *= lr
        step /= den
        p -= step
    return state


def one_cycle_lr(step, total_steps, peak=0.01, final=0.0001, warmup_frac=0.1):
    """Linear warmup final->peak, then cosine decay peak->final."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warm = warmup_frac * total_steps
    if warm > 0 and step <= warm:
        return final + (peak - final) * (step / warm)
    if total_steps == warm:
        return peak
    frac = (step - warm) / (total_steps - warm)
    return final + (peak - final) * 0.5 * (1.0 + math.cos(math.pi * frac))
