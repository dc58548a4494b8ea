"""AdamW with decoupled weight decay and the one-cycle LR schedule."""

import math

import numpy as np


BETAS = (0.9, 0.999)            # moment decay rates
EPS = 1e-8                      # added to the second-moment root
# the one-cycle schedule: linear warm-up from FINAL_LR to PEAK_LR over
# the first WARMUP_FRAC of the run, then cosine decay back to FINAL_LR
PEAK_LR = 0.01
FINAL_LR = 0.0001
WARMUP_FRAC = 0.1


def adamw_init(param):
    """Fresh optimizer state for a parameter array."""
    return {"t": 0, "m": np.zeros_like(param), "v": np.zeros_like(param)}


def adamw_step(param, grad, state, lr, weight_decay=0.0):
    """One AdamW update of ``param``, in place.

    Decay is decoupled and applied before the Adam update:
    p <- p - lr*wd*p, then the bias-corrected moment step.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if param.shape != grad.shape:
        raise ValueError(f"shape mismatch: {param.shape} vs {grad.shape}")
    b1, b2 = BETAS
    state["t"] += 1
    t = state["t"]
    if weight_decay:
        param -= lr * weight_decay * param
    m, v = state["m"], state["v"]
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    g2 = (1 - b2) * grad
    g2 *= grad
    v += g2
    # p -= lr * m_hat / (sqrt(v_hat) + eps), in two temporaries
    den = np.divide(v, 1 - b2 ** t, out=g2)
    np.sqrt(den, out=den)
    den += EPS
    step = m / (1 - b1 ** t)
    step *= lr
    step /= den
    param -= step
    return state


def one_cycle_lr(step, total_steps):
    """Linear warmup FINAL_LR->PEAK_LR, then cosine decay back."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warm = WARMUP_FRAC * total_steps
    if step <= warm:
        return FINAL_LR + (PEAK_LR - FINAL_LR) * (step / warm)
    frac = (step - warm) / (total_steps - warm)
    return FINAL_LR + (PEAK_LR - FINAL_LR) * 0.5 \
        * (1.0 + math.cos(math.pi * frac))
