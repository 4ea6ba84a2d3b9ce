"""Gradient clipping and Adam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["clip_gradients", "AdamState", "adam_update"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def clip_gradients(grads: dict, threshold: float) -> dict:
    """Clip every gradient element into [-threshold, threshold]."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    return {k: np.clip(g, -threshold, threshold) for k, g in grads.items()}


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_update(params: dict, grads: dict, state: AdamState, lr: float,
                threshold: float = np.inf) -> None:
    """One Adam step on gradients clipped into [-threshold, threshold], in
    place on the arrays of `params` and `state`, in the textbook operation
    order. `grads` is not written; the clipped gradient and every temporary
    live in two scratch buffers shared by all parameters."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    state.t += 1
    t = state.t
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    size = max((g.size for g in grads.values()), default=0)
    buf_a, buf_b = np.empty(size), np.empty(size)
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        m, v = state.m[k], state.v[k]
        a = buf_a[:g.size].reshape(g.shape)
        b = buf_b[:g.size].reshape(g.shape)
        np.clip(g, -threshold, threshold, out=a)
        m *= BETA1
        np.multiply(a, 1.0 - BETA1, out=b)
        m += b
        v *= BETA2
        np.multiply(a, 1.0 - BETA2, out=b)
        b *= a
        v += b
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, c1, out=b)
        b *= lr
        b /= a
        params[k] -= b
