"""Gradient clipping and Adam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["clip_gradients", "AdamState", "adam_update"]


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
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam step, in place on the arrays of `params` and `state`, in the
    textbook operation order."""
    state.t += 1
    t = state.t
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        m, v = state.m[k], state.v[k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        denom = np.sqrt(v / (1.0 - beta2 ** t))
        denom += eps
        params[k] -= lr * (m / (1.0 - beta1 ** t)) / denom
