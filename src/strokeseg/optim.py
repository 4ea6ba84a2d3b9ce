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


def adam_update(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam step, in place on the arrays of `params` and `state`, in the
    textbook operation order."""
    state.t += 1
    t = state.t
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        m, v = state.m[k], state.v[k]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        denom = np.sqrt(v / (1.0 - BETA2 ** t))
        denom += EPS
        params[k] -= lr * (m / (1.0 - BETA1 ** t)) / denom
