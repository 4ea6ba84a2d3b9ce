"""Gradient clipping and Adam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["clip_gradients", "AdamState", "adam_update"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# elements per Adam block: two float64 scratch blocks are 512 KiB, about an L2
BLOCK = 1 << 15


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
    order. `grads` is not written. Each parameter is worked through in
    blocks of `BLOCK` elements, so the clipped gradient and every temporary
    live in two block-sized scratch buffers that stay in cache."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    state.t += 1
    t = state.t
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    buf_a, buf_b = np.empty(BLOCK), np.empty(BLOCK)
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        p, m, v = _flat(params[k]), _flat(state.m[k]), _flat(state.v[k])
        g = g.reshape(-1)
        for lo in range(0, g.size, BLOCK):
            hi = min(lo + BLOCK, g.size)
            a, b = buf_a[:hi - lo], buf_b[:hi - lo]
            gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
            np.clip(gb, -threshold, threshold, out=a)
            mb *= BETA1
            np.multiply(a, 1.0 - BETA1, out=b)
            mb += b
            vb *= BETA2
            np.multiply(a, 1.0 - BETA2, out=b)
            b *= a
            vb += b
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            np.divide(mb, c1, out=b)
            b *= lr
            b /= a
            p[lo:hi] -= b


def _flat(x: np.ndarray) -> np.ndarray:
    """A 1-D view of an array updated in place (a copy would lose the writes)."""
    if not x.flags.c_contiguous:
        raise ValueError("Adam updates contiguous parameter and moment arrays only")
    return x.reshape(-1)
