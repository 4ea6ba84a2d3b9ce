"""Composite-op LN-LSTM on the generic autodiff tape, kept as a test oracle.

This is the cell as it was written before `strokeseg.recurrent` fused each
sequence into one tape node: every gate op of every step is its own
autodiff node, so its gradients come from the tape's generic rules rather
than from the hand-written backpropagation through time. Gate k reads row
k of the stacked (4, H) layer-norm gain and bias, so their gradients come
from the tape's slicing rule too.
"""
import numpy as np

from strokeseg.autodiff import Tensor, as_tensor, concat
from strokeseg.recurrent import LN_EPS


def sigmoid(t):
    t = as_tensor(t)
    value = 1.0 / (1.0 + np.exp(-t.data))
    out = Tensor(value)

    def bw(g):
        if t.requires_grad:
            t._accum(g * value * (1.0 - value))

    return out._track((t,), bw)


def layer_norm(v, gain, bias, eps=LN_EPS):
    """Normalize over the last axis, then scale and shift.

    Statistics are taken per vector (per row for batched input).
    """
    v = as_tensor(v)
    if v.shape[-1] < 2:
        raise ValueError("layer_norm needs vectors of length >= 2")
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + eps) ** -0.5) * as_tensor(gain) + as_tensor(bias)


def tape_lstm_step(p, x, h_prev, c_prev, dropout_mask=None):
    """One LSTM step on a (B, D) batch. Returns (h, c) Tensors."""
    x = as_tensor(x)
    h_prev = as_tensor(h_prev)
    c_prev = as_tensor(c_prev)
    n = p.hidden_size

    z = x @ p.w_x + h_prev @ p.w_h + p.b
    zi = z[..., 0 * n:1 * n]
    zf = z[..., 1 * n:2 * n]
    zg = z[..., 2 * n:3 * n]
    zo = z[..., 3 * n:4 * n]

    gain, bias = as_tensor(p.ln_g), as_tensor(p.ln_b)
    i = sigmoid(layer_norm(zi, gain[0], bias[0]))
    f = sigmoid(layer_norm(zf, gain[1], bias[1]))
    g = layer_norm(zg, gain[2], bias[2]).tanh()
    o = sigmoid(layer_norm(zo, gain[3], bias[3]))

    if dropout_mask is not None:
        g = g * dropout_mask

    c = f * c_prev + i * g
    h = o * layer_norm(c, p.ln_gc, p.ln_bc).tanh()
    return h, c


def tape_lstm_sequence(p, xs, mask=None, dropout_mask=None, inputs_extra=None,
                       h0=None, c0=None):
    """Step the tape cell over a (B, L, D) batch; returns (B, L, 2H) of [h_t; c_t].

    Same contract as `strokeseg.recurrent.lstm_sequence`: `mask` latches
    the state on padded steps and `inputs_extra` is concatenated to every
    step's input.
    """
    xs = as_tensor(xs)
    b, length, _ = xs.shape
    n = p.hidden_size
    h = as_tensor(np.zeros((b, n)) if h0 is None else h0)
    c = as_tensor(np.zeros((b, n)) if c0 is None else c0)
    steps = []
    for t in range(length):
        x_t = xs[:, t, :]
        if inputs_extra is not None:
            x_t = concat([x_t, inputs_extra], axis=1)
        h_new, c_new = tape_lstm_step(p, x_t, h, c, dropout_mask)
        if mask is not None:
            m = mask[:, t:t + 1].astype(np.float64)
            h = h_new * m + h * (1.0 - m)
            c = c_new * m + c * (1.0 - m)
        else:
            h, c = h_new, c_new
        steps.append(concat([h, c], axis=1).reshape((b, 1, 2 * n)))
    return concat(steps, axis=1)


def count_tape_nodes(root: Tensor) -> int:
    """Nodes backward() visits from `root`: itself plus every ancestor that
    requires grad."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
