"""Layer-normalized LSTM cell and parameter initialization.

The cell follows the standard gate equations with layer normalization
applied to each gate pre-activation block separately and to the cell
state before it enters the output path. Recurrent dropout multiplies the
candidate update only, so the cell memory path is never zeroed.

`lstm_sequence` runs the cell over a whole batch of sequences as a single
autodiff node whose backward pass is explicit backpropagation through time:
the input projection is one matmul for all steps, the four gate blocks are
normalized together, and the weight gradients are one matmul each after
the time loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor, as_tensor

__all__ = ["LstmParams", "xavier_init", "lstm_sequence", "lstm_step", "run_lstm"]

LN_EPS = 1e-6


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot draw of shape (rows, cols)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("xavier_init needs positive dimensions")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class LstmParams:
    """Weights for one cell. Gate blocks are ordered [input, forget, candidate, output].

    w_x: (input_size, 4H) input weights, one Xavier block per gate.
    w_h: (H, 4H) recurrent weights.
    b:   (4H,) pre-activation bias.
    ln_g/ln_b: (4, H) layer-norm gain and bias, one row per gate block;
    ln_gc/ln_bc: (H,) normalize the cell state on the output path.
    """

    w_x: object
    w_h: object
    b: object
    ln_g: object
    ln_b: object
    ln_gc: object
    ln_bc: object

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LstmParams":
        h = hidden_size
        w_x = np.hstack([xavier_init(input_size, h, rng) for _ in range(4)])
        w_h = np.hstack([xavier_init(h, h, rng) for _ in range(4)])
        ln_b = np.zeros((4, h))
        ln_b[1] = 1.0  # forget-gate bias starts at 1 for stable early training
        return cls(w_x=w_x, w_h=w_h, b=np.zeros(4 * h), ln_g=np.ones((4, h)), ln_b=ln_b,
                   ln_gc=np.ones(h), ln_bc=np.zeros(h))

    def to_dict(self, prefix: str) -> dict:
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, prefix: str) -> "LstmParams":
        return cls(**{f.name: d[f"{prefix}.{f.name}"] for f in fields(cls)})

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]


# The sigmoid gates (input, forget, output) use sigmoid(y) = (1 + tanh(y / 2)) / 2,
# so one tanh covers all four blocks: act = tanh(y * _HALF) * _HALF + _SHIFT.
_HALF = np.array([0.5, 0.5, 1.0, 0.5])[:, None]
_SHIFT = np.array([0.5, 0.5, 0.0, 0.5])[:, None]


def _norm_forward(v: np.ndarray):
    """Standardize over the last axis; returns (normalized, 1 / std)."""
    inv_n = 1.0 / v.shape[-1]
    centered = v - v.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    rstd = (var + LN_EPS) ** -0.5
    return centered * rstd, rstd


def _norm_backward(d_norm: np.ndarray, norm: np.ndarray, rstd: np.ndarray) -> np.ndarray:
    """Gradient at the input of `_norm_forward`, given the one at its output."""
    inv_n = 1.0 / norm.shape[-1]
    mean_d = d_norm.sum(axis=-1, keepdims=True) * inv_n
    mean_dn = (d_norm * norm).sum(axis=-1, keepdims=True) * inv_n
    return rstd * (d_norm - mean_d - norm * mean_dn)


def lstm_sequence(p: LstmParams, xs, mask: np.ndarray | None = None,
                  dropout_mask=None, inputs_extra=None, h0=None, c0=None) -> Tensor:
    """Run a cell over a (B, L, D) batch as one tape node.

    Returns a (B, L, 2H) Tensor whose step t holds [h_t; c_t]. `mask`
    (B, L) latches the state on padded steps. `dropout_mask` (B, H) is an
    inverted-dropout mask on the candidate update, the same at every step.
    `inputs_extra` (B, E) is appended to every step's input, so its
    projection is computed once. (h0, c0) default to zeros. Activations are
    kept for the backward pass only when some input requires grad.
    """
    xs = as_tensor(xs)
    extra = None if inputs_extra is None else as_tensor(inputs_extra)
    if len(xs.shape) != 3 or (extra is not None and len(extra.shape) != 2):
        raise ValueError("lstm_sequence takes a (B, L, D) batch and (B, E) inputs_extra")
    bsz, length, d_in = xs.shape
    if length < 1:
        raise ValueError("lstm_sequence needs at least one step")
    n = p.hidden_size
    w_x, w_h, b, gain, bias, gain_c, bias_c = (
        as_tensor(v) for v in (p.w_x, p.w_h, p.b, p.ln_g, p.ln_b, p.ln_gc, p.ln_bc))
    width = d_in + (0 if extra is None else extra.shape[-1])
    if w_x.shape[0] != width:
        raise ValueError(f"lstm input size {width} does not match weights {w_x.shape[0]}")
    h0 = as_tensor(np.zeros((bsz, n)) if h0 is None else h0)
    c0 = as_tensor(np.zeros((bsz, n)) if c0 is None else c0)
    parents = (xs, w_x, w_h, b, gain, bias, gain_c, bias_c, h0, c0)
    if extra is not None:
        parents += (extra,)
    keep = any(t.requires_grad for t in parents)

    wx, wh = w_x.data, w_h.data
    g4, gc, bc = gain.data, gain_c.data, bias_c.data
    g4_half, b4_half = g4 * _HALF, bias.data * _HALF
    # no dropout is the scale 1.0, which leaves every product bit for bit unchanged
    drop = 1.0 if dropout_mask is None else np.asarray(dropout_mask, dtype=np.float64)
    mask_t = None if mask is None else np.asarray(mask, dtype=np.float64).T[:, :, None]

    # Buffers are time-major (L, B, ...), so each step's slice is contiguous.
    # The input projections and bias of all steps come before the recurrence.
    xs_t = np.ascontiguousarray(xs.data.transpose(1, 0, 2)).reshape(length * bsz, d_in)
    pre_x = (xs_t @ wx[:d_in]).reshape(length, bsz, 4 * n) + b.data
    if extra is not None:
        pre_x += extra.data @ wx[d_in:]

    seq = np.empty((length, bsz, 2 * n))
    if keep:
        norm = np.empty((length, bsz, 4, n))
        rstd = np.empty((length, bsz, 4, 1))
        gates = np.empty((length, bsz, 4, n))
        norm_c = np.empty((length, bsz, n))
        rstd_c = np.empty((length, bsz, 1))
        tanh_c = np.empty((length, bsz, n))
    h, c = h0.data, c0.data
    for t in range(length):
        nt, rt = _norm_forward((pre_x[t] + h @ wh).reshape(bsz, 4, n))
        act = np.tanh(nt * g4_half + b4_half)
        act *= _HALF
        act += _SHIFT
        i, f, g, o = act[:, 0], act[:, 1], act[:, 2] * drop, act[:, 3]
        c_new = f * c + i * g
        nc, rc = _norm_forward(c_new)
        tc = np.tanh(nc * gc + bc)
        h_new = o * tc
        if mask_t is not None:
            m = mask_t[t]
            h = h_new * m + h * (1.0 - m)
            c = c_new * m + c * (1.0 - m)
        else:
            h, c = h_new, c_new
        seq[t, :, :n] = h
        seq[t, :, n:] = c
        if keep:
            norm[t], rstd[t], gates[t] = nt, rt, act
            norm_c[t], rstd_c[t], tanh_c[t] = nc, rc, tc
    result = Tensor(seq.transpose(1, 0, 2))
    if not keep:
        return result

    def backward(grad):
        # Gradient at the normalized gate blocks = upstream * coef, where the
        # upstream is dc_new for i, f, g and dh_new for o. coef needs no
        # upstream gradient, so it is computed for all steps at once; each
        # step then scales its slice in place, which leaves the gate
        # gradients in coef for the gain and bias sums after the loop.
        grad = grad.transpose(1, 0, 2)
        c_prev = np.concatenate([c0.data[None], seq[:-1, :, n:]])
        i_all, f_all, g_all, o_all = (gates[:, :, k] for k in range(4))
        coef = gates * (1.0 - gates)
        coef[:, :, 2] = 1.0 - g_all * g_all
        coef[:, :, 0] *= g_all * drop
        coef[:, :, 2] *= i_all * drop
        coef[:, :, 1] *= c_prev
        coef[:, :, 3] *= tanh_c
        # Likewise for the cell-state layer norm's output, scaled by dh_new.
        coef_c = o_all * (1.0 - tanh_c * tanh_c)

        d_pre = np.empty((length, bsz, 4 * n))
        dh = np.zeros((bsz, n))
        dc = np.zeros((bsz, n))
        for t in range(length - 1, -1, -1):
            dh += grad[t, :, :n]
            dc += grad[t, :, n:]
            if mask_t is not None:
                m = mask_t[t]
                dh_new, dc_new = dh * m, dc * m
                dh_keep, dc_keep = dh - dh_new, dc - dc_new
            else:
                dh_new, dc_new = dh, dc
            d_yc = coef_c[t]
            d_yc *= dh_new
            dc_new = dc_new + _norm_backward(d_yc * gc, norm_c[t], rstd_c[t])
            d_act = coef[t]
            d_act[:, :3] *= dc_new[:, None, :]
            d_act[:, 3] *= dh_new
            da = _norm_backward(d_act * g4, norm[t], rstd[t]).reshape(bsz, 4 * n)
            d_pre[t] = da
            dh_next = da @ wh.T
            dc_next = dc_new * f_all[t]
            if mask_t is not None:
                dh_next += dh_keep
                dc_next += dc_keep
            dh, dc = dh_next, dc_next

        flat = d_pre.reshape(length * bsz, 4 * n)
        if w_x.requires_grad:
            d_wx = np.empty_like(wx)
            d_wx[:d_in] = xs_t.T @ flat
            if extra is not None:
                d_wx[d_in:] = extra.data.T @ d_pre.sum(axis=0)
            w_x._accum(d_wx)
        if w_h.requires_grad:
            h_prev = np.concatenate([h0.data[None], seq[:-1, :, :n]])
            w_h._accum(h_prev.reshape(length * bsz, n).T @ flat)
        if b.requires_grad:
            b._accum(flat.sum(axis=0))
        if gain.requires_grad:
            gain._accum((coef * norm).sum(axis=(0, 1)))
        if bias.requires_grad:
            bias._accum(coef.sum(axis=(0, 1)))
        if gain_c.requires_grad:
            gain_c._accum((coef_c * norm_c).sum(axis=(0, 1)))
        if bias_c.requires_grad:
            bias_c._accum(coef_c.sum(axis=(0, 1)))
        if xs.requires_grad:
            xs._accum((flat @ wx[:d_in].T).reshape(length, bsz, d_in).transpose(1, 0, 2))
        if extra is not None and extra.requires_grad:
            extra._accum(d_pre.sum(axis=0) @ wx[d_in:].T)
        if h0.requires_grad:
            h0._accum(dh)
        if c0.requires_grad:
            c0._accum(dc)

    return result._track(parents, backward)


def lstm_step(p: LstmParams, x, h_prev, c_prev, dropout_mask=None):
    """One LSTM step on a (B, D) batch: a length-1 `lstm_sequence`.

    Returns (h, c) Tensors. `dropout_mask`, when given, is an
    inverted-dropout mask applied to the candidate update (recurrent
    dropout without memory loss).
    """
    x = as_tensor(x)
    hc = lstm_sequence(p, x.reshape((x.shape[0], 1, x.shape[-1])),
                       dropout_mask=dropout_mask, h0=h_prev, c0=c_prev)
    n = p.hidden_size
    return hc[:, 0, :n], hc[:, 0, n:]


def run_lstm(p: LstmParams, xs: np.ndarray, mask: np.ndarray | None = None,
             dropout_mask=None):
    """Run a cell over a (B, L, D) batch and return the final (h, c).

    `mask` (B, L) latches the state on padded steps, so the result is the
    state after each row's last real step.
    """
    hc = lstm_sequence(p, xs, mask, dropout_mask)
    n = p.hidden_size
    return hc[:, -1, :n], hc[:, -1, n:]
