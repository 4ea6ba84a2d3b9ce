"""Layer-normalized LSTM cell and parameter initialization.

The cell follows the standard gate equations with layer normalization
applied to each gate pre-activation block separately and to the cell
state before it enters the output path. Recurrent dropout multiplies the
candidate update only, so the cell memory path is never zeroed.

`lstm_sequence` runs the cell over a whole batch of sequences as a single
autodiff node whose backward pass is explicit backpropagation through time:
the input projection is one matmul for all real steps, the four gate blocks
are normalized together, and the weight gradients are one matmul each after
the time loop. Each step computes only the rows still running, on a state
grid of rows sorted by length, and several cells (the two directions of an
encoder) share one time loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate

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

    @staticmethod
    def shapes(input_size: int, hidden_size: int, prefix: str) -> dict:
        """The shape of each array `init` makes, keyed as `to_dict(prefix)` keys it."""
        h = hidden_size
        shapes = {"w_x": (input_size, 4 * h), "w_h": (h, 4 * h), "b": (4 * h,), "ln_g": (4, h),
                  "ln_b": (4, h), "ln_gc": (h,), "ln_bc": (h,)}
        return {f"{prefix}.{k}": v for k, v in shapes.items()}

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


def _stacked(arrays):
    """(D, ...) array of one array per cell; a single cell's is a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _row_order(mask, bsz: int, length: int):
    """The order in which the time loop runs the rows of a (B, L) batch.

    `mask` must flag each row's real steps first. Rows are sorted by length,
    longest first (stably): `order` lists the input rows in that order and
    `rank` inverts it. At step t the first `count[t]` sorted rows run.
    `packed` holds the flat indices of those real slots in the (L, B) grid
    of sorted rows, step by step, and `in_input_order` puts the packed rows
    in (step, input row) order, the order in which a loop over the whole
    batch meets them. When every row runs every step, all but `count` are
    slices, so nothing is gathered.
    """
    every = slice(None)
    if mask is not None:
        real = np.asarray(mask) != 0
        if real.shape != (bsz, length):
            raise ValueError(f"mask shape {real.shape} does not match the batch ({bsz}, {length})")
        lengths = real.sum(axis=1)
        if not np.array_equal(real, np.arange(length) < lengths[:, None]):
            raise ValueError("mask must flag each row's real steps first")
    if mask is None or lengths.min() == length:
        return every, every, [bsz] * length, every, every
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(length)[:, None]
    packed = np.flatnonzero(running)
    in_input_order = np.lexsort((order[packed % bsz], packed // bsz))
    return order, np.argsort(order), running.sum(axis=1).tolist(), packed, in_input_order


def lstm_sequence(p, xs, mask: np.ndarray | None = None,
                  dropout_mask=None, inputs_extra=None, h0=None, c0=None) -> Tensor:
    """Run a cell over a (B, L, D) batch as one tape node.

    Returns a (B, L, 2H) Tensor whose step t holds [h_t; c_t]. `mask` (B, L)
    flags each row's real steps, which must come first; only those are
    computed, and the state stays latched on the padded steps after them.
    `dropout_mask` (B, H) is an inverted-dropout mask on the candidate
    update, the same at every step. `inputs_extra` (B, E) is appended to
    every step's input, so its projection is computed once. (h0, c0) default
    to zeros. Activations are kept for the backward pass only when some
    input requires grad.

    The [h; c] states fill an (L + 1, B) grid of rows sorted longest first,
    with the initial states in slot 0. Step t computes the rows still
    running into slot t + 1 and copies the others' states there, so the grid
    is the latched output and the gradient of every step reaches every row.
    The activations the backward pass reads are kept for the real steps
    only, packed time-major.

    `p` may also be a tuple of cells with one hidden size, which run in the
    same time loop: `xs`, `dropout_mask`, `inputs_extra`, `h0`, `c0` and the
    result then carry a leading (cells,) axis, and `mask` is shared.
    """
    multi = isinstance(p, (tuple, list))
    cells = tuple(p) if multi else (p,)
    lead = (len(cells),) if multi else ()
    xs = as_tensor(xs)
    extra = None if inputs_extra is None else as_tensor(inputs_extra)
    if len(xs.shape) != 3 + len(lead) or xs.shape[:len(lead)] != lead or (
            extra is not None and extra.shape[:-1] != lead + xs.shape[len(lead):len(lead) + 1]):
        raise ValueError("lstm_sequence takes a (B, L, D) batch and (B, E) inputs_extra,"
                         " each under a leading (cells,) axis for a tuple of cells")
    bsz, length, d_in = xs.shape[len(lead):]
    if length < 1:
        raise ValueError("lstm_sequence needs at least one step")
    n = cells[0].hidden_size
    if any(cell.hidden_size != n or cell.w_x.shape != cells[0].w_x.shape for cell in cells):
        raise ValueError("cells run together must have the same shapes")
    dirs = len(cells)
    weights = [tuple(as_tensor(v) for v in (cell.w_x, cell.w_h, cell.b, cell.ln_g,
                                             cell.ln_b, cell.ln_gc, cell.ln_bc))
               for cell in cells]
    width = d_in + (0 if extra is None else extra.shape[-1])
    if weights[0][0].shape[0] != width:
        raise ValueError(f"lstm input size {width} does not match weights "
                         f"{weights[0][0].shape[0]}")
    h0 = as_tensor(np.zeros(lead + (bsz, n)) if h0 is None else h0)
    c0 = as_tensor(np.zeros(lead + (bsz, n)) if c0 is None else c0)
    parents = tuple(t for ws in weights for t in ws) + (xs, h0, c0)
    if extra is not None:
        parents += (extra,)
    keep = any(t.requires_grad for t in parents)
    order, rank, count, packed, in_input_order = _row_order(mask, bsz, length)
    start = list(accumulate(count, initial=0))
    real = start[-1]
    steps = [(a, lo, lo + a) for a, lo in zip(count, start)]

    def with_dirs(a):
        return a if multi else a[None]

    def pack(grid):
        """(D, L, B, ...) on the grid of sorted rows -> its (D, real, ...) real steps."""
        return grid.reshape((dirs, length * bsz) + grid.shape[3:])[:, packed]

    wx, wh, b, g4, b4, gc, bc = (_stacked([ws[k].data for ws in weights]) for k in range(7))
    g4_half, b4_half = (g4 * _HALF)[:, None], (b4 * _HALF)[:, None]
    gc, bc = gc[:, None], bc[:, None]
    # without a dropout mask the candidate update is used as it is
    drop = None if dropout_mask is None else \
        with_dirs(np.asarray(dropout_mask, dtype=np.float64))[:, order]

    # The input projections and bias of every real step come before the recurrence.
    xs_p = pack(with_dirs(xs.data)[:, order].swapaxes(1, 2))
    pre_x = xs_p @ wx[:, :d_in] + b[:, None]
    if extra is not None:
        pre_extra = (with_dirs(extra.data) @ wx[:, d_in:])[:, order]
        for a, lo, hi in steps:
            pre_x[:, lo:hi] += pre_extra[:, :a]

    # [h; c] of every sorted row: the initial states, then after each step
    hc = np.empty((dirs, length + 1, bsz, 2 * n))
    hc[:, 0, :, :n] = with_dirs(h0.data)[:, order]
    hc[:, 0, :, n:] = with_dirs(c0.data)[:, order]
    norm = np.empty((dirs, real, 4, n))
    rstd = np.empty((dirs, real, 4, 1))
    gates = np.empty((dirs, real, 4, n))
    norm_c = np.empty((dirs, real, n))
    rstd_c = np.empty((dirs, real, 1))
    tanh_c = np.empty((dirs, real, n))
    for t, (a, lo, hi) in enumerate(steps):
        hc[:, t + 1, a:] = hc[:, t, a:]
        prev, new = hc[:, t, :a], hc[:, t + 1, :a]
        nt, rt = _norm_forward((pre_x[:, lo:hi] + prev[:, :, :n] @ wh).reshape(dirs, a, 4, n))
        act = np.tanh(nt * g4_half + b4_half, out=gates[:, lo:hi])
        act *= _HALF
        act += _SHIFT
        i, f, g, o = act[:, :, 0], act[:, :, 1], act[:, :, 2], act[:, :, 3]
        if drop is not None:
            g = g * drop[:, :a]
        c_new = np.multiply(f, prev[:, :, n:], out=new[:, :, n:])
        c_new += i * g
        nc, rc = _norm_forward(c_new)
        tc = np.tanh(nc * gc + bc, out=tanh_c[:, lo:hi])
        np.multiply(o, tc, out=new[:, :, :n])
        norm[:, lo:hi], rstd[:, lo:hi] = nt, rt
        norm_c[:, lo:hi], rstd_c[:, lo:hi] = nc, rc
    out = hc[:, 1:, rank].swapaxes(1, 2)
    result = Tensor(out if multi else out[0])
    if not keep:
        return result

    def backward(grad):
        # Gradient at the normalized gate blocks = upstream * coef, where the
        # upstream is dc_new for i, f, g and dh_new for o. coef needs no
        # upstream gradient, so it is computed for all steps at once; each
        # step then scales its slice in place, which leaves the gate
        # gradients in coef for the gain and bias sums after the loop.
        grad = with_dirs(grad)
        hc_prev = pack(hc[:, :-1])
        i_all, f_all, g_all, o_all = (gates[:, :, k] for k in range(4))
        coef = gates * (1.0 - gates)
        coef[:, :, 2] = 1.0 - g_all * g_all
        if drop is None:
            coef[:, :, 0] *= g_all
            coef[:, :, 2] *= i_all
        else:
            drop_p = pack(np.broadcast_to(drop[:, None], (dirs, length, bsz, n)))
            coef[:, :, 0] *= g_all * drop_p
            coef[:, :, 2] *= i_all * drop_p
        coef[:, :, 1] *= hc_prev[:, :, n:]
        coef[:, :, 3] *= tanh_c
        # Likewise for the cell-state layer norm's output, scaled by dh_new.
        coef_c = o_all * (1.0 - tanh_c * tanh_c)

        # Every row's state at step t is in the output there, so every row
        # takes that step's gradient; a row that has ended only carries it.
        # Gathering it per step keeps no sorted copy of the whole gradient.
        dh, dc = np.zeros((dirs, bsz, n)), np.zeros((dirs, bsz, n))
        wh_t = wh.transpose(0, 2, 1)
        d_pre = np.empty((dirs, real, 4 * n))
        for t in range(length - 1, -1, -1):
            a, lo, hi = steps[t]
            upstream = grad[:, order, t]
            dh += upstream[:, :, :n]
            dc += upstream[:, :, n:]
            dh_new = dh[:, :a]
            d_yc = coef_c[:, lo:hi]
            d_yc *= dh_new
            dc_new = dc[:, :a] + _norm_backward(d_yc * gc, norm_c[:, lo:hi], rstd_c[:, lo:hi])
            d_act = coef[:, lo:hi]
            d_act[:, :, :3] *= dc_new[:, :, None, :]
            d_act[:, :, 3] *= dh_new
            da = _norm_backward(d_act * g4[:, None], norm[:, lo:hi],
                                rstd[:, lo:hi]).reshape(dirs, a, 4 * n)
            d_pre[:, lo:hi] = da
            dh[:, :a] = da @ wh_t
            dc[:, :a] = dc_new * f_all[:, lo:hi]

        if extra is not None:
            # per-row sums of the real steps' gradients, in step order
            d_rows = np.zeros((dirs, bsz, 4 * n))
            for a, lo, hi in steps:
                d_rows[:, :a] += d_pre[:, lo:hi]
            d_rows = d_rows[:, rank]

        # The weight gradients sum the real steps in the order a loop over
        # the whole batch would, which adds only zeros for the padded ones.
        d_pre_io = d_pre[:, in_input_order]

        def d_wx():
            d = xs_p[:, in_input_order].transpose(0, 2, 1) @ d_pre_io
            if extra is None:
                return d
            return np.concatenate([d, with_dirs(extra.data).transpose(0, 2, 1) @ d_rows], axis=1)

        weight_grads = (
            d_wx,
            lambda: hc_prev[:, :, :n][:, in_input_order].transpose(0, 2, 1) @ d_pre_io,
            lambda: d_pre_io.sum(axis=1),
            lambda: (coef * norm)[:, in_input_order].sum(axis=1),
            lambda: coef[:, in_input_order].sum(axis=1),
            lambda: (coef_c * norm_c)[:, in_input_order].sum(axis=1),
            lambda: coef_c[:, in_input_order].sum(axis=1),
        )
        for k, compute in enumerate(weight_grads):
            if any(ws[k].requires_grad for ws in weights):
                for ws, value in zip(weights, compute()):
                    if ws[k].requires_grad:
                        ws[k]._accum(value)

        def give(tensor, value):
            if tensor.requires_grad:
                tensor._accum(value if multi else value[0])

        if xs.requires_grad:
            d_xs = np.zeros((dirs, length * bsz, d_in))
            d_xs[:, packed] = d_pre @ wx[:, :d_in].transpose(0, 2, 1)
            give(xs, d_xs.reshape(dirs, length, bsz, d_in)[:, :, rank].swapaxes(1, 2))
        if extra is not None and extra.requires_grad:
            give(extra, d_rows @ wx[:, d_in:].transpose(0, 2, 1))
        give(h0, dh[:, rank])
        give(c0, dc[:, rank])

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


def run_lstm(p, xs: np.ndarray, mask: np.ndarray | None = None, dropout_mask=None):
    """Run a cell over a (B, L, D) batch and return the final (h, c).

    `mask` (B, L) latches the state on padded steps, so the result is the
    state after each row's last real step. For a tuple of cells, `xs`,
    `dropout_mask` and the result carry a leading (cells,) axis, as in
    `lstm_sequence`.
    """
    hc = lstm_sequence(p, xs, mask, dropout_mask)
    n = hc.shape[-1] // 2
    return hc[..., -1, :n], hc[..., -1, n:]
