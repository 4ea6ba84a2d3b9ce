"""Stroke-level sequence VAE: bidirectional encoder, latent layer,
autoregressive mixture-density decoder, and the training loop.

Strokes are consumed as Point5 sequences. The encoder reads each sequence
forward and backward and concatenates the two final hidden states into h;
a linear layer maps h to the posterior (mu, sigma_hat). The decoder starts
from tanh(W_z z + b_z), consumes [s_{t-1}; z] at every step, and emits a
6M+3 mixture parameter vector per step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import Tensor, as_tensor, concat
from .mixture import (MixtureParams, RawMixture, apply_temperature, mixture_nll, sample_point,
                      split_params, transform_params)
from .offsets import PEN_DRAW, START_ROW, StrokeBatch, augment_scale, make_stroke_batches, to_offsets
from .optim import AdamState, adam_update
from .recurrent import LstmParams, lstm_sequence, lstm_step, run_lstm, xavier_init
from .sketch import Sketch, Stroke

__all__ = [
    "VaeConfig", "VaeModel", "encode",
    "sample_latent", "init_decoder", "decode_teacher_forced", "decode_sample",
    "kl_loss", "kl_weight", "total_loss", "loss_and_grads", "train",
    "reconstruct_sketch",
]


@dataclass
class VaeConfig:
    """Model and training hyperparameters."""

    enc_hidden: int = 512        # per direction
    dec_hidden: int = 1024
    num_mixtures: int = 20
    latent_size: int = 128
    batch_size: int = 100
    kl_weight_start: float = 0.01
    kl_decay_rate: float = 0.99995
    learning_rate: float = 1e-4
    grad_clip: float = 1.0
    keep_prob: float = 0.9
    max_len: int = 128

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            kinds = (int, np.integer) if f.type == "int" else (int, float, np.integer, np.floating)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an integer" if f.type == "int" else "a number"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            if f.type == "int" and value <= 0:
                raise ValueError(f"{f.name} must be positive")
        if not 0.0 < self.kl_decay_rate < 1.0:
            raise ValueError("kl_decay_rate must lie in (0, 1)")
        if not 0.0 <= self.kl_weight_start <= 1.0:
            raise ValueError("kl_weight_start must lie in [0, 1]")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        if not self.grad_clip > 0.0:
            raise ValueError("grad_clip must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "VaeConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


class VaeModel:
    """Flat parameter dictionary plus config; step counts optimizer updates."""

    def __init__(self, config: VaeConfig, params: dict, step: int = 0):
        self.config = config
        self.params = params
        self.step = step

    @classmethod
    def init(cls, config: VaeConfig, rng: np.random.Generator) -> "VaeModel":
        cells, dense = _layers(config)
        params = {}
        for prefix, inputs, hidden in cells:
            params.update(LstmParams.init(inputs, hidden, rng).to_dict(prefix))
        for name, rows, cols in dense:
            params[f"w_{name}"] = xavier_init(rows, cols, rng)
            params[f"b_{name}"] = np.zeros(cols)
        return cls(config, params)

    @staticmethod
    def param_shapes(config: VaeConfig) -> dict:
        """The shape of every parameter array `init` makes for `config`."""
        cells, dense = _layers(config)
        shapes = {}
        for prefix, inputs, hidden in cells:
            shapes.update(LstmParams.shapes(inputs, hidden, prefix))
        for name, rows, cols in dense:
            shapes[f"w_{name}"], shapes[f"b_{name}"] = (rows, cols), (cols,)
        return shapes

    def tensors(self, requires_grad: bool = False) -> dict:
        return {k: Tensor(v, requires_grad=requires_grad)
                for k, v in self.params.items()}


def _layers(config: VaeConfig) -> tuple:
    """(prefix, input size, hidden size) of each LSTM cell and (name, rows,
    columns) of each dense layer, in the order `VaeModel.init` draws them."""
    e, d = config.enc_hidden, config.dec_hidden
    nz, m = config.latent_size, config.num_mixtures
    cells = (("enc_fwd", 5, e), ("enc_bwd", 5, e), ("dec", 5 + nz, d))
    dense = (("mu", 2 * e, nz), ("sigma", 2 * e, nz), ("z", nz, 2 * d), ("y", d, 6 * m + 3))
    return cells, dense


def _dropout_masks(config: VaeConfig, batch_rows: int, rng: np.random.Generator) -> dict:
    keep = config.keep_prob
    if keep >= 1.0:
        return {}
    def draw(h):
        return (rng.random((batch_rows, h)) < keep) / keep
    return {"enc_fwd": draw(config.enc_hidden),
            "enc_bwd": draw(config.enc_hidden),
            "dec": draw(config.dec_hidden)}


def _encoder_pass(tp: dict, seq, mask: np.ndarray | None, dm: dict) -> Tensor:
    """Final states of both encoder directions, concatenated: (B, 2H).

    Both directions run in one time loop; the backward one reads each row's
    real steps in reverse, with the padding left after them.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3:
        raise ValueError("the encoder takes a (B, L, D) batch")
    length = seq.shape[1]
    steps = np.arange(length)
    real = np.full((seq.shape[0], 1), length) if mask is None \
        else np.sum(mask, axis=1, dtype=np.intp)[:, None]
    reverse = np.where(steps < real, real - 1 - steps, steps)
    xs = np.stack([seq, np.take_along_axis(seq, reverse[:, :, None], axis=1)])
    drop = None if dm.get("enc_fwd") is None else np.stack([dm["enc_fwd"], dm["enc_bwd"]])
    cells = (LstmParams.from_dict(tp, "enc_fwd"), LstmParams.from_dict(tp, "enc_bwd"))
    h, _ = run_lstm(cells, xs, mask, dropout_mask=drop)
    return concat([h[0], h[1]], axis=1)


def encode(m: VaeModel, seq, mask: np.ndarray | None = None,
           params: dict | None = None, dropout_masks: dict | None = None):
    """Bidirectional encoding to the posterior (mu, sigma_hat) Tensors.

    `seq` is a (B, L, 5) batch; `mask` flags real steps for padded input.
    """
    tp = params if params is not None else m.tensors()
    h = _encoder_pass(tp, seq, mask, dropout_masks or {})
    return h @ tp["w_mu"] + tp["b_mu"], h @ tp["w_sigma"] + tp["b_sigma"]


def encoder_feature(m: VaeModel, seq, mask: np.ndarray | None = None) -> np.ndarray:
    """Deterministic stroke representations h = [h_fwd; h_bwd] of a (B, L, 5)
    batch, plain numpy (B, 2H)."""
    return _encoder_pass(m.tensors(), seq, mask, {}).data


def sample_latent(mu, sigma_hat, noise: np.ndarray) -> Tensor:
    """Reparameterized draw z = mu + exp(sigma_hat / 2) * noise."""
    mu = as_tensor(mu)
    sigma_hat = as_tensor(sigma_hat)
    return mu + (sigma_hat * 0.5).exp() * np.asarray(noise, dtype=np.float64)


def init_decoder(m: VaeModel, z, params: dict | None = None):
    """Initial decoder state (h0, c0) = split(tanh(W_z z + b_z))."""
    tp = params if params is not None else m.tensors()
    z = as_tensor(z)
    d = m.config.dec_hidden
    hc = (z @ tp["w_z"] + tp["b_z"]).tanh()
    return hc[..., :d], hc[..., d:]


def decode_teacher_forced(m: VaeModel, z, seq, params: dict | None = None,
                          dropout_mask=None) -> RawMixture:
    """Decode with ground-truth inputs; returns per-step raw mixtures.

    At step t the decoder consumes [s_{t-1}; z], with s_0 = [0 0 1 0 0].
    `z` is (B, N_z) and `seq` (B, L, 5); output fields have shape (B, L, M).
    """
    tp = params if params is not None else m.tensors()
    z = as_tensor(z)
    # s_{t-1} at step t: the sequences one step later, s_0 first
    prev = np.roll(np.asarray(seq, dtype=np.float64), 1, axis=-2)
    prev[..., 0, :] = START_ROW
    h0, c0 = init_decoder(m, z, tp)
    hc = lstm_sequence(LstmParams.from_dict(tp, "dec"), prev, dropout_mask=dropout_mask,
                       inputs_extra=z, h0=h0, c0=c0)
    b, length, _ = prev.shape
    d = m.config.dec_hidden
    k = 6 * m.config.num_mixtures + 3
    hs = hc[:, :, :d].reshape((b * length, d))
    y = (hs @ tp["w_y"] + tp["b_y"]).reshape((b, length, k))
    return split_params(y, m.config.num_mixtures)


def decode_sample(m: VaeModel, z, tau: float, rng: np.random.Generator,
                  max_len: int | None = None) -> np.ndarray:
    """Autoregressive sampling of one stroke as (L, 5) Point5 rows.

    Each sampled point feeds back concatenated with z; sampling stops when
    a pen-up or end state is drawn, or at max_len steps.
    """
    max_len = max_len if max_len is not None else m.config.max_len
    p = m.params
    tp = m.tensors()
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    dec = LstmParams.from_dict(tp, "dec")
    h, c = init_decoder(m, z, tp)
    s = START_ROW.reshape(1, 5).copy()
    rows = []
    for _ in range(max_len):
        h, c = lstm_step(dec, np.concatenate([s, z], axis=1), h, c)
        y = (h.data @ p["w_y"] + p["b_y"])[0]
        raw = split_params(y, m.config.num_mixtures)
        dx, dy, pen = sample_point(apply_temperature(raw, tau), rng)
        s = np.zeros((1, 5))
        s[0, 0], s[0, 1] = dx, dy
        s[0, 2 + pen] = 1.0
        rows.append(s[0].copy())
        if pen != PEN_DRAW:
            break
    return np.array(rows)


def kl_loss(mu, sigma_hat) -> Tensor:
    """KL divergence to the unit Gaussian prior, averaged over batch rows.

    For one row: -(1 / 2N_z) * sum(1 + sigma_hat - mu^2 - exp(sigma_hat)).
    """
    mu = as_tensor(mu)
    sigma_hat = as_tensor(sigma_hat)
    n_z = mu.shape[-1]
    terms = 1.0 + sigma_hat - mu * mu - sigma_hat.exp()
    return terms.sum(axis=-1).mean() * (-0.5 / n_z)


def kl_weight(step: int, kl_weight_start: float, kl_decay_rate: float) -> float:
    """Annealed KL weight, rising from the start value toward 1.

    Algebraically 1 - (1 - start) * rate^step, arranged so step 0 returns
    the start value exactly.
    """
    if step < 0:
        raise ValueError("step must be nonnegative")
    return kl_weight_start + (1.0 - kl_weight_start) * (1.0 - kl_decay_rate ** step)


def _pen_log_loss(log_q: Tensor, pen_targets: np.ndarray) -> Tensor:
    """Mean cross entropy over every step, padding included."""
    per_step = (log_q * as_tensor(pen_targets)).sum(axis=-1) * -1.0
    return per_step.mean()


def _masked_displacement_loss(params: MixtureParams, dx, dy, mask) -> Tensor:
    """Per-row mean NLL over real steps, averaged over rows that have any."""
    mask = np.asarray(mask, dtype=np.float64)
    nll = mixture_nll(params, dx, dy)
    counts = mask.sum(axis=-1)
    rows = counts > 0
    if not rows.any():
        raise ValueError("batch contains no real steps")
    safe = np.where(rows, counts, 1.0)
    per_row = (nll * as_tensor(mask)).sum(axis=-1) * as_tensor(1.0 / safe)
    return (per_row * as_tensor(rows.astype(np.float64))).sum() * (1.0 / rows.sum())


def total_loss(m: VaeModel, batch: StrokeBatch, step: int,
               rng: np.random.Generator | None = None,
               noise: np.ndarray | None = None,
               dropout_masks: dict | None = None,
               params: dict | None = None):
    """Three-term loss on one batch: (total Tensor, per-term breakdown).

    With `noise` given (or rng None, which uses the posterior mean) the loss
    is a deterministic function of the parameters, which is what the
    finite-difference gradient checks need.
    """
    tp = params if params is not None else m.tensors()
    dm = dropout_masks or {}
    seq, mask = batch.sequences, batch.mask
    mu, sigma_hat = encode(m, seq, mask, tp, dm)
    if noise is None:
        noise = rng.standard_normal(mu.shape) if rng is not None \
            else np.zeros(mu.shape)
    z = sample_latent(mu, sigma_hat, noise)
    raw = decode_teacher_forced(m, z, seq, tp, dm.get("dec"))
    mix = transform_params(raw)
    j_d = _masked_displacement_loss(mix, seq[:, :, 0], seq[:, :, 1], mask)
    j_ps = _pen_log_loss(mix.log_q, seq[:, :, 2:5])
    j_kl = kl_loss(mu, sigma_hat)
    w = kl_weight(step, m.config.kl_weight_start, m.config.kl_decay_rate)
    total = j_d + j_ps + j_kl * w
    breakdown = {
        "displacement_nll": float(j_d.data),
        "pen_ce": float(j_ps.data),
        "kl_div": float(j_kl.data),
        "kl_weight": w,
        "total": float(total.data),
    }
    return total, breakdown


def loss_and_grads(m: VaeModel, batch: StrokeBatch, step: int,
                   rng: np.random.Generator | None = None,
                   noise: np.ndarray | None = None,
                   dropout_masks: dict | None = None):
    """Backward pass: (total value, gradient dict, breakdown)."""
    tp = m.tensors(requires_grad=True)
    total, breakdown = total_loss(m, batch, step, rng=rng, noise=noise,
                                  dropout_masks=dropout_masks, params=tp)
    total.backward()
    grads = {k: t.grad if t.grad is not None else np.zeros_like(m.params[k])
             for k, t in tp.items()}
    return float(total.data), grads, breakdown


def _percentile_len(sketches) -> int:
    lengths = [len(s.points) for sk in sketches for s in sk.strokes]
    return int(math.ceil(np.percentile(lengths, 99)))


def train(m: VaeModel, sketches, epochs: int, rng: np.random.Generator,
          augment: bool = True, val_fraction: float = 1.0 / 30.0,
          checkpoint_dir=None, adam_state: AdamState | None = None):
    """Train in place over temporal stroke batches; returns (m, history).

    Per epoch: shuffle sketches, rebuild batches, optionally scale-augment
    displacements, clip gradients, Adam step. History holds one record per
    optimization step. A non-finite mixture head or loss aborts with a
    RuntimeError naming the step (and the loss's breakdown). Validation
    (when the corpus is large enough for a split) tracks the best
    deterministic loss; checkpoints go to checkpoint_dir at every epoch end
    plus a best-validation snapshot.
    """
    from pathlib import Path

    from .checkpoint import save_checkpoint

    lr = m.config.learning_rate
    state = adam_state if adam_state is not None else AdamState()
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    sketches = list(sketches)
    m.config.max_len = max(_percentile_len(sketches), 8)
    n_val = int(len(sketches) * val_fraction)
    order = rng.permutation(len(sketches))
    val = [sketches[i] for i in order[:n_val]]
    tr = [sketches[i] for i in order[n_val:]]
    val_batches = make_stroke_batches(val, m.config.batch_size) if val else []
    history = []
    best_val = np.inf
    for epoch in range(epochs):
        perm = rng.permutation(len(tr))
        shuffled = [tr[i] for i in perm]
        for batch in make_stroke_batches(shuffled, m.config.batch_size):
            seqs = batch.sequences
            if augment:
                seqs = np.stack([augment_scale(row, rng) for row in seqs])
                batch = StrokeBatch(seqs, batch.mask, batch.temporal_index)
            dm = _dropout_masks(m.config, seqs.shape[0], rng)
            try:
                total, grads, breakdown = loss_and_grads(
                    m, batch, m.step, rng=rng, dropout_masks=dm)
            except ValueError as exc:  # a non-finite mixture head
                raise RuntimeError(f"{exc} at step {m.step}") from exc
            if not np.isfinite(total):
                raise RuntimeError(
                    f"non-finite loss at step {m.step}: {breakdown}")
            if lr > 0:
                adam_update(m.params, grads, state, lr, m.config.grad_clip)
            del grads  # not alive while the next step's tape is built: peak RSS
            history.append({"step": m.step, **breakdown})
            m.step += 1
        if val_batches:
            scores = [total_loss(m, vb, m.step)[1]["total"] for vb in val_batches]
            val_score = float(np.mean(scores))
            if val_score < best_val and checkpoint_dir is not None:
                best_val = val_score
                save_checkpoint(checkpoint_dir / "best.npz", m, state)
        if checkpoint_dir is not None:
            save_checkpoint(checkpoint_dir / f"epoch_{epoch + 1:04d}.npz", m, state)
    return m, history


def reconstruct_sketch(m: VaeModel, sketch: Sketch, taus,
                       rng: np.random.Generator):
    """Encode each stroke once, then per temperature sample z and redraw each
    stroke; reassemble in order. `taus` is a sequence of temperatures and
    gives one Sketch per temperature; a single float gives one Sketch.

    Absolute positions come from cumulative summation starting at the canvas
    origin, matching the first-point offset convention.
    """
    posteriors = [encode(m, to_offsets(stroke)[None]) for stroke in sketch.strokes]
    out = []
    for tau in np.atleast_1d(taus):
        strokes = []
        for mu, sigma_hat in posteriors:
            z = sample_latent(mu, sigma_hat, rng.standard_normal(mu.shape))
            sampled = decode_sample(m, z.data, float(tau), rng)
            pts = np.cumsum(sampled[:, :2], axis=0)
            if len(pts) < 2:
                pts = np.vstack([pts, pts[-1]])
            strokes.append(Stroke(points=pts))
        out.append(Sketch(strokes=strokes, category=sketch.category))
    return out if np.ndim(taus) else out[0]
