"""Stroke segmentation: a 3-layer MLP over fixed per-stroke features.

The feature extractor (a trained stroke encoder, or the orientation-map
baselines) is never updated here; features are precomputed and the MLP
(input -> 1024 -> 512 -> C) is trained with class-weighted cross entropy,
dropout, and early stopping on a held-out slice of the training fold.

The MLP's forward and backward are written out in numpy rather than run on
the autodiff tape. They repeat the tape's floating-point operations in the
tape's order, so losses, gradients and trained weights are bit-identical to
the tape version kept in the tests as the oracle.

Training runs on the live input columns (nonzero in some training row) and
their first-layer weight rows only, gathered once per call. A dead row would
get a zero gradient at every step, so it keeps its initial weights. Trained
rows are written back after every epoch; validation and inference run at full
width, so a held-out row nonzero in a dead column reads that initial row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .offsets import to_offsets
from .optim import AdamState, adam_update
from .recurrent import xavier_init
from .sketch import Sketch, Stroke
from .vae import VaeModel, encoder_feature

__all__ = [
    "SegConfig", "SegModel", "seg_forward", "class_weights", "train_segmenter",
    "extract_feature", "predict_labels", "evaluate_accuracy", "confusion_matrix",
    "cross_validate",
]


@dataclass
class SegConfig:
    hidden1: int = 1024
    hidden2: int = 512
    keep_prob: float = 0.5
    batch_size: int = 16
    learning_rate: float = 1e-3
    grad_clip: float = 1.0
    epochs: int = 200
    patience: int = 20
    val_fraction: float = 0.1

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)


class SegModel:
    """MLP weights plus the closed class list they predict over."""

    def __init__(self, params: dict, classes: list, keep_prob: float):
        self.params = params
        self.classes = list(classes)
        self.keep_prob = keep_prob
        self.history = []

    @classmethod
    def init(cls, input_size: int, classes, config: SegConfig,
             rng: np.random.Generator) -> "SegModel":
        c = len(classes)
        params = {
            "w_h1": xavier_init(input_size, config.hidden1, rng),
            "b_h1": np.zeros(config.hidden1),
            "w_h2": xavier_init(config.hidden1, config.hidden2, rng),
            "b_h2": np.zeros(config.hidden2),
            "w_o": xavier_init(config.hidden2, c, rng),
            "b_o": np.zeros(c),
        }
        return cls(params, classes, config.keep_prob)


def _forward(p: dict, x: np.ndarray, masks: tuple | None = None):
    """relu -> dropout -> relu -> dropout -> affine -> log softmax.

    Returns the (B, C) log-probabilities and what `_backward` reads. The log
    softmax is y - (log sum exp(y - m) + m) with m the finite row max.
    """
    mask1, mask2 = masks if masks is not None else (None, None)
    a1 = x @ p["w_h1"] + p["b_h1"]
    h1 = np.maximum(a1, 0.0)
    if mask1 is not None:
        h1 *= mask1
    a2 = h1 @ p["w_h2"] + p["b_h2"]
    h2 = np.maximum(a2, 0.0)
    if mask2 is not None:
        h2 *= mask2
    y = h2 @ p["w_o"] + p["b_o"]
    m = np.max(y, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(y + (-m))
    s = e.sum(axis=-1, keepdims=True)
    log_p = y + (-(np.log(s) + m))
    return log_p, (x, mask1, mask2, a1, h1, a2, h2, e, s)


def _backward(p: dict, cache: tuple, onehot: np.ndarray, grads: dict) -> None:
    """Gradients of `_weighted_ce` with respect to every parameter, written
    into the arrays of `grads`: biases get row sums, weights h.T @ g."""
    x, mask1, mask2, a1, h1, a2, h2, e, s = cache
    g_logp = ((-1.0) * (1.0 / len(x))) * onehot
    g = g_logp + (-g_logp.sum(axis=-1, keepdims=True)) / s * e
    np.sum(g, axis=0, out=grads["b_o"])
    np.matmul(h2.T, g, out=grads["w_o"])
    g = _hidden_grad(g, p["w_o"], mask2, a2)
    np.sum(g, axis=0, out=grads["b_h2"])
    np.matmul(h1.T, g, out=grads["w_h2"])
    g = _hidden_grad(g, p["w_h2"], mask1, a1)
    np.sum(g, axis=0, out=grads["b_h1"])
    np.matmul(x.T, g, out=grads["w_h1"])


def _hidden_grad(g: np.ndarray, w: np.ndarray, mask, a: np.ndarray) -> np.ndarray:
    """Gradient at pre-activation `a` from the gradient `g` of the layer it
    feeds through `w`: (g @ w.T) * mask * (a > 0)."""
    g = g @ w.T
    if mask is not None:
        g *= mask
    g *= a > 0.0
    return g


def seg_forward(m: SegModel, features) -> np.ndarray:
    """Class probabilities (B, C) for a (B, F) batch of feature vectors.

    Inference is deterministic: no dropout (training draws its own masks).
    """
    x = np.asarray(features, dtype=np.float64)
    width = m.params["w_h1"].shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"features of shape {x.shape} do not match the model's "
                         f"(B, {width}) input")
    return np.exp(_forward(m.params, x)[0])


def class_weights(counts) -> np.ndarray:
    """softmax(-n_hat) over class proportions n_hat = counts / sum.

    Rarer classes get strictly larger weights; weights sum to 1.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("every class needs at least one training instance")
    n_hat = counts / counts.sum()
    e = np.exp(-n_hat)
    return e / e.sum()


def _onehot(y_idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, C) rows holding each row's class weight at its label."""
    onehot = np.zeros((len(y_idx), w.size))
    onehot[np.arange(len(y_idx)), y_idx] = w[y_idx]
    return onehot


def _weighted_ce(log_p: np.ndarray, onehot: np.ndarray) -> float:
    """Mean over rows of the weighted negative log-likelihood."""
    return float(((log_p * onehot).sum(axis=-1).sum() * (1.0 / len(log_p))) * -1.0)


def _live_columns(x: np.ndarray) -> np.ndarray:
    """Columns nonzero in some row of `x`: the only inputs training can move."""
    return x.any(axis=0)


def train_segmenter(features, labels, classes, config: SegConfig,
                    rng: np.random.Generator) -> SegModel:
    """Train the MLP head; the feature extractor is untouched.

    10% of the rows (by default) are held out; training stops when the
    held-out weighted cross entropy fails to improve for `patience` epochs,
    and the best-validation parameters are returned. With too few rows for
    a split, the final parameters are returned instead.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) != len(labels) or not len(labels):
        raise ValueError("features and labels must align and be non-empty")
    model = SegModel.init(features.shape[1], classes, config, rng)
    n_val = int(len(features) * config.val_fraction)
    order = rng.permutation(len(features))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    counts = np.bincount(labels[tr_idx], minlength=len(model.classes))
    # a class absent from the training rows (a small fold) gets weight 0
    present = counts > 0
    w = np.zeros(len(counts))
    w[present] = class_weights(counts[present])
    live = _live_columns(features[tr_idx])
    x_live, w_h1 = features[:, live], model.params["w_h1"]
    params = {**model.params, "w_h1": w_h1[live]}
    state = AdamState()
    grads = {k: np.empty_like(v) for k, v in params.items()}
    x_val, onehot_val = features[val_idx], _onehot(labels[val_idx], w)
    best = {k: v.copy() for k, v in model.params.items()}
    best_val = np.inf
    stall = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(len(tr_idx))
        for start in range(0, len(perm), config.batch_size):
            rows = tr_idx[perm[start:start + config.batch_size]]
            x, onehot = x_live[rows], _onehot(labels[rows], w)
            masks = None
            if config.keep_prob < 1.0:
                masks = tuple((rng.random((len(rows), h)) < config.keep_prob)
                              / config.keep_prob
                              for h in (config.hidden1, config.hidden2))
            log_p, cache = _forward(params, x, masks)
            loss = _weighted_ce(log_p, onehot)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite segmentation loss at epoch {epoch}")
            if config.learning_rate > 0:
                _backward(params, cache, onehot, grads)
                adam_update(params, grads, state, config.learning_rate,
                            config.grad_clip)
        w_h1[live] = params["w_h1"]
        record = {"epoch": epoch, "train_loss": loss}
        model.history.append(record)
        if len(val_idx):
            val_loss = _weighted_ce(_forward(model.params, x_val)[0], onehot_val)
            record["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                for k, v in model.params.items():
                    np.copyto(best[k], v)
                stall = 0
            else:
                stall += 1
            if stall >= config.patience:
                break
    if len(val_idx):
        model.params = best
    return model


def extract_feature(encoder: VaeModel, stroke: Stroke) -> np.ndarray:
    """Deterministic per-stroke feature from a frozen encoder: [h_fwd; h_bwd]."""
    return encoder_feature(encoder, to_offsets(stroke)[None])[0]


def predict_labels(seg: SegModel, feature_fn, sketch: Sketch) -> list:
    """Predicted class name per stroke (argmax; ties go to the lowest index)."""
    probs = seg_forward(seg, [feature_fn(sketch, stroke) for stroke in sketch.strokes])
    return [seg.classes[i] for i in np.argmax(probs, axis=1)]


def evaluate_accuracy(predictions, ground_truth) -> float:
    """Correct strokes over total strokes."""
    if len(predictions) != len(ground_truth):
        raise ValueError("prediction and truth lengths differ")
    if not len(predictions):
        raise ValueError("nothing to evaluate")
    hits = sum(p == t for p, t in zip(predictions, ground_truth))
    return hits / len(predictions)


def confusion_matrix(predictions, ground_truth, classes) -> np.ndarray:
    """(C, C) counts indexed [true, predicted]."""
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for p, t in zip(predictions, ground_truth):
        out[index[t], index[p]] += 1
    return out


@dataclass
class CvReport:
    fold_accuracies: list
    fold_stroke_counts: list
    mean_accuracy: float
    confusion: np.ndarray
    classes: list = field(default_factory=list)


def cross_validate(sketches, k: int, train_fn, rng: np.random.Generator,
                   classes=None) -> CvReport:
    """k-fold cross validation split at the sketch level.

    `train_fn(train_sketches, rng)` returns a predictor mapping a sketch to
    per-stroke labels. Every sketch lands in exactly one test fold; the mean
    accuracy weights folds by stroke count (total correct / total strokes).
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    if len(sketches) < k:
        raise ValueError(f"cannot split {len(sketches)} sketches into {k} folds")
    if classes is None:
        classes = sorted({s.label for sk in sketches for s in sk.strokes})
    order = rng.permutation(len(sketches))
    folds = np.array_split(order, k)
    seeds = rng.integers(0, 2 ** 63 - 1, size=k)
    accs, counts = [], []
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for i, fold in enumerate(folds):
        held_out = set(fold.tolist())
        test = [sketches[j] for j in fold]
        train_set = [sketches[j] for j in order if j not in held_out]
        predictor = train_fn(train_set, np.random.default_rng(seeds[i]))
        preds, truth = [], []
        for sk in test:
            preds.extend(predictor(sk))
            truth.extend(s.label for s in sk.strokes)
        accs.append(evaluate_accuracy(preds, truth))
        counts.append(len(truth))
        confusion += confusion_matrix(preds, truth, classes)
    mean = float(np.average(accs, weights=counts))
    return CvReport(fold_accuracies=accs, fold_stroke_counts=counts,
                    mean_accuracy=mean, confusion=confusion, classes=list(classes))
