"""Stroke segmentation: a 3-layer MLP over fixed per-stroke features.

The feature extractor (a trained stroke encoder, or the orientation-map
baselines) is never updated here; features are precomputed and the MLP
(input -> 1024 -> 512 -> C) is trained with class-weighted cross entropy,
dropout, and early stopping on a held-out slice of the training fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor, log_softmax
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

    def tensors(self, requires_grad: bool = False) -> dict:
        return {k: Tensor(v, requires_grad=requires_grad)
                for k, v in self.params.items()}


def _log_probs(tp: dict, x, masks: tuple | None = None) -> Tensor:
    """relu -> dropout -> relu -> dropout -> affine -> log softmax."""
    h1 = (as_tensor(x) @ tp["w_h1"] + tp["b_h1"]).relu()
    if masks is not None:
        h1 = h1 * masks[0]
    h2 = (h1 @ tp["w_h2"] + tp["b_h2"]).relu()
    if masks is not None:
        h2 = h2 * masks[1]
    return log_softmax(h2 @ tp["w_o"] + tp["b_o"], axis=-1)


def seg_forward(m: SegModel, features) -> np.ndarray:
    """Class probabilities (B, C) for a (B, F) batch of feature vectors.

    Inference is deterministic: no dropout (training draws its own masks).
    """
    x = np.asarray(features, dtype=np.float64)
    width = m.params["w_h1"].shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"features of shape {x.shape} do not match the model's "
                         f"(B, {width}) input")
    return np.exp(_log_probs(m.tensors(), x).data)


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


def _weighted_ce(tp: dict, x, y_idx: np.ndarray, w: np.ndarray,
                 masks: tuple | None = None) -> Tensor:
    log_p = _log_probs(tp, x, masks)
    onehot = np.zeros((len(y_idx), w.size))
    onehot[np.arange(len(y_idx)), y_idx] = w[y_idx]
    return (log_p * as_tensor(onehot)).sum(axis=-1).mean() * -1.0


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
    state = AdamState()
    best = {k: v.copy() for k, v in model.params.items()}
    best_val = np.inf
    stall = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(len(tr_idx))
        for start in range(0, len(perm), config.batch_size):
            rows = tr_idx[perm[start:start + config.batch_size]]
            x, y = features[rows], labels[rows]
            masks = None
            if config.keep_prob < 1.0:
                masks = tuple((rng.random((len(rows), h)) < config.keep_prob)
                              / config.keep_prob
                              for h in (config.hidden1, config.hidden2))
            tp = model.tensors(requires_grad=True)
            loss = _weighted_ce(tp, x, y, w, masks)
            if not np.isfinite(loss.data):
                raise RuntimeError(f"non-finite segmentation loss at epoch {epoch}")
            if config.learning_rate > 0:
                loss.backward()
                adam_update(
                    model.params,
                    {k: t.grad if t.grad is not None else np.zeros_like(model.params[k])
                     for k, t in tp.items()},
                    state, config.learning_rate, config.grad_clip)
        record = {"epoch": epoch, "train_loss": float(loss.data)}
        if len(val_idx):
            val_loss = float(_weighted_ce(
                model.tensors(), features[val_idx], labels[val_idx], w).data)
            record["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best = {k: v.copy() for k, v in model.params.items()}
                stall = 0
            else:
                stall += 1
            model.history.append(record)
            if stall >= config.patience:
                break
        else:
            model.history.append(record)
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
