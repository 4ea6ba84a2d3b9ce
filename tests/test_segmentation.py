import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.autodiff import Tensor
from strokeseg.gradcheck import finite_difference_check
from strokeseg import segmentation
from strokeseg.segmentation import (CvReport, SegConfig, SegModel,
                                    class_weights, confusion_matrix,
                                    cross_validate, evaluate_accuracy,
                                    extract_feature, predict_labels,
                                    seg_forward, train_segmenter, _backward,
                                    _forward, _onehot, _weighted_ce)
from strokeseg.sketch import Sketch, Stroke
from strokeseg.vae import VaeConfig, VaeModel
from oracles import log_softmax_ref, softmax_ref
from tape_mlp import tape_log_probs, tape_weighted_ce, tensors


def test_class_weights_matches_softmax_of_negative_proportions():
    w = class_weights([1, 1, 2])
    expected = softmax_ref(-np.array([0.25, 0.25, 0.5]))
    npt.assert_allclose(w, expected, rtol=1e-12)
    npt.assert_allclose(w, [0.359867, 0.359867, 0.280266], atol=1e-4)
    npt.assert_allclose(w.sum(), 1.0, rtol=1e-12)


def test_class_weights_symmetry_and_monotonicity():
    npt.assert_allclose(class_weights([1, 1]), [0.5, 0.5], rtol=1e-12)
    w = class_weights([10, 90])
    assert w[0] > w[1]
    # strictly anti-monotone in counts
    w3 = class_weights([5, 10, 20, 40])
    assert all(a > b for a, b in zip(w3, w3[1:]))


def test_class_weights_rejects_zero_count():
    with pytest.raises(ValueError):
        class_weights([3, 0, 2])


def _toy_model(rng=None, classes=("a", "b", "c"), input_size=4):
    rng = rng or np.random.default_rng(0)
    cfg = SegConfig(hidden1=16, hidden2=8)
    return SegModel.init(input_size, list(classes), cfg, rng)


def test_seg_forward_probabilities():
    m = _toy_model()
    p = seg_forward(m, np.ones((1, 4)))
    assert p.shape == (1, 3)
    npt.assert_allclose(p.sum(), 1.0, rtol=1e-9)
    batch = seg_forward(m, np.ones((5, 4)))
    assert batch.shape == (5, 3)
    npt.assert_allclose(batch.sum(axis=1), np.ones(5), rtol=1e-9)


def test_seg_forward_validates_width():
    m = _toy_model()
    with pytest.raises(ValueError):
        seg_forward(m, np.ones((1, 7)))
    with pytest.raises(ValueError):
        seg_forward(m, np.ones(4))


def test_weighted_ce_matches_numpy_reference():
    rng = np.random.default_rng(21)
    m = _toy_model(rng)
    for k in ("b_h1", "b_h2", "b_o"):
        m.params[k][:] = rng.standard_normal(m.params[k].shape)
    x = rng.standard_normal((6, 4))
    y = np.array([0, 1, 2, 2, 1, 0])
    w = class_weights([3, 1, 2])
    masks = tuple((rng.random((6, h)) < 0.5) / 0.5 for h in (16, 8))
    p = m.params
    for mk in (None, masks):
        h1 = np.maximum(x @ p["w_h1"] + p["b_h1"], 0.0) * (1.0 if mk is None else mk[0])
        h2 = np.maximum(h1 @ p["w_h2"] + p["b_h2"], 0.0) * (1.0 if mk is None else mk[1])
        log_p = log_softmax_ref(h2 @ p["w_o"] + p["b_o"])
        expected = -np.mean(w[y] * log_p[np.arange(len(y)), y])
        npt.assert_allclose(tape_weighted_ce(tensors(p), x, y, w, mk).data, expected,
                            rtol=1e-12)


def _step(params, x, y, w, masks):
    """Loss and gradients of the hand-written forward and backward."""
    onehot = _onehot(y, w)
    log_p, cache = _forward(params, x, masks)
    grads = {k: np.empty_like(v) for k, v in params.items()}
    _backward(params, cache, onehot, grads)
    return _weighted_ce(log_p, onehot), grads


@pytest.mark.parametrize("case", ["masks", "no_masks", "zero_weight_class"])
def test_hand_written_step_is_bit_equal_to_tape_oracle(case):
    rng = np.random.default_rng(41)
    m = _toy_model(rng, classes=("a", "b", "c", "d"), input_size=9)
    for k in ("b_h1", "b_h2", "b_o"):
        m.params[k][:] = 0.3 * rng.standard_normal(m.params[k].shape)
    x = rng.standard_normal((11, 9))
    y = rng.integers(0, 4, size=11)
    w = class_weights([3, 1, 2, 5])
    masks = None
    if case == "masks":
        masks = tuple((rng.random((11, h)) < 0.5) / 0.5 for h in (16, 8))
    if case == "zero_weight_class":
        w[y[0]] = 0.0
    loss, grads = _step(m.params, x, y, w, masks)
    tp = tensors(m.params, requires_grad=True)
    tape_loss = tape_weighted_ce(tp, x, y, w, masks)
    tape_loss.backward()
    assert loss == float(tape_loss.data)
    assert set(grads) == set(tp)
    for k in grads:
        npt.assert_array_equal(grads[k], tp[k].grad)


def test_hand_written_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    m = SegModel.init(3, ["a", "b", "c"], SegConfig(hidden1=5, hidden2=4), rng)
    for k in ("b_h1", "b_h2", "b_o"):
        m.params[k][:] = 0.5 * rng.standard_normal(m.params[k].shape)
    x = rng.standard_normal((6, 3))
    y = np.array([0, 1, 2, 2, 1, 0])
    w = class_weights([2, 1, 3])
    masks = tuple((rng.random((6, h)) < 0.7) / 0.7 for h in (5, 4))
    assert finite_difference_check(lambda p: _step(p, x, y, w, masks), m.params) < 1e-6


def test_seg_forward_is_bit_equal_to_tape_oracle():
    rng = np.random.default_rng(43)
    m = _toy_model(rng)
    x = rng.standard_normal((7, 4))
    npt.assert_array_equal(seg_forward(m, x),
                           np.exp(tape_log_probs(tensors(m.params), x).data))


def test_train_segmenter_does_not_use_the_tape(monkeypatch):
    def no_tape(self, grad=None):
        raise AssertionError("Tensor.backward called")

    monkeypatch.setattr(Tensor, "backward", no_tape)
    feats, labels = _blobs(np.random.default_rng(44), n_per_class=10)
    cfg = SegConfig(hidden1=8, hidden2=4, epochs=2, batch_size=8)
    m = train_segmenter(feats, labels, ["a", "b", "c"], cfg, np.random.default_rng(45))
    assert len(m.history) == 2


def test_seg_forward_inference_is_deterministic():
    m = _toy_model()
    npt.assert_array_equal(seg_forward(m, np.ones((1, 4))), seg_forward(m, np.ones((1, 4))))


def _blobs(rng, n_per_class=40):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    feats, labels = [], []
    for c, center in enumerate(centers):
        feats.append(center + rng.normal(0, 0.5, size=(n_per_class, 2)))
        labels.extend([c] * n_per_class)
    return np.vstack(feats), np.array(labels)


def test_train_segmenter_fits_separable_blobs():
    rng = np.random.default_rng(1)
    feats, labels = _blobs(rng)
    cfg = SegConfig(hidden1=32, hidden2=16, epochs=60, batch_size=16,
                    learning_rate=1e-2)
    m = train_segmenter(feats, labels, ["a", "b", "c"], cfg,
                        np.random.default_rng(2))
    preds = np.argmax(seg_forward(m, feats), axis=1)
    assert (preds == labels).mean() >= 0.99


def test_train_segmenter_is_deterministic():
    rng = np.random.default_rng(3)
    feats, labels = _blobs(rng, n_per_class=20)
    cfg = SegConfig(hidden1=16, hidden2=8, epochs=10, batch_size=8)

    m1 = train_segmenter(feats, labels, ["a", "b", "c"], cfg,
                         np.random.default_rng(4))
    m2 = train_segmenter(feats, labels, ["a", "b", "c"], cfg,
                         np.random.default_rng(4))
    for k in m1.params:
        npt.assert_array_equal(m1.params[k], m2.params[k])


SPARSE_CFG = SegConfig(hidden1=16, hidden2=8, epochs=6, batch_size=8, keep_prob=0.5,
                       val_fraction=0.25, patience=3)
SPARSE_LIVE = [False, True, False, False, True, True, False]


def _sparse_case(seed):
    """Seven feature columns for `train_segmenter(..., default_rng(seed))`:
    blobs in columns 1 and 4, column 3 nonzero in held-out validation rows
    only, column 5 nonzero in one training row, the rest zero."""
    feats, labels = _blobs(np.random.default_rng(seed), n_per_class=12)
    x = np.zeros((len(feats), len(SPARSE_LIVE)))
    x[:, [1, 4]] = feats
    val, tr = _sparse_split(seed, len(x))
    x[val, 3] = 2.5
    x[tr[0], 5] = -1.5
    return x, labels


def _sparse_split(seed, n):
    """The (validation, training) rows train_segmenter draws after the
    Xavier init of its model."""
    rng = np.random.default_rng(seed)
    SegModel.init(len(SPARSE_LIVE), ["a", "b", "c"], SPARSE_CFG, rng)
    order = rng.permutation(n)
    n_val = int(n * SPARSE_CFG.val_fraction)
    return order[:n_val], order[n_val:]


def test_live_columns_are_the_columns_nonzero_in_training_rows(monkeypatch):
    seen = []

    def spy(x):
        seen.append(live_columns(x))
        return seen[-1]

    live_columns = segmentation._live_columns
    monkeypatch.setattr(segmentation, "_live_columns", spy)
    x, labels = _sparse_case(46)
    train_segmenter(x, labels, ["a", "b", "c"], SPARSE_CFG, np.random.default_rng(46))
    assert [v.tolist() for v in seen] == [SPARSE_LIVE]


def test_narrowed_training_matches_full_width_training(monkeypatch):
    x, labels = _sparse_case(47)
    narrowed = train_segmenter(x, labels, ["a", "b", "c"], SPARSE_CFG,
                               np.random.default_rng(47))
    monkeypatch.setattr(segmentation, "_live_columns",
                        lambda x: np.ones(x.shape[1], dtype=bool))
    full = train_segmenter(x, labels, ["a", "b", "c"], SPARSE_CFG, np.random.default_rng(47))
    assert len(narrowed.history) > 1
    assert narrowed.history == full.history
    assert list(narrowed.params) == list(full.params)
    for k in full.params:
        npt.assert_array_equal(narrowed.params[k], full.params[k])
    init = SegModel.init(x.shape[1], ["a", "b", "c"], SPARSE_CFG,
                         np.random.default_rng(47)).params["w_h1"]
    live = np.array(SPARSE_LIVE)
    npt.assert_array_equal(narrowed.params["w_h1"][~live], init[~live])
    assert np.all(np.any(narrowed.params["w_h1"][live] != init[live], axis=1))


def test_validation_reads_dead_columns_through_their_initial_rows():
    # column 3 is nonzero in validation rows only: training never sees it,
    # but the held-out loss goes through its (untrained) first-layer row
    x, labels = _sparse_case(46)
    blank = x.copy()
    blank[:, 3] = 0.0
    with_dead = train_segmenter(x, labels, ["a", "b", "c"], SPARSE_CFG,
                                np.random.default_rng(46))
    without = train_segmenter(blank, labels, ["a", "b", "c"], SPARSE_CFG,
                              np.random.default_rng(46))
    assert [r["train_loss"] for r in with_dead.history] == \
        [r["train_loss"] for r in without.history]
    assert all(a["val_loss"] != b["val_loss"]
               for a, b in zip(with_dead.history, without.history))
    # the best held-out loss is the returned full-width model's
    val, tr = _sparse_split(46, len(x))
    w = class_weights(np.bincount(labels[tr], minlength=3))
    val_loss = _weighted_ce(_forward(with_dead.params, x[val])[0], _onehot(labels[val], w))
    assert val_loss == min(r["val_loss"] for r in with_dead.history)


def _spy_adam(monkeypatch):
    seen = []
    real = segmentation.adam_update

    def spy(params, grads, *args):
        seen.append({k: (v.shape, v.flags.c_contiguous, grads[k].shape,
                         grads[k].flags.c_contiguous) for k, v in params.items()})
        return real(params, grads, *args)
    monkeypatch.setattr(segmentation, "adam_update", spy)
    return seen


def test_adam_sees_six_dense_arrays_with_live_w_h1_rows(monkeypatch):
    seen = _spy_adam(monkeypatch)
    x, labels = _sparse_case(46)
    train_segmenter(x, labels, ["a", "b", "c"], SPARSE_CFG, np.random.default_rng(46))
    assert seen
    h1, h2 = SPARSE_CFG.hidden1, SPARSE_CFG.hidden2
    shapes = {"w_h1": (sum(SPARSE_LIVE), h1), "b_h1": (h1,), "w_h2": (h1, h2),
              "b_h2": (h2,), "w_o": (h2, 3), "b_o": (3,)}
    expected = {k: (shape, True, shape, True) for k, shape in shapes.items()}
    assert all(step == expected for step in seen)


def test_all_zero_features_train_the_output_bias_only(monkeypatch):
    seen = _spy_adam(monkeypatch)
    labels = np.array([0, 1, 2] * 8)
    m = train_segmenter(np.zeros((len(labels), 5)), labels, ["a", "b", "c"], SPARSE_CFG,
                        np.random.default_rng(9))
    init = SegModel.init(5, ["a", "b", "c"], SPARSE_CFG, np.random.default_rng(9)).params
    assert seen and all(step["w_h1"][0] == (0, SPARSE_CFG.hidden1) for step in seen)
    # zero inputs leave every ReLU at 0, so only the output bias gets a gradient
    for k in ("w_h1", "b_h1", "w_h2", "b_h2", "w_o"):
        npt.assert_array_equal(m.params[k], init[k])
    assert np.any(m.params["b_o"] != init["b_o"])


def test_train_segmenter_validates_alignment():
    with pytest.raises(ValueError):
        train_segmenter(np.ones((4, 2)), np.zeros(3, dtype=int), ["a"],
                        SegConfig(), np.random.default_rng(0))


def test_extract_feature_is_frozen_encoder_state():
    cfg = VaeConfig(enc_hidden=6, dec_hidden=8, num_mixtures=2, latent_size=3,
                    batch_size=2, keep_prob=1.0)
    enc = VaeModel.init(cfg, np.random.default_rng(5))
    before = {k: v.copy() for k, v in enc.params.items()}
    st = Stroke(points=np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]]))
    f1 = extract_feature(enc, st)
    f2 = extract_feature(enc, st)
    assert f1.shape == (12,)
    npt.assert_array_equal(f1, f2)
    for k in before:
        npt.assert_array_equal(enc.params[k], before[k])


def test_predict_labels_and_accuracy_and_confusion():
    m = _toy_model(classes=("back", "leg", "seat"), input_size=2)
    # craft logits via the output layer: zero hidden path, bias decides
    for k in ("w_h1", "w_h2", "w_o"):
        m.params[k][:] = 0.0
    m.params["b_o"][:] = [0.0, 2.0, 0.0]

    sk = Sketch(strokes=[Stroke(points=np.array([[0.0, 0.0], [1.0, 1.0]]),
                                label="back"),
                         Stroke(points=np.array([[1.0, 0.0], [2.0, 1.0]]),
                                label="leg")])
    preds = predict_labels(m, lambda sketch, stroke: np.zeros(2), sk)
    assert preds == ["leg", "leg"]

    truth = [s.label for s in sk.strokes]
    assert evaluate_accuracy(preds, truth) == 0.5
    cm = confusion_matrix(preds, truth, ["back", "leg", "seat"])
    npt.assert_array_equal(cm, [[0, 1, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        evaluate_accuracy(["a"], ["a", "b"])


def test_cross_validate_covers_every_sketch_once():
    rng = np.random.default_rng(6)
    sketches = []
    for i in range(10):
        label = "back" if i % 2 == 0 else "leg"
        sketches.append(Sketch(strokes=[
            Stroke(points=np.array([[0.0, 0.0], [1.0, float(i + 1)]]),
                   label=label)]))

    seen = []

    def train_fn(train_set, fold_rng):
        seen.append(len(train_set))
        return lambda sk: ["back"] * len(sk.strokes)

    report = cross_validate(sketches, 5, train_fn, rng)
    assert isinstance(report, CvReport)
    assert seen == [8] * 5
    assert sum(report.fold_stroke_counts) == 10
    npt.assert_allclose(report.mean_accuracy, 0.5)
    assert report.confusion.sum() == 10
    # constant "back" predictor: every leg lands in the back column
    b, l = report.classes.index("back"), report.classes.index("leg")
    assert report.confusion[l, b] == 5


def test_cross_validate_weights_folds_by_stroke_count():
    sketches = [Sketch(strokes=[Stroke(points=np.array([[0.0, 0.0], [1.0, 1.0]]),
                                       label="back")] * (3 if i == 0 else 1))
                for i in range(4)]

    def train_fn(train_set, fold_rng):
        return lambda sk: ["back"] * len(sk.strokes)

    report = cross_validate(sketches, 2, train_fn, np.random.default_rng(7))
    total = sum(report.fold_stroke_counts)
    expected = sum(a * n for a, n in zip(report.fold_accuracies,
                                         report.fold_stroke_counts)) / total
    npt.assert_allclose(report.mean_accuracy, expected, rtol=1e-12)


def test_cross_validate_validates_fold_count():
    sk = Sketch(strokes=[Stroke(points=np.array([[0.0, 0.0], [1.0, 1.0]]),
                                label="back")])
    with pytest.raises(ValueError):
        cross_validate([sk, sk], 1, lambda a, b: None, np.random.default_rng(8))
    with pytest.raises(ValueError):
        cross_validate([sk], 2, lambda a, b: None, np.random.default_rng(9))
