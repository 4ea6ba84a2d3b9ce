import gc

import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.autodiff import Tensor, as_tensor, concat, log_softmax, logsumexp
from strokeseg.recurrent import LstmParams, lstm_sequence
from oracles import numeric_gradient, softmax_ref
from tape_lstm import count_tape_nodes, sigmoid


def test_add_mul_closed_form_gradients():
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 4.0, -1.0]), requires_grad=True)
    ((a * b) + a).sum().backward()
    npt.assert_allclose(a.grad, b.data + 1.0)
    npt.assert_allclose(b.grad, a.data)


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    (a + b).sum().backward()
    npt.assert_allclose(a.grad, np.ones((3, 4)))
    npt.assert_allclose(b.grad, np.full(4, 3.0))


def test_matmul_gradient_closed_form():
    rng = np.random.default_rng(0)
    a_val = rng.standard_normal((3, 5))
    b_val = rng.standard_normal((5, 2))
    g = rng.standard_normal((3, 2))
    a = Tensor(a_val, requires_grad=True)
    b = Tensor(b_val, requires_grad=True)
    out = a @ b
    out.backward(g)
    npt.assert_allclose(a.grad, g @ b_val.T)
    npt.assert_allclose(b.grad, a_val.T @ g)


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x
    (y + y).backward()
    npt.assert_allclose(x.grad, 8.0)


@pytest.mark.parametrize("fn_name", ["exp", "log", "tanh", "relu"])
def test_unary_ops_match_numeric_gradient(fn_name):
    rng = np.random.default_rng(1)
    x_val = rng.uniform(0.3, 2.0, size=(4, 3))

    def f(v):
        t = Tensor(v.copy(), requires_grad=True)
        return getattr(t, fn_name)().sum().item()

    t = Tensor(x_val.copy(), requires_grad=True)
    getattr(t, fn_name)().sum().backward()
    npt.assert_allclose(t.grad, numeric_gradient(f, x_val.copy()),
                        rtol=1e-5, atol=1e-7)


def test_division_and_power_gradients():
    x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
    y = Tensor(np.array([8.0, 2.0]), requires_grad=True)
    (y / x).sum().backward()
    npt.assert_allclose(x.grad, -y.data / x.data ** 2)
    npt.assert_allclose(y.grad, 1.0 / x.data)

    z = Tensor(np.array([3.0]), requires_grad=True)
    (z ** 3).sum().backward()
    npt.assert_allclose(z.grad, [27.0])


def test_sigmoid_values_and_gradient():
    x = Tensor(np.array([0.0, 2.0, -2.0]), requires_grad=True)
    s = sigmoid(x)
    npt.assert_allclose(s.data, 1.0 / (1.0 + np.exp(-x.data)))
    s.sum().backward()
    npt.assert_allclose(x.grad, s.data * (1.0 - s.data))


def test_mean_and_axis_sum():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.mean().backward()
    npt.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12.0))

    y = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    y.sum(axis=0).sum().backward()
    npt.assert_allclose(y.grad, np.ones((3, 4)))


def test_getitem_routes_gradient_to_slice():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    x[1:3, :2].sum().backward()
    expected = np.zeros((4, 3))
    expected[1:3, :2] = 1.0
    npt.assert_allclose(x.grad, expected)


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    g = np.arange(10.0).reshape(2, 5)
    out.backward(g)
    npt.assert_allclose(a.grad, g[:, :2])
    npt.assert_allclose(b.grad, g[:, 2:])


def test_reshape_round_trip_gradient():
    x = Tensor(np.arange(6.0), requires_grad=True)
    x.reshape(2, 3).sum().backward()
    npt.assert_allclose(x.grad, np.ones(6))


def test_logsumexp_matches_naive_and_is_overflow_safe():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((3, 5))
    out = logsumexp(Tensor(v), axis=-1)
    npt.assert_allclose(out.data, np.log(np.exp(v).sum(axis=-1)), rtol=1e-12)

    big = Tensor(np.array([[1000.0, 1000.0]]))
    npt.assert_allclose(logsumexp(big, axis=-1).data,
                        [1000.0 + np.log(2.0)])


def test_logsumexp_gradient_is_softmax():
    v = np.array([[0.2, -1.0, 3.0]])
    t = Tensor(v, requires_grad=True)
    logsumexp(t, axis=-1).sum().backward()
    npt.assert_allclose(t.grad[0], softmax_ref(v[0]), rtol=1e-12)


def test_log_softmax_normalizes():
    v = np.array([2.0, 0.0, -1.0])
    out = log_softmax(Tensor(v), axis=-1)
    npt.assert_allclose(np.exp(out.data), softmax_ref(v), rtol=1e-12)
    npt.assert_allclose(np.exp(out.data).sum(), 1.0, rtol=1e-12)


def test_log_softmax_gradient_matches_numeric():
    v = np.array([[0.5, -0.3, 1.2, 0.0]])

    def f(x):
        t = Tensor(x.copy(), requires_grad=True)
        return (log_softmax(t, axis=-1) * as_tensor(np.array([[1.0, 2.0, 0.5, -1.0]]))).sum().item()

    t = Tensor(v.copy(), requires_grad=True)
    (log_softmax(t, axis=-1) * as_tensor(np.array([[1.0, 2.0, 0.5, -1.0]]))).sum().backward()
    npt.assert_allclose(t.grad, numeric_gradient(f, v.copy()), rtol=1e-6, atol=1e-9)


def test_backward_requires_scalar_or_explicit_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_grad_tensors_stay_untouched():
    x = Tensor(np.ones(3))
    y = Tensor(np.ones(3), requires_grad=True)
    (x * y).sum().backward()
    assert x.grad is None
    npt.assert_allclose(y.grad, np.ones(3))


def test_deep_chain_does_not_hit_recursion_limit():
    x = Tensor(np.array(1.0), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.backward()
    npt.assert_allclose(x.grad, 1.0)


def test_backward_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        loss = (sigmoid(x.exp()).tanh() * x).sum()
        loss.backward()
        assert x.grad is not None
        del x, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def _topo(root):
    """Every node backward() visits from `root`, each after its parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p.requires_grad)
    return order


def _backward_keeping_tape(root):
    """The same pass with nothing freed: every closure runs once, in the
    same order, and every node keeps its gradient."""
    root.grad = np.ones_like(root.data)
    for node in reversed(_topo(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _mlp_graph():
    rng = np.random.default_rng(7)
    w1, b1, w2, b2 = (Tensor(rng.standard_normal(s), requires_grad=True)
                      for s in ((3, 5), (5,), (5, 2), (2,)))
    h = (Tensor(rng.standard_normal((4, 3))) @ w1 + b1).tanh()
    targets = as_tensor(np.eye(2)[[0, 1, 1, 0]])
    loss = (log_softmax(h @ w2 + b2, axis=-1) * targets).sum() + (h * h).mean()
    return loss, [w1, b1, w2, b2]


def _lstm_graph():
    rng = np.random.default_rng(8)
    cell = LstmParams.from_dict({k: Tensor(v, requires_grad=True) for k, v in
                                 LstmParams.init(3, 4, rng).to_dict("c").items()}, "c")
    xs = Tensor(rng.standard_normal((3, 5, 3)), requires_grad=True)
    mask = np.arange(5) < np.array([5, 2, 4])[:, None]
    out = lstm_sequence(cell, xs, mask=mask, dropout_mask=(rng.random((3, 4)) < 0.7) / 0.7)
    loss = (out * rng.standard_normal(out.shape)).sum()
    return loss, [*cell.to_dict("c").values(), xs]


@pytest.mark.parametrize("build", [_mlp_graph, _lstm_graph], ids=["mlp", "lstm_sequence"])
def test_backward_frees_the_tape_and_keeps_leaf_gradients(build):
    loss, leaves = build()
    nodes = count_tape_nodes(loss)
    loss.backward()
    assert count_tape_nodes(loss) == nodes
    interior = [node for node in _topo(loss) if node._parents and node is not loss]
    assert interior
    for node in interior:
        assert node.grad is None
        assert node._backward.__closure__ is None  # it holds no activations
    ref_loss, ref_leaves = build()
    _backward_keeping_tape(ref_loss)
    for leaf, ref in zip(leaves, ref_leaves):
        assert leaf.grad is not None
        npt.assert_array_equal(leaf.grad, ref.grad)


def test_backward_runs_once_through_a_graph():
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    h = (x * x).tanh()
    loss = h.sum()
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="already ran"):
        loss.backward()
    other = (h * 3.0).sum()  # a second root over the interior node h
    with pytest.raises(RuntimeError, match="already ran"):
        other.backward()
    npt.assert_array_equal(x.grad, grad)
    assert other.grad is None
