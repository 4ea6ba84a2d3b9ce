from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.autodiff import Tensor
from strokeseg.gradcheck import finite_difference_check
from strokeseg.recurrent import LstmParams, lstm_sequence, lstm_step, run_lstm, xavier_init

from oracles import reverse_valid
from tape_lstm import layer_norm, tape_lstm_sequence


def test_xavier_bounds_and_spread():
    rng = np.random.default_rng(0)
    w = xavier_init(40, 60, rng)
    limit = np.sqrt(6.0 / (40 + 60))
    assert w.shape == (40, 60)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.5 * limit / np.sqrt(3.0)


def test_layer_norm_standardizes_then_applies_affine():
    rng = np.random.default_rng(1)
    v = rng.normal(3.0, 2.5, size=(4, 8))
    out = layer_norm(Tensor(v), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    npt.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-5)

    gain = np.full(8, 2.0)
    bias = np.full(8, -1.0)
    out2 = layer_norm(Tensor(v), Tensor(gain), Tensor(bias)).data
    npt.assert_allclose(out2, out * 2.0 - 1.0, rtol=1e-12)


def test_layer_norm_gradient():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 6))
    params = {"g": np.ones(6), "b": np.zeros(6)}

    def loss_fn(p):
        t = {k: Tensor(x, requires_grad=True) for k, x in p.items()}
        loss = (layer_norm(Tensor(v), t["g"], t["b"]) ** 3).sum()
        loss.backward()
        return loss.item(), {k: x.grad for k, x in t.items()}

    assert finite_difference_check(loss_fn, params) < 1e-6


def test_lstm_params_init_conventions():
    rng = np.random.default_rng(3)
    p = LstmParams.init(5, 7, rng)
    assert p.w_x.shape == (5, 28)
    assert p.w_h.shape == (7, 28)
    npt.assert_allclose(p.b, 0.0)
    assert p.ln_g.shape == p.ln_b.shape == (4, 7)
    npt.assert_allclose(p.ln_g, 1.0)
    npt.assert_allclose(p.ln_b[1], 1.0)
    npt.assert_allclose(p.ln_b[[0, 2, 3]], 0.0)
    npt.assert_allclose(p.ln_gc, 1.0)
    npt.assert_allclose(p.ln_bc, 0.0)
    assert p.hidden_size == 7
    assert len(fields(p)) == 7

    d = p.to_dict("enc")
    assert all(k.startswith("enc.") for k in d)
    p2 = LstmParams.from_dict({k: Tensor(v) for k, v in d.items()}, "enc")
    npt.assert_allclose(p2.w_x.data, p.w_x)


def _tensor_params(p):
    return LstmParams.from_dict(
        {k: Tensor(v, requires_grad=True) for k, v in p.to_dict("c").items()}, "c")


def test_lstm_step_zero_weights_give_zero_state():
    rng = np.random.default_rng(4)
    p = LstmParams.init(3, 4, rng)
    p.w_x[:] = 0.0
    p.w_h[:] = 0.0
    tp = _tensor_params(p)
    h0 = Tensor(np.zeros((2, 4)))
    c0 = Tensor(np.zeros((2, 4)))
    h1, c1 = lstm_step(tp, Tensor(np.ones((2, 3))), h0, c0)
    # All pre-activations are zero vectors, so layer norm leaves them at the
    # LN bias; candidate bias 0 gives tanh(0)=0 and the cell stays at 0.
    npt.assert_allclose(c1.data, 0.0, atol=1e-12)
    npt.assert_allclose(h1.data, 0.0, atol=1e-12)


def test_lstm_step_full_gradient():
    rng = np.random.default_rng(5)
    p = LstmParams.init(2, 3, rng)
    x = rng.standard_normal((2, 2))
    h0 = rng.standard_normal((2, 3))
    c0 = rng.standard_normal((2, 3))

    def loss_fn(raw):
        tp = LstmParams.from_dict(
            {k: Tensor(v, requires_grad=True) for k, v in raw.items()}, "c")
        h1, c1 = lstm_step(tp, Tensor(x), Tensor(h0), Tensor(c0))
        loss = (h1 * h1).sum() + c1.sum()
        loss.backward()
        return loss.item(), {k: t.grad for k, t in tp.to_dict("c").items()}

    assert finite_difference_check(loss_fn, p.to_dict("c")) < 1e-5


def test_recurrent_dropout_scales_candidate_only():
    rng = np.random.default_rng(6)
    p = LstmParams.init(2, 4, rng)
    inputs = {"xs": rng.standard_normal((2, 3, 2)), "h0": rng.standard_normal((2, 4)),
              "c0": rng.standard_normal((2, 4))}
    weights = rng.standard_normal((2, 3, 8))
    # An all-ones mask is no dropout, bit for bit, in values and every gradient.
    out_keep, grads_keep = _run_with_grads(lstm_sequence, p, inputs, None, np.ones((2, 4)),
                                           weights)
    out_none, grads_none = _run_with_grads(lstm_sequence, p, inputs, None, None, weights)
    npt.assert_array_equal(out_keep, out_none)
    for k, g in grads_none.items():
        npt.assert_array_equal(grads_keep[k], g, err_msg=k)

    tp = _tensor_params(p)
    x = Tensor(rng.standard_normal((1, 2)))
    zero = Tensor(np.zeros((1, 4)))
    _, c_drop = lstm_step(tp, x, zero, zero, dropout_mask=np.zeros((1, 4)))
    # With the candidate fully masked and c0 = 0 the new cell must be zero.
    npt.assert_allclose(c_drop.data, 0.0, atol=1e-12)


def test_run_lstm_latches_state_on_masked_steps():
    rng = np.random.default_rng(7)
    p = LstmParams.init(3, 5, rng)
    tp = _tensor_params(p)
    xs = rng.standard_normal((2, 4, 3))
    mask = np.array([[1.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0]])
    xs_masked = xs.copy()
    xs_masked[0, 2:] = 123.456  # garbage on padded steps must not leak
    h_full, _ = run_lstm(tp, xs, mask=mask)
    h_garbage, _ = run_lstm(tp, xs_masked, mask=mask)
    h_short, _ = run_lstm(tp, xs[:, :2], mask=mask[:, :2])
    npt.assert_allclose(h_full.data[0], h_short.data[0], rtol=1e-12)
    npt.assert_allclose(h_garbage.data[0], h_full.data[0], rtol=1e-12)
    assert not np.allclose(h_full.data[1], h_short.data[1])


def test_run_lstm_sequence_gradient():
    rng = np.random.default_rng(8)
    p = LstmParams.init(2, 3, rng)
    xs = rng.standard_normal((2, 3, 2))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def loss_fn(raw):
        tp = LstmParams.from_dict(
            {k: Tensor(v, requires_grad=True) for k, v in raw.items()}, "c")
        h, c = run_lstm(tp, xs, mask=mask)
        loss = (h ** 2).sum() + c.sum()
        loss.backward()
        return loss.item(), {k: t.grad for k, t in tp.to_dict("c").items()}

    assert finite_difference_check(loss_fn, p.to_dict("c")) < 1e-5


def test_finite_difference_check_flags_wrong_gradient():
    params = {"w": np.array([1.0, 2.0])}

    def bad_fn(p):
        return float((p["w"] ** 2).sum()), {"w": 3.0 * p["w"]}

    assert finite_difference_check(bad_fn, params) > 0.1


def test_lstm_step_rejects_shape_mismatch():
    rng = np.random.default_rng(9)
    p = LstmParams.init(3, 4, rng)
    tp = _tensor_params(p)
    with pytest.raises(ValueError):
        lstm_step(tp, Tensor(np.ones((2, 5))), Tensor(np.zeros((2, 4))),
                  Tensor(np.zeros((2, 4))))


def _oracle_case(seed, length, with_mask, with_dropout, with_extra, with_state):
    rng = np.random.default_rng(seed)
    b, d, e, n = 3, 4, 2, 5
    p = LstmParams.init(d + (e if with_extra else 0), n, rng)
    p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
    p.ln_g[:] = rng.uniform(0.5, 1.5, size=(4, n))
    p.ln_gc[:] = rng.uniform(0.5, 1.5, size=n)
    p.ln_b[:] += rng.normal(scale=0.3, size=(4, n))
    p.ln_bc[:] += rng.normal(scale=0.3, size=n)
    inputs = {"xs": rng.standard_normal((b, length, d))}
    if with_extra:
        inputs["extra"] = rng.standard_normal((b, e))
    if with_state:
        inputs["h0"] = rng.standard_normal((b, n))
        inputs["c0"] = rng.standard_normal((b, n))
    mask = None
    if with_mask is True:
        mask = np.ones((b, length))
        mask[0, max(1, length // 2):] = 0.0
        mask[2, length - 1:] = 0.0
    elif with_mask:  # the rows' lengths
        mask = (np.arange(length) < np.array(with_mask)[:, None]).astype(np.float64)
    drop = (rng.random((b, n)) < 0.7) / 0.7 if with_dropout else None
    weights = rng.standard_normal((b, length, 2 * n))
    return p, inputs, mask, drop, weights


def _run_with_grads(fn, p, inputs, mask, drop, weights):
    tp = _tensor_params(p)
    ts = {k: Tensor(v, requires_grad=True) for k, v in inputs.items()}
    out = fn(tp, ts["xs"], mask=mask, dropout_mask=drop, inputs_extra=ts.get("extra"),
             h0=ts.get("h0"), c0=ts.get("c0"))
    (out * weights).sum().backward()
    grads = {k: t.grad for k, t in tp.to_dict("c").items()}
    grads.update({k: t.grad for k, t in ts.items()})
    return out.data, grads


@pytest.mark.parametrize("length,with_mask,with_dropout,with_extra,with_state", [
    (6, False, False, False, False),
    (6, True, False, False, False),
    (6, False, True, False, False),
    (6, False, False, True, False),
    (6, False, False, False, True),
    (7, True, True, True, True),
    (1, True, True, True, True),
    (1, False, False, False, False),
    pytest.param(6, (2, 4, 3), True, False, True, id="no_row_reaches_the_last_steps"),
    pytest.param(6, (0, 6, 2), True, True, True, id="a_row_of_length_0"),
])
def test_lstm_sequence_matches_tape_oracle(length, with_mask, with_dropout,
                                           with_extra, with_state):
    case = _oracle_case(10 + length, length, with_mask, with_dropout, with_extra, with_state)
    fused, fused_grads = _run_with_grads(lstm_sequence, *case)
    ref, ref_grads = _run_with_grads(tape_lstm_sequence, *case)
    npt.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12)
    assert fused_grads.keys() == ref_grads.keys()
    for k, g in ref_grads.items():
        assert fused_grads[k] is not None, k
        scale = np.abs(g).max()
        npt.assert_allclose(fused_grads[k], g, rtol=1e-10, atol=1e-10 * scale, err_msg=k)


def test_all_ones_mask_is_no_mask_bit_for_bit():
    p, inputs, _, drop, weights = _oracle_case(20, 5, False, True, True, True)
    out_ones, grads_ones = _run_with_grads(lstm_sequence, p, inputs, np.ones((3, 5)), drop,
                                           weights)
    out_none, grads_none = _run_with_grads(lstm_sequence, p, inputs, None, drop, weights)
    npt.assert_array_equal(out_ones, out_none)
    for k, g in grads_none.items():
        npt.assert_array_equal(grads_ones[k], g, err_msg=k)


def test_lstm_sequence_keeps_no_tape_without_grad():
    rng = np.random.default_rng(11)
    p = LstmParams.init(3, 4, rng)
    out = lstm_sequence(p, rng.standard_normal((2, 5, 3)))
    assert out.shape == (2, 5, 8)
    assert not out.requires_grad and out._backward is None


def test_two_cells_in_one_loop_match_two_tape_runs():
    # One cell reads the sequence, the other each row's real steps reversed;
    # rows are unsorted, one is empty and one runs every step.
    rng = np.random.default_rng(12)
    b, length, d, n = 5, 6, 3, 4
    cells = []
    for _ in range(2):
        p = LstmParams.init(d, n, rng)
        p.b[:] = rng.normal(scale=0.3, size=p.b.shape)
        p.ln_g[:] = rng.uniform(0.5, 1.5, size=(4, n))
        p.ln_bc[:] += rng.normal(scale=0.3, size=n)
        cells.append(p)
    lengths = np.array([3, 0, 6, 1, 4])
    mask = (np.arange(length) < lengths[:, None]).astype(np.float64)
    seq = rng.standard_normal((b, length, d))
    xs = np.stack([seq, reverse_valid(seq, mask)])
    h0, c0 = rng.standard_normal((2, b, n)), rng.standard_normal((2, b, n))
    drop = (rng.random((2, b, n)) < 0.7) / 0.7
    weights = rng.standard_normal((2, b, length, 2 * n))  # on h and c, every step

    tps = [_tensor_params(p) for p in cells]
    ts = {k: Tensor(v, requires_grad=True) for k, v in
          {"xs": xs, "h0": h0, "c0": c0}.items()}
    out = lstm_sequence(tuple(tps), ts["xs"], mask=mask, dropout_mask=drop,
                        h0=ts["h0"], c0=ts["c0"])
    (out * weights).sum().backward()
    for k, p in enumerate(cells):
        ref_tp = _tensor_params(p)
        ref_ts = {key: Tensor(v[k], requires_grad=True) for key, v in
                  {"xs": xs, "h0": h0, "c0": c0}.items()}
        ref = tape_lstm_sequence(ref_tp, ref_ts["xs"], mask=mask, dropout_mask=drop[k],
                                 h0=ref_ts["h0"], c0=ref_ts["c0"])
        (ref * weights[k]).sum().backward()
        npt.assert_allclose(out.data[k], ref.data, rtol=1e-10, atol=1e-12)
        fused = {key: t.grad for key, t in tps[k].to_dict("c").items()}
        fused.update({key: t.grad[k] for key, t in ts.items()})
        expected = {key: t.grad for key, t in ref_tp.to_dict("c").items()}
        expected.update({key: t.grad for key, t in ref_ts.items()})
        for key, g in expected.items():
            assert fused[key] is not None, key
            npt.assert_allclose(fused[key], g, rtol=1e-10, atol=1e-10 * np.abs(g).max(),
                                err_msg=key)


def test_lstm_sequence_rejects_a_mask_with_gaps():
    rng = np.random.default_rng(13)
    p = LstmParams.init(3, 4, rng)
    with pytest.raises(ValueError, match="real steps first"):
        lstm_sequence(p, rng.standard_normal((2, 3, 3)),
                      mask=np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))


def test_encoder_normalizes_real_steps_only(monkeypatch):
    from strokeseg import recurrent
    from strokeseg.vae import VaeConfig, VaeModel, encode, encoder_feature

    step_rows = {"_norm_forward": [], "_norm_backward": []}

    def counting(name):
        norm = getattr(recurrent, name)

        def counted(v, *rest):
            if v.ndim == 4:  # the gate blocks of one step: (cells, rows, 4, H)
                step_rows[name].append(v.shape[0] * v.shape[1])
            return norm(v, *rest)
        return counted

    for name in step_rows:
        monkeypatch.setattr(recurrent, name, counting(name))
    rng = np.random.default_rng(14)
    m = VaeModel.init(VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                                batch_size=4), rng)
    mask = np.arange(7) < np.array([2, 7, 0, 5])[:, None]
    seq = rng.standard_normal((4, 7, 5)) * mask[:, :, None]
    encoder_feature(m, seq, mask)
    assert sum(step_rows["_norm_forward"]) == 2 * mask.sum()
    assert step_rows["_norm_backward"] == []

    # backpropagation through time computes the same real steps only
    mu, sigma_hat = encode(m, seq, mask, params=m.tensors(requires_grad=True))
    (mu.sum() + sigma_hat.sum()).backward()
    assert sum(step_rows["_norm_backward"]) == 2 * mask.sum()
