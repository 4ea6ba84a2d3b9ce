import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from strokeseg import vae
from strokeseg.offsets import make_stroke_batches, to_offsets
from strokeseg.sketch import Sketch, Stroke
from strokeseg.vae import (VaeConfig, VaeModel, decode_sample,
                           decode_teacher_forced, encode, encoder_feature,
                           kl_loss, kl_weight, loss_and_grads, reconstruct_sketch,
                           sample_latent, total_loss, train)
from oracles import kl_gaussian_ref, kl_monte_carlo, log_softmax_ref, reverse_valid
from synthdata import toy_strokes
from tape_lstm import count_tape_nodes


TINY = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                 batch_size=2, keep_prob=1.0)


def _model(seed=0, config=TINY):
    return VaeModel.init(config, np.random.default_rng(seed))


def _batch(sketches, batch_size=2):
    return make_stroke_batches(sketches, batch_size)[0]


def _line_sketch(dx=3.0, dy=1.0, steps=3, start=(1.0, 1.0)):
    pts = np.cumsum(np.vstack([start, np.tile([dx, dy], (steps, 1))]), axis=0)
    return Sketch(strokes=[Stroke(points=pts)])


def test_config_defaults_and_validation():
    cfg = VaeConfig()
    assert (cfg.enc_hidden, cfg.dec_hidden) == (512, 1024)
    assert (cfg.num_mixtures, cfg.latent_size, cfg.batch_size) == (20, 128, 100)
    assert cfg.kl_weight_start == 0.01
    assert cfg.kl_decay_rate == 0.99995
    assert cfg.learning_rate == 1e-4
    assert cfg.grad_clip == 1.0
    assert cfg.keep_prob == 0.9
    with pytest.raises(ValueError):
        VaeConfig(kl_decay_rate=1.5)
    with pytest.raises(ValueError):
        VaeConfig(enc_hidden=0)
    round_tripped = VaeConfig.from_dict(cfg.to_dict())
    assert round_tripped == cfg


def test_model_init_shapes():
    m = _model()
    assert m.params["w_mu"].shape == (8, 3)
    assert m.params["w_z"].shape == (3, 16)
    assert m.params["w_y"].shape == (8, 6 * 2 + 3)
    assert m.params["dec.ln_g"].shape == m.params["dec.ln_b"].shape == (4, 8)
    # three LSTMs of 7 arrays each, then mu, sigma, z and y weights and biases
    assert len(m.params) == 29
    assert {k: v.shape for k, v in m.params.items()} == VaeModel.param_shapes(m.config)
    assert m.step == 0


def test_reverse_valid_reverses_real_steps_only():
    seq = np.zeros((1, 4, 5))
    seq[0, :, 0] = [1.0, 2.0, 3.0, 0.0]
    seq[0, :, 4] = [0, 0, 0, 1]
    mask = np.array([[1, 1, 1, 0]], dtype=bool)
    out = reverse_valid(seq, mask)
    npt.assert_allclose(out[0, :, 0], [3.0, 2.0, 1.0, 0.0])
    npt.assert_allclose(out[0, 3], seq[0, 3])


def test_encode_zero_weights_returns_biases():
    m = _model()
    for k, v in m.params.items():
        if k.startswith("w_") or k.endswith(".w_x") or k.endswith(".w_h"):
            v[:] = 0.0
    m.params["b_mu"][:] = [0.5, -0.25, 2.0]
    m.params["b_sigma"][:] = [0.1, 0.2, 0.3]
    mu, sigma_hat = encode(m, to_offsets(_line_sketch().strokes[0])[None])
    npt.assert_allclose(mu.data, [[0.5, -0.25, 2.0]], atol=1e-12)
    npt.assert_allclose(sigma_hat.data, [[0.1, 0.2, 0.3]], atol=1e-12)


def test_encode_is_encoder_feature_through_the_latent_layer():
    m = _model()
    batch = _batch([_line_sketch(steps=5), _line_sketch(dx=-2.0, steps=2),
                    _line_sketch(dx=1.0, dy=2.0, steps=4)], batch_size=3)
    assert not batch.mask.all()
    mu, sigma_hat = encode(m, batch.sequences, batch.mask)
    h = encoder_feature(m, batch.sequences, batch.mask)
    assert h.shape == (3, 2 * TINY.enc_hidden)
    p = m.params
    npt.assert_array_equal(mu.data, h @ p["w_mu"] + p["b_mu"])
    npt.assert_array_equal(sigma_hat.data, h @ p["w_sigma"] + p["b_sigma"])


def test_encoder_feature_is_deterministic_concat():
    m = _model()
    rows = to_offsets(_line_sketch().strokes[0])[None]
    f1 = encoder_feature(m, rows)
    f2 = encoder_feature(m, rows)
    assert f1.shape == (1, 2 * TINY.enc_hidden)
    npt.assert_array_equal(f1, f2)
    assert np.abs(f1).max() > 0


def test_networks_reject_unbatched_input():
    m = _model()
    rows = to_offsets(_line_sketch().strokes[0])
    for call in (lambda: encode(m, rows), lambda: encoder_feature(m, rows),
                 lambda: decode_teacher_forced(m, np.zeros((1, 3)), rows),
                 lambda: decode_teacher_forced(m, np.zeros(3), rows[None])):
        with pytest.raises(ValueError, match=r"\(B, L, D\)"):
            call()


def test_sample_latent_reparameterization():
    mu = np.array([1.0, -2.0, 0.5])
    sigma_hat = np.array([0.0, np.log(4.0), np.log(0.25)])
    noise = np.array([1.0, -1.0, 2.0])
    z = sample_latent(mu, sigma_hat, noise=noise)
    npt.assert_allclose(z.data, mu + np.sqrt([1.0, 4.0, 0.25]) * noise,
                        rtol=1e-12)
    # zero noise lands on the posterior mean
    npt.assert_allclose(sample_latent(mu, sigma_hat, noise=np.zeros(3)).data, mu)


def test_kl_loss_known_values():
    assert kl_loss(np.zeros(4), np.zeros(4)).data == 0.0
    npt.assert_allclose(kl_loss(np.array([1.0]), np.array([0.0])).data, 0.5)
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(6)
    s = rng.standard_normal(6)
    npt.assert_allclose(kl_loss(mu, s).data, kl_gaussian_ref(mu, s), rtol=1e-12)


def test_kl_loss_matches_monte_carlo():
    rng = np.random.default_rng(1)
    mu = rng.standard_normal(2)
    s = rng.standard_normal(2)
    mc = kl_monte_carlo(mu, s, 200_000, np.random.default_rng(2))
    npt.assert_allclose(kl_loss(mu, s).data, mc, rtol=0.03)


def test_kl_loss_averages_over_batch():
    mu = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = np.zeros((2, 2))
    npt.assert_allclose(kl_loss(mu, s).data, (0.25 + 0.0) / 2.0)


def test_kl_weight_schedule():
    assert kl_weight(0, 0.01, 0.99995) == 0.01
    values = [kl_weight(s, 0.01, 0.99995) for s in range(0, 50000, 500)]
    assert all(b > a for a, b in zip(values, values[1:]))
    npt.assert_allclose(kl_weight(10 ** 7, 0.01, 0.99995), 1.0, atol=1e-9)
    # closed form at an arbitrary step
    npt.assert_allclose(kl_weight(13863, 0.01, 0.99995),
                        1.0 - 0.99 * 0.99995 ** 13863, rtol=1e-12)
    with pytest.raises(ValueError):
        kl_weight(-1, 0.01, 0.99995)


def test_decode_teacher_forced_width_and_z_sensitivity():
    m = _model()
    rows = to_offsets(_line_sketch().strokes[0])[None]
    raw = decode_teacher_forced(m, np.zeros((1, 3)), rows)
    assert raw.pi_hat.data.shape == (1, rows.shape[1], 2)
    assert raw.q_hat.data.shape == (1, rows.shape[1], 3)

    raw2 = decode_teacher_forced(m, np.full((1, 3), 2.0), rows)
    diff = np.abs(raw.mu_x.data - raw2.mu_x.data).max()
    assert diff > 0


def test_decode_sample_contract():
    m = _model()
    rng = np.random.default_rng(3)
    one = decode_sample(m, np.zeros(3), 1.0, rng, max_len=1)
    assert one.shape == (1, 5)

    rows = decode_sample(m, np.zeros(3), 0.5, np.random.default_rng(4), max_len=30)
    assert rows.shape[1] == 5
    assert len(rows) <= 30
    pen = rows[:, 2:5]
    assert np.array_equal(pen, pen.astype(bool).astype(np.float64))
    npt.assert_array_equal(pen.sum(axis=1), np.ones(len(rows)))
    # every step before the last draws; the stop condition ends the stroke
    assert np.all(rows[:-1, 2] == 1.0)

    with pytest.raises(ValueError):
        decode_sample(m, np.zeros(3), 0.0, rng, max_len=5)


def test_decode_sample_seed_determinism():
    m = _model()
    a = decode_sample(m, np.ones(3), 0.8, np.random.default_rng(5), max_len=20)
    b = decode_sample(m, np.ones(3), 0.8, np.random.default_rng(5), max_len=20)
    npt.assert_array_equal(a, b)


def test_total_loss_breakdown_and_padding_invariance():
    m = _model()
    batch = _batch([_line_sketch(), _line_sketch(dx=1.0, dy=2.0, steps=5)])
    total, bd = total_loss(m, batch, step=0)
    assert set(bd) == {"displacement_nll", "pen_ce", "kl_div", "kl_weight",
                       "total"}
    npt.assert_allclose(bd["total"],
                        bd["displacement_nll"] + bd["pen_ce"]
                        + bd["kl_weight"] * bd["kl_div"], rtol=1e-12)
    assert bd["kl_weight"] == 0.01

    # garbage displacements on padded steps cannot reach the displacement term
    tampered = batch.sequences.copy()
    tampered[0, -1, :2] = [55.0, -44.0]
    from strokeseg.offsets import StrokeBatch
    with pytest.raises(ValueError):
        StrokeBatch(sequences=tampered, mask=batch.mask, temporal_index=0)
    loose = StrokeBatch.__new__(StrokeBatch)
    loose.sequences, loose.mask, loose.temporal_index = tampered, batch.mask, 0
    _, bd2 = total_loss(m, loose, step=0)
    npt.assert_allclose(bd2["displacement_nll"], bd["displacement_nll"],
                        rtol=1e-12)


def test_total_loss_deterministic_given_noise():
    m = _model()
    batch = _batch([_line_sketch(), _line_sketch(dx=2.0)])
    noise = np.random.default_rng(6).standard_normal((2, 3))
    t1, b1 = total_loss(m, batch, step=3, noise=noise)
    t2, b2 = total_loss(m, batch, step=3, noise=noise)
    assert b1 == b2
    t3, _ = total_loss(m, batch, step=3)  # defaults to the posterior mean
    t4, _ = total_loss(m, batch, step=3)
    npt.assert_allclose(t3.data, t4.data, rtol=1e-15)


def test_total_loss_pen_ce_matches_numpy_reference():
    m = _model(seed=22)
    batch = _batch([_line_sketch(steps=5), _line_sketch(dx=-2.0, steps=2)])
    _, breakdown = total_loss(m, batch, step=0)  # z is the posterior mean
    mu, _ = encode(m, batch.sequences, batch.mask)
    log_q = log_softmax_ref(decode_teacher_forced(m, mu, batch.sequences).q_hat.data)
    # mean over every step of the padded batch, padding rows included
    expected = -np.mean((batch.sequences[:, :, 2:5] * log_q).sum(axis=-1))
    npt.assert_allclose(breakdown["pen_ce"], expected, rtol=1e-12)


def test_train_smoke_and_determinism():
    sketches = toy_strokes(4)

    def run():
        cfg = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2,
                        latent_size=3, batch_size=2, keep_prob=0.9,
                        learning_rate=1e-3)
        m = VaeModel.init(cfg, np.random.default_rng(7))
        m, hist = train(m, sketches, epochs=3, rng=np.random.default_rng(8),
                        val_fraction=0.0)
        return m, hist

    m1, h1 = run()
    m2, h2 = run()
    assert len(h1) == 3 * 2  # 3 epochs x (4 sketches / batch 2) steps
    assert m1.step == 6
    assert all(np.isfinite(r["total"]) for r in h1)
    assert h1 == h2
    for k in m1.params:
        npt.assert_array_equal(m1.params[k], m2.params[k])


def test_train_respects_learning_rate_zero():
    sketches = toy_strokes(4)
    cfg = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                    batch_size=2, keep_prob=1.0, learning_rate=0.0)
    m = VaeModel.init(cfg, np.random.default_rng(9))
    before = {k: v.copy() for k, v in m.params.items()}
    m, _ = train(m, sketches, epochs=1, rng=np.random.default_rng(10),
                 val_fraction=0.0)
    for k in before:
        npt.assert_array_equal(m.params[k], before[k])


def test_train_names_the_step_of_a_non_finite_mixture_head():
    m = _model()
    m.params["w_y"][0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite raw mixture values.* at step 0$"):
        train(m, toy_strokes(4), epochs=1, rng=np.random.default_rng(11), val_fraction=0.0)


def test_reconstruct_sketch_preserves_stroke_count():
    cfg = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                    batch_size=2, keep_prob=1.0, max_len=10)
    m = VaeModel.init(cfg, np.random.default_rng(11))
    sk = Sketch(strokes=[_line_sketch().strokes[0],
                         _line_sketch(dx=0.0, dy=2.0).strokes[0]],
                category="chair")
    out = reconstruct_sketch(m, sk, 0.5, np.random.default_rng(12))
    assert len(out) == len(sk)
    assert out.category == "chair"
    for s in out.strokes:
        assert len(s.points) >= 2
        assert np.all(np.isfinite(s.points))


def test_reconstruct_sketch_encodes_once_for_all_temperatures(monkeypatch):
    cfg = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                    batch_size=2, keep_prob=1.0, max_len=10)
    m = VaeModel.init(cfg, np.random.default_rng(13))
    sk = Sketch(strokes=[_line_sketch().strokes[0],
                         _line_sketch(dx=0.0, dy=2.0).strokes[0]])
    rng = np.random.default_rng(14)
    one_at_a_time = [reconstruct_sketch(m, sk, tau, rng) for tau in (0.01, 0.5, 1.0)]
    calls = []

    def counting_encode(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(vae, "encode", counting_encode)
    out = reconstruct_sketch(m, sk, [0.01, 0.5, 1.0], np.random.default_rng(14))
    assert len(calls) == len(sk)
    assert len(out) == 3
    for got, want in zip(out, one_at_a_time):
        for a, b in zip(got.strokes, want.strokes):
            np.testing.assert_array_equal(a.points, b.points)


def test_tape_size_does_not_grow_with_sequence_length():
    m = _model()
    counts = {}
    for steps in (9, 39):
        batch = _batch([_line_sketch(steps=steps), _line_sketch(dx=1.0, steps=4)])
        total, _ = total_loss(m, batch, step=0, params=m.tensors(requires_grad=True))
        counts[batch.sequences.shape[1]] = count_tape_nodes(total)
    assert set(counts) == {10, 40}
    assert counts[10] == counts[40] < 300


def test_one_training_step_stays_within_its_memory_budget():
    # Traced peak of one loss_and_grads above what was live before it:
    # 7,108,637 bytes measured (numpy 2.4, first call in a process), and the
    # bound allows 10 % more. Holding every node's gradient and closure until
    # backward() returns takes about 10.9 MB here.
    cfg = VaeConfig(enc_hidden=32, dec_hidden=64, num_mixtures=5, latent_size=16,
                    batch_size=8)
    batch = _batch([_line_sketch(dx=1.0 + k % 3, dy=0.5 * k - 2.0, steps=10 + 5 * k)
                    for k in range(8)], batch_size=8)
    m = _model(config=cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss_and_grads(m, batch, 0, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 7_108_637 * 1.10
