import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from strokeseg.optim import BLOCK, AdamState, adam_update, clip_gradients
from strokeseg.vae import VaeConfig, VaeModel, train
from oracles import adam_ref
from synthdata import toy_strokes


CFG = VaeConfig(enc_hidden=4, dec_hidden=8, num_mixtures=2, latent_size=3,
                batch_size=2, keep_prob=1.0)


def test_round_trip_is_bit_exact(tmp_path):
    m = VaeModel.init(CFG, np.random.default_rng(0))
    m.step = 17
    path = tmp_path / "model.npz"
    save_checkpoint(path, m)
    loaded, adam = load_checkpoint(path)
    assert adam.t == 0 and not adam.m
    assert loaded.step == 17
    assert loaded.config == CFG
    assert set(loaded.params) == set(m.params)
    for k in m.params:
        npt.assert_array_equal(loaded.params[k], m.params[k])
        assert loaded.params[k].dtype == m.params[k].dtype


def test_round_trip_preserves_adam_state(tmp_path):
    m = VaeModel.init(CFG, np.random.default_rng(1))
    state = AdamState()
    grads = {k: np.full_like(v, 0.25) for k, v in m.params.items()}
    adam_update(m.params, grads, state, lr=1e-3)
    adam_update(m.params, grads, state, lr=1e-3)

    path = tmp_path / "model.npz"
    save_checkpoint(path, m, state)
    _, loaded_state = load_checkpoint(path)
    assert loaded_state.t == 2
    for k in state.m:
        npt.assert_array_equal(loaded_state.m[k], state.m[k])
        npt.assert_array_equal(loaded_state.v[k], state.v[k])


def test_resume_continues_step_counter(tmp_path):
    sketches = toy_strokes(4)
    m = VaeModel.init(CFG, np.random.default_rng(2))
    state = AdamState()
    m, _ = train(m, sketches, epochs=2, rng=np.random.default_rng(3),
                 val_fraction=0.0, adam_state=state)
    assert m.step == 4

    path = tmp_path / "resume.npz"
    save_checkpoint(path, m, state)
    m2, state2 = load_checkpoint(path)
    m2, hist = train(m2, sketches, epochs=1, rng=np.random.default_rng(4),
                     val_fraction=0.0, adam_state=state2)
    assert m2.step == 6
    # history step ids are the counter values the steps ran at (0-based)
    assert [h["step"] for h in hist] == [4, 5]


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.npz")


@pytest.mark.parametrize("key", ["param.dec.ln_g", "adam_v.b_y"])
def test_load_rejects_non_finite_arrays(tmp_path, key):
    m = VaeModel.init(CFG, np.random.default_rng(6))
    state = AdamState()
    adam_update(m.params, {k: np.ones_like(v) for k, v in m.params.items()}, state, lr=1e-3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, m, state)
    with np.load(path) as z:
        arrays = {k: z[k].copy() for k in z.files}
    arrays[key].flat[-1] = np.inf
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"{path}.*non-finite values in {key}"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["drop", "extra"])
def test_load_rejects_parameter_names_the_config_does_not_imply(tmp_path, edit):
    m = VaeModel.init(CFG, np.random.default_rng(7))
    if edit == "drop":
        del m.params["w_mu"]
    else:
        m.params["w_extra"] = np.zeros(3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, m)
    name = "w_mu" if edit == "drop" else "w_extra"
    with pytest.raises(ValueError, match=f"{path}: parameters \\['{name}'\\] do not match"):
        load_checkpoint(path)


def test_format_version_recorded(tmp_path):
    m = VaeModel.init(CFG, np.random.default_rng(5))
    path = tmp_path / "model.npz"
    save_checkpoint(path, m)
    import json
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
    assert meta["format_version"] == FORMAT_VERSION
    assert meta["step"] == 0


def test_clip_gradients_elementwise():
    grads = {"a": np.array([-3.0, 0.5, 2.0])}
    out = clip_gradients(grads, 1.0)
    npt.assert_allclose(out["a"], [-1.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        clip_gradients({"a": np.array([0.2])}, 0.0)


def test_adam_first_step_moves_by_lr_against_gradient_sign():
    params = {"w": np.array([1.0, -1.0])}
    grads = {"w": np.array([0.3, -0.7])}
    adam_update(params, grads, AdamState(), lr=0.01)
    # bias-corrected first step has magnitude ~lr in each coordinate
    npt.assert_allclose(params["w"], [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)


def test_adam_update_in_place_matches_out_of_place_oracle():
    rng = np.random.default_rng(23)
    params = {"w": rng.standard_normal((7, 5)), "b": rng.standard_normal(5)}
    arrays = dict(params)
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    state = AdamState()
    for t in range(1, 7):
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        adam_update(params, grads, state, lr=1e-2)
        ref_p, ref_m, ref_v = adam_ref(ref_p, grads, ref_m, ref_v, t, lr=1e-2)
        if t == 1:
            moments = (dict(state.m), dict(state.v))
        for k in params:
            npt.assert_array_equal(params[k], ref_p[k])
            npt.assert_array_equal(state.m[k], ref_m[k])
            npt.assert_array_equal(state.v[k], ref_v[k])
            assert params[k] is arrays[k]
            assert state.m[k] is moments[0][k] and state.v[k] is moments[1][k]


def test_adam_update_clips_into_scratch_without_touching_grads():
    rng = np.random.default_rng(31)
    # "big" spans two full blocks and a partial one; "one" has one element
    params = {"w": rng.standard_normal((6, 4)), "b": rng.standard_normal(4),
              "s": rng.standard_normal(()), "one": rng.standard_normal(1),
              "big": rng.standard_normal((5, BLOCK // 2 + 7))}
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    state = AdamState()
    clipped_some = False
    for t in range(1, 7):
        grads = {k: 2.0 * rng.standard_normal(v.shape) for k, v in params.items()}
        before = {k: g.copy() for k, g in grads.items()}
        adam_update(params, grads, state, lr=1e-2, threshold=1.5)
        clipped = {k: np.clip(g, -1.5, 1.5) for k, g in grads.items()}
        ref_p, ref_m, ref_v = adam_ref(ref_p, clipped, ref_m, ref_v, t, lr=1e-2)
        clipped_some |= any(np.any(np.abs(g) > 1.5) for g in grads.values())
        for k in params:
            npt.assert_array_equal(grads[k], before[k])
            npt.assert_array_equal(params[k], ref_p[k])
            npt.assert_array_equal(state.m[k], ref_m[k])
            npt.assert_array_equal(state.v[k], ref_v[k])
    assert clipped_some
    with pytest.raises(ValueError):
        adam_update(params, grads, state, lr=1e-2, threshold=0.0)
    # a strided parameter cannot be updated through a flat view
    with pytest.raises(ValueError):
        adam_update({"w": np.ones((4, 6))[:, ::2]}, {"w": np.ones((4, 3))},
                    AdamState(), lr=1e-2)
