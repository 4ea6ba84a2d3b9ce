import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.autodiff import Tensor
from strokeseg.mixture import (NLL_FLOOR, MixtureParams, RawMixture,
                               apply_temperature, bivariate_pdf, mixture_nll,
                               sample_point, split_params, transform_params)
from oracles import bivariate_pdf_ref, mixture_nll_ref, softmax_ref


def _raw(rng, m=3, shape=()):
    def r(*extra):
        return Tensor(rng.standard_normal(shape + extra))
    return RawMixture(pi_hat=r(m), mu_x=r(m), mu_y=r(m),
                      sigma_x_hat=r(m), sigma_y_hat=r(m), rho_hat=r(m),
                      q_hat=r(3))


def test_split_params_layout():
    m = 4
    y = Tensor(np.arange(6 * m + 3, dtype=np.float64))
    raw = split_params(y, m)
    npt.assert_allclose(raw.pi_hat.data, np.arange(0, 4))
    npt.assert_allclose(raw.mu_x.data, np.arange(4, 8))
    npt.assert_allclose(raw.mu_y.data, np.arange(8, 12))
    npt.assert_allclose(raw.sigma_x_hat.data, np.arange(12, 16))
    npt.assert_allclose(raw.sigma_y_hat.data, np.arange(16, 20))
    npt.assert_allclose(raw.rho_hat.data, np.arange(20, 24))
    npt.assert_allclose(raw.q_hat.data, np.arange(24, 27))


def test_split_params_rejects_bad_width():
    with pytest.raises(ValueError):
        split_params(Tensor(np.zeros(10)), 2)


def test_transform_params_matches_reference_formulas():
    rng = np.random.default_rng(0)
    raw = _raw(rng)
    p = transform_params(raw)
    npt.assert_allclose(p.pi.data, softmax_ref(raw.pi_hat.data), rtol=1e-12)
    npt.assert_allclose(p.q.data, softmax_ref(raw.q_hat.data), rtol=1e-12)
    npt.assert_allclose(p.sigma_x.data, np.exp(raw.sigma_x_hat.data), rtol=1e-12)
    npt.assert_allclose(p.sigma_y.data, np.exp(raw.sigma_y_hat.data), rtol=1e-12)
    npt.assert_allclose(p.rho.data, np.tanh(raw.rho_hat.data), rtol=1e-12)
    npt.assert_allclose(p.mu_x.data, raw.mu_x.data)
    npt.assert_allclose(np.exp(p.log_pi.data), p.pi.data, rtol=1e-12)
    npt.assert_allclose(np.exp(p.log_q.data), p.q.data, rtol=1e-12)


def test_transform_params_invariants_hold_in_bulk():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = transform_params(_raw(rng, m=5))
        npt.assert_allclose(p.pi.data.sum(), 1.0, atol=1e-9)
        npt.assert_allclose(p.q.data.sum(), 1.0, atol=1e-9)
        assert np.all(p.sigma_x.data > 0) and np.all(p.sigma_y.data > 0)
        assert np.all(np.abs(p.rho.data) < 1)


def test_transform_params_rejects_nonfinite():
    rng = np.random.default_rng(2)
    raw = _raw(rng)
    raw.mu_x.data[0] = np.nan
    with pytest.raises(ValueError, match="mu_x"):
        transform_params(raw)
    with pytest.raises(ValueError, match="mu_x"):
        apply_temperature(raw, 0.5)


def test_bivariate_pdf_matches_reference():
    val = bivariate_pdf(1.0, -1.0, 2.0, 0.5, 0.5, 0.0, 0.0)
    npt.assert_allclose(val, bivariate_pdf_ref(1.0, -1.0, 2.0, 0.5, 0.5, 0.0, 0.0),
                        rtol=1e-12)
    # standard normal at the mean, independent axes
    npt.assert_allclose(bivariate_pdf(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0),
                        1.0 / (2.0 * np.pi), rtol=1e-12)


def test_bivariate_pdf_integrates_to_one():
    grid = np.linspace(-8.0, 8.0, 200)
    xx, yy = np.meshgrid(grid, grid)
    dens = bivariate_pdf(0.3, -0.2, 1.2, 0.7, -0.6, xx, yy)
    cell = (grid[1] - grid[0]) ** 2
    npt.assert_allclose(dens.sum() * cell, 1.0, atol=1e-3)


def test_bivariate_pdf_validates_parameters():
    with pytest.raises(ValueError):
        bivariate_pdf(0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bivariate_pdf(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)


def test_mixture_nll_single_component_closed_form():
    raw = RawMixture(pi_hat=Tensor(np.zeros(1)),
                     mu_x=Tensor(np.array([0.5])), mu_y=Tensor(np.array([-0.25])),
                     sigma_x_hat=Tensor(np.array([np.log(2.0)])),
                     sigma_y_hat=Tensor(np.array([0.0])),
                     rho_hat=Tensor(np.zeros(1)), q_hat=Tensor(np.zeros(3)))
    p = transform_params(raw)
    nll = mixture_nll(p, np.array(1.5), np.array(0.75)).data
    expected = mixture_nll_ref([1.0], [0.5], [-0.25], [2.0], [1.0], [0.0],
                               1.5, 0.75)
    npt.assert_allclose(nll, expected, rtol=1e-10)


def test_mixture_nll_matches_reference_for_random_mixtures():
    rng = np.random.default_rng(3)
    raw = _raw(rng, m=4)
    p = transform_params(raw)
    dx, dy = 0.3, -1.1
    expected = mixture_nll_ref(p.pi.data, p.mu_x.data, p.mu_y.data,
                               p.sigma_x.data, p.sigma_y.data, p.rho.data,
                               dx, dy)
    npt.assert_allclose(mixture_nll(p, np.array(dx), np.array(dy)).data,
                        expected, rtol=1e-9)


def test_mixture_nll_component_permutation_invariance():
    rng = np.random.default_rng(4)
    raw = _raw(rng, m=3)
    p = transform_params(raw)
    perm = [2, 0, 1]
    raw2 = RawMixture(*(Tensor(getattr(raw, f).data[perm]) for f in
                        ("pi_hat", "mu_x", "mu_y", "sigma_x_hat",
                         "sigma_y_hat", "rho_hat")),
                      q_hat=raw.q_hat)
    p2 = transform_params(raw2)
    npt.assert_allclose(mixture_nll(p, np.array(0.2), np.array(0.1)).data,
                        mixture_nll(p2, np.array(0.2), np.array(0.1)).data,
                        rtol=1e-10)


def test_mixture_nll_is_capped_far_from_mass():
    raw = RawMixture(pi_hat=Tensor(np.zeros(2)),
                     mu_x=Tensor(np.zeros(2)), mu_y=Tensor(np.zeros(2)),
                     sigma_x_hat=Tensor(np.full(2, -3.0)),
                     sigma_y_hat=Tensor(np.full(2, -3.0)),
                     rho_hat=Tensor(np.zeros(2)), q_hat=Tensor(np.zeros(3)))
    p = transform_params(raw)
    nll = mixture_nll(p, np.array(1e6), np.array(1e6)).data
    npt.assert_allclose(nll, NLL_FLOOR)
    assert np.isfinite(nll)


def test_mixture_nll_batch_shape():
    rng = np.random.default_rng(5)
    raw = _raw(rng, m=2, shape=(4, 6))
    p = transform_params(raw)
    dx = rng.standard_normal((4, 6))
    dy = rng.standard_normal((4, 6))
    out = mixture_nll(p, dx, dy)
    assert out.shape == (4, 6)


def test_apply_temperature_identity_at_one():
    rng = np.random.default_rng(6)
    raw = _raw(rng)
    p = transform_params(raw)
    adj = apply_temperature(raw, 1.0)
    npt.assert_allclose(adj.pi, p.pi.data, rtol=1e-12)
    npt.assert_allclose(adj.q, p.q.data, rtol=1e-12)
    npt.assert_allclose(adj.sigma_x, p.sigma_x.data, rtol=1e-12)
    npt.assert_allclose(adj.rho, p.rho.data, rtol=1e-12)


def test_apply_temperature_sharpens_and_scales():
    raw = RawMixture(pi_hat=Tensor(np.array([0.0, 1.0])),
                     mu_x=Tensor(np.zeros(2)), mu_y=Tensor(np.zeros(2)),
                     sigma_x_hat=Tensor(np.full(2, np.log(2.0))),
                     sigma_y_hat=Tensor(np.zeros(2)),
                     rho_hat=Tensor(np.zeros(2)), q_hat=Tensor(np.zeros(3)))
    adj = apply_temperature(raw, 0.01)
    assert adj.pi[1] > 1.0 - 1e-10
    # variance scales by tau: sigma 2 -> sqrt(0.25 * 4) = 1 at tau = 0.25
    adj2 = apply_temperature(raw, 0.25)
    npt.assert_allclose(adj2.sigma_x, 1.0, rtol=1e-12)
    npt.assert_allclose(adj2.sigma_y, 0.5, rtol=1e-12)
    npt.assert_allclose(adj2.mu_x, raw.mu_x.data)


def test_apply_temperature_rejects_out_of_range():
    rng = np.random.default_rng(7)
    raw = _raw(rng)
    for tau in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            apply_temperature(raw, tau)


def test_sample_point_statistics_match_parameters():
    raw = RawMixture(pi_hat=Tensor(np.array([0.0])),
                     mu_x=Tensor(np.array([2.0])), mu_y=Tensor(np.array([-3.0])),
                     sigma_x_hat=Tensor(np.array([np.log(1.5)])),
                     sigma_y_hat=Tensor(np.array([np.log(0.5)])),
                     rho_hat=Tensor(np.array([np.arctanh(0.8)])),
                     q_hat=Tensor(np.array([5.0, 0.0, 0.0])))
    p = transform_params(raw)
    rng = np.random.default_rng(8)
    draws = np.array([sample_point(p, rng)[:2] for _ in range(20000)])
    npt.assert_allclose(draws.mean(axis=0), [2.0, -3.0], atol=0.05)
    npt.assert_allclose(draws.std(axis=0), [1.5, 0.5], rtol=0.05)
    npt.assert_allclose(np.corrcoef(draws.T)[0, 1], 0.8, atol=0.02)


def test_sample_point_pen_index_follows_q():
    raw = RawMixture(pi_hat=Tensor(np.zeros(1)),
                     mu_x=Tensor(np.zeros(1)), mu_y=Tensor(np.zeros(1)),
                     sigma_x_hat=Tensor(np.zeros(1)), sigma_y_hat=Tensor(np.zeros(1)),
                     rho_hat=Tensor(np.zeros(1)),
                     q_hat=Tensor(np.array([0.0, 20.0, 0.0])))
    p = transform_params(raw)
    rng = np.random.default_rng(9)
    pens = {sample_point(p, rng)[2] for _ in range(100)}
    assert pens == {1}


def test_sample_point_picks_dominant_component_when_sharpened():
    raw = RawMixture(pi_hat=Tensor(np.array([2.0, 1.0])),
                     mu_x=Tensor(np.array([10.0, -10.0])),
                     mu_y=Tensor(np.array([5.0, -5.0])),
                     sigma_x_hat=Tensor(np.full(2, -2.0)),
                     sigma_y_hat=Tensor(np.full(2, -2.0)),
                     rho_hat=Tensor(np.zeros(2)), q_hat=Tensor(np.zeros(3)))
    adj = apply_temperature(raw, 0.01)
    rng = np.random.default_rng(10)
    for _ in range(50):
        dx, dy, _ = sample_point(adj, rng)
        assert abs(dx - 10.0) < 1.0 and abs(dy - 5.0) < 1.0
