"""Bivariate Gaussian mixture output layer for stroke displacements.

The decoder emits, per step, a vector of length 6M + 3 laid out as
[pi_hat (M), mu_x (M), mu_y (M), sigma_x_hat (M), sigma_y_hat (M),
 rho_hat (M), q_hat (3)]. Mixture weights and pen probabilities go through
a softmax, standard deviations through exp, correlations through tanh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, log_softmax, logsumexp

__all__ = [
    "RawMixture", "MixtureParams", "split_params", "transform_params",
    "bivariate_pdf", "mixture_nll", "apply_temperature",
    "sample_point", "NLL_FLOOR",
]

# Densities are floored at the smallest positive normal double, so a single
# step's negative log likelihood never exceeds this cap.
NLL_FLOOR = -np.log(np.finfo(np.float64).tiny)


def _np(v) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)


@dataclass
class RawMixture:
    """Unconstrained decoder outputs; each field (..., M) except q_hat (..., 3)."""

    pi_hat: object
    mu_x: object
    mu_y: object
    sigma_x_hat: object
    sigma_y_hat: object
    rho_hat: object
    q_hat: object


@dataclass
class MixtureParams:
    """Constrained mixture parameters.

    Mixture weights and pen probabilities are kept in the log domain
    (log_pi, log_q) for stable likelihood evaluation; pi and q read them
    back as probability vectors. The fields are Tensors from
    `transform_params` and plain arrays from `apply_temperature`.
    """

    log_pi: Tensor
    mu_x: object
    mu_y: object
    sigma_x: object
    sigma_y: object
    rho: object
    log_q: Tensor

    @property
    def pi(self):
        return _exp(self.log_pi)

    @property
    def q(self):
        return _exp(self.log_q)


def _exp(v):
    return v.exp() if isinstance(v, Tensor) else np.exp(v)


def split_params(y, num_mixtures: int) -> RawMixture:
    """Slice a (..., 6M+3) output vector into named blocks: Tensors for a
    Tensor, plain arrays otherwise."""
    y = y if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    m = num_mixtures
    if y.shape[-1] != 6 * m + 3:
        raise ValueError(f"expected last dim {6 * m + 3}, got {y.shape[-1]}")
    return RawMixture(
        pi_hat=y[..., 0 * m:1 * m],
        mu_x=y[..., 1 * m:2 * m],
        mu_y=y[..., 2 * m:3 * m],
        sigma_x_hat=y[..., 3 * m:4 * m],
        sigma_y_hat=y[..., 4 * m:5 * m],
        rho_hat=y[..., 5 * m:6 * m],
        q_hat=y[..., 6 * m:6 * m + 3],
    )


def _check_finite(raw: RawMixture) -> None:
    for name in ("pi_hat", "mu_x", "mu_y", "sigma_x_hat", "sigma_y_hat",
                 "rho_hat", "q_hat"):
        if not np.all(np.isfinite(_np(getattr(raw, name)))):
            raise ValueError(f"non-finite raw mixture values in {name}")


def transform_params(raw: RawMixture) -> MixtureParams:
    """Map unconstrained outputs to valid mixture parameters.

    Weights and pen states use a softmax (kept in the log domain);
    sigma = exp(sigma_hat) > 0 and rho = tanh(rho_hat) in (-1, 1).
    """
    _check_finite(raw)
    return MixtureParams(
        log_pi=log_softmax(as_tensor(raw.pi_hat), axis=-1),
        mu_x=as_tensor(raw.mu_x),
        mu_y=as_tensor(raw.mu_y),
        sigma_x=as_tensor(raw.sigma_x_hat).exp(),
        sigma_y=as_tensor(raw.sigma_y_hat).exp(),
        rho=as_tensor(raw.rho_hat).tanh(),
        log_q=log_softmax(as_tensor(raw.q_hat), axis=-1),
    )


def bivariate_pdf(mu_x, mu_y, sigma_x, sigma_y, rho, dx, dy):
    """Bivariate normal density at (dx, dy), plain numpy with broadcasting."""
    mu_x, mu_y, sigma_x, sigma_y, rho, dx, dy = map(
        _np, (mu_x, mu_y, sigma_x, sigma_y, rho, dx, dy))
    if np.any(sigma_x <= 0) or np.any(sigma_y <= 0):
        raise ValueError("standard deviations must be positive")
    if np.any(np.abs(rho) >= 1):
        raise ValueError("correlation must lie strictly inside (-1, 1)")
    zx = (dx - mu_x) / sigma_x
    zy = (dy - mu_y) / sigma_y
    u = zx * zx + zy * zy - 2.0 * rho * zx * zy
    one_minus = 1.0 - rho * rho
    norm = 2.0 * np.pi * sigma_x * sigma_y * np.sqrt(one_minus)
    return np.exp(-u / (2.0 * one_minus)) / norm


def mixture_nll(params: MixtureParams, dx, dy) -> Tensor:
    """Negative log likelihood of (dx, dy) under the mixture.

    Works in the log domain with a max-shifted log-sum-exp; the per-point
    value is capped at NLL_FLOOR so vanishing densities stay finite.
    Leading dimensions broadcast, so (B, L) displacement grids evaluate
    against (B, L, M) parameters in one call. Differentiable when the
    parameters are Tensors.
    """
    dx = as_tensor(np.asarray(_np(dx))[..., None])
    dy = as_tensor(np.asarray(_np(dy))[..., None])
    mu_x, mu_y = as_tensor(params.mu_x), as_tensor(params.mu_y)
    sigma_x, sigma_y = as_tensor(params.sigma_x), as_tensor(params.sigma_y)
    rho = as_tensor(params.rho)
    zx = (dx - mu_x) / sigma_x
    zy = (dy - mu_y) / sigma_y
    u = zx * zx + zy * zy - zx * zy * rho * 2.0
    one_minus = (1.0 - rho * rho) + 1e-12
    log_norm = sigma_x.log() + sigma_y.log() + one_minus.log() * 0.5 \
        + np.log(2.0 * np.pi)
    log_component = u / (one_minus * -2.0) - log_norm
    nll = logsumexp(as_tensor(params.log_pi) + log_component, axis=-1) * -1.0
    # min(nll, cap) expressed as cap - relu(cap - nll)
    return (as_tensor(NLL_FLOOR) - nll).relu() * -1.0 + NLL_FLOOR


def apply_temperature(raw: RawMixture, tau: float) -> MixtureParams:
    """Tempered sampling distribution of raw decoder outputs, plain numpy.

    Mixture and pen logits are divided by tau before the softmax; variances
    scale by tau (sigma = exp(sigma_hat) * sqrt(tau)). tau=1 reproduces
    `transform_params(raw)`; tau -> 0 approaches greedy decoding.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    _check_finite(raw)
    root_tau = np.sqrt(tau)
    return MixtureParams(
        log_pi=_log_softmax(_np(raw.pi_hat) / tau),
        mu_x=_np(raw.mu_x),
        mu_y=_np(raw.mu_y),
        sigma_x=np.exp(_np(raw.sigma_x_hat)) * root_tau,
        sigma_y=np.exp(_np(raw.sigma_y_hat)) * root_tau,
        rho=np.tanh(_np(raw.rho_hat)),
        log_q=_log_softmax(_np(raw.q_hat) / tau),
    )


def _log_softmax(v: np.ndarray) -> np.ndarray:
    """`log_softmax` over the last axis in plain numpy. It repeats the
    operations of `logsumexp` in their order, so the two agree bit for bit."""
    m = np.max(v, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return v - (np.log(np.exp(v - m).sum(axis=-1, keepdims=True)) + m)


def sample_point(params: MixtureParams, rng: np.random.Generator):
    """Draw (dx, dy, pen_index) from a single step's mixture.

    The component is drawn from pi, the displacement from that component's
    bivariate normal via the correlated-pair construction, and the pen index
    from q.
    """
    pi = _np(params.pi).ravel()
    j = rng.choice(pi.size, p=pi / pi.sum())
    mu_x = _np(params.mu_x).ravel()[j]
    mu_y = _np(params.mu_y).ravel()[j]
    sigma_x = _np(params.sigma_x).ravel()[j]
    sigma_y = _np(params.sigma_y).ravel()[j]
    rho = _np(params.rho).ravel()[j]
    z1, z2 = rng.standard_normal(2)
    dx = mu_x + sigma_x * z1
    dy = mu_y + sigma_y * (rho * z1 + np.sqrt(1.0 - rho * rho) * z2)
    q = _np(params.q).ravel()
    pen = int(rng.choice(3, p=q / q.sum()))
    return dx, dy, pen
