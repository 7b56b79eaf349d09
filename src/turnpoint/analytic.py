"""Training-free denoising oracle for Gaussian-mixture data.

For data p(z0) = sum_k w_k N(mu_k, diag(v_k)), the forward process keeps
the family closed: at step t the marginal is the same mixture with
mu -> sqrt(abar_t) mu and v -> abar_t v + (1 - abar_t).  The exact noise
prediction follows from the score of that diffused mixture,

    eps_hat(z, t) = -sqrt(1 - abar_t) * grad_z log p_t(z),

with grad log p_t a responsibility-weighted sum of per-component
Gaussian scores -(z - mu_k) / v_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import ConditionEmbedding
from .diffusion import NoiseSchedule

__all__ = [
    "VARIANCE_FLOOR",
    "GaussianMixture",
    "single_gaussian",
    "diffused_mixture",
    "log_density",
    "responsibilities",
    "predict_eps",
    "sample_mixture",
    "AnalyticDenoiser",
]

VARIANCE_FLOOR = 1e-12

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Diagonal-covariance mixture: weights (K,), means (K, D), variances (K, D)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        mu = np.asarray(self.means, dtype=np.float64).copy()
        var = np.asarray(self.variances, dtype=np.float64).copy()
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        if mu.ndim != 2 or mu.shape[0] != w.shape[0]:
            raise ValueError(
                f"means must have shape (K, D) with K={w.shape[0]}, got {mu.shape}"
            )
        if var.shape != mu.shape:
            raise ValueError(
                f"variances shape {var.shape} must match means shape {mu.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise ValueError("mixture parameters contain non-finite values")
        if np.any(w <= 0.0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(var < 0.0):
            raise ValueError("variances must be non-negative")
        var = np.maximum(var, VARIANCE_FLOOR)  # degenerate components stay usable
        for arr, name in ((w, "weights"), (mu, "means"), (var, "variances")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def single_gaussian(mean, variance) -> GaussianMixture:
    """One-component mixture; ``variance`` may be a scalar or a vector."""
    mean = np.asarray(mean, dtype=np.float64).ravel()
    var = np.broadcast_to(np.asarray(variance, dtype=np.float64), mean.shape)
    return GaussianMixture(np.array([1.0]), mean[None, :], var[None, :].copy())


def _diffuse(mixture: GaussianMixture, t: int, sched: NoiseSchedule):
    """Means and floored variances of ``mixture`` pushed forward to step ``t``."""
    t = int(t)
    if not 0 <= t < sched.n_steps:
        raise ValueError(f"step index {t} outside [0, {sched.n_steps})")
    a_bar = sched.alpha_bar[t]
    variances = a_bar * mixture.variances + (1.0 - a_bar)
    return np.sqrt(a_bar) * mixture.means, np.maximum(variances, VARIANCE_FLOOR)


def diffused_mixture(mixture: GaussianMixture, t: int, sched: NoiseSchedule) -> GaussianMixture:
    """The data mixture pushed forward to diffusion step ``t``."""
    return GaussianMixture(mixture.weights, *_diffuse(mixture, t, sched))


def _check_point(z, mixture) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] != mixture.dim:
        raise ValueError(f"point has shape {z.shape}, mixture dimension is {mixture.dim}")
    return z


def _log_component_densities(diff: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # diff (..., K, D) = z - means -> log densities (..., K)
    return -0.5 * np.sum(
        diff * diff / variances + np.log(variances) + _LOG_2PI,
        axis=-1,
    )


def _posterior(log_weights: np.ndarray, log_densities: np.ndarray) -> np.ndarray:
    lw = log_weights + log_densities
    lw = lw - lw.max(axis=-1, keepdims=True)
    w = np.exp(lw)
    return w / w.sum(axis=-1, keepdims=True)


def log_density(z, mixture: GaussianMixture):
    """log p(z) under the mixture, via log-sum-exp.

    A single point gives a float; a batch of points gives an array of
    matching leading shape.
    """
    z = _check_point(z, mixture)
    diff = z[..., None, :] - mixture.means
    lw = np.log(mixture.weights) + _log_component_densities(diff, mixture.variances)
    peak = lw.max(axis=-1, keepdims=True)
    out = peak[..., 0] + np.log(np.exp(lw - peak).sum(axis=-1))
    return float(out) if z.ndim == 1 else out


def responsibilities(z, mixture: GaussianMixture) -> np.ndarray:
    """Posterior component probabilities at ``z``; sums to 1 along the
    trailing axis."""
    z = _check_point(z, mixture)
    diff = z[..., None, :] - mixture.means
    return _posterior(
        np.log(mixture.weights), _log_component_densities(diff, mixture.variances)
    )


def predict_eps(z, t: int, cond_mixture: GaussianMixture, sched: NoiseSchedule) -> np.ndarray:
    """Exact noise prediction under the diffused conditional mixture.

    ``z`` may be a single point ``(D,)`` or a batch ``(..., D)``.  Equal,
    bit for bit, to scoring under :func:`diffused_mixture`, without
    building that mixture.
    """
    means, variances = _diffuse(cond_mixture, t, sched)
    z = _check_point(z, cond_mixture)
    diff = z[..., None, :] - means
    resp = _posterior(
        np.log(cond_mixture.weights), _log_component_densities(diff, variances)
    )
    score = np.sum(resp[..., None] * (-diff / variances), axis=-2)
    eps_hat = -np.sqrt(1.0 - sched.alpha_bar[int(t)]) * score
    if not np.all(np.isfinite(eps_hat)):
        raise FloatingPointError("non-finite noise prediction from analytic denoiser")
    return eps_hat


def sample_mixture(mixture: GaussianMixture, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` points from the mixture; shape (n, D)."""
    if n < 0:
        raise ValueError("sample count must be non-negative")
    comp = rng.choice(mixture.n_components, size=n, p=mixture.weights)
    noise = rng.standard_normal((n, mixture.dim))
    return mixture.means[comp] + np.sqrt(mixture.variances[comp]) * noise


class AnalyticDenoiser:
    """Sampler backend answering from registered condition -> mixture pairs.

    Conditions are matched by exact value; querying an unregistered
    condition is an error rather than a silent fallback.
    """

    def __init__(self, noise_schedule: NoiseSchedule, frame_shape: tuple[int, int]):
        n_frames, frame_dim = frame_shape
        if n_frames < 1 or frame_dim < 1:
            raise ValueError(f"invalid frame shape {frame_shape}")
        self._sched = noise_schedule
        self._frame_shape = (int(n_frames), int(frame_dim))
        self._mixtures: dict[bytes, GaussianMixture] = {}

    @property
    def noise_schedule(self) -> NoiseSchedule:
        return self._sched

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self._frame_shape

    @property
    def dim(self) -> int:
        return self._frame_shape[0] * self._frame_shape[1]

    def register(self, cond: ConditionEmbedding, mixture: GaussianMixture) -> None:
        if mixture.dim != self.dim:
            raise ValueError(
                f"mixture dimension {mixture.dim} does not match backend dimension {self.dim}"
            )
        self._mixtures[cond.key()] = mixture

    def mixture_for(self, cond: ConditionEmbedding) -> GaussianMixture:
        try:
            return self._mixtures[cond.key()]
        except KeyError:
            raise ValueError(
                "no data distribution registered for this condition"
            ) from None

    def predict_eps(self, z, t: int, cond: ConditionEmbedding) -> np.ndarray:
        return predict_eps(z, t, self.mixture_for(cond), self._sched)
