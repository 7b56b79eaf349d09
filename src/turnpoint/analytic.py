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
    "MixtureTables",
    "mixture_tables",
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


def _check_point(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] != dim:
        raise ValueError(f"point has shape {z.shape}, mixture dimension is {dim}")
    return z


def _log_component_densities(
    diff: np.ndarray, variances: np.ndarray, log_variances: np.ndarray
) -> np.ndarray:
    # diff (..., K, D) = z - means -> log densities (..., K)
    return -0.5 * np.sum(
        diff * diff / variances + log_variances + _LOG_2PI,
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
    z = _check_point(z, mixture.dim)
    diff = z[..., None, :] - mixture.means
    lw = np.log(mixture.weights) + _log_component_densities(
        diff, mixture.variances, np.log(mixture.variances)
    )
    peak = lw.max(axis=-1, keepdims=True)
    out = peak[..., 0] + np.log(np.exp(lw - peak).sum(axis=-1))
    return float(out) if z.ndim == 1 else out


def responsibilities(z, mixture: GaussianMixture) -> np.ndarray:
    """Posterior component probabilities at ``z``; sums to 1 along the
    trailing axis."""
    z = _check_point(z, mixture.dim)
    diff = z[..., None, :] - mixture.means
    return _posterior(
        np.log(mixture.weights),
        _log_component_densities(diff, mixture.variances, np.log(mixture.variances)),
    )


@dataclass(frozen=True, eq=False)
class MixtureTables:
    """Mixtures, the slots, diffused to every step of a noise schedule.

    ``log_weights`` is (slots, K) and ``means``, ``variances`` (floored)
    and ``log_variances`` are (n_steps, slots, K, D), K being the largest
    component count; a slot with fewer components is padded with
    log-weight -inf, mean 0 and variance 1, which get zero
    responsibility.
    """

    log_weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_variances: np.ndarray

    @property
    def dim(self) -> int:
        return self.means.shape[-1]


def mixture_tables(mixtures, sched: NoiseSchedule) -> MixtureTables:
    """Stack ``mixtures`` into :class:`MixtureTables` over every step of
    ``sched``; each entry equals what :func:`diffused_mixture` gives."""
    mixtures = list(mixtures)
    if not mixtures:
        raise ValueError("tables need at least one mixture")
    dim = mixtures[0].dim
    if any(m.dim != dim for m in mixtures):
        raise ValueError("tabled mixtures differ in dimension")
    n_comp = max(m.n_components for m in mixtures)
    shape = (sched.n_steps, len(mixtures), n_comp, dim)
    log_weights = np.full((len(mixtures), n_comp), -np.inf)
    means, variances = np.zeros(shape), np.ones(shape)
    a_bar = sched.alpha_bar[:, None, None]
    for slot, m in enumerate(mixtures):
        k = m.n_components
        log_weights[slot, :k] = np.log(m.weights)
        means[:, slot, :k] = np.sqrt(a_bar) * m.means
        variances[:, slot, :k] = np.maximum(
            a_bar * m.variances + (1.0 - a_bar), VARIANCE_FLOOR
        )
    return MixtureTables(log_weights, means, variances, np.log(variances))


def predict_eps(z, t: int, cond_mixture, sched: NoiseSchedule, slots=None) -> np.ndarray:
    """Exact noise prediction under the diffused conditional mixture.

    ``cond_mixture`` is one :class:`GaussianMixture`, and ``z`` a single
    point ``(D,)`` or a batch ``(..., D)``; or it is :class:`MixtureTables`
    over ``sched``, ``z`` is ``(rows, D)`` and row ``r`` is answered under
    slot ``slots[r]``.  Equal, bit for bit, to scoring under
    :func:`diffused_mixture`, without building that mixture.
    """
    t = int(t)
    if isinstance(cond_mixture, MixtureTables):
        if not 0 <= t < sched.n_steps:
            raise ValueError(f"step index {t} outside [0, {sched.n_steps})")
        z = _check_point(z, cond_mixture.dim)
        slots = np.asarray(slots, dtype=np.intp)
        if z.ndim != 2 or slots.shape != z.shape[:1]:
            raise ValueError(
                f"{slots.shape} slots for points of shape {z.shape}; expected one per row"
            )
        log_weights = cond_mixture.log_weights[slots]
        means = cond_mixture.means[t, slots]
        variances = cond_mixture.variances[t, slots]
        log_variances = cond_mixture.log_variances[t, slots]
    else:
        if slots is not None:
            raise ValueError("slots need mixture tables")
        means, variances = _diffuse(cond_mixture, t, sched)
        z = _check_point(z, cond_mixture.dim)
        log_weights = np.log(cond_mixture.weights)
        log_variances = np.log(variances)
    diff = z[..., None, :] - means
    resp = _posterior(
        log_weights, _log_component_densities(diff, variances, log_variances)
    )
    score = np.sum(resp[..., None] * (-diff / variances), axis=-2)
    eps_hat = -np.sqrt(1.0 - sched.alpha_bar[t]) * score
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

    def prepare(self, conds) -> MixtureTables:
        """The registered mixtures of ``conds``, tabled over every step of
        the noise schedule."""
        return mixture_tables([self.mixture_for(c) for c in conds], self._sched)

    def predict_eps(self, z, t: int, tables: MixtureTables, slots) -> np.ndarray:
        return predict_eps(z, t, tables, self._sched, slots)
