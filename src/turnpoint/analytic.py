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
from .diffusion import NoiseSchedule, step_index

__all__ = [
    "VARIANCE_FLOOR",
    "SCORE_SLICE_BYTES",
    "GaussianMixture",
    "diffused_mixture",
    "log_density",
    "responsibilities",
    "MixtureTables",
    "mixture_tables",
    "predict_eps",
    "AnalyticDenoiser",
]

VARIANCE_FLOOR = 1e-12

# Bytes of each (rows, K, D) temporary when scoring rows under mixture
# tables of K >= 2 components; rows are scored a slice at a time.  Not a
# setting: rows are scored independently, so the slices change no bit.
# On a 2-CPU host, 2112 unsliced rows of K = 2, D = 96 took 6.5 us per
# row and step, against 2.0 us in slices of this size; 16 KiB slices
# took 5.5 us, as each slice costs about a dozen numpy calls.
SCORE_SLICE_BYTES = 1 << 17

# Where every coordinate of z - mean is within this distance, a
# one-component log-density over any practical dimension cannot overflow
# (at most D * 1e212 with the variance floor), so the responsibility is
# exactly 1.
_FINITE_DISTANCE = 1e100

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Diagonal-covariance mixture: weights (K,), means (K, D), variances (K, D).

    The constructor checks the shapes and, through :func:`_check_mixture`,
    the values, and keeps read-only copies with the variances floored at
    :data:`VARIANCE_FLOOR`.  The mixtures of
    :func:`~turnpoint.worldgen.suite_training_pairs` are built without it:
    their stacked arrays are checked once where they are built, and each
    mixture's arrays are read-only views into those stacks.
    """

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
        _check_mixture(w, mu, var)
        for arr, name in ((w, "weights"), (mu, "means"), (var, "variances")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _check_mixture(weights, means, variances) -> None:
    """The value checks of one mixture, weights (K,) with means and
    variances (K, D), or of a stack of them, weights (..., K) broadcast
    against means and variances (..., K, D).  Floors ``variances`` in
    place at :data:`VARIANCE_FLOOR`, so degenerate components stay usable."""
    if not (
        np.all(np.isfinite(weights))
        and np.all(np.isfinite(means))
        and np.all(np.isfinite(variances))
    ):
        raise ValueError("mixture parameters contain non-finite values")
    if np.any(weights <= 0.0):
        raise ValueError("mixture weights must be strictly positive")
    sums = weights.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise ValueError(f"mixture weights must sum to 1, got {sums!r}")
    if np.any(variances < 0.0):
        raise ValueError("variances must be non-negative")
    np.maximum(variances, VARIANCE_FLOOR, out=variances)


def _mixture_view(weights, means, variances) -> GaussianMixture:
    """A mixture over read-only arrays that :func:`_check_mixture` has
    passed, sharing them rather than copying and checking them again."""
    mixture = object.__new__(GaussianMixture)
    mixture.__dict__.update(weights=weights, means=means, variances=variances)
    return mixture


def _diffuse(means, variances, t: int, sched: NoiseSchedule):
    """Component means and floored variances pushed forward to step ``t``."""
    coef = sched.coef
    a_bar = coef.alpha_bar[t]
    variances = a_bar * variances + (1.0 - a_bar)
    return coef.sqrt_alpha_bar[t] * means, np.maximum(variances, VARIANCE_FLOOR)


def diffused_mixture(mixture: GaussianMixture, t: int, sched: NoiseSchedule) -> GaussianMixture:
    """The data mixture pushed forward to diffusion step ``t``."""
    t = step_index(sched, t)
    return GaussianMixture(
        mixture.weights, *_diffuse(mixture.means, mixture.variances, t, sched)
    )


def _check_point(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] != dim:
        raise ValueError(f"point has shape {z.shape}, mixture dimension is {dim}")
    return z


def _log_component_densities(
    diff: np.ndarray, variances: np.ndarray, log_variances: np.ndarray
) -> np.ndarray:
    # diff (..., K, D) = z - means -> log densities (..., K); in place, the
    # same operations in the same order as diff * diff / variances + ...
    terms = diff * diff
    terms /= variances
    terms += log_variances
    terms += _LOG_2PI
    return -0.5 * np.sum(terms, axis=-1)


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
    """Mixtures, the slots, stacked for scoring at any step of a noise
    schedule.

    ``log_weights`` is (slots, K) and ``means`` and ``variances`` are
    (slots, K, D), K being the largest component count; a slot with fewer
    components is padded with log-weight -inf, mean 0 and variance 1,
    which get zero responsibility.  :func:`predict_eps` diffuses the slots
    to the step it answers.
    """

    log_weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_components(self) -> int:
        return self.means.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[-1]


def mixture_tables(mixtures) -> MixtureTables:
    """Stack ``mixtures`` into :class:`MixtureTables`."""
    mixtures = list(mixtures)
    if not mixtures:
        raise ValueError("tables need at least one mixture")
    dim = mixtures[0].dim
    if any(m.dim != dim for m in mixtures):
        raise ValueError("tabled mixtures differ in dimension")
    n_comp = max(m.n_components for m in mixtures)
    shape = (len(mixtures), n_comp, dim)
    log_weights = np.full((len(mixtures), n_comp), -np.inf)
    means, variances = np.zeros(shape), np.ones(shape)
    for slot, m in enumerate(mixtures):
        k = m.n_components
        log_weights[slot, :k] = np.log(m.weights)
        means[slot, :k] = m.means
        variances[slot, :k] = m.variances
    return MixtureTables(log_weights, means, variances)


def _mixture_eps(z, scale, log_weights, means, variances, log_variances):
    """The noise prediction at ``z`` (..., D) under diffused components,
    ``scale`` being ``-sqrt(1 - alpha_bar)`` at their step."""
    diff = z[..., None, :] - means
    resp = _posterior(
        log_weights, _log_component_densities(diff, variances, log_variances)
    )
    # in place, the same operations as resp * (-diff / variances)
    scores = np.negative(diff, out=diff)
    scores /= variances
    scores *= resp[..., None]
    eps = np.sum(scores, axis=-2)
    eps *= scale
    return eps


def _one_component_eps(z, scale, means, variances):
    """The noise prediction at ``z`` (rows, D) under one diffused component
    per row, ``means`` being overwritten; or None when ``z`` lies so far
    out that the log-density may overflow.

    The responsibility of a lone component is exactly 1 whenever its
    log-density is finite, so :func:`_mixture_eps` reduces to
    ``scale * (0.0 - (z - mean) / variance)``, where the sum over one
    component adds the ``0.0``.  Computed in that order, bit for bit; and
    finite, as the distances are bounded.
    """
    eps = np.subtract(z, means, out=means)
    lo, hi = eps.min(initial=0.0), eps.max(initial=0.0)  # NaN fails both tests
    if not (-_FINITE_DISTANCE <= lo and hi <= _FINITE_DISTANCE):
        return None
    eps /= variances
    np.subtract(0.0, eps, out=eps)
    eps *= scale
    return eps


def predict_eps(z, t: int, cond_mixture, sched: NoiseSchedule, slots=None) -> np.ndarray:
    """Exact noise prediction under the diffused conditional mixture.

    ``cond_mixture`` is one :class:`GaussianMixture`, and ``z`` a single
    point ``(D,)`` or a batch ``(..., D)``; or it is :class:`MixtureTables`,
    ``z`` is ``(rows, D)`` and row ``r`` is answered under slot
    ``slots[r]``: the slots are diffused to step ``t``, and rows are scored
    in slices of about ``SCORE_SLICE_BYTES``.  Equal, bit for bit, to
    scoring under :func:`diffused_mixture`, without building that mixture.
    """
    t = step_index(sched, t)
    z = _check_point(z, cond_mixture.dim)
    means, variances = _diffuse(cond_mixture.means, cond_mixture.variances, t, sched)
    scale = -sched.coef.sqrt_one_minus_alpha_bar[t]
    if isinstance(cond_mixture, MixtureTables):
        slots = np.asarray(slots, dtype=np.intp)
        if z.ndim != 2 or slots.shape != z.shape[:1]:
            raise ValueError(
                f"{slots.shape} slots for points of shape {z.shape}; expected one per row"
            )
        if cond_mixture.n_components == 1:
            eps_hat = _one_component_eps(z, scale, means[slots, 0], variances[slots, 0])
            if eps_hat is not None:
                return eps_hat
        log_variances = np.log(variances)
        eps_hat = np.empty_like(z)
        step = max(1, SCORE_SLICE_BYTES // (means[0].size * means.itemsize))
        for start in range(0, z.shape[0], step):
            rows = slots[start : start + step]
            eps_hat[start : start + step] = _mixture_eps(
                z[start : start + step], scale, cond_mixture.log_weights[rows],
                means[rows], variances[rows], log_variances[rows],
            )
    else:
        if slots is not None:
            raise ValueError("slots need mixture tables")
        eps_hat = _mixture_eps(
            z, scale, np.log(cond_mixture.weights), means, variances, np.log(variances)
        )
    if not np.all(np.isfinite(eps_hat)):
        raise FloatingPointError("non-finite noise prediction from analytic denoiser")
    return eps_hat


def _same_mixture(a: GaussianMixture, b: GaussianMixture) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in ((a.weights, b.weights), (a.means, b.means), (a.variances, b.variances))
    )


class AnalyticDenoiser:
    """Sampler backend answering from registered condition -> mixture pairs.

    Conditions are matched by exact value; querying an unregistered
    condition is an error rather than a silent fallback.
    """

    def __init__(self, noise_schedule: NoiseSchedule, dim: int):
        if dim < 1:
            raise ValueError(f"invalid latent dimension {dim}")
        self._sched = noise_schedule
        self._dim = int(dim)
        self._mixtures: dict[bytes, GaussianMixture] = {}

    @property
    def noise_schedule(self) -> NoiseSchedule:
        return self._sched

    @property
    def dim(self) -> int:
        return self._dim

    def register(self, cond: ConditionEmbedding, mixture: GaussianMixture) -> None:
        """Answer ``cond`` from ``mixture``; registering a condition again
        with a different mixture is an error."""
        if mixture.dim != self.dim:
            raise ValueError(
                f"mixture dimension {mixture.dim} does not match backend dimension {self.dim}"
            )
        known = self._mixtures.setdefault(cond.key(), mixture)
        if known is not mixture and not _same_mixture(known, mixture):
            raise ValueError("this condition is already registered with another mixture")

    def mixture_for(self, cond: ConditionEmbedding) -> GaussianMixture:
        try:
            return self._mixtures[cond.key()]
        except KeyError:
            raise ValueError(
                "no data distribution registered for this condition"
            ) from None

    def prepare(self, conds) -> MixtureTables:
        """The registered mixtures of ``conds``, tabled."""
        return mixture_tables(self.mixture_for(c) for c in conds)

    def predict_eps(self, z, t: int, tables: MixtureTables, slots) -> np.ndarray:
        return predict_eps(z, t, tables, self._sched, slots)
