"""Forward noising, the noise schedule, and the reverse ancestral sampler.

Forward marginal:  z_t = sqrt(abar_t) * z_0 + sqrt(1 - abar_t) * eps
Reverse update:    mean = (z_t - beta_t / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t)
with injected noise sigma_t^2 = beta_t for t > 0 and sigma_0 = 0, so the
final step is deterministic.  The sampler walks denoising iterations
i = 0 .. N-1 against diffusion steps t = N-1-i (noisiest first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .conditioning import (
    BlockAssignment,
    ConditionEmbedding,
    unconditioned,
)

__all__ = [
    "NoiseSchedule",
    "DenoiserBackend",
    "build_schedule",
    "forward_noise",
    "ancestral_step",
    "sample",
]


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Arrays beta, alpha = 1 - beta and abar = cumprod(alpha).

    Range checks only; :func:`build_schedule` guarantees the product
    relation between the arrays.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def __post_init__(self):
        for name in ("beta", "alpha", "alpha_bar"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.beta.shape[0]
        if n < 1 or self.alpha.shape != (n,) or self.alpha_bar.shape != (n,):
            raise ValueError("schedule arrays must share one length >= 1")
        if np.any(self.beta <= 0.0) or np.any(self.beta >= 1.0):
            raise ValueError("beta values must lie strictly inside (0, 1)")
        if np.any(self.alpha_bar <= 0.0) or np.any(self.alpha_bar > 1.0):
            raise ValueError("alpha_bar values must lie in (0, 1]")
        if n > 1 and np.any(np.diff(self.alpha_bar) >= 0.0):
            raise ValueError("alpha_bar must decrease strictly")

    @property
    def n_steps(self) -> int:
        return self.beta.shape[0]


def build_schedule(
    n_steps: int, beta_min: float = 1e-4, beta_max: float = 0.02
) -> NoiseSchedule:
    """Linear beta schedule between the two bounds."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ValueError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )
    beta = np.linspace(beta_min, beta_max, n_steps)
    alpha = 1.0 - beta
    return NoiseSchedule(beta, alpha, np.cumprod(alpha))


def _check_step(sched, t) -> None:
    n = len(sched.beta)
    t_arr = np.asarray(t)
    if np.any(t_arr < 0) or np.any(t_arr >= n):
        raise ValueError(f"step index {t} outside [0, {n})")


def forward_noise(z0, t, eps, sched) -> np.ndarray:
    """Closed-form forward marginal sample at step ``t``.

    Accepts a single vector with scalar ``t`` or a batch of rows with a
    per-row ``t``.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ValueError(f"z0 and eps differ in shape: {z0.shape} vs {eps.shape}")
    _check_step(sched, t)
    a_bar = np.asarray(sched.alpha_bar)[t]
    if z0.ndim == 2 and np.ndim(a_bar) == 1:
        a_bar = a_bar[:, None]
    return np.sqrt(a_bar) * z0 + np.sqrt(1.0 - a_bar) * eps


def ancestral_step(z_t, t, eps_hat, sched, noise) -> np.ndarray:
    """One reverse update from step ``t`` to ``t - 1``.

    Uses the eps-parameterised posterior mean and sigma_t^2 = beta_t;
    at ``t = 0`` the noise argument is ignored (sigma_0 = 0).
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if z_t.shape != eps_hat.shape or z_t.shape != noise.shape:
        raise ValueError(
            "z_t, eps_hat and noise differ in shape: "
            f"{z_t.shape}, {eps_hat.shape}, {noise.shape}"
        )
    t = int(t)
    _check_step(sched, t)
    beta = sched.beta[t]
    mean = (z_t - (beta / np.sqrt(1.0 - sched.alpha_bar[t])) * eps_hat) / np.sqrt(
        sched.alpha[t]
    )
    if t == 0:
        return mean
    return mean + np.sqrt(beta) * noise


@runtime_checkable
class DenoiserBackend(Protocol):
    """What the sampler needs from a denoiser.

    ``predict_eps`` answers a batch ``z`` of shape (rows, dim) under one
    condition.  Backends that understand per-block conditioning
    additionally expose ``prepare_blocks(block_conds, rows)``, which
    projects condition arrays once for ``rows`` latents, for instance one
    ``(n_blocks, cond_dim)`` stack of condition vectors per row, and
    ``predict_eps_blocks(z, t, prepared)``, which answers at every step.
    """

    @property
    def noise_schedule(self) -> NoiseSchedule: ...

    @property
    def dim(self) -> int: ...

    @property
    def frame_shape(self) -> tuple[int, int]: ...

    def predict_eps(self, z: np.ndarray, t: int, cond: ConditionEmbedding) -> np.ndarray: ...


def _condition_index(schedules, n_steps: int):
    """The distinct conditions of ``schedules`` and, per row and iteration,
    the index of the condition driving it; shape (rows, n_steps)."""
    conds: list[ConditionEmbedding] = []
    slots: dict[bytes, int] = {}
    index = np.empty((len(schedules), n_steps), dtype=np.intp)
    for row, schedule in enumerate(schedules):
        for start, end, cond in schedule.segments:
            slot = slots.setdefault(cond.key(), len(conds))
            if slot == len(conds):
                conds.append(cond)
            index[row, start:end] = slot
    return conds, index


def _predict_grouped(denoiser, z, t, conds, active) -> np.ndarray:
    """One ``predict_eps`` call per condition in play; ``active`` holds each
    row's condition index."""
    eps_hat = np.empty_like(z)
    for g in sorted(set(active.tolist())):
        rows = np.flatnonzero(active == g)
        eps_hat[rows] = denoiser.predict_eps(z[rows], t, conds[g])
    return eps_hat


def _draw(gens, out: np.ndarray) -> None:
    for gen, row in zip(gens, out):
        gen.standard_normal(out=row)


def sample(
    denoiser: DenoiserBackend, conditioning, seeds, guidance_scale: float = 1.0
) -> np.ndarray:
    """Run one reverse chain per row and return trajectories of shape
    ``(rows, *denoiser.frame_shape)``.

    ``conditioning`` holds one entry per row: either every entry is a
    :class:`StepSchedule` (iteration ``i`` uses the schedule's condition
    for ``i`` and denoises diffusion step ``t = N - 1 - i``) or every entry
    is a :class:`BlockAssignment`, which conditions the backend's blocks
    identically at every step and needs a block-structured backend.  The
    step count ``N`` is the backend's noise schedule's.  Row ``b`` draws its
    start point and its noise from its own
    ``np.random.default_rng(seeds[b])``, so a row does not depend on the
    other rows whenever the backend computes rows independently.  Output is
    bit-reproducible for fixed (seeds, conditioning, parameters); metric code
    never touches the sampler's generators.  ``guidance_scale`` other than 1
    mixes in the unconditioned prediction (classifier-free guidance).
    """
    if not np.isfinite(guidance_scale) or guidance_scale < 0.0:
        raise ValueError("guidance_scale must be finite and >= 0")
    sched = denoiser.noise_schedule
    n = sched.n_steps
    conditioning = list(conditioning)
    seeds = list(seeds)
    if not conditioning:
        raise ValueError("a batch needs at least one chain")
    if len(seeds) != len(conditioning):
        raise ValueError(
            f"{len(seeds)} seeds for {len(conditioning)} conditioned chains"
        )
    rows = len(seeds)
    blocks = isinstance(conditioning[0], BlockAssignment)
    if any(isinstance(c, BlockAssignment) != blocks for c in conditioning):
        raise ValueError("a batch mixes step schedules and block assignments")
    structured = hasattr(denoiser, "prepare_blocks")
    if blocks:
        if not structured:
            raise ValueError(
                "block assignment requires a block-structured denoiser backend"
            )
        block_bias = denoiser.prepare_blocks(
            np.stack([a.vectors for a in conditioning]), rows
        )
    else:
        for schedule in conditioning:
            if schedule.n_steps != n:
                raise ValueError(
                    f"conditioning schedule covers {schedule.n_steps} steps, "
                    f"backend noise schedule has {n}"
                )
        conds, index = _condition_index(conditioning, n)
    gens = [np.random.default_rng(seed) for seed in seeds]
    z = np.empty((rows, denoiser.dim))
    _draw(gens, z)
    noise = np.empty_like(z)
    guided = guidance_scale != 1.0
    if guided:
        uncond = unconditioned(conditioning[0].width)
        if structured:
            uncond_bias = denoiser.prepare_blocks(uncond.vector, rows)

    # a step's prediction is freed by its update, so two never coexist
    def predict(z, t, i):
        if blocks:
            eps_hat = denoiser.predict_eps_blocks(z, t, block_bias)
        else:
            eps_hat = _predict_grouped(denoiser, z, t, conds, index[:, i])
        if guided:
            if structured:
                eps_un = denoiser.predict_eps_blocks(z, t, uncond_bias)
            else:
                eps_un = denoiser.predict_eps(z, t, uncond)
            eps_hat = eps_un + guidance_scale * (eps_hat - eps_un)
        return eps_hat

    for i in range(n):
        t = n - 1 - i
        _draw(gens, noise)
        z = ancestral_step(z, t, predict(z, t, i), sched, noise)
    return z.reshape(rows, *denoiser.frame_shape)
