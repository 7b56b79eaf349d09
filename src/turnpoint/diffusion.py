"""Forward noising, the noise schedule, and the reverse ancestral sampler.

Forward marginal:  z_t = sqrt(abar_t) * z_0 + sqrt(1 - abar_t) * eps
Reverse update:    mean = (z_t - beta_t / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t)
with injected noise sigma_t^2 = beta_t for t > 0 and sigma_0 = 0, so the
final step is deterministic.  The sampler walks denoising iterations
i = 0 .. N-1 against diffusion steps t = N-1-i (noisiest first).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Protocol, runtime_checkable

import numpy as np

from .conditioning import ConditionEmbedding, unconditioned

__all__ = [
    "StepCoefficients",
    "step_coefficients",
    "NoiseSchedule",
    "DenoiserBackend",
    "build_schedule",
    "step_index",
    "forward_noise",
    "ancestral_step",
    "sample",
]

# Size of the buffer that _chain_draws fills with a sample call's noise, a
# chunk of iterations at a time, one buffer row per distinct seed.  Not a
# setting: the draws are the same at any size.  Longer fills cost less per
# float: on a 2-CPU host, 512 distinct seeds of 96 floats over 50
# iterations took 62 ms at 4 MiB (10 iterations a fill), 83 ms at 1 MiB (2)
# and 97 ms at 256 KiB (1).  A grid sweep's call, a few distinct seeds per
# prompt, fills its whole stream at once in well under 4 MiB.
NOISE_BUFFER_BYTES = 1 << 22

# Longest schedule build_schedule makes, checked before it allocates: the
# schedule takes under 300 bytes a step to build, and the sampler far more.
MAX_STEPS = 100_000


class StepCoefficients(NamedTuple):
    """The per-step scalars that the sampler and the analytic oracle read
    at every step, one Python float per step in each tuple."""

    alpha_bar: tuple[float, ...]
    sqrt_alpha_bar: tuple[float, ...]
    sqrt_one_minus_alpha_bar: tuple[float, ...]
    eps_coef: tuple[float, ...]  # beta / sqrt(1 - alpha_bar)
    sqrt_alpha: tuple[float, ...]
    sqrt_beta: tuple[float, ...]


def step_coefficients(beta, alpha, alpha_bar) -> StepCoefficients:
    """The coefficients of the schedule arrays ``beta``, ``alpha`` and
    ``alpha_bar``, by the same IEEE operations as the numpy scalar
    expressions at each step, so each has that expression's bits."""
    sqrt_noise = np.sqrt(1.0 - alpha_bar)
    return StepCoefficients(*(
        tuple(arr.tolist())
        for arr in (
            alpha_bar, np.sqrt(alpha_bar), sqrt_noise, beta / sqrt_noise,
            np.sqrt(alpha), np.sqrt(beta),
        )
    ))


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Arrays beta, alpha = 1 - beta and abar = cumprod(alpha), and their
    :class:`StepCoefficients` ``coef``, computed once.

    Range checks only; :func:`build_schedule` guarantees the product
    relation between the arrays.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    coef: StepCoefficients = field(init=False, repr=False)

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
        object.__setattr__(
            self, "coef", step_coefficients(self.beta, self.alpha, self.alpha_bar)
        )

    @property
    def n_steps(self) -> int:
        return self.beta.shape[0]


def build_schedule(
    n_steps: int, beta_min: float = 1e-4, beta_max: float = 0.02
) -> NoiseSchedule:
    """Linear beta schedule between the two bounds."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must lie in [1, {MAX_STEPS}], got {n_steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ValueError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )
    beta = np.linspace(beta_min, beta_max, n_steps)
    alpha = 1.0 - beta
    return NoiseSchedule(beta, alpha, np.cumprod(alpha))


def step_index(sched, t):
    """``t`` as steps of ``sched``: a Python or NumPy integer, returned as an
    int, or an integer array of per-row steps, each in ``[0, n)``, ``n`` the
    length of ``sched.coef``'s tables.  Booleans and floats are refused."""
    n = len(sched.coef.eps_coef)
    try:
        if t.__class__ is bool:  # operator.index would read True as 1
            raise TypeError
        step = operator.index(t)
    except TypeError:
        steps = np.asarray(t)
        if steps.dtype.kind not in "iu":
            raise ValueError(f"step index {t} is not an integer") from None
        # one comparison: cast to unsigned, a negative step reads as a huge one
        if (steps.astype(np.uintp, copy=False) >= n).any():
            raise ValueError(f"step index {t} outside [0, {n})")
        return steps
    if not 0 <= step < n:
        raise ValueError(f"step index {t} outside [0, {n})")
    return step


def forward_noise(z0, t, eps, sched) -> np.ndarray:
    """Closed-form forward marginal sample at step ``t``, from ``sched.coef``.

    Accepts a single vector with scalar ``t`` or a batch of rows with a
    scalar or per-row ``t``.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ValueError(f"z0 and eps differ in shape: {z0.shape} vs {eps.shape}")
    t = step_index(sched, t)
    coef = sched.coef
    root, root_noise = np.take((coef.sqrt_alpha_bar, coef.sqrt_one_minus_alpha_bar), t, axis=1)
    if z0.ndim == 2 and np.ndim(t) == 1:
        root, root_noise = root[:, None], root_noise[:, None]
    return root * z0 + root_noise * eps


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
    t = step_index(sched, t)
    coef = sched.coef
    # one output array; the inputs are left as they are
    out = eps_hat * coef.eps_coef[t]
    np.subtract(z_t, out, out=out)
    out /= coef.sqrt_alpha[t]
    if t:
        out += coef.sqrt_beta[t] * noise
    return out


@runtime_checkable
class DenoiserBackend(Protocol):
    """What the sampler needs from a denoiser of latents of ``dim``
    features; what a latent stands for, such as a trajectory of frames, is
    the caller's to know.

    ``prepare(conds)`` turns a sequence of conditions, the slots, into
    whatever the backend wants to reuse at every step, once per
    :func:`sample` call.  ``predict_eps(z, t, prepared, slots)`` answers a
    batch ``z`` of shape (rows, dim) in one call: ``slots``, one step of the
    rows' condition plans, is ``(rows,)``, row ``r`` under condition
    ``slots[r]``, or, on a block-structured backend, which also exposes
    ``n_blocks``, ``(rows, n_blocks)``, block ``j`` of row ``r`` under
    condition ``slots[r, j]``.
    """

    @property
    def noise_schedule(self) -> NoiseSchedule: ...

    @property
    def dim(self) -> int: ...

    def prepare(self, conds: Sequence[ConditionEmbedding]) -> Any: ...

    def predict_eps(
        self, z: np.ndarray, t: int, prepared: Any, slots: np.ndarray
    ) -> np.ndarray: ...


def _condition_index(plans, n_steps: int, n_blocks: int | None):
    """The distinct conditions of ``plans`` and the slot index of the
    condition driving each iteration, row and block: shape
    (n_steps, rows, n_blocks), or (n_steps, rows) on a block-free backend.

    Rows often share one plan object, as a grid sweep's repeats do, so each
    distinct plan is remapped once, in order of first use, and rows gather
    their plan's remapped grid."""
    distinct: dict[int, tuple[int, Any]] = {}
    plan_of_row = [distinct.setdefault(id(plan), (len(distinct), plan))[0] for plan in plans]
    slots: dict[bytes, tuple[int, ConditionEmbedding]] = {}
    grids = np.empty((n_steps, len(distinct), n_blocks or 1), dtype=np.intp)
    for k, plan in distinct.values():
        remap = np.array(
            [slots.setdefault(c.key(), (len(slots), c))[0] for c in plan.conds], dtype=np.intp
        )
        grids[:, k] = remap[plan.slots]
    index = grids.take(plan_of_row, axis=1)
    return [cond for _, cond in slots.values()], index if n_blocks else index[..., 0]


def _rank(keys: np.ndarray):
    """The first row holding each distinct integer key, in ascending key
    order, and each row's rank among the distinct keys."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks = np.empty_like(order)
    ranks[order] = np.cumsum(new) - 1
    return order[new], ranks


def _split_chains(chain_of_row: np.ndarray, slots: np.ndarray, n_conds: int):
    """The chains after a split: one per distinct row of (chain, slots),
    ``slots`` being ``(rows, columns)`` of condition indices below
    ``n_conds``.  Returns each new chain's first row, in lexicographic order
    of (chain, slots), and each row's new chain.

    A row's key is ``chain * n_conds + slot``, one block column at a time,
    compacted to its rank after each column, so it stays below
    ``rows * n_conds``."""
    key = chain_of_row
    for column in slots.T:
        first, key = _rank(key * n_conds + column)
    return first, key


def _chain_draws(seeds, dim: int, count: int):
    """Yield ``count`` draws of shape ``(len(seeds), dim)``, row ``r`` from
    ``np.random.default_rng(seeds[r])``; the seeds are distinct.

    Each generator fills a chunk of its draws at once into a buffer of
    about ``NOISE_BUFFER_BYTES``, one ``(k, dim)`` fill giving the same
    values as ``k`` fills of ``dim``, and each draw is a view of the
    buffer, overwritten by a later fill.
    """
    gens = [np.random.default_rng(seed) for seed in seeds]
    chunk = max(1, min(count, NOISE_BUFFER_BYTES // (len(gens) * dim * 8)))
    buf = np.empty((len(gens), chunk, dim))
    for start in range(0, count, chunk):
        fill = min(chunk, count - start)
        for gen, row in zip(gens, buf):
            gen.standard_normal(out=row[:fill])
        for k in range(fill):
            yield buf[:, k]


def sample(
    denoiser: DenoiserBackend, conditioning, seeds, guidance_scale: float = 1.0
) -> np.ndarray:
    """Run one reverse chain per row and return the final latents, of
    shape ``(rows, denoiser.dim)``.

    ``conditioning`` holds one :class:`~turnpoint.conditioning.ConditionPlan`
    per row, of one slot width, step and block plans in any mix.  Iteration
    ``i`` denoises diffusion step ``t = N - 1 - i`` (``N`` the backend's
    step count) under row ``i`` of the plan's slot grid, or its only row; a
    grid of ``n_blocks`` columns needs a block-structured backend with as
    many blocks.  The batch's distinct conditions are prepared once.

    Rows run as chains: rows that share a seed and have had equal slots at
    every iteration so far are one chain.  At the first iteration where a
    chain's rows get different slots, the chain splits and each part
    continues from a copy of its state, so a batch of one prompt's grid
    runs is a prefix tree.  Each step makes one prediction per chain, and
    each row is gathered from its chain at the end.  Row ``b`` draws its
    start point and then its noise for each iteration but the last (whose
    update, at t = 0, adds none) from its own
    ``np.random.default_rng(seeds[b])``, so a row does not depend on the
    other rows whenever the backend computes rows independently.  The
    noise is drawn once per distinct seed, in chunks of up to 4 MiB
    (``NOISE_BUFFER_BYTES``).  Output is bit-reproducible for fixed
    (seeds, conditioning, parameters); metric code never touches the
    sampler's generators.  ``guidance_scale`` other than 1 mixes in the
    unconditioned prediction (classifier-free guidance), made for the
    same chains.
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
    n_blocks = getattr(denoiser, "n_blocks", None)
    width = conditioning[0].width
    for plan in conditioning:
        steps, blocks = plan.slots.shape
        if steps not in (1, n):
            raise ValueError(
                f"conditioning schedule covers {steps} steps, "
                f"backend noise schedule has {n}"
            )
        if blocks not in (1, n_blocks):
            raise ValueError(
                "block assignment requires a block-structured denoiser backend "
                f"with {blocks} blocks; this backend has {n_blocks or 'none'}"
            )
        if plan.width != width:
            raise ValueError(
                f"a batch mixes condition slot widths {width} and {plan.width}"
            )
    conds, index = _condition_index(conditioning, n, n_blocks)
    guided = guidance_scale != 1.0
    if guided:
        conds.append(unconditioned(width))
    prepared = denoiser.prepare(conds)
    by_row = index.reshape(n, rows, -1)
    # chains split only at the start and where some row's slots change
    splits = {0, *(np.flatnonzero((by_row[1:] != by_row[:-1]).any(axis=(1, 2))) + 1).tolist()}

    # before the first iteration each distinct seed is one chain;
    # chain_seed is each chain's index into the distinct seeds
    distinct: dict = {}
    chain_of_row = np.array([distinct.setdefault(seed, len(distinct)) for seed in seeds])
    chain_seed = np.arange(len(distinct))
    draws = _chain_draws(list(distinct), denoiser.dim, n)
    z = next(draws)  # a view of the noise buffer; the split at i = 0 copies it
    for i in range(n):
        t = n - 1 - i
        if i in splits:
            # one chain per distinct (chain, slots at i) row
            first, inverse = _split_chains(chain_of_row, by_row[i], len(conds))
            parent = chain_of_row[first]
            z, chain_seed, chain_of_row = z[parent], chain_seed[parent], inverse
            slots = index[i][first]
            if guided:
                uncond_slots = np.full(len(first), len(conds) - 1, dtype=np.intp)
        # a step's prediction is freed by its update, so two never coexist
        eps_hat = denoiser.predict_eps(z, t, prepared, slots)
        if guided:
            eps_un = denoiser.predict_eps(z, t, prepared, uncond_slots)
            eps_hat = eps_un + guidance_scale * (eps_hat - eps_un)
        # the last step (t = 0, sigma_0 = 0) ignores its noise, so none is drawn
        noise = next(draws)[chain_seed] if t else np.zeros_like(z)
        z = ancestral_step(z, t, eps_hat, sched, noise)
    return z[chain_of_row]
