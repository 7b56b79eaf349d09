"""Small block-stacked denoiser with hand-derived gradients.

Architecture: an input projection dim -> hidden, then per block j

    h <- h + w2_j @ tanh(w1_j @ [h; t_emb; c_j] + b1_j) + b2_j,

where c_j is block j's conditioning vector, and a hidden -> dim output
projection that starts at zero so a fresh model predicts eps = 0.  The
timestep embedding is sinusoidal over the raw integer step.  Gradients
are reverse-mode by hand; no autodiff framework is involved.

Each ``w1_j`` is read as three column views ``[W_h | W_t | W_c]``, so a
block computes ``tanh(W_h h + (W_c c_j + b1_j + W_t t_emb))`` without
concatenating its input.  The condition term ``W_c c_j + b1_j`` does not
depend on the step, so a sampling call projects each of its conditions
once.  The parameter layout and the checkpoint bytes are those of the
unsplit ``w1``.

Inference and training run one block body, ``_forward_batch``, on a
tuple of weight operands, each of shape ``(in, out)`` so that a product
reads ``x @ W``, and on each block's condition plus time terms.
Inference runs on C-contiguous copies of the weights, which BLAS
multiplies faster than the strided transposed views ``blk.w_h.T`` and
``blk.w2.T``: raw :func:`forward` copies them for its one call, and a
:class:`SlotTable` once for a whole sampling call, which makes the table
a snapshot of the model.  Training (:func:`loss_and_grads`) runs on the
transposed views themselves, since one step does not repay the copies;
from 19 rows up both give the same bits.

Inference makes the time term ``W_t t_emb`` by the one-row product
``t_emb @ W_t.T``: a :class:`SlotTable` tables it once per block and
step, and raw :func:`forward` makes its step's and adds it to its own
terms.  :func:`loss_and_grads` adds each row's time term to its terms
before the body.  In training every block of a row sees the row's one
condition, so :func:`train` hands :func:`loss_and_grads` block-shared
``(n, cond_dim)`` conditions, which are projected and differentiated
without a per-block copy, and it embeds the steps through a table built
once per call.  Each product and sum runs in the order of the per-block
form with the time term added per row, so the bits are those of
conditions repeated over the blocks.

:func:`train` keeps the forward and backward passes on the calling
thread and gives one helper thread, for the length of the call, the
work that releases the GIL around them: it draws step k+1's batch, in
the serial order from the one generator, while the caller runs step k's
:func:`loss_and_grads`, and it runs :meth:`AdamState.update`'s
elementwise passes over the first half of the parameter vector while
the caller runs them over the second.  On batches of at least
``EARLY_ADAM_MIN_ROWS`` (96) rows the update starts inside the backward
pass: once block ``n_blocks // 2`` has read its weights for the last
time, the helper runs the passes over that block, the blocks above it
and the output projection while the caller backpropagates through the
blocks below, and after the backward the halves split the rest.  Adam
is elementwise, so a block's parameters may be updated as soon as its
gradient is final (the idea of LOMO, Lv et al. 2023, arXiv 2306.09782).
The bytes are those of the serial loop.  With OpenBLAS on one thread
and two CPUs the helper ran at 1.08x to 1.16x the serial loop's steps
per second, and the early start at 1.06x to 1.08x the split update's
at batch 128 (hidden 64) and 1.19x at hidden 256.  At batch 32 the
early start ran at 0.94x (hidden 64) and 0.90x (hidden 256): the lower
blocks' backward is then too short to cover the hand-off, hence the
96-row gate.  With two OpenBLAS threads the helper ran at 0.98x, and on
one CPU at 0.96x.
"""

from __future__ import annotations

import math
import struct
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSchedule, forward_noise, step_index

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrainingError",
    "BlockParams",
    "SlotTable",
    "DenoiserModel",
    "TrainConfig",
    "AdamState",
    "timestep_embedding",
    "init_model",
    "forward",
    "loss_and_grads",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "NeuralDenoiser",
]

CHECKPOINT_MAGIC = b"TPCKPT"
CHECKPOINT_VERSION = 1
DIVERGENCE_LIMIT = 1e6
# Batches of at least this many rows begin the Adam update of the upper
# half of the blocks inside the backward pass (see train).  Below it the
# blocks left to backpropagate take too little time to cover the hand-off:
# at batch 32 it ran at 0.94x the plain split update at hidden 64 and
# 0.90x at hidden 256.  Narrower models gain less: at hidden 32 it ran at
# 0.95x at batch 128 and 1.00x at batch 256.
EARLY_ADAM_MIN_ROWS = 96


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint bytes."""


class TrainingError(RuntimeError):
    """Training diverged or produced a non-finite loss."""


def timestep_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer steps; shape (..., dim), dim even."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass
class BlockParams:
    w1: np.ndarray  # (hidden, hidden + t_emb_dim + cond_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, hidden)
    b2: np.ndarray  # (hidden,)
    w_h: np.ndarray  # column views of w1 acting on h, t_emb and c
    w_t: np.ndarray
    w_c: np.ndarray


def _param_shapes(dim, hidden, t_emb_dim, cond_width):
    """Parameter shapes of a :class:`DenoiserModel` by name, in checkpoint
    order: the input projection's, one block's (every block has these)
    and the output projection's."""
    h = hidden
    return (
        {"w_in": (h, dim), "b_in": (h,)},
        {"w1": (h, h + t_emb_dim + 2 * cond_width + 2), "b1": (h,), "w2": (h, h), "b2": (h,)},
        {"w_out": (dim, h), "b_out": (dim,)},
    )


def _part_sizes(dim, hidden, t_emb_dim, cond_width) -> tuple[int, int, int]:
    """Parameter counts of the input projection, of one block and of the
    output projection."""
    return tuple(
        sum(math.prod(shape) for shape in part.values())
        for part in _param_shapes(dim, hidden, t_emb_dim, cond_width)
    )


def _param_count(dim, hidden, n_blocks, t_emb_dim, cond_width) -> int:
    """Length of ``flat`` for these dimensions, in integer arithmetic, so
    that it can be checked before anything is allocated."""
    if min(dim, hidden, n_blocks, cond_width) < 1:
        raise ValueError("model dimensions must be positive")
    head, block, tail = _part_sizes(dim, hidden, t_emb_dim, cond_width)
    return head + n_blocks * block + tail


@dataclass
class DenoiserModel:
    """Denoiser parameters; see the module docstring for the architecture.

    Every parameter lives in one float64 vector ``flat``, in checkpoint
    order; ``w_in``, ``b_in``, ``blocks[j].w1 ... b2``, ``w_out`` and
    ``b_out`` are views into it, so update ``flat`` in place.  A new
    model's parameters are all zero.
    """

    dim: int
    hidden: int
    n_blocks: int
    t_emb_dim: int  # even and >= 2, as timestep_embedding needs
    cond_width: int  # one event-slot width; block condition vectors are 2*width + 2
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.t_emb_dim < 2 or self.t_emb_dim % 2:
            raise ValueError(f"t_emb_dim must be even and >= 2, got {self.t_emb_dim}")
        count = _param_count(self.dim, self.hidden, self.n_blocks, self.t_emb_dim,
                             self.cond_width)
        h = self.hidden
        head, block, tail = _param_shapes(self.dim, h, self.t_emb_dim, self.cond_width)
        self._layout = list(head.items())
        for j in range(self.n_blocks):
            self._layout += [(f"blocks.{j}.{k}", shape) for k, shape in block.items()]
        self._layout += tail.items()
        self.flat = np.zeros(count)
        named = self.views(self.flat)
        self.w_in, self.b_in = named["w_in"], named["b_in"]
        self.blocks = []
        for j in range(self.n_blocks):
            params = {k: named[f"blocks.{j}.{k}"] for k in block}
            w_h, w_t, w_c = np.split(params["w1"], [h, h + self.t_emb_dim], axis=1)
            self.blocks.append(BlockParams(**params, w_h=w_h, w_t=w_t, w_c=w_c))
        self.w_out, self.b_out = named["w_out"], named["b_out"]

    @property
    def cond_dim(self) -> int:
        return 2 * self.cond_width + 2

    @property
    def block_input_dim(self) -> int:
        return self.hidden + self.t_emb_dim + self.cond_dim

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named tensor views into ``vec``, a vector laid out like ``flat``."""
        if vec.shape != self.flat.shape:
            raise ValueError(f"vector has shape {vec.shape}, parameters {self.flat.shape}")
        named, offset = {}, 0
        for name, shape in self._layout:
            size = math.prod(shape)
            named[name] = vec[offset : offset + size].reshape(shape)
            offset += size
        return named

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter views in checkpoint order."""
        return list(self.views(self.flat).items())

    def block_start(self, j: int) -> int:
        """Index in ``flat`` of block j's first parameter: ``flat[block_start(j):]``
        holds blocks j to the last and the output projection."""
        head, block, _ = _part_sizes(self.dim, self.hidden, self.t_emb_dim, self.cond_width)
        return head + j * block


def init_model(
    dim: int,
    hidden: int = 64,
    n_blocks: int = 8,
    t_emb_dim: int = 16,
    cond_width: int = 7,
    seed: int = 0,
) -> DenoiserModel:
    """Scaled-Gaussian init with zero biases and a zero output projection."""
    model = DenoiserModel(int(dim), int(hidden), int(n_blocks), int(t_emb_dim), int(cond_width))
    rng = np.random.default_rng(seed)
    model.w_in[...] = rng.standard_normal(model.w_in.shape) / np.sqrt(dim)
    for blk in model.blocks:
        blk.w1[...] = rng.standard_normal(blk.w1.shape) / np.sqrt(model.block_input_dim)
        blk.w2[...] = rng.standard_normal(blk.w2.shape) / np.sqrt(hidden)
    return model


def _copy(a: np.ndarray) -> np.ndarray:
    return np.array(a, order="C")


def _operands(model, take) -> tuple:
    """The weight operands of :func:`_forward_batch`, ``(w_in, b_in, blocks,
    w_out, b_out)``, each matrix the right operand of its product, ``(in,
    out)``: ``x @ w_in`` is ``x @ model.w_in.T``, and ``blocks[j]`` holds
    block j's ``(w_h, w_t, w2, b2)``, so ``w_t`` is ``blk.w_t.T`` and so on.
    ``take`` is :func:`_copy` or, to keep views of the model, ``np.asarray``.

    The copies are C-contiguous, which BLAS multiplies faster than the
    strided transposed views: a 132-row forward runs about 1.25x faster at
    hidden 64, and within a few percent of the views' speed at hidden 128
    and 256 (2-CPU Xeon, OpenBLAS 0.3.31, one thread).  They take
    0.2-0.5 ms at hidden 64 and 5-7 ms at hidden 256, about 1% of the 50
    forwards of a 132-row sampling call, which makes them once.  From 19
    rows up the products are bit-identical to those with the views;
    below, OpenBLAS's small-matrix kernels may round differently in the
    last bits.  ``w_t`` is copied in its own orientation, because a
    contiguous copy of ``w_t.T`` rounds the one-row time term of a
    sampling step differently at any row count.
    """
    blocks = tuple(
        (take(blk.w_h.T), take(blk.w_t).T, take(blk.w2.T), take(blk.b2))
        for blk in model.blocks
    )
    return take(model.w_in.T), take(model.b_in), blocks, take(model.w_out.T), take(model.b_out)


def _project(model, by_block) -> np.ndarray:
    """Each block's condition term ``W_c c + b1``, ``(n_blocks, rows,
    hidden)``, of ``by_block[j]``, block j's ``(rows, cond_dim)``
    conditions."""
    terms = np.empty((model.n_blocks, len(by_block[0]), model.hidden))
    for term, c, blk in zip(terms, by_block, model.blocks):
        np.matmul(c, blk.w_c.T, out=term)
        term += blk.b1
    return terms


def _conditions_by_block(model, block_conds, rows: int) -> np.ndarray:
    """Condition arrays in a shape :func:`forward` takes, for ``rows``
    latents, as ``(n_blocks, rows, cond_dim)``.  Shared conditions are
    copied out to every row, so a row's term does not depend on how its
    condition was given."""
    full = (rows, model.n_blocks, model.cond_dim)
    conds = np.asarray(block_conds, dtype=np.float64)
    if conds.ndim == 3 and conds.shape[0] != rows:
        raise ValueError(f"{conds.shape[0]} block assignments for {rows} latents")
    if not 1 <= conds.ndim <= 3 or conds.shape != full[3 - conds.ndim:]:
        raise ValueError(
            f"block conditions have shape {conds.shape}; expected (cond_dim,), "
            f"(n_blocks, cond_dim) or (n, n_blocks, cond_dim) of {full}"
        )
    return np.ascontiguousarray(np.broadcast_to(conds, full).transpose(1, 0, 2))


def _time_terms(ops, steps, t_emb_dim: int) -> np.ndarray:
    """Each block's time term at ``steps``, ``(steps, n_blocks, hidden)``, as
    one-row products ``t_emb @ w_t``: a ``(steps, t_emb_dim)`` GEMM rounds differently."""
    temb = timestep_embedding(steps, t_emb_dim)[:, None, :]
    return np.concatenate([temb @ w_t for _, w_t, _, _ in ops[2]], axis=1)


def _forward_batch(ops, z, terms, keep_cache=False):
    """Batched forward pass, the one block body of inference and training.

    z (n, dim), ``ops`` the weight operands of :func:`_operands` and
    ``terms`` each block's condition plus time term for the n rows,
    ``(n_blocks, n, hidden)``.  Returns (eps, cache) where cache holds what
    backprop needs: per-block (h, s) and the final hidden state.
    """
    w_in, b_in, blocks, w_out, b_out = ops
    h = z @ w_in
    h += b_in
    cache = []
    for term, (w_h, _, w2, b2) in zip(terms, blocks):
        s = h @ w_h
        s += term
        np.tanh(s, out=s)
        if keep_cache:
            cache.append((h, s))
        h_next = s @ w2
        h_next += h
        h_next += b2
        h = h_next
    eps = h @ w_out
    eps += b_out
    return eps, (cache, h)


def forward(model, z_t, t: int, sched: NoiseSchedule, block_conds, slots=None) -> np.ndarray:
    """Noise prediction for one latent ``(dim,)`` or a batch ``(n, dim)``.

    ``block_conds`` is either condition arrays, projected, and the weights
    copied, for this call alone: ``(cond_dim,)`` conditions every block of
    every row alike, ``(n_blocks, cond_dim)`` is one block stack (a
    condition per block) for every row, and ``(n, n_blocks, cond_dim)``
    one stack per row.  Or it is a :class:`SlotTable`, with ``slots``
    naming each latent's slot: ``slots[r]`` conditions every block of row
    r, and ``slots[r, j]`` block j alone.
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    if z_t.ndim not in (1, 2) or z_t.shape[-1] != model.dim:
        raise ValueError(f"latent has shape {z_t.shape}, model dimension is {model.dim}")
    t = step_index(sched, t)
    batch = z_t.reshape(-1, model.dim)
    rows = batch.shape[0]
    if slots is None:
        ops = _operands(model, _copy)
        terms = _project(model, _conditions_by_block(model, block_conds, rows))
        terms += _time_terms(ops, [t], model.t_emb_dim)[0][:, None]
    else:
        ops, terms = block_conds._ops, block_conds._terms_at(t, slots, rows)
    eps, _ = _forward_batch(ops, batch, terms)
    return eps[0] if z_t.ndim == 1 else eps


def loss_and_grads(model, z0, t, eps, block_conds, sched, *, temb_table=None, ready=None):
    """Denoising MSE and exact parameter gradients for one batch.

    z0 (n, dim), t (n,), eps (n, dim).  ``block_conds`` is (n, cond_dim),
    one condition that every block of a row shares, as in training, or
    (n, n_blocks, cond_dim), one per block; the same conditions give the
    same bits either way.  ``temb_table`` is
    ``timestep_embedding(np.arange(sched.n_steps), model.t_emb_dim)``,
    which :func:`train` builds once; it is built here when not given.  The
    loss is the mean squared error, over all n * dim entries, between
    ``eps`` and the model's prediction at ``forward_noise(z0, t, eps)``.
    Returns (loss, grad) with grad one vector laid out like ``model.flat``.

    ``ready(j, loss, grad)``, if given, is called as soon as block j's
    backward has read block j's weights for the last time, for j from the
    last block down: from then on ``grad[model.block_start(j):]`` is final,
    and the rest of the backward reads neither it nor ``model.flat`` there,
    so the caller may update those parameters while the backward goes on
    (:func:`train` does).
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    conds = np.asarray(block_conds, dtype=np.float64)
    t = np.asarray(t)
    n = z0.shape[0]
    if n < 1:
        raise ValueError("batch must contain at least one example")
    if z0.shape != (n, model.dim) or eps.shape != z0.shape:
        raise ValueError("z0 and eps must both have shape (n, dim)")
    # by_block[j] is block j's (n, cond_dim) conditions, C-contiguous in
    # both forms, so both make the same products with the same bits
    if conds.shape == (n, model.cond_dim):
        by_block = [np.ascontiguousarray(conds)] * model.n_blocks
    elif conds.shape == (n, model.n_blocks, model.cond_dim):
        by_block = np.ascontiguousarray(conds.transpose(1, 0, 2))
    else:
        raise ValueError(
            f"block conditions must have shape {(n, model.cond_dim)} or "
            f"{(n, model.n_blocks, model.cond_dim)}, got {conds.shape}"
        )
    z_t = forward_noise(z0, t, eps, sched)
    if temb_table is None:
        temb_table = timestep_embedding(np.arange(sched.n_steps), model.t_emb_dim)
    temb = temb_table[t]
    # views, not copies: one training step does not repay copying the weights
    ops = _operands(model, np.asarray)
    terms = _project(model, by_block)
    for term, (_, w_t, _, _) in zip(terms, ops[2]):
        term += temb @ w_t  # each row's own step
    pred, (cache, h_last) = _forward_batch(ops, z_t, terms, keep_cache=True)
    resid = np.subtract(pred, eps, out=pred)
    loss = float(np.mean(resid * resid))
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")

    grad = np.empty_like(model.flat)
    g = model.views(grad)
    d_pred = resid  # scaled in place: the loss has been read
    d_pred *= 2.0 / resid.size
    np.matmul(d_pred.T, h_last, out=g["w_out"])
    np.add.reduce(d_pred, axis=0, out=g["b_out"])
    dh = d_pred @ model.w_out
    # per-call scratch for the elementwise work of every block
    da, buf = np.empty_like(dh), np.empty_like(dh)
    hidden, t_end = model.hidden, model.hidden + model.t_emb_dim
    for j in range(model.n_blocks - 1, -1, -1):
        blk = model.blocks[j]
        h, s = cache[j]
        g_w1 = g[f"blocks.{j}.w1"]
        np.matmul(dh.T, s, out=g[f"blocks.{j}.w2"])
        np.add.reduce(dh, axis=0, out=g[f"blocks.{j}.b2"])
        # da = (dh @ w2) * (1 - s * s)
        np.matmul(dh, blk.w2, out=da)
        np.multiply(s, s, out=buf)
        np.subtract(1.0, buf, out=buf)
        da *= buf
        np.matmul(da.T, h, out=g_w1[:, :hidden])
        np.matmul(da.T, temb, out=g_w1[:, hidden:t_end])
        np.matmul(da.T, by_block[j], out=g_w1[:, t_end:])
        np.add.reduce(da, axis=0, out=g[f"blocks.{j}.b1"])
        np.matmul(da, blk.w_h, out=buf)  # block j's last read of its weights
        if ready is not None:
            ready(j, loss, grad)
        dh += buf
    np.matmul(dh.T, z_t, out=g["w_in"])
    np.add.reduce(dh, axis=0, out=g["b_in"])
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    steps: int = 20_000
    seed: int = 0
    ema_decay: float | None = None  # disabled unless set in (0, 1)

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.ema_decay is not None and not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1) when set")


class AdamState:
    """Adam with bias correction (Kingma & Ba 2015), updating ``model.flat``
    in place; ``m`` and ``v`` are flat moment vectors laid out like it."""

    def __init__(self, model: DenoiserModel):
        self.step = 0
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        self._buf = np.empty_like(model.flat)

    def _passes(self, model, grad, cfg: TrainConfig, step: int, lo: int, hi: int | None):
        """The arguments of :func:`_adam_passes` for step ``step`` over
        ``flat[lo:hi]``."""
        part = slice(lo, hi)
        arrays = (model.flat, grad, self.m, self.v, self._buf)
        return (*(a[part] for a in arrays), cfg, 1.0 - cfg.beta1**step, 1.0 - cfg.beta2**step)

    def begin(self, model: DenoiserModel, grad: np.ndarray, cfg: TrainConfig,
              helper: Executor, start: int) -> tuple[int, Future]:
        """Submit the next :meth:`update`'s passes over ``flat[start:]`` to
        ``helper``, for a ``grad`` whose entries from ``start`` on are final
        while the caller still computes the others.  Pass the result to that
        update as ``begun``."""
        args = self._passes(model, grad, cfg, self.step + 1, start, None)
        return start, helper.submit(_adam_passes, *args)

    def update(self, model: DenoiserModel, grad: np.ndarray, cfg: TrainConfig,
               helper: Executor | None = None,
               begun: tuple[int, Future] | None = None) -> None:
        """One step along ``grad``, which is consumed (overwritten).

        With a ``helper`` executor, the helper runs the passes over the
        first half of the vector while the calling thread runs them over
        the second; after :meth:`begin`, whose result is ``begun``, the
        helper already has ``flat[start:]`` and the halves split
        ``flat[:start]``.  Each pass is elementwise, so the bits are those
        of one pass over the whole vector.  A range the helper has not yet
        started when the calling thread's half is done is taken back and
        run on the calling thread.  Returns once every range is done.
        """
        self.step += 1
        if helper is None:
            _adam_passes(*self._passes(model, grad, cfg, self.step, 0, None))
            return
        end, early = begun or (len(grad), None)
        half = end // 2
        ranges = [(end, None, early)] if early is not None else []
        ranges.append((0, half, helper.submit(
            _adam_passes, *self._passes(model, grad, cfg, self.step, 0, half))))
        _adam_passes(*self._passes(model, grad, cfg, self.step, half, end))
        for lo, hi, future in ranges:
            if future.cancel():
                _adam_passes(*self._passes(model, grad, cfg, self.step, lo, hi))
            else:
                future.result()


def _adam_passes(flat, grad, m, v, buf, cfg: TrainConfig, bc1: float, bc2: float) -> None:
    # In place, with no full-size temporary, rounding in the order of
    #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    #   flat -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
    m *= cfg.beta1
    np.multiply(grad, 1.0 - cfg.beta1, out=buf)
    m += buf
    np.multiply(grad, 1.0 - cfg.beta2, out=buf)
    buf *= grad
    v *= cfg.beta2
    v += buf
    np.divide(v, bc2, out=buf)
    np.sqrt(buf, out=buf)
    buf += cfg.eps
    np.divide(m, bc1, out=grad)
    grad *= cfg.learning_rate
    grad /= buf
    flat -= grad


def train(model, data_sampler, cfg: TrainConfig, sched: NoiseSchedule, *,
          grad_norms: list | None = None, timings: dict | None = None):
    """Denoising-MSE training loop.

    ``data_sampler(rng, n)`` must yield ``(z0, cond_vectors)`` with shapes
    (n, dim) and (n, cond_dim).  Every block receives the example's own
    condition during training — block splits are an inference-time probe
    only.  Deterministic for a fixed config; aborts on divergence.
    Returns ``(model, trace)`` where trace holds (step, loss) every 100
    steps.  A ``grad_norms`` list receives, at those same steps, the
    global norm of the gradient the step applies.

    One helper thread, started here and joined before this returns or
    raises, draws each batch (``data_sampler``, then its steps, then its
    noise, all from the one generator) one step ahead, while this thread
    runs the previous batch's :func:`loss_and_grads`, and it runs part of
    each :meth:`AdamState.update`: half of it, or, on a batch of at least
    ``EARLY_ADAM_MIN_ROWS`` rows, the passes over block ``n_blocks // 2``
    and everything above it, begun as soon as the backward pass is done
    with them, and then half of the rest.  A step that diverges or records
    a gradient norm begins nothing early, so a diverging step updates
    nothing.  The bits are those of the serial loop.  ``data_sampler`` is
    called once per step, in step order, but one batch ahead: it must not
    overwrite an array it returned on its next call.

    A ``timings`` dict receives three back-to-back intervals of this
    thread, which add up to the loop: the wait for each prefetched batch
    (``draw_s``), :func:`loss_and_grads` (``loss_and_grads_s``, which
    includes handing the helper its early range), and the rest of each
    step, that is this thread's share of the Adam update with the wait
    for the helper's ranges, the EMA if one is kept, and the trace
    (``adam_s``).
    """
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(model)
    ema = model.flat.copy() if cfg.ema_decay is not None else None
    temb_table = timestep_embedding(np.arange(sched.n_steps), model.t_emb_dim)
    trace: list[tuple[int, float]] = []

    def draw():
        z0, conds = data_sampler(rng, cfg.batch_size)
        if conds.shape != (len(z0), model.cond_dim):
            raise ValueError(
                f"data sampler returned conditions of shape {conds.shape}, "
                f"expected {(len(z0), model.cond_dim)}"
            )
        t = rng.integers(0, sched.n_steps, size=len(z0))
        eps = rng.standard_normal(z0.shape)
        return z0, conds, t, eps

    cut = model.n_blocks // 2
    start = model.block_start(cut)
    begun = None  # the update this step's backward began on the helper

    def hand_off(j, loss, grad):
        nonlocal begun
        if j == cut and loss <= DIVERGENCE_LIMIT:
            begun = adam.begin(model, grad, cfg, helper, start)

    clock = time.perf_counter
    draw_s = grads_s = adam_s = 0.0
    with ThreadPoolExecutor(max_workers=1) as helper:
        mark = clock()
        batch = helper.submit(draw) if cfg.steps else None
        for step in range(cfg.steps):
            z0, conds, t, eps = batch.result()
            if step + 1 < cfg.steps:
                batch = helper.submit(draw)
            drawn = clock()
            # a recorded norm reads the whole gradient, which the update overwrites
            early = len(z0) >= EARLY_ADAM_MIN_ROWS and not (
                step % 100 == 0 and grad_norms is not None)
            begun = None
            loss, grad = loss_and_grads(model, z0, t, eps, conds, sched, temb_table=temb_table,
                                        ready=hand_off if early else None)
            done = clock()
            if loss > DIVERGENCE_LIMIT:
                raise TrainingError(f"training diverged at step {step}: loss={loss:.3e}")
            if step % 100 == 0:
                trace.append((step, loss))
                if grad_norms is not None:
                    grad_norms.append(float(np.linalg.norm(grad)))
            adam.update(model, grad, cfg, helper, begun)
            if ema is not None:
                ema *= cfg.ema_decay
                ema += (1.0 - cfg.ema_decay) * model.flat
            draw_s += drawn - mark
            grads_s += done - drawn
            mark = clock()
            adam_s += mark - done
    if ema is not None:
        model.flat[...] = ema
    if timings is not None:
        timings.update(draw_s=draw_s, loss_and_grads_s=grads_s, adam_s=adam_s)
    return model, trace


# ---------------------------------------------------------------------------
# checkpoint format: magic "TPCKPT", u32 version, u32 dims
# (dim, hidden, n_blocks, t_emb_dim, cond_width), then model.flat as
# little-endian float64, i.e. the tensors in model.parameters() order.

_HEADER = struct.Struct("<6sIIIIII")


def save_checkpoint(model: DenoiserModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                model.dim,
                model.hidden,
                model.n_blocks,
                model.t_emb_dim,
                model.cond_width,
            )
        )
        fh.write(model.flat.astype("<f8", copy=False))


def load_checkpoint(path) -> DenoiserModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"file too short for a checkpoint header: {path}")
    magic, version, *dims = _HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic bytes {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    # the body is checked against the header before any parameter memory
    # is allocated, so a header cannot ask for more than the file holds
    try:
        want = 8 * _param_count(*dims)
    except ValueError as exc:
        raise CheckpointError(f"invalid header dimensions: {exc}") from exc
    body = len(blob) - _HEADER.size
    if body < want:
        raise CheckpointError(f"truncated parameter data: {body} of {want} bytes")
    if body > want:
        raise CheckpointError(f"{body - want} trailing bytes after parameters")
    try:
        model = DenoiserModel(*dims)
    except ValueError as exc:
        raise CheckpointError(f"invalid header dimensions: {exc}") from exc
    model.flat[...] = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return model


class SlotTable:
    """One sampling call's inference state, as :meth:`NeuralDenoiser.prepare`
    makes it: slot ``s`` conditions every block with ``vectors[s]``.

    ``terms[j, s]`` is block j's condition term ``W_c c + b1`` of slot s,
    and ``time_terms[t, j]`` block j's time term ``W_t t_emb`` at step t,
    each made by the one-row product that raw :func:`forward` makes; at 50
    steps, 8 blocks and hidden 64 they take 200 KB.  The table holds
    copies of the weight operands (see :func:`_operands`), made here, so
    it is a snapshot of the model.  Nothing writes into these arrays, so
    calls may interleave or run at once.

    Each :func:`forward` call with a table adds its step's time terms to
    the few slots and gathers the sums per row and block, which ran a
    108-row, 50-step sample call through a checkpoint at 1.11x the speed
    of adding them to every gathered row, and at 1.14x with guidance
    (hidden 64, 8 blocks; 2-CPU Xeon, OpenBLAS 0.3.31 on one thread).
    """

    def __init__(self, model: DenoiserModel, vectors, n_steps: int):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != model.cond_dim:
            raise ValueError(
                f"slot conditions have shape {vectors.shape}; expected (n, {model.cond_dim})"
            )
        self._ops = _operands(model, _copy)
        self.terms = _project(model, [vectors] * model.n_blocks)
        self.time_terms = _time_terms(self._ops, np.arange(n_steps), model.t_emb_dim)
        self._blocks = np.arange(model.n_blocks)[:, None]

    def _terms_at(self, t: int, slots, rows: int) -> np.ndarray:
        """Step t's terms for ``rows`` latents under ``slots`` (see
        :func:`forward`), gathered into a new array."""
        # transposed, both shapes index (block, row) pairs once broadcast
        per_block = np.asarray(slots).T
        if per_block.shape[-1] != rows:
            raise ValueError(f"slots for {per_block.shape[-1]} rows, {rows} latents")
        if not 0 <= t < len(self.time_terms):
            raise ValueError(f"step index {t} outside [0, {len(self.time_terms)})")
        return (self.terms + self.time_terms[t][:, None])[self._blocks, per_block]


class NeuralDenoiser:
    """Sampler-facing wrapper around a :class:`DenoiserModel`.

    :meth:`prepare` projects each condition of a sampling call once, as a
    slot of a :class:`SlotTable` that conditions every block alike, and
    :meth:`predict_eps` answers a batch under the table in one
    :func:`forward` pass.
    """

    def __init__(self, model: DenoiserModel, noise_schedule: NoiseSchedule):
        self._model = model
        self._sched = noise_schedule

    @property
    def model(self) -> DenoiserModel:
        return self._model

    @property
    def noise_schedule(self) -> NoiseSchedule:
        return self._sched

    @property
    def dim(self) -> int:
        return self._model.dim

    @property
    def n_blocks(self) -> int:
        return self._model.n_blocks

    def prepare(self, conds) -> SlotTable:
        """Slot ``s`` of the result conditions every block with ``conds[s]``."""
        return SlotTable(self._model, np.stack([c.vector for c in conds]), self._sched.n_steps)

    def predict_eps(self, z, t: int, table: SlotTable, slots) -> np.ndarray:
        """Row ``r`` under slot ``slots[r]`` in every block, or, for slots of
        shape ``(rows, n_blocks)``, block ``j`` under ``slots[r, j]``."""
        return forward(self._model, z, t, self._sched, table, slots)
