"""Small block-stacked denoiser with hand-derived gradients.

Architecture: an input projection dim -> hidden, then per block j

    h <- h + w2_j @ tanh(w1_j @ [h; t_emb; c_j] + b1_j) + b2_j,

where c_j is block j's conditioning vector, and a hidden -> dim output
projection that starts at zero so a fresh model predicts eps = 0.  The
timestep embedding is sinusoidal over the raw integer step.  Gradients
are reverse-mode by hand; no autodiff framework is involved.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .conditioning import ConditionEmbedding
from .diffusion import NoiseSchedule, forward_noise

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrainingError",
    "BlockParams",
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


@dataclass
class DenoiserModel:
    """Mutable parameter container; see the module docstring for layout."""

    dim: int
    hidden: int
    t_emb_dim: int
    cond_width: int  # one event-slot width; block condition vectors are 2*width + 2
    w_in: np.ndarray
    b_in: np.ndarray
    blocks: list[BlockParams] = field(default_factory=list)
    w_out: np.ndarray = None
    b_out: np.ndarray = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def cond_dim(self) -> int:
        return 2 * self.cond_width + 2

    @property
    def block_input_dim(self) -> int:
        return self.hidden + self.t_emb_dim + self.cond_dim

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter tensors in checkpoint order."""
        named = [("w_in", self.w_in), ("b_in", self.b_in)]
        for j, blk in enumerate(self.blocks):
            named.extend(
                [
                    (f"blocks.{j}.w1", blk.w1),
                    (f"blocks.{j}.b1", blk.b1),
                    (f"blocks.{j}.w2", blk.w2),
                    (f"blocks.{j}.b2", blk.b2),
                ]
            )
        named.extend([("w_out", self.w_out), ("b_out", self.b_out)])
        return named


def init_model(
    dim: int,
    hidden: int = 64,
    n_blocks: int = 8,
    t_emb_dim: int = 16,
    cond_width: int = 7,
    seed: int = 0,
) -> DenoiserModel:
    """Scaled-Gaussian init with a zero output projection."""
    if min(dim, hidden, n_blocks, cond_width) < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    model = DenoiserModel(
        dim=int(dim),
        hidden=int(hidden),
        t_emb_dim=int(t_emb_dim),
        cond_width=int(cond_width),
        w_in=rng.standard_normal((hidden, dim)) / np.sqrt(dim),
        b_in=np.zeros(hidden),
    )
    in_width = model.block_input_dim
    for _ in range(n_blocks):
        model.blocks.append(
            BlockParams(
                w1=rng.standard_normal((hidden, in_width)) / np.sqrt(in_width),
                b1=np.zeros(hidden),
                w2=rng.standard_normal((hidden, hidden)) / np.sqrt(hidden),
                b2=np.zeros(hidden),
            )
        )
    model.w_out = np.zeros((dim, hidden))
    model.b_out = np.zeros(dim)
    return model


def _forward_batch(model, z, t, block_conds, keep_cache=False):
    """Batched forward pass.

    z (n, dim), t (n,), block_conds (n, B, cond_dim).  Returns (eps, cache)
    where cache holds what backprop needs: per-block (u, s) and the final
    hidden state.
    """
    temb = timestep_embedding(t, model.t_emb_dim)
    h = z @ model.w_in.T + model.b_in
    cache = []
    for j, blk in enumerate(model.blocks):
        u = np.concatenate([h, temb, block_conds[:, j, :]], axis=1)
        s = np.tanh(u @ blk.w1.T + blk.b1)
        if keep_cache:
            cache.append((u, s))
        h = h + s @ blk.w2.T + blk.b2
    eps = h @ model.w_out.T + model.b_out
    return eps, (cache, h)


def forward(model, z_t, t: int, sched: NoiseSchedule, block_conds) -> np.ndarray:
    """Noise prediction for one latent ``(dim,)`` or a batch ``(n, dim)``.

    ``block_conds`` holds condition vectors of width ``model.cond_dim``:
    ``(cond_dim,)`` conditions every block of every row alike,
    ``(n_blocks, cond_dim)`` is one block stack (``BlockAssignment.vectors``)
    for every row, and ``(n, n_blocks, cond_dim)`` one stack per row.
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    if z_t.ndim not in (1, 2) or z_t.shape[-1] != model.dim:
        raise ValueError(f"latent has shape {z_t.shape}, model dimension is {model.dim}")
    t = int(t)
    if not 0 <= t < sched.n_steps:
        raise ValueError(f"step index {t} outside [0, {sched.n_steps})")
    batch = z_t.reshape(-1, model.dim)
    n = batch.shape[0]
    full = (n, model.n_blocks, model.cond_dim)
    conds = np.asarray(block_conds, dtype=np.float64)
    if conds.ndim == 3 and conds.shape[0] != n:
        raise ValueError(f"{conds.shape[0]} block assignments for {n} latents")
    if not 1 <= conds.ndim <= 3 or conds.shape != full[3 - conds.ndim:]:
        raise ValueError(
            f"block conditions have shape {conds.shape}; expected (cond_dim,), "
            f"(n_blocks, cond_dim) or (n, n_blocks, cond_dim) of {full}"
        )
    eps, _ = _forward_batch(model, batch, np.full(n, t), np.broadcast_to(conds, full))
    return eps[0] if z_t.ndim == 1 else eps


def loss_and_grads(model, z0, t, eps, block_conds, sched):
    """Denoising MSE and exact parameter gradients for one batch.

    z0 (n, dim), t (n,), eps (n, dim), block_conds (n, B, cond_dim).  The
    loss is the mean squared error, over all n * dim entries, between
    ``eps`` and the model's prediction at ``forward_noise(z0, t, eps)``.
    Returns (loss, grads) with grads keyed like ``model.parameters()``.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.asarray(t)
    n = z0.shape[0]
    if n < 1:
        raise ValueError("batch must contain at least one example")
    if z0.shape != (n, model.dim) or eps.shape != z0.shape:
        raise ValueError("z0 and eps must both have shape (n, dim)")
    if block_conds.shape != (n, model.n_blocks, model.cond_dim):
        raise ValueError(
            f"block conditions must have shape {(n, model.n_blocks, model.cond_dim)}, "
            f"got {block_conds.shape}"
        )
    z_t = forward_noise(z0, t, eps, sched)
    pred, (cache, h_last) = _forward_batch(model, z_t, t, block_conds, keep_cache=True)
    resid = pred - eps
    loss = float(np.mean(resid * resid))
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")

    grads: dict[str, np.ndarray] = {}
    d_pred = (2.0 / resid.size) * resid
    grads["w_out"] = d_pred.T @ h_last
    grads["b_out"] = d_pred.sum(axis=0)
    dh = d_pred @ model.w_out
    for j in range(model.n_blocks - 1, -1, -1):
        blk = model.blocks[j]
        u, s = cache[j]
        grads[f"blocks.{j}.w2"] = dh.T @ s
        grads[f"blocks.{j}.b2"] = dh.sum(axis=0)
        da = (dh @ blk.w2) * (1.0 - s * s)
        grads[f"blocks.{j}.w1"] = da.T @ u
        grads[f"blocks.{j}.b1"] = da.sum(axis=0)
        dh = dh + (da @ blk.w1)[:, : model.hidden]
    grads["w_in"] = dh.T @ z_t
    grads["b_in"] = dh.sum(axis=0)
    return loss, grads


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
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.ema_decay is not None and not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1) when set")


class AdamState:
    """Adam with bias correction, updating parameters in place."""

    def __init__(self, model: DenoiserModel):
        self.step = 0
        self.m = {name: np.zeros_like(p) for name, p in model.parameters()}
        self.v = {name: np.zeros_like(p) for name, p in model.parameters()}

    def update(self, model: DenoiserModel, grads: dict, cfg: TrainConfig) -> None:
        self.step += 1
        bc1 = 1.0 - cfg.beta1**self.step
        bc2 = 1.0 - cfg.beta2**self.step
        for name, param in model.parameters():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            param -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def train(model, data_sampler, cfg: TrainConfig, sched: NoiseSchedule):
    """Denoising-MSE training loop.

    ``data_sampler(rng, n)`` must yield ``(z0, cond_vectors)`` with shapes
    (n, dim) and (n, cond_dim).  Every block receives the example's own
    condition during training — block splits are an inference-time probe
    only.  Deterministic for a fixed config; aborts on divergence.
    Returns ``(model, trace)`` where trace holds (step, loss) every 100
    steps.
    """
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(model)
    ema = (
        {name: p.copy() for name, p in model.parameters()}
        if cfg.ema_decay is not None
        else None
    )
    trace: list[tuple[int, float]] = []
    for step in range(cfg.steps):
        z0, conds = data_sampler(rng, cfg.batch_size)
        if conds.shape != (len(z0), model.cond_dim):
            raise ValueError(
                f"data sampler returned conditions of shape {conds.shape}, "
                f"expected {(len(z0), model.cond_dim)}"
            )
        t = rng.integers(0, sched.n_steps, size=len(z0))
        eps = rng.standard_normal(z0.shape)
        block_conds = np.repeat(conds[:, None, :], model.n_blocks, axis=1)
        loss, grads = loss_and_grads(model, z0, t, eps, block_conds, sched)
        if loss > DIVERGENCE_LIMIT:
            raise TrainingError(f"training diverged at step {step}: loss={loss:.3e}")
        if step % 100 == 0:
            trace.append((step, loss))
        adam.update(model, grads, cfg)
        if ema is not None:
            for name, p in model.parameters():
                ema[name] *= cfg.ema_decay
                ema[name] += (1.0 - cfg.ema_decay) * p
    if ema is not None:
        for name, p in model.parameters():
            p[...] = ema[name]
    return model, trace


# ---------------------------------------------------------------------------
# checkpoint format: magic "TPCKPT", u32 version, u32 dims
# (dim, hidden, n_blocks, t_emb_dim, cond_width), then little-endian
# float64 parameter arrays in model.parameters() order.

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
        for _, param in model.parameters():
            fh.write(np.ascontiguousarray(param, dtype="<f8").tobytes())


def load_checkpoint(path) -> DenoiserModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"file too short for a checkpoint header: {path}")
    magic, version, dim, hidden, n_blocks, t_emb_dim, cond_width = _HEADER.unpack_from(
        blob
    )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic bytes {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    try:
        model = init_model(
            dim, hidden=hidden, n_blocks=n_blocks, t_emb_dim=t_emb_dim,
            cond_width=cond_width, seed=0,
        )
    except ValueError as exc:
        raise CheckpointError(f"invalid header dimensions: {exc}") from exc
    offset = _HEADER.size
    for name, param in model.parameters():
        nbytes = param.size * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"truncated parameter data for field {name!r}")
        values = np.frombuffer(blob, dtype="<f8", count=param.size, offset=offset)
        param[...] = values.reshape(param.shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{len(blob) - offset} trailing bytes after parameters")
    return model


class NeuralDenoiser:
    """Sampler-facing wrapper around a :class:`DenoiserModel`.

    Uniform conditioning routes through :meth:`predict_eps`, which takes a
    :class:`ConditionEmbedding` like every backend; block splits through
    :meth:`predict_eps_blocks`, which takes condition arrays in any shape
    :func:`forward` accepts.  Both answer a latent ``(dim,)`` or a batch
    ``(n, dim)`` in one forward pass.
    """

    def __init__(self, model: DenoiserModel, noise_schedule: NoiseSchedule,
                 frame_shape: tuple[int, int]):
        n_frames, frame_dim = frame_shape
        if n_frames * frame_dim != model.dim:
            raise ValueError(
                f"frame shape {frame_shape} does not flatten to model dimension "
                f"{model.dim}"
            )
        self._model = model
        self._sched = noise_schedule
        self._frame_shape = (int(n_frames), int(frame_dim))

    @property
    def model(self) -> DenoiserModel:
        return self._model

    @property
    def noise_schedule(self) -> NoiseSchedule:
        return self._sched

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self._frame_shape

    @property
    def dim(self) -> int:
        return self._model.dim

    def predict_eps(self, z, t: int, cond: ConditionEmbedding) -> np.ndarray:
        return forward(self._model, z, t, self._sched, cond.vector)

    def predict_eps_blocks(self, z, t: int, block_conds) -> np.ndarray:
        return forward(self._model, z, t, self._sched, block_conds)
