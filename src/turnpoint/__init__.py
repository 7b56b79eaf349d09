"""Desk-scale workbench for probing dual-event conditioning in diffusion
samplers: switch the prompt over denoising *steps* or split it across
denoiser *blocks*, then measure when the second event survives.
"""

from .analytic import AnalyticDenoiser, GaussianMixture, predict_eps
from .conditioning import (
    ConditionEmbedding,
    ConditionPlan,
    block_split,
    compose_concat,
    compose_single,
    constant_schedule,
    floor_index,
    step_switch,
    unconditioned,
)
from .diffusion import (
    NoiseSchedule,
    ancestral_step,
    build_schedule,
    forward_noise,
    sample,
)
from .harness import (
    RunRecord,
    SweepConfig,
    aggregate,
    derive_seed,
    load_sweep_config,
    run_sweep,
)
from .metrics import MetricsRecord, evaluate
from .neural import (
    DenoiserModel,
    NeuralDenoiser,
    TrainConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .report import emit_report
from .worldgen import (
    EventParams,
    PromptRecord,
    generate_suite,
    mean_trajectory,
    read_suite,
    validate_suite,
    write_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDenoiser",
    "ConditionEmbedding",
    "ConditionPlan",
    "DenoiserModel",
    "EventParams",
    "GaussianMixture",
    "MetricsRecord",
    "NeuralDenoiser",
    "NoiseSchedule",
    "PromptRecord",
    "RunRecord",
    "SweepConfig",
    "TrainConfig",
    "aggregate",
    "ancestral_step",
    "block_split",
    "build_schedule",
    "compose_concat",
    "compose_single",
    "constant_schedule",
    "derive_seed",
    "emit_report",
    "evaluate",
    "floor_index",
    "forward_noise",
    "generate_suite",
    "init_model",
    "load_checkpoint",
    "load_sweep_config",
    "mean_trajectory",
    "predict_eps",
    "read_suite",
    "run_sweep",
    "sample",
    "save_checkpoint",
    "step_switch",
    "train",
    "unconditioned",
    "validate_suite",
    "write_suite",
]
