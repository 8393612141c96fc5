"""Target-task multitask training via per-epoch model-delta mixing."""

from .autodiff import Tape, Tensor, backward
from .model import MultiHeadModel, build_model, combine
from .weighting import (
    alpha_gradient,
    avil_train,
    collect_delta,
    diw_train,
    multitask_train,
    singletask_train,
    tune_alphas,
)
from .harness import ExperimentConfig, run_experiment, report

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "MultiHeadModel",
    "build_model",
    "combine",
    "alpha_gradient",
    "avil_train",
    "collect_delta",
    "diw_train",
    "multitask_train",
    "singletask_train",
    "tune_alphas",
    "ExperimentConfig",
    "run_experiment",
    "report",
]
