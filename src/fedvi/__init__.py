"""Deterministic simulator of stateless cross-device federated learning.

Trains either a plain federated-averaging baseline or a variational
personalization scheme in which each client rebuilds a posterior over its
local classifier weights from unlabeled data, and audits the objective
decomposition and a PAC-Bayes style generalization bound.
"""

from .datagen import (
    ClientDataset,
    FederatedDataset,
    GenConfig,
    generate_hierarchical,
    load_dataset,
    save_dataset,
)
from .distributions import DiagGaussian, glorot_scale, kl_diag, mc_kl_estimate, sample_reparam
from .federation import TrainConfig, evaluate, run_training, sample_cohort, server_apply
from .model import ArchConfig, FedVIParams, init_params, minibatch_loss
from .nn import Tensor, backward, finite_diff_grad

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "ClientDataset",
    "DiagGaussian",
    "FedVIParams",
    "FederatedDataset",
    "GenConfig",
    "Tensor",
    "TrainConfig",
    "backward",
    "evaluate",
    "finite_diff_grad",
    "generate_hierarchical",
    "glorot_scale",
    "init_params",
    "kl_diag",
    "load_dataset",
    "mc_kl_estimate",
    "minibatch_loss",
    "run_training",
    "sample_cohort",
    "sample_reparam",
    "save_dataset",
    "server_apply",
]
