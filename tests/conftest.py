from __future__ import annotations

import numpy as np
import pytest

from fedvi import nn
from fedvi.federation import client_update, init_server, sample_cohort, server_apply
from fedvi.model import ArchConfig, FedVIParams, init_params
from fedvi.seeding import DOMAIN_CLIENT, DOMAIN_COHORT, substream


def small_arch(**overrides) -> ArchConfig:
    base = dict(
        input_dim=5,
        embed_widths=(7, 6),
        local_dim=2,
        global_dim=4,
        num_classes=3,
        posterior_widths=(8, 8),
    )
    base.update(overrides)
    return ArchConfig(**base)


def max_rel_err(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-8) -> float:
    """Largest relative error over coordinates whose magnitude exceeds floor."""
    a, b = approx.ravel(), exact.ravel()
    mask = np.abs(b) > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / np.abs(b)[mask]))


def grad_blocks(params: FedVIParams, loss: nn.Tensor) -> dict[str, np.ndarray]:
    """``nn.backward``'s gradient of ``loss`` for the vector of ``params``,
    cut into its blocks by name."""
    return FedVIParams(nn.backward(loss)["theta"], params.arch).blocks


@pytest.fixture
def rng():
    return substream(12345, 0)


@pytest.fixture
def tiny_params(rng):
    return init_params(small_arch(), rng)


def replay_rounds(cfg, arch, ds):
    """Replay ``run_training``'s rounds with one ``client_update`` call per
    client (cohorts of one) and ``server_apply``; returns the final server
    state and each round's loss sum."""
    participating = ds.participating_clients()
    by_id = {c.client_id: c for c in participating}
    state = init_server(arch, cfg.seed)
    loss_sums = []
    for round_index in range(1, cfg.rounds + 1):
        cohort = sample_cohort(
            [c.client_id for c in participating],
            cfg.cohort_size,
            substream(cfg.seed, DOMAIN_COHORT, round_index),
        )
        deltas, weights, losses = [], [], []
        for cid in sorted(cohort):
            rng = substream(cfg.seed, DOMAIN_CLIENT, round_index, cid)
            alone = client_update(state.params, [by_id[cid]], cfg, [rng])
            deltas += list(alone.deltas)
            weights += alone.weights.tolist()
            losses += alone.loss_sum.tolist()
        server_apply(state, deltas, weights, cfg)
        loss_sums.append(float(sum(losses)))
    return state, loss_sums
