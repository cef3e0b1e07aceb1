"""Stateless cross-device round protocol.

Each round: sample a cohort uniformly without replacement, run local
mini-batch gradient descent on copies of the server parameters, aggregate
example-weighted pseudo-gradients (initial minus final), and apply them
with server-side SGD momentum. Clients keep no state between rounds.

Every random draw comes from a counter-derived substream keyed by
(seed, domain, round, client), so parallel and sequential client execution
give bit-identical results and the whole run is a pure function of
(seed, dataset).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import nn
from .datagen import ClientDataset, FederatedDataset
from .model import (
    ArchConfig,
    FedVIParams,
    forward_batch,
    global_branch_logits,
    global_branch_loss,
    init_params,
    minibatch_loss,
)
from .seeding import DOMAIN_CLIENT, DOMAIN_COHORT, DOMAIN_EVAL, DOMAIN_INIT, substream

ALGORITHMS = ("fedvi", "fedavg")


@dataclass(frozen=True)
class TrainConfig:
    rounds: int
    cohort_size: int
    client_lr: float
    server_lr: float
    server_momentum: float
    local_epochs: int
    batch_size: int
    tau: float
    seed: int
    eval_every: int
    algorithm: str = "fedvi"

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.cohort_size < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("cohort_size, local_epochs and batch_size must be >= 1")
        if self.client_lr < 0 or self.server_lr <= 0:
            raise ValueError("client_lr must be >= 0 and server_lr > 0")
        if not 0.0 <= self.server_momentum < 1.0:
            raise ValueError(f"server_momentum must be in [0,1), got {self.server_momentum}")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")


@dataclass
class ServerState:
    params: FedVIParams
    momentum: dict[str, np.ndarray]
    round_index: int = 0


@dataclass
class RoundReport:
    round_index: int
    cohort: list[int]
    mean_client_loss: float
    loss_sum: float
    kl_mean: float
    part_acc: float | None
    nonpart_acc: float | None
    duration_s: float
    cumulative_steps: int
    skipped_clients: int = 0
    eval_excluded: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    delta: dict[str, np.ndarray]
    weight: int
    mean_loss: float
    loss_sum: float
    nll_sum: float
    reg_sum: float  # sum over batches of kl / batch_size (tau-free)
    kl_raw_sum: float
    steps: int


@dataclass
class EvalResult:
    accuracy: float
    excluded: int


@dataclass
class RunResult:
    reports: list[RoundReport]
    state: ServerState
    summary: dict
    skipped_clients: int = 0


def sample_cohort(participating_ids: list[int], m: int, rng: np.random.Generator) -> list[int]:
    """m distinct ids, uniform over m-subsets."""
    if m > len(participating_ids):
        raise ValueError(f"cohort size {m} exceeds {len(participating_ids)} participants")
    picks = rng.choice(len(participating_ids), size=m, replace=False)
    return [participating_ids[i] for i in picks]


def iter_local_batches(
    client: ClientDataset,
    cfg: TrainConfig,
    arch: ArchConfig,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Yield (x, y, noise) minibatches for one local pass.

    Reshuffles every epoch; a trailing batch smaller than 2 examples is
    dropped because the support/query split needs both halves nonempty.
    The noise vector for the local-weight sample is drawn here (fresh per
    batch) so that replaying with the same generator replays training
    exactly.
    """
    x_tr, y_tr = client.train_arrays()
    n = x_tr.shape[0]
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            noise = rng.standard_normal(arch.beta_dim) if cfg.algorithm == "fedvi" else None
            yield x_tr[idx], y_tr[idx], noise


def client_update(
    global_params: FedVIParams,
    client: ClientDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> ClientUpdate | None:
    """Local training on a copy of the global parameters.

    Returns the pseudo-gradient delta = initial - final, the client's
    training example count as aggregation weight, and loss statistics.
    Returns None (skip signal) for clients with fewer than 2 training
    examples. The copy is discarded by the caller: clients are stateless.
    A NonFiniteError raised in a step leaves with the client id and the
    batch index added to its context.
    """
    if client.n_train < 2:
        return None
    params = global_params.clone()
    initial = {b.name: b.value.array.copy() for b in params.all_blocks()}
    loss_sum = nll_sum = reg_sum = kl_raw = 0.0
    steps = 0
    try:
        for xb, yb, noise in iter_local_batches(client, cfg, params.arch, rng):
            if cfg.algorithm == "fedvi":
                loss, parts = minibatch_loss(params, xb, yb, cfg.tau, noise)
            else:
                loss, parts = global_branch_loss(params, xb, yb)
            grads = nn.backward(loss)
            if cfg.client_lr != 0.0:
                for block in params.all_blocks():
                    g = grads.get(block.name)
                    if g is not None:
                        block.value.array -= cfg.client_lr * g
            loss_sum += loss.item()
            nll_sum += parts.nll
            reg_sum += parts.kl / xb.shape[0]
            kl_raw += parts.kl
            steps += 1
    except nn.NonFiniteError as exc:
        exc.add_context(client=client.client_id, batch=steps)
        raise
    if steps == 0:
        return None
    delta = {
        b.name: initial[b.name] - b.value.array for b in params.all_blocks()
    }
    return ClientUpdate(
        client_id=client.client_id,
        delta=delta,
        weight=client.n_train,
        mean_loss=loss_sum / steps,
        loss_sum=loss_sum,
        nll_sum=nll_sum,
        reg_sum=reg_sum,
        kl_raw_sum=kl_raw,
        steps=steps,
    )


def init_server(arch: ArchConfig, seed: int) -> ServerState:
    params = init_params(arch, substream(seed, DOMAIN_INIT))
    momentum = {b.name: np.zeros_like(b.value.array) for b in params.all_blocks()}
    return ServerState(params=params, momentum=momentum)


def server_apply(
    state: ServerState,
    deltas: list[dict[str, np.ndarray]],
    weights: list[int],
    cfg: TrainConfig,
) -> ServerState:
    """Example-weighted mean pseudo-gradient into SGD-with-momentum."""
    if not deltas:
        raise ValueError("server_apply needs at least one client delta")
    if len(deltas) != len(weights) or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive and align with deltas")
    wsum = float(sum(weights))
    for block in state.params.all_blocks():
        g = np.zeros_like(block.value.array)
        for delta, w in zip(deltas, weights):
            g += (w / wsum) * delta[block.name]
        buf = state.momentum[block.name]
        buf *= cfg.server_momentum
        buf += g
        block.value.array -= cfg.server_lr * buf
        nn.assert_all_finite(block.value.array, f"server parameter {block.name!r}")
    state.round_index += 1
    return state


def _accuracy_weighted(per_client: list[tuple[float, int]]) -> float:
    wsum = sum(w for _, w in per_client)
    return sum(a * w for a, w in per_client) / wsum


def evaluate(
    params: FedVIParams,
    clients: list[ClientDataset],
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> EvalResult:
    """Weighted test accuracy, weights proportional to local test set sizes.

    The personalized path batches each client's test set, rebuilds the
    posterior from the batch's own unlabeled support half, sets the local
    weights to the posterior mean, and counts accuracy on query halves
    only. Forward passes only: no graph node is built. The non-personalized path scores the global branch on all test
    examples. Clients with fewer than 2 test examples are excluded.
    """
    per_client: list[tuple[float, int]] = []
    excluded = 0
    for client in clients:
        x_te, y_te = client.test_arrays()
        n = x_te.shape[0]
        if n < 2:
            excluded += 1
            continue
        correct = 0
        seen = 0
        if cfg.algorithm == "fedavg":
            logits = global_branch_logits(params, x_te)
            correct = int((logits.argmax(axis=1) == y_te).sum())
            seen = n
        else:
            for start in range(0, n, cfg.batch_size):
                xb = x_te[start : start + cfg.batch_size]
                yb = y_te[start : start + cfg.batch_size]
                if xb.shape[0] < 2:
                    continue
                fwd = forward_batch(params, xb)
                logits = fwd.logits_for(fwd.stats.q.mean)
                yq = yb[fwd.support_size :]
                correct += int((logits.argmax(axis=1) == yq).sum())
                seen += yq.size
        if seen == 0:
            excluded += 1
            continue
        per_client.append((correct / seen, n))
    if not per_client:
        return EvalResult(accuracy=float("nan"), excluded=excluded)
    return EvalResult(accuracy=_accuracy_weighted(per_client), excluded=excluded)


def _round_updates(
    state: ServerState,
    cohort_clients: list[ClientDataset],
    cfg: TrainConfig,
    round_index: int,
    parallel: bool,
) -> list[ClientUpdate]:
    rngs = [
        substream(cfg.seed, DOMAIN_CLIENT, round_index, client.client_id)
        for client in cohort_clients
    ]
    try:
        if parallel:
            with ThreadPoolExecutor() as pool:
                results = list(
                    pool.map(
                        lambda pair: client_update(state.params, pair[0], cfg, pair[1]),
                        zip(cohort_clients, rngs),
                    )
                )
        else:
            results = [
                client_update(state.params, client, cfg, rng)
                for client, rng in zip(cohort_clients, rngs)
            ]
    except nn.NonFiniteError as exc:
        exc.add_context(round=round_index)
        raise
    return [u for u in results if u is not None]


def summarize(reports: list[RoundReport], rounds: int, window: int | None = None) -> dict:
    """Mean accuracies over evaluated rounds inside the trailing window."""
    if window is None:
        window = min(100, rounds)
    tail = [
        r for r in reports if r.part_acc is not None and r.round_index > rounds - window
    ]
    if not tail:
        return {"window": window, "eval_rounds": 0, "part_acc": None, "nonpart_acc": None, "gap": None}
    part = float(np.mean([r.part_acc for r in tail]))
    nonpart_vals = [r.nonpart_acc for r in tail if r.nonpart_acc is not None]
    nonpart = float(np.mean(nonpart_vals)) if nonpart_vals else None
    gap = None if nonpart is None else part - nonpart
    return {
        "window": window,
        "eval_rounds": len(tail),
        "part_acc": part,
        "nonpart_acc": nonpart,
        "gap": gap,
    }


def run_training(
    cfg: TrainConfig,
    arch: ArchConfig,
    ds: FederatedDataset,
    parallel: bool = False,
) -> RunResult:
    """The full round loop; deterministic given (cfg.seed, ds)."""
    participating = ds.participating_clients()
    holdout = ds.holdout_clients()
    if cfg.cohort_size > len(participating):
        raise ValueError(
            f"cohort size {cfg.cohort_size} exceeds {len(participating)} participating clients"
        )
    by_id = {c.client_id: c for c in participating}
    state = init_server(arch, cfg.seed)
    reports: list[RoundReport] = []
    total_skipped = 0
    cumulative_steps = 0
    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        round_index = r + 1
        cohort = sample_cohort(
            [c.client_id for c in participating],
            cfg.cohort_size,
            substream(cfg.seed, DOMAIN_COHORT, round_index),
        )
        updates = _round_updates(
            state, [by_id[cid] for cid in cohort], cfg, round_index, parallel
        )
        skipped = len(cohort) - len(updates)
        total_skipped += skipped
        if not updates:
            raise RuntimeError(f"round {round_index}: every cohort client was degenerate")
        updates.sort(key=lambda u: u.client_id)
        server_apply(state, [u.delta for u in updates], [u.weight for u in updates], cfg)
        cumulative_steps += sum(u.steps for u in updates)

        part_acc = nonpart_acc = None
        eval_excluded = 0
        if round_index % cfg.eval_every == 0 or round_index == cfg.rounds:
            eval_rng = substream(cfg.seed, DOMAIN_EVAL, round_index)
            part = evaluate(state.params, participating, cfg, eval_rng)
            part_acc = part.accuracy
            eval_excluded = part.excluded
            if holdout:
                nonpart = evaluate(state.params, holdout, cfg, eval_rng)
                nonpart_acc = nonpart.accuracy
                eval_excluded += nonpart.excluded
        steps = sum(u.steps for u in updates)
        reports.append(
            RoundReport(
                round_index=round_index,
                cohort=cohort,
                mean_client_loss=float(np.mean([u.mean_loss for u in updates])),
                loss_sum=float(sum(u.loss_sum for u in updates)),
                kl_mean=float(sum(u.kl_raw_sum for u in updates) / max(steps, 1)),
                part_acc=part_acc,
                nonpart_acc=nonpart_acc,
                duration_s=time.perf_counter() - t0,
                cumulative_steps=cumulative_steps,
                skipped_clients=skipped,
                eval_excluded=eval_excluded,
            )
        )
    return RunResult(
        reports=reports,
        state=state,
        summary=summarize(reports, cfg.rounds),
        skipped_clients=total_skipped,
    )
