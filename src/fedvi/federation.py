"""Stateless cross-device round protocol.

Each round: sample a cohort uniformly without replacement, run local
mini-batch gradient descent on copies of the server parameters, aggregate
example-weighted pseudo-gradients (initial minus final), and apply them
with server-side SGD momentum. Clients keep no state between rounds.

The cohort trains in lockstep, one row of stacked parameters per client:
at each local step, every run of adjacent rows whose batches have the same
size takes one stacked step together. Each client's slice of a stacked
step computes exactly what its step alone would, so a client's update does
not depend on the rest of its cohort.

Every random draw comes from a counter-derived substream keyed by
(seed, domain, round, client), so the whole run is a pure function of
(seed, dataset).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import nn
from .datagen import ClientDataset, FederatedDataset
from .model import (
    ArchConfig,
    FedVIParams,
    LossParts,
    construct_posterior,
    embed,
    global_branch_logits,
    global_branch_loss,
    init_params,
    minibatch_loss,
    predict_logits,
    split_features,
)
from .seeding import DOMAIN_CLIENT, DOMAIN_COHORT, DOMAIN_INIT, substream

ALGORITHMS = ("fedvi", "fedavg")


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    rounds: int = 200
    cohort_size: int = 8
    client_lr: float = 0.001
    server_lr: float = 1.0
    server_momentum: float = 0.9
    local_epochs: int = 1
    batch_size: int = 32
    tau: float = 0.01
    algorithm: str = "fedvi"
    eval_every: int = 10

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


class DegenerateRoundError(RuntimeError):
    """No client of a round's cohort has a batch of ``ArchConfig.min_batch``
    training examples, so the round has no update to apply."""


@dataclass
class ServerState:
    params: FedVIParams
    momentum: np.ndarray  # [P], laid out as params.flat
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
    delta: np.ndarray  # [P], laid out as FedVIParams.flat
    weight: int
    mean_loss: float
    loss_sum: float
    nll_sum: float
    reg_sum: float  # sum over batches of kl / batch_size (tau-free)
    kl_raw_sum: float
    steps: int


@dataclass
class CohortUpdate:
    """One cohort's local training: the updates of the clients that trained,
    in cohort order, the number of clients skipped, and the total number of
    local steps taken."""

    updates: list[ClientUpdate]
    skipped: int
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

    Reshuffles every epoch and cuts the permutation with
    ``ArchConfig.batch_slices``, so both algorithms train on the same batches.
    The noise vector for the local-weight sample is drawn here (fresh per
    batch) so that replaying with the same generator replays training
    exactly.
    """
    x_tr, y_tr = client.train_arrays()
    n = x_tr.shape[0]
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for rows in arch.batch_slices(n, cfg.batch_size):
            idx = perm[rows]
            noise = rng.standard_normal(arch.beta_dim) if cfg.algorithm == "fedvi" else None
            yield x_tr[idx], y_tr[idx], noise


def client_update(
    global_params: FedVIParams,
    clients: list[ClientDataset],
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
) -> CohortUpdate:
    """Local training of a cohort on copies of the global parameters.

    Client k draws its minibatches and noise from ``rngs[k]``. The global
    parameter vector is copied once into a [C x P] matrix, one row per
    client; at step j of each local epoch, every maximal run of adjacent
    rows whose j-th batches of the epoch have the same size takes one
    stacked step (loss, backward, SGD update) on a view of its rows. A
    cohort of one client computes exactly what that client computes in any
    cohort.

    Each ClientUpdate holds the pseudo-gradient delta = initial - final
    (the client's row of the cohort matrix taken from the global vector),
    the client's training example count as aggregation weight, and loss
    statistics. Clients with no batch (``ArchConfig.batch_slices``) are skipped.
    The copies are discarded: clients are stateless. A NonFiniteError
    names the client and its own batch index of the first failing client
    in cohort order, at the earliest failing step.
    """
    arch = global_params.arch
    plans = [list(iter_local_batches(c, cfg, arch, rng)) for c, rng in zip(clients, rngs)]
    # Every epoch cuts a client's rows alike, so rows go in descending order
    # of one epoch's batch sizes: the clients that share a batch size at a
    # step of an epoch are then adjacent rows and take one stacked step.
    epoch_sizes = [
        [xb.shape[0] for xb, _, _ in plan[: len(plan) // cfg.local_epochs]] for plan in plans
    ]
    order = sorted(
        (k for k, plan in enumerate(plans) if plan), key=epoch_sizes.__getitem__, reverse=True
    )
    params = global_params.stacked(len(order))
    loss_sum, nll_sum, reg_sum, kl_sum = (np.zeros(len(order)) for _ in range(4))
    width = max((len(epoch_sizes[k]) for k in order), default=0)
    for epoch, j in itertools.product(range(cfg.local_epochs), range(width)):
        # Row k trains on its batch epoch * L_k + j, for L_k batches an
        # epoch; a row whose epoch has ended has size 0.
        sizes = [epoch_sizes[k][j] if j < len(epoch_sizes[k]) else 0 for k in order]
        batch = [epoch * len(epoch_sizes[k]) + j for k in order]
        failed: list[int] = []
        hi = 0
        for size, run in itertools.groupby(sizes):
            lo, hi = hi, hi + len(list(run))
            if not size:
                continue
            rows = slice(lo, hi)
            try:
                parts = _stacked_step(
                    params.rows(rows), [plans[k][t] for k, t in zip(order[rows], batch[rows])], cfg
                )
            except nn.NonFiniteError:
                failed += range(lo, hi)
                continue
            loss_sum[rows] += parts.loss
            nll_sum[rows] += parts.nll
            reg_sum[rows] += parts.kl / size
            kl_sum[rows] += parts.kl
        if failed:
            # Rerun the failed rows one at a time, in cohort order.
            for row in sorted(failed, key=order.__getitem__):
                k, t = order[row], batch[row]
                try:
                    _stacked_step(params.rows(slice(row, row + 1)), [plans[k][t]], cfg)
                except nn.NonFiniteError as exc:
                    exc.add_context(client=clients[k].client_id, batch=t)
                    raise
            raise RuntimeError(f"step {j} of epoch {epoch} failed in a stack, for no client alone")
    updates = []
    for row, k in sorted(enumerate(order), key=lambda pair: pair[1]):
        steps = len(plans[k])
        updates.append(
            ClientUpdate(
                client_id=clients[k].client_id,
                delta=global_params.flat - params.flat[row],
                weight=clients[k].n_train,
                mean_loss=float(loss_sum[row]) / steps,
                loss_sum=float(loss_sum[row]),
                nll_sum=float(nll_sum[row]),
                reg_sum=float(reg_sum[row]),
                kl_raw_sum=float(kl_sum[row]),
                steps=steps,
            )
        )
    return CohortUpdate(
        updates=updates,
        skipped=len(clients) - len(order),
        steps=sum(u.steps for u in updates),
    )


def _stacked_step(
    params: FedVIParams,
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
    cfg: TrainConfig,
) -> LossParts:
    """One SGD step of stacked ``params``, one row per batch (all of one
    size); returns the loss parts, one per row."""
    xb = np.stack([b[0] for b in batches])
    yb = np.stack([b[1] for b in batches])
    if cfg.algorithm == "fedvi":
        loss, parts = minibatch_loss(params, xb, yb, cfg.tau, np.stack([b[2] for b in batches]))
    else:
        loss, parts = global_branch_loss(params, xb, yb)
    params.flat -= cfg.client_lr * nn.backward(loss)["theta"]
    return parts


def init_server(arch: ArchConfig, seed: int) -> ServerState:
    params = init_params(arch, substream(seed, DOMAIN_INIT))
    return ServerState(params=params, momentum=np.zeros_like(params.flat))


def server_apply(
    state: ServerState,
    deltas: list[np.ndarray],
    weights: list[int],
    cfg: TrainConfig,
) -> ServerState:
    """Example-weighted mean pseudo-gradient into SGD-with-momentum.

    Each delta is one [P] vector laid out as ``FedVIParams.flat``; the mean
    adds them in the order given. A NonFiniteError names the first block,
    in ``block_shapes`` order, that the update left non-finite.
    """
    if not deltas:
        raise ValueError("server_apply needs at least one client delta")
    if len(deltas) != len(weights) or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive and align with deltas")
    wsum = float(sum(weights))
    g = np.zeros_like(state.params.flat)
    for delta, w in zip(deltas, weights):
        g += (w / wsum) * delta
    state.momentum *= cfg.server_momentum
    state.momentum += g
    state.params.flat -= cfg.server_lr * state.momentum
    for name, block in state.params.blocks.items():
        nn.assert_all_finite(block, f"server parameter {name!r}")
    state.round_index += 1
    return state


def _accuracy_weighted(per_client: list[tuple[float, int]]) -> float:
    wsum = sum(w for _, w in per_client)
    return sum(a * w for a, w in per_client) / wsum


def eval_batches(client: ClientDataset, cfg: TrainConfig, arch: ArchConfig) -> list[slice]:
    """The test batches ``evaluate`` scores for ``client``: its test set cut
    by ``ArchConfig.batch_slices``, as one batch on the non-personalized path."""
    n = client.n_test
    return arch.batch_slices(n, n if cfg.algorithm == "fedavg" else cfg.batch_size)


def evaluate(
    params: FedVIParams,
    clients: list[ClientDataset],
    cfg: TrainConfig,
) -> EvalResult:
    """Weighted test accuracy, weights proportional to local test set sizes.

    The personalized path batches each client's test set, rebuilds the
    posterior from the batch's own unlabeled support half, sets the local
    weights to the posterior mean, and counts accuracy on query halves
    only. The non-personalized path scores the global branch on the whole
    test set as one batch. Batches come from ``eval_batches``; clients with
    no test batch are excluded.

    Every test batch of every scored client goes through one flat forward
    pass with the shared weights: one embedding of all scored rows, one
    constructor pass over all support rows with one segment per batch
    (``construct_posterior``'s segment form), and one classifier pass over
    all query rows, each row scored with its own batch's posterior mean.
    A batch's logits are thus those of its own forward pass up to rounding
    in the last bit: the kernel a GEMM uses may depend on its row count, and
    the row form's local term is not a GEMM. Forward passes only: no graph
    node is built. Transient memory grows with the number of scored rows
    and with ``posterior_out_dim`` = (2L + 1)K: about 1.1 KiB a row at
    heterogeneous.cfg's K = 5, L = 4, and 11.1 KiB a row at K = 62, L = 8.
    """
    # A client's batches are the first rows of its test set, back to back.
    sizes_of = [[b.stop - b.start for b in eval_batches(c, cfg, params.arch)] for c in clients]
    scored = [k for k, sizes in enumerate(sizes_of) if sizes]
    if not scored:
        return EvalResult(accuracy=float("nan"), excluded=len(clients))
    tests = [(clients[k].test_arrays(), sum(sizes_of[k])) for k in scored]
    x = np.concatenate([x_te[:n] for (x_te, _), n in tests])
    y = np.concatenate([y_te[:n] for (_, y_te), n in tests])
    sizes = np.array([size for k in scored for size in sizes_of[k]])
    owner = np.repeat([k for k in scored for _ in sizes_of[k]], sizes)
    if cfg.algorithm == "fedavg":
        hit = global_branch_logits(params, x).argmax(axis=-1) == y
    else:
        arch = params.arch
        # split_support_query's rule, int(support_fraction * size), per batch
        support = (arch.support_fraction * sizes).astype(np.int64)
        position = np.arange(x.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        query = position >= np.repeat(support, sizes)
        feats_global, feats_local = split_features(arch, embed(params, x))
        stats = construct_posterior(params, feats_global[~query], counts=support)
        batch = np.repeat(np.arange(sizes.size), sizes - support)
        logits = predict_logits(
            params, stats.q.mean[batch], stats.b_beta[batch],
            feats_global[query], feats_local[query],
        )
        owner, hit = owner[query], logits.argmax(axis=-1) == y[query]
    correct = np.bincount(owner[hit], minlength=len(clients)).tolist()
    seen = np.bincount(owner, minlength=len(clients)).tolist()
    per_client = [(correct[k] / seen[k], clients[k].n_test) for k in scored]
    return EvalResult(accuracy=_accuracy_weighted(per_client), excluded=len(clients) - len(scored))


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
) -> RunResult:
    """The full round loop; deterministic given (cfg.seed, ds).

    A NonFiniteError from local training, the server update or evaluation
    leaves with the round added to its context.
    """
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
        try:
            trained = client_update(
                state.params,
                [by_id[cid] for cid in cohort],
                cfg,
                [substream(cfg.seed, DOMAIN_CLIENT, round_index, cid) for cid in cohort],
            )
            updates = sorted(trained.updates, key=lambda u: u.client_id)
            total_skipped += trained.skipped
            if not updates:
                raise DegenerateRoundError(
                    f"round {round_index}: every cohort client was degenerate "
                    f"(no batch of {arch.min_batch} training examples)"
                )
            server_apply(state, [u.delta for u in updates], [u.weight for u in updates], cfg)
            cumulative_steps += trained.steps

            part_acc = nonpart_acc = None
            eval_excluded = 0
            if round_index % cfg.eval_every == 0 or round_index == cfg.rounds:
                part = evaluate(state.params, participating, cfg)
                part_acc = part.accuracy
                eval_excluded = part.excluded
                if holdout:
                    nonpart = evaluate(state.params, holdout, cfg)
                    nonpart_acc = nonpart.accuracy
                    eval_excluded += nonpart.excluded
        except nn.NonFiniteError as exc:
            exc.add_context(round=round_index)
            raise
        reports.append(
            RoundReport(
                round_index=round_index,
                cohort=cohort,
                mean_client_loss=float(np.mean([u.mean_loss for u in updates])),
                loss_sum=float(sum(u.loss_sum for u in updates)),
                kl_mean=float(sum(u.kl_raw_sum for u in updates) / max(trained.steps, 1)),
                part_acc=part_acc,
                nonpart_acc=nonpart_acc,
                duration_s=time.perf_counter() - t0,
                cumulative_steps=cumulative_steps,
                skipped_clients=trained.skipped,
                eval_excluded=eval_excluded,
            )
        )
    return RunResult(
        reports=reports,
        state=state,
        summary=summarize(reports, cfg.rounds),
        skipped_clients=total_skipped,
    )
