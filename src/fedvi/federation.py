"""Stateless cross-device round protocol.

Each round: sample a cohort uniformly without replacement, run local
mini-batch gradient descent on copies of the server parameters, aggregate
example-weighted pseudo-gradients (initial minus final), and apply them
with server-side SGD momentum. Clients keep no state between rounds.

The cohort trains in lockstep, one row of stacked parameters per client,
rows sorted longest plan first: at each local step index of each epoch,
the rows still training take one stacked step together at width
``batch_size``, a tail batch padded to it. Each client's slice of a
stacked step computes exactly what its step alone would at that width, so
a client's update does not depend on the rest of its cohort. The padding
costs a client with fewer training rows than ``batch_size`` a full batch's
work a step; no shipped config has one.

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
    padded_slots,
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


def local_draws(
    n: int, cfg: TrainConfig, arch: ArchConfig, rng: np.random.Generator
) -> tuple[list[slice], np.ndarray, np.ndarray | None]:
    """A client's random draws for one round of local training on ``n``
    rows, in stream order: each epoch's permutation, then (fedvi) one
    standard-normal noise vector per batch of the epoch, drawn as one
    [batches x m] array (the same bits as one draw per batch).

    Returns the batches (``ArchConfig.batch_slices`` of the permuted rows,
    so both algorithms train on the same batches), the permutations
    [epochs x n], and the noise [epochs x batches x m], or None for fedavg.
    """
    batches = arch.batch_slices(n, cfg.batch_size)
    perms = np.empty((cfg.local_epochs, n), dtype=np.int64)
    noise = None
    if cfg.algorithm == "fedvi":
        noise = np.empty((cfg.local_epochs, len(batches), arch.beta_dim))
    for epoch in range(cfg.local_epochs):
        perms[epoch] = rng.permutation(n)
        if noise is not None:
            noise[epoch] = rng.standard_normal((len(batches), arch.beta_dim))
    return batches, perms, noise


def iter_local_batches(
    client: ClientDataset,
    cfg: TrainConfig,
    arch: ArchConfig,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Yield a client's (x, y, noise) minibatches for one round of local
    training, epoch by epoch, unpadded, from ``local_draws``: the batches
    and noise ``client_update`` trains the client on with the same
    generator."""
    x_tr, y_tr = client.train_arrays()
    batches, perms, noise = local_draws(client.n_train, cfg, arch, rng)
    for epoch, perm in enumerate(perms):
        for j, rows in enumerate(batches):
            idx = perm[rows]
            yield x_tr[idx], y_tr[idx], None if noise is None else noise[epoch, j]


def client_update(
    global_params: FedVIParams,
    clients: list[ClientDataset],
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
) -> CohortUpdate:
    """Local training of a cohort on copies of the global parameters.

    Client k draws its minibatches and noise from ``rngs[k]`` with
    ``local_draws``. The global parameter vector is copied once into a
    [C x P] matrix, one row per client, with rows in descending order of
    the clients' batches per epoch (ties in cohort order), so the rows
    still training at step j of an epoch are a prefix. Each round gathers
    every client's batches once into padded buffers [epochs x steps x C x
    batch_size x d] (``padded_slots``; padding holds zeros), and at each
    (epoch, step j) the prefix takes one stacked step (loss, backward, SGD
    update) at width ``batch_size``, its gradient written into one [C x P]
    buffer. A tail batch thus trains with the full ones; its loss is its
    real rows' alone. The width never depends on the cohort, so a cohort
    of one client computes exactly what that client computes in any
    cohort. A client with fewer training rows than ``batch_size`` still
    pays for ``batch_size`` rows a step.

    Each ClientUpdate holds the pseudo-gradient delta = initial - final
    (the client's row of the cohort matrix taken from the global vector),
    the client's training example count as aggregation weight, and loss
    statistics. Clients with no batch (``ArchConfig.batch_slices``) are skipped.
    The copies are discarded: clients are stateless. A NonFiniteError
    names the client and its own batch index of the first failing client
    in cohort order, at the earliest failing step.
    """
    arch = global_params.arch
    fedvi = cfg.algorithm == "fedvi"
    width = cfg.batch_size
    draws = [local_draws(c.n_train, cfg, arch, rng) for c, rng in zip(clients, rngs)]
    plan = [len(batches) for batches, _, _ in draws]
    order = sorted((k for k in range(len(clients)) if plan[k]), key=lambda k: -plan[k])
    steps = plan[order[0]] if order else 0
    x = np.zeros((cfg.local_epochs, steps, len(order), width, arch.input_dim))
    y = np.zeros(x.shape[:-1], dtype=np.int64)
    sizes = np.zeros((steps, len(order)), dtype=np.int64)
    noise = np.empty(x.shape[:3] + (arch.beta_dim,)) if fedvi else None
    for row, k in enumerate(order):
        batches, perms, eps = draws[k]
        used = batches[-1].stop
        sizes[: plan[k], row] = [b.stop - b.start for b in batches]
        batch_of, slot = np.divmod(np.arange(used), width)
        if fedvi:
            slot[batches[-1]] = padded_slots(arch, int(sizes[plan[k] - 1, row]), width)
        x_tr, y_tr = clients[k].train_arrays()
        x[:, batch_of, row, slot] = x_tr[perms[:, :used]]
        y[:, batch_of, row, slot] = y_tr[perms[:, :used]]
        if fedvi:
            noise[:, : plan[k], row] = eps

    params = global_params.stacked(len(order))
    grad = FedVIParams(np.zeros_like(params.flat), arch)
    views: dict[tuple[int, int], tuple[FedVIParams, FedVIParams]] = {}

    def step_rows(epoch: int, j: int, lo: int, hi: int) -> LossParts:
        """One SGD step of rows [lo, hi) on their batches j of ``epoch``."""
        if (lo, hi) not in views:
            views[lo, hi] = (params.rows(slice(lo, hi)), grad.rows(slice(lo, hi)))
        theta, d_theta = views[lo, hi]
        xb, yb, nb = x[epoch, j, lo:hi], y[epoch, j, lo:hi], sizes[j, lo:hi]
        if fedvi:
            loss, parts = minibatch_loss(
                theta, xb, yb, cfg.tau, noise[epoch, j, lo:hi], nb, d_theta
            )
        else:
            loss, parts = global_branch_loss(theta, xb, yb, nb, d_theta)
        step_grad = nn.backward(loss)["theta"]
        step_grad *= cfg.client_lr
        theta.flat -= step_grad
        return parts

    loss_sum, nll_sum, reg_sum, kl_sum = (np.zeros(len(order)) for _ in range(4))
    for epoch, j in itertools.product(range(cfg.local_epochs), range(steps)):
        n = int(np.count_nonzero(sizes[j]))
        try:
            parts = step_rows(epoch, j, 0, n)
        except nn.NonFiniteError:
            # Rerun the prefix's rows one at a time, in cohort order.
            for row in sorted(range(n), key=order.__getitem__):
                try:
                    step_rows(epoch, j, row, row + 1)
                except nn.NonFiniteError as exc:
                    k = order[row]
                    exc.add_context(client=clients[k].client_id, batch=epoch * plan[k] + j)
                    raise
            raise RuntimeError(f"step {j} of epoch {epoch} failed in a stack, for no client alone")
        loss_sum[:n] += parts.loss
        nll_sum[:n] += parts.nll
        reg_sum[:n] += parts.kl / sizes[j, :n]
        kl_sum[:n] += parts.kl
    updates = []
    for row, k in sorted(enumerate(order), key=lambda pair: pair[1]):
        client_steps = cfg.local_epochs * plan[k]
        updates.append(
            ClientUpdate(
                client_id=clients[k].client_id,
                delta=global_params.flat - params.flat[row],
                weight=clients[k].n_train,
                mean_loss=float(loss_sum[row]) / client_steps,
                loss_sum=float(loss_sum[row]),
                nll_sum=float(nll_sum[row]),
                reg_sum=float(reg_sum[row]),
                kl_raw_sum=float(kl_sum[row]),
                steps=client_steps,
            )
        )
    return CohortUpdate(
        updates=updates,
        skipped=len(clients) - len(order),
        steps=sum(u.steps for u in updates),
    )


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
