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

import functools
import itertools
import math
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
    The copies are discarded: clients are stateless. A NonFiniteError, from
    a step's loss or from a row that a step's update left non-finite, names
    the client and its own batch index of the first failing client in
    cohort order, at the earliest failing step.
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
            parts = None
        # A gradient can overflow under a finite loss, so the updated rows
        # are checked too. Rows are independent: a stacked step's rows are
        # their steps alone, and only a loss over the stack needs them rerun,
        # one at a time in cohort order, to name the first failing client.
        if parts is None or not np.isfinite(params.flat[:n]).all():
            for row in sorted(range(n), key=order.__getitem__):
                try:
                    if parts is None:
                        step_rows(epoch, j, row, row + 1)
                    nn.assert_all_finite(params.flat[row], "client parameters after a local step")
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
    if not np.isfinite(state.params.flat).all():
        for name, block in state.params.blocks.items():
            nn.assert_all_finite(block, f"server parameter {name!r}")
    state.round_index += 1
    return state


def _accuracy_weighted(per_client: list[tuple[float, int]]) -> float:
    wsum = sum(w for _, w in per_client)
    return sum(a * w for a, w in per_client) / wsum


def eval_batches(n_test: int, cfg: TrainConfig, arch: ArchConfig) -> list[slice]:
    """The test batches ``evaluate`` scores for a client of ``n_test`` test
    rows: its test set cut by ``ArchConfig.batch_slices``, as one batch on
    the non-personalized path."""
    return arch.batch_slices(n_test, n_test if cfg.algorithm == "fedavg" else cfg.batch_size)


EVAL_WORKSPACE_BYTES = 16 * 2**20
"""The most memory the intermediates of one group of ``evaluate``'s clients
may take. A call scores its clients in groups whose intermediates fit it; a
client whose own do not is a group alone."""


def _eval_phases(
    arch: ArchConfig, fedvi: bool, support: int, query: int, batches: int
) -> list[list[tuple[int, ...]]]:
    """The shapes of ``evaluate``'s intermediates for a group of ``batches``
    test batches of ``support`` support and ``query`` query rows in all (a
    batch of the non-personalized path is all query rows). The first list
    lives through the whole pass; each later list is one phase of it, over
    once the next begins: the test rows (and, personalized, the rows as the
    clients hold them) and the embedding's hidden layers, then two flat
    slots that the constructor's layers take turns in, then the query rows'
    posterior means and biases and their logits."""
    rows = support + query
    embedding = [(rows, arch.input_dim)] + [(rows, w) for w in arch.embed_widths[:-1]]
    if not fedvi:
        return [[(rows, arch.rep_dim), (rows, arch.num_classes)], embedding]
    k = arch.num_classes
    widths = (*arch.posterior_widths, arch.posterior_out_dim)
    return [
        [(rows, arch.rep_dim), (batches, arch.posterior_out_dim)],
        embedding + [(rows, arch.input_dim)],
        [(support * max(widths[0::2]),), (support * max(widths[1::2], default=0),)],
        [(query, arch.beta_dim), (query, k), (query, k), (query, k)],
    ]


def _eval_words(phases: list[list[tuple[int, ...]]]) -> int:
    """The float64 words ``_eval_views`` carves ``phases`` from."""
    sizes = [sum(math.prod(shape) for shape in phase) for phase in phases]
    return sizes[0] + max(sizes[1:])


def _eval_views(phases: list[list[tuple[int, ...]]]) -> list[list[np.ndarray]]:
    """Views with the shapes of ``_eval_phases``, carved in one step from
    one new buffer, freed with the views: the first phase's views are
    disjoint from all others, and every later phase starts where the first
    ends."""
    buf = np.empty(_eval_words(phases))
    kept = sum(math.prod(shape) for shape in phases[0])
    views = []
    for i, shapes in enumerate(phases):
        start = 0 if i == 0 else kept
        views.append([])
        for shape in shapes:
            size = math.prod(shape)
            views[-1].append(buf[start : start + size].reshape(shape))
            start += size
    return views


@dataclass
class _EvalGroup:
    """The part of one flat forward pass of ``evaluate`` that follows from
    its clients' test-set sizes.

    ``clients`` lists (client index, scored test rows), in order; the pass
    reads those rows back to back, its raw rows. ``owner`` is the client of
    each scored row (of each query row, personalized). Personalized only:
    ``support`` holds each batch's support rows, in the pass's batch order;
    ``order`` the raw row of each row of the pass; ``batch`` the batch of
    each query row.
    """

    clients: list[tuple[int, int]]
    owner: np.ndarray
    phases: list[list[tuple[int, ...]]]
    support: np.ndarray | None = None
    order: np.ndarray | None = None
    batch: np.ndarray | None = None


@functools.lru_cache(maxsize=8)
def _eval_plan(
    arch: ArchConfig, cfg: TrainConfig, budget: int, n_tests: tuple[int, ...]
) -> list[_EvalGroup]:
    """``evaluate``'s groups for clients of ``n_tests`` test rows: the
    clients with a test batch, in order, grouped greedily so that each
    group's intermediates fit ``budget`` bytes, a client that does not fit
    alone a group of its own. Personalized, a group's rows go support halves
    first, then query halves, each in one batch order, so the halves are
    views; batches with fewer support rows go first, so that
    ``construct_posterior`` sums one run of segments per support count.
    Cached, since ``evaluate`` scores the same clients again and again; the
    plans are read only, and their index arrays take 16 bytes a scored row."""
    fedvi = cfg.algorithm == "fedvi"
    sizes_of = {
        k: [b.stop - b.start for b in eval_batches(n, cfg, arch)] for k, n in enumerate(n_tests)
    }
    # a batch of the non-personalized path is all query rows
    totals = {
        k: (sum(map(arch.support_size, sizes)) if fedvi else 0, sum(sizes), len(sizes))
        for k, sizes in sizes_of.items()
        if sizes
    }

    def phases(support: int, rows: int, batches: int) -> list[list[tuple[int, ...]]]:
        return _eval_phases(arch, fedvi, support, rows - support, batches)

    groups: list[tuple[list[int], tuple[int, int, int]]] = []
    for k, client in totals.items():
        if groups:
            grown = tuple(a + b for a, b in zip(groups[-1][1], client))
            if _eval_words(phases(*grown)) * 8 <= budget:
                groups[-1][0].append(k)
                groups[-1] = (groups[-1][0], grown)
                continue
        groups.append(([k], client))
    plans = []
    for ks, held in groups:
        clients = [(k, totals[k][1]) for k in ks]
        # A client's batches are the first rows of its test set, back to back.
        sizes = np.array([n for k in ks for n in sizes_of[k]])
        owner = np.repeat(ks, [totals[k][2] for k in ks])
        if not fedvi:
            plans.append(_EvalGroup(clients, np.repeat(owner, sizes), phases(*held)))
            continue
        support = arch.support_size(sizes)
        rank = np.argsort(support, kind="stable")
        first = (np.cumsum(sizes) - sizes)[rank]
        support, query = support[rank], (sizes - support)[rank]
        # each support half, then each query half, is a run of raw rows
        runs = np.concatenate([support, query])
        starts = np.concatenate([first, first + support]) - np.cumsum(runs) + runs
        order = np.repeat(starts, runs) + np.arange(held[1])
        batch = np.repeat(np.arange(rank.size), query)
        plans.append(
            _EvalGroup(clients, owner[rank][batch], phases(*held), support, order, batch)
        )
    return plans


def _score_group(
    params: FedVIParams,
    fedvi: bool,
    group: _EvalGroup,
    tests: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Whether each scored row of ``group`` is classified right, from its
    clients' scored test rows ``tests`` (x, y), in one flat forward pass
    whose intermediates are views of one buffer made for the group."""
    arch = params.arch
    kept, embedding, *phases = _eval_views(group.phases)
    x = embedding[0]
    y = np.concatenate([y_te for _, y_te in tests])
    if not fedvi:
        np.concatenate([x_te for x_te, _ in tests], out=x)
        logits = global_branch_logits(params, x, out=embedding[1:] + kept)
        return logits.argmax(axis=1) == y
    raw = embedding[-1]
    np.concatenate([x_te for x_te, _ in tests], out=raw)
    # _eval_plan's indices are in range: "clip" spares take's buffered copy
    np.take(raw, group.order, axis=0, out=x, mode="clip")
    s = group.order.size - group.batch.size
    rep, g = kept
    feats_global, feats_local = split_features(arch, embed(params, x, out=embedding[1:-1] + [rep]))
    widths = (*arch.posterior_widths, arch.posterior_out_dim)
    layers = [phases[0][i % 2][: s * w].reshape(s, w) for i, w in enumerate(widths)]
    stats = construct_posterior(params, feats_global[:s], counts=group.support, out=layers + [g])
    mean, bias, *out = phases[1]
    np.take(stats.q.mean, group.batch, axis=0, out=mean, mode="clip")
    np.take(stats.b_beta, group.batch, axis=0, out=bias, mode="clip")
    logits = predict_logits(params, mean, bias, feats_global[s:], feats_local[s:], out)
    return logits.argmax(axis=1) == y[group.order[s:]]


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

    Every test batch of a group of clients goes through one flat forward
    pass with the shared weights: one embedding of all its rows, one
    constructor pass over all support rows with one segment per batch
    (``construct_posterior``'s segment form), and one classifier pass over
    all query rows, each row scored with its own batch's posterior mean.
    A batch's logits are thus those of its own forward pass up to rounding
    in the last bit: the kernel a GEMM uses for a row may depend on the row
    count and on the row's place, and the row form's local term is not a
    GEMM. Forward passes only: no graph node is built.

    Every intermediate of one row per scored row (the test rows, the
    embedding's layers, the constructor's layers, each query row's
    posterior mean and bias, and the logits) is a view of one buffer made
    for its group and freed once the group is scored, and the groups and
    index arrays of the last few client lists are cached (``_eval_plan``),
    so besides that buffer a warm call allocates only arrays of one row per
    batch and label and index arrays of at most 8 bytes a row. Clients are
    scored in groups of whole clients, in order, whose intermediates fit
    ``EVAL_WORKSPACE_BYTES`` (16 MiB), so heterogeneous.cfg, iid.cfg and
    bound.cfg are one group each (xdevice.cfg's participating clients 44).
    No state but the read-only plans outlives a call, so calls may run at
    once, in threads.
    """
    fedvi = cfg.algorithm == "fedvi"
    groups = _eval_plan(
        params.arch, cfg, EVAL_WORKSPACE_BYTES, tuple(c.n_test for c in clients)
    )
    scored = [k for group in groups for k, _ in group.clients]
    if not scored:
        return EvalResult(accuracy=float("nan"), excluded=len(clients))
    correct = seen = 0
    for group in groups:
        tests = []
        for k, n in group.clients:
            x_te, y_te = clients[k].test_arrays()
            tests.append((x_te[:n], y_te[:n]))
        hit = _score_group(params, fedvi, group, tests)
        correct += np.bincount(group.owner[hit], minlength=len(clients))
        seen += np.bincount(group.owner, minlength=len(clients))
    correct, seen = correct.tolist(), seen.tolist()
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
