"""The personalized federated network and its per-minibatch objective.

Forward path: an MLP embedding produces a representation per example; the
batch is split into a support half and a query half, the representation is
split into global and local features, the support set's global features are
fed through the posterior constructor to rebuild a per-client diagonal
Gaussian over the local classifier weights, one weight sample classifies
the query half, and the loss is query NLL plus a (tau / batch) weighted KL
between the rebuilt posterior and its prior.

The support half is label-free by construction: only query labels are ever
read, which is what lets an unseen client personalize from unlabeled data.

The parameters are one float64 vector, ``FedVIParams.flat``, and every
weight and bias is a view of it cut at fixed offsets (``ArchConfig.layout``).
Every stage works on plain float64 arrays. ``minibatch_loss`` (and
``global_branch_loss`` for the averaging baseline) returns the loss as one
``nn.fused`` graph node over one leaf, the vector itself; its reverse pass
is derived by hand, stage by stage, from the activations the forward pass
kept, and writes each block's gradient into the matching view of one
gradient vector, so ``nn.backward(loss)["theta"]`` is d(loss)/d(flat).

Every stage also takes a stack of batches, one per client, on a leading
axis: a 2-D [B x d] input is one client's batch, a 3-D [C x B x d] input C
batches of equal size. Stacked batches run with shared parameters or with
stacked ones, a [C x P] matrix from ``FedVIParams.stacked`` (as the
cohort's local training does). Each client's slice goes through the same
BLAS calls and reductions as its batch alone, so its results are
bit-identical to the 2-D case.
A stack of batches of different sizes runs padded to one width (as the
cohort's local training does): ``padded_slots`` puts a batch's support
rows first in the support slots and its query rows first in the query
slots, and the loss functions take each batch's true size. The support
mean adds the real rows alone, the query NLL and its gradient are zero on
padding, and the KL weight is tau / (true size), so a padded batch's loss
is its rows' loss and its gradient the unpadded gradient (bit for bit when
its support half has two or more rows; numpy's pairwise sum over 8 or more
query rows can regroup the loss in the last bit).
Batches of any sizes can also run flat, back to back in one 2-D matrix (as
``evaluate`` does): ``construct_posterior``'s segment form gives one
posterior per batch and ``predict_logits``'s row form scores each query
row with its own batch's weights.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .distributions import (
    DiagGaussian,
    glorot_scale,
    kl_diag,
    kl_diag_grad,
    sample_reparam,
    sample_reparam_grad,
    standard_prior,
)
from .nn import Tensor

POSTERIOR_HEAD_INIT_SHRINK = 100.0


@dataclass(frozen=True)
class ArchConfig:
    """Architecture hyperparameters; embed_widths ends in the representation size."""

    input_dim: int
    num_classes: int
    embed_widths: tuple[int, ...] = (32, 20)
    local_dim: int = 4
    global_dim: int = 16
    posterior_widths: tuple[int, ...] = (64, 64)
    support_fraction: float = 0.5
    mean_damp: float = 2.0
    logscale_damp: float = 2.0
    scale_floor: float = 1e-5

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.num_classes < 2 or not self.embed_widths:
            raise ValueError("input_dim >= 1, num_classes >= 2 and a nonempty embedding required")
        for name in ("embed_widths", "posterior_widths"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name}: every width must be >= 1, got {getattr(self, name)}")
        if self.local_dim < 1 or self.global_dim < 1:
            raise ValueError("local_dim and global_dim must each be >= 1")
        if self.local_dim + self.global_dim != self.embed_widths[-1]:
            raise ValueError(
                f"local_dim {self.local_dim} + global_dim {self.global_dim} "
                f"!= representation size {self.embed_widths[-1]}"
            )
        if not 0.0 < self.support_fraction < 1.0:
            raise ValueError(f"support_fraction must be in (0,1), got {self.support_fraction}")
        if self.scale_floor <= 0.0:
            raise ValueError("scale_floor must be positive")

    @property
    def rep_dim(self) -> int:
        return self.embed_widths[-1]

    @property
    def beta_dim(self) -> int:
        return self.local_dim * self.num_classes

    @property
    def posterior_out_dim(self) -> int:
        return (2 * self.local_dim + 1) * self.num_classes

    @property
    def prior_scale(self) -> float:
        return glorot_scale(self.local_dim, self.num_classes)

    @functools.cached_property
    def min_batch(self) -> int:
        """The smallest batch ``split_support_query`` accepts: 2 at a
        support fraction of 0.5, more below it. Smaller batches are dropped."""
        size = max(2, math.floor(1.0 / self.support_fraction))
        while int(self.support_fraction * size) < 1:
            size += 1
        return size

    def batch_slices(self, n: int, size: int) -> list[slice]:
        """A client's ``n`` rows cut in order into batches of ``size``, each
        batch smaller than ``min_batch`` dropped: a tail, a client of fewer
        rows, or every batch if ``size`` is smaller. Training, evaluation
        and the bound audit cut rows only here."""
        if size < self.min_batch:
            return []
        return [slice(lo, min(lo + size, n)) for lo in range(0, n - self.min_batch + 1, size)]

    @functools.cached_property
    def prior(self) -> DiagGaussian:
        """N(0, prior_scale^2 I) over the local weights, built once per config."""
        return standard_prior(self.beta_dim, self.prior_scale)

    @functools.cached_property
    def layout(self) -> dict[str, tuple[slice, tuple[int, ...]]]:
        """Each block's slice of the flat parameter vector and its shape, in
        ``block_shapes`` order; the slices tile the vector."""
        layout, start = {}, 0
        for name, shape in block_shapes(self).items():
            layout[name] = (slice(start, start + math.prod(shape)), shape)
            start += math.prod(shape)
        return layout

    @property
    def num_params(self) -> int:
        """P, the length of the flat parameter vector."""
        return next(reversed(self.layout.values()))[0].stop


class FedVIParams:
    """All server-side parameters as one float64 vector ``flat``: [P] for the
    server, or [C x P] for a cohort, one row per client.

    ``blocks`` holds every block by name, in ``block_shapes`` order, as a
    view of ``flat`` cut by ``ArchConfig.layout``: a weight is [in x out] and
    a bias [out], or, stacked, [C x in x out] and [C x 1 x out], so that they
    broadcast over a stacked batch. ``theta_embed``, ``theta_post`` and
    ``theta_cls`` list each MLP's views, weight then bias, layer by layer.
    """

    def __init__(self, flat: np.ndarray, arch: ArchConfig) -> None:
        self.flat = flat
        self.arch = arch
        lead, stacked = flat.shape[:-1], flat.ndim == 2
        views = [
            flat[..., cut].reshape(lead + (1,) * (stacked and len(shape) == 1) + shape)
            for cut, shape in arch.layout.values()
        ]
        self.blocks = dict(zip(arch.layout, views))
        embed = 2 * len(arch.embed_widths)  # block_shapes: embed, post, then cls.W, cls.b
        self.theta_embed = views[:embed]
        self.theta_post, self.theta_cls = views[embed:-2], views[-2:]

    def stacked(self, count: int) -> "FedVIParams":
        """``count`` copies of the server's vector, as a [count x P] matrix."""
        return FedVIParams(np.repeat(self.flat[None], count, axis=0), self.arch)

    def rows(self, sel: slice) -> "FedVIParams":
        """The clients ``sel`` of stacked parameters, as a view."""
        return FedVIParams(self.flat[sel], self.arch)


def block_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter block's name and shape, in the flat vector's order."""
    shapes = {}
    for prefix, dims in (
        ("embed", [arch.input_dim, *arch.embed_widths]),
        ("post", [arch.global_dim, *arch.posterior_widths, arch.posterior_out_dim]),
    ):
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"{prefix}.{i}.W"] = (fan_in, fan_out)
            shapes[f"{prefix}.{i}.b"] = (fan_out,)
    shapes["cls.W"] = (arch.global_dim, arch.num_classes)
    shapes["cls.b"] = (arch.num_classes,)
    return shapes


def init_params(arch: ArchConfig, rng: np.random.Generator) -> FedVIParams:
    """Glorot-normal weights, zero biases.

    The posterior constructor's output layer is shrunk so the rebuilt
    posterior starts out indistinguishable from its prior.
    """
    head = f"post.{len(arch.posterior_widths)}.W"
    params = FedVIParams(np.zeros(arch.num_params), arch)
    for name, block in params.blocks.items():
        if block.ndim == 2:
            std = glorot_scale(*block.shape)
            if name == head:
                std /= POSTERIOR_HEAD_INIT_SHRINK
            block[...] = std * rng.standard_normal(block.shape)
    return params


def _mlp_forward(
    blocks: list[np.ndarray],
    x: np.ndarray,
    acts: list[np.ndarray] | None = None,
    out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Dense layers with ReLU between them (none after the last).

    When ``acts`` is given, each layer's input is appended to it: all that
    ``_mlp_backward`` needs, since a ReLU's output is positive exactly
    where its input is. ``x`` is [B x in] or a stack [C x B x in]. When
    ``out`` is given, layer i writes its output into out[i], so the pass
    makes no new array; the bits are the same either way.
    """
    n_layers = len(blocks) // 2
    h = x
    for i in range(n_layers):
        if acts is not None:
            acts.append(h)
        h = np.matmul(h, blocks[2 * i], out=None if out is None else out[i])
        h += blocks[2 * i + 1]
        if i < n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


def _mlp_backward(
    blocks: list[np.ndarray],
    acts: list[np.ndarray],
    d_out: np.ndarray,
    grads: list[np.ndarray],
    input_grad: bool = False,
) -> np.ndarray | None:
    """Reverse pass of ``_mlp_forward`` from d(loss)/d(output).

    Writes each block's gradient into the array of ``grads`` at its
    position (views of a gradient vector, laid out as ``blocks``) and
    returns d(loss)/d(input) when ``input_grad`` is set. Stacked blocks
    (3-D, from ``FedVIParams.stacked``) get one gradient per client.
    """
    d = d_out
    for i in reversed(range(len(blocks) // 2)):
        h = acts[i]
        np.matmul(h.swapaxes(-1, -2), d, out=grads[2 * i])
        bias = grads[2 * i + 1]
        d.sum(axis=-2, keepdims=bias.ndim == d.ndim, out=bias)
        if i == 0 and not input_grad:
            return None
        d = d @ blocks[2 * i].swapaxes(-1, -2)
        if i > 0:
            d = d * (h > 0.0)
    return d


def embed(
    params: FedVIParams,
    x,
    acts: list[np.ndarray] | None = None,
    out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Map raw inputs [B x input_dim] to representations [B x rep_dim]
    (or a stack [C x B x input_dim] to [C x B x rep_dim]). ``acts`` and
    ``out`` are ``_mlp_forward``'s, one ``out`` array per embedding layer."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.arch.input_dim:
        raise nn.ShapeMismatchError(
            f"embed expects [B x {params.arch.input_dim}] or [C x B x "
            f"{params.arch.input_dim}], got {x.shape}"
        )
    return _mlp_forward(params.theta_embed, x, acts, out)


def split_support_query(batch_size: int, support_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """First floor(fraction * B) indices are support, the rest query."""
    support = int(support_fraction * batch_size)
    if support < 1 or batch_size - support < 1:
        raise ValueError(
            f"batch of {batch_size} cannot give nonempty support and query halves"
        )
    idx = np.arange(batch_size)
    return idx[:support], idx[support:]


def padded_slots(arch: ArchConfig, size: int, width: int) -> np.ndarray:
    """The slots of a batch of ``size`` rows in a padded batch of ``width``:
    its int(fraction * size) support rows go first in the support slots
    [0, int(fraction * width)), its query rows first in the query slots
    that follow. The other slots are padding."""
    support = int(arch.support_fraction * size)
    rows = np.arange(size)
    return np.where(rows < support, rows, rows + int(arch.support_fraction * width) - support)


def split_features(arch: ArchConfig, rep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns [0, G) are global features, [G, G+L) local features."""
    if rep.shape[-1] != arch.rep_dim:
        raise nn.ShapeMismatchError(
            f"representation width {rep.shape[-1]} != {arch.rep_dim}"
        )
    return rep[..., : arch.global_dim], rep[..., arch.global_dim : arch.rep_dim]


@dataclass
class PosteriorStats:
    """Rebuilt local posterior plus the per-class logit bias it carries.

    ``scale_exp`` is exp(logscale_damp * log-scale output), so that
    sigma = scale_floor + prior_scale * scale_exp; the reverse pass needs it.
    """

    q: DiagGaussian
    b_beta: np.ndarray
    scale_exp: np.ndarray


def construct_posterior(
    params: FedVIParams,
    support_global: np.ndarray,
    acts: list[np.ndarray] | None = None,
    counts: np.ndarray | None = None,
    out: list[np.ndarray] | None = None,
) -> PosteriorStats:
    """Aggregate support rows into a diagonal Gaussian over local weights.

    g = row-mean of the constructor MLP output; the first L*K entries times
    mean_damp give the mean, the next L*K times logscale_damp the log-scale
    perturbation around the prior scale, the last K the logit bias. The
    scale never drops below scale_floor. ``acts`` collects the constructor
    MLP's layer inputs, as in ``_mlp_forward``.

    Segment form: with ``counts``, ``support_global`` is [S x G] holding
    consecutive segments of counts[i] rows, one per batch, and the posterior
    has one row per segment. Each run of segments of one count c is viewed
    as a [segments x c x width] block of the MLP output and summed over its
    rows, then divided by the counts: each segment's rows are added in
    order, as the row mean adds them. (``np.add.reduceat`` would add the
    first row to a pairwise sum of the rest.) Segments sorted by count make
    one run per distinct count.

    Padded form: with ``counts`` and a stack [C x S x G], batch c's support
    is its first counts[c] rows and the rest is padding. The padding's
    outputs become -0.0 (x + -0.0 is x for every x) and the stack is summed
    over its rows, so each posterior has the bits of its real rows' mean.

    ``out`` holds ``_mlp_forward``'s arrays for the constructor's layers,
    then one array for g, one row per posterior: with it, the segment form
    allocates only arrays of one row per segment.

    The posterior starts at the prior because init_params shrinks the
    constructor's output layer by POSTERIOR_HEAD_INIT_SHRINK, not because of
    the two factors. Each factor scales its output and that output's
    gradient alike, so it sets how fast the mean or log-scale is fitted (as
    its square); both default to 2.
    """
    arch = params.arch
    if support_global.ndim not in (2, 3) or support_global.shape[-2] < 1:
        raise nn.ShapeMismatchError(
            f"support features must be [S x {arch.global_dim}] or [C x S x "
            f"{arch.global_dim}] with S >= 1, got {support_global.shape}"
        )
    rows = _mlp_forward(params.theta_post, support_global, acts, out and out[:-1])
    g = None if out is None else out[-1]
    if counts is None:
        g = rows.mean(axis=-2, out=g)
    elif support_global.ndim == 2:
        if counts.min() < 1 or counts.sum() != rows.shape[0]:
            raise nn.ShapeMismatchError(
                f"{counts.size} segments of {counts.sum()} rows in all (each >= 1) "
                f"do not tile support features {support_global.shape}"
            )
        if g is None:
            g = np.empty((counts.size, rows.shape[-1]))
        first = row = 0
        for count, run in itertools.groupby(counts.tolist()):
            n = len(list(run))
            block = rows[row : row + n * count].reshape(n, count, rows.shape[-1])
            block.sum(axis=1, out=g[first : first + n])
            first, row = first + n, row + n * count
        g /= counts[:, None]
    else:
        if counts.shape != rows.shape[:1] or counts.min() < 1 or counts.max() > rows.shape[1]:
            raise nn.ShapeMismatchError(
                f"support row counts {counts.tolist()} do not fit a padded stack "
                f"of shape {rows.shape[:-1]}"
            )
        real = np.arange(rows.shape[1]) < counts[:, None]
        grid = np.where(real[..., None], rows, -0.0)
        g = np.divide(grid.sum(axis=-2), counts[:, None], out=g)
    m = arch.beta_dim
    mu = arch.mean_damp * g[..., :m]
    scale_exp = np.exp(arch.logscale_damp * g[..., m : 2 * m])
    sigma = arch.scale_floor + arch.prior_scale * scale_exp
    b_beta = g[..., 2 * m : 2 * m + arch.num_classes]
    return PosteriorStats(q=DiagGaussian(mu, sigma), b_beta=b_beta, scale_exp=scale_exp)


def _posterior_backward(
    params: FedVIParams,
    stats: PosteriorStats,
    acts: list[np.ndarray],
    d_mean: np.ndarray,
    d_scale: np.ndarray,
    d_bias: np.ndarray,
    grads: list[np.ndarray],
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Reverse pass of ``construct_posterior`` from d(loss)/d(mu, sigma,
    b_beta); fills the constructor's gradients ``grads`` (laid out as
    ``theta_post``), returns d/d(support_global). ``counts`` gives a padded
    stack's real support rows, as in ``construct_posterior``; padding gets a
    zero gradient."""
    arch = params.arch
    m = arch.beta_dim
    d_g = np.empty(d_bias.shape[:-1] + (arch.posterior_out_dim,))
    d_g[..., :m] = d_mean * arch.mean_damp
    d_g[..., m : 2 * m] = d_scale * arch.prior_scale * stats.scale_exp * arch.logscale_damp
    d_g[..., 2 * m :] = d_bias
    rows = acts[0].shape[-2]
    if counts is None:
        d_out = np.repeat((d_g / rows)[..., None, :], rows, axis=-2)
    else:
        real = np.arange(rows) < counts[:, None]
        d_out = np.where(real[..., None], (d_g / counts[:, None])[:, None, :], 0.0)
    return _mlp_backward(params.theta_post, acts, d_out, grads, input_grad=True)


def predict_logits(
    params: FedVIParams,
    beta: np.ndarray,
    b_beta: np.ndarray,
    query_global: np.ndarray,
    query_local: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Local branch reshape(beta, [K, L]) . local + global classifier + biases.

    For stacked queries [C x Q x L], ``beta`` is [C x m] and ``b_beta``
    [C x K], one per client. ``query_global`` may omit the leading axes of
    ``query_local``: the global classifier then runs once on its [Q x G]
    rows and its logits broadcast against the [C x Q x K] local ones.

    Row form: ``beta`` [Q x m] and ``b_beta`` [Q x K] give each of the
    [Q x L] query rows its own local weights, as a flat pass over the query
    halves of many batches needs; the global classifier still runs once.

    ``out``, when given, is two arrays of the logits' shape: the logits are
    written into out[0] and the global classifier's into out[1].
    """
    arch = params.arch
    per_batch = beta.shape == query_local.shape[:-2] + (arch.beta_dim,)
    per_row = query_local.ndim == 2 and beta.shape == query_local.shape[:-1] + (arch.beta_dim,)
    if not (per_batch or per_row):
        raise nn.ShapeMismatchError(
            f"beta must be [{arch.beta_dim}] per query batch or per query row of "
            f"{query_local.shape}, got {beta.shape}"
        )
    weights = beta.reshape(beta.shape[:-1] + (arch.num_classes, arch.local_dim))
    logits = None if out is None else out[0]
    if per_batch:
        logits = np.matmul(query_local, weights.swapaxes(-1, -2), out=logits)
        b_beta = b_beta[..., None, :]
    else:
        logits = np.einsum("ql,qkl->qk", query_local, weights, out=logits)
    logits += _mlp_forward(params.theta_cls, query_global, out=out and out[1:])
    logits += b_beta
    return logits


def global_branch_logits(
    params: FedVIParams,
    x,
    acts: list[np.ndarray] | None = None,
    out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Global classifier on global features only (the non-personalized path).

    ``acts`` collects the layer inputs of the embedding and then of the
    classifier, and ``out`` holds their layer outputs, as in ``_mlp_forward``.
    """
    rep = embed(params, x, acts, out=out and out[:-1])
    feats_global, _ = split_features(params.arch, rep)
    return _mlp_forward(params.theta_cls, feats_global, acts, out and out[-1:])


@dataclass
class LossParts:
    """Query NLL and KL of one batch, or arrays of them, one per client, for
    a stack of batches."""

    nll: float | np.ndarray
    kl: float | np.ndarray
    kl_weight: float | np.ndarray

    @property
    def loss(self) -> float:
        return self.nll + self.kl_weight * self.kl


@dataclass
class BatchForward:
    """Reusable pieces of one personalized forward pass, plus the layer
    inputs of both MLPs that the reverse pass reads. A padded stack also
    keeps each batch's real support and query rows (``padded_slots``)."""

    params: FedVIParams
    stats: PosteriorStats
    query_global: np.ndarray
    query_local: np.ndarray
    support_size: int
    embed_acts: list[np.ndarray]
    post_acts: list[np.ndarray]
    support_counts: np.ndarray | None = None
    query_counts: np.ndarray | None = None

    def logits_for(self, beta: np.ndarray) -> np.ndarray:
        return predict_logits(
            self.params, beta, self.stats.b_beta, self.query_global, self.query_local
        )


def forward_batch(params: FedVIParams, x, sizes: np.ndarray | None = None) -> BatchForward:
    """Embed, split support/query and features, rebuild the posterior.

    With ``sizes``, ``x`` is a padded stack [C x B x d]: batch c has
    sizes[c] real rows, laid out by ``padded_slots``, and its posterior is
    rebuilt from its real support rows only.
    """
    arch = params.arch
    x = np.asarray(x, dtype=np.float64)
    support, _ = split_support_query(x.shape[-2], arch.support_fraction)
    s = support.size
    support_counts = query_counts = None
    if sizes is not None:
        if x.ndim != 3:
            raise nn.ShapeMismatchError(f"a padded batch must be a stack, got {x.shape}")
        support_counts = (arch.support_fraction * sizes).astype(np.int64)
        query_counts = sizes - support_counts
    embed_acts: list[np.ndarray] = []
    post_acts: list[np.ndarray] = []
    rep = embed(params, x, embed_acts)
    support_global, _ = split_features(arch, rep[..., :s, :])
    query_global, query_local = split_features(arch, rep[..., s:, :])
    stats = construct_posterior(params, support_global, post_acts, support_counts)
    return BatchForward(
        params, stats, query_global, query_local, s, embed_acts, post_acts,
        support_counts, query_counts,
    )


def minibatch_loss(
    params: FedVIParams,
    x,
    y: np.ndarray,
    tau: float,
    noise: np.ndarray,
    sizes: np.ndarray | None = None,
    grad: FedVIParams | None = None,
) -> tuple[Tensor, LossParts]:
    """Query NLL plus (tau / batch) * KL(q, prior), with the parts reported.

    ``noise`` is the frozen standard-normal vector for the reparameterized
    local-weight sample, so the loss is a deterministic function of
    (params, batch, tau, noise). Support labels are never read.

    For a stack of C batches, ``params`` are stacked (``FedVIParams.stacked``),
    ``y`` is [C x B] and ``noise`` [C x m]; the parts hold one value per
    client and the loss node's value is their sum, whose gradient leaves
    each client's gradient exactly as its own loss gives it.

    Padded stack: with ``sizes`` [C], batch c has sizes[c] real rows laid
    out by ``padded_slots``, and its loss is its real rows' alone: the
    padding's NLL and gradient are zero, and the KL weight is
    tau / sizes[c]. Padding must hold finite values (zeros, in training),
    because its forward pass is computed before it is masked.

    ``grad``, when given, is the buffer the reverse pass writes the
    gradient into, laid out as ``params``; otherwise a new one is made.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    arch = params.arch
    batch = np.asarray(x).shape[-2]
    fwd = forward_batch(params, x, sizes)
    q = fwd.stats.q
    beta = sample_reparam(q, noise)
    nll, d_logits = nn.softmax_nll(
        fwd.logits_for(beta), np.asarray(y)[..., fwd.support_size :], fwd.query_counts
    )
    prior = arch.prior
    kl = kl_diag(q, prior)
    weight = tau / (batch if sizes is None else sizes)
    value = nll + weight * kl
    nn.assert_all_finite(value, "minibatch loss")

    def grads(g: np.ndarray) -> list[np.ndarray]:
        # every block's gradient is written in full, so the buffer may start empty
        out = grad if grad is not None else FedVIParams(np.empty_like(params.flat), arch)
        d_logits_g = g * d_logits
        # two-branch logits: q_local @ reshape(beta).T + cls(q_global) + b_beta
        d_query_global = _mlp_backward(
            params.theta_cls, [fwd.query_global], d_logits_g, out.theta_cls, input_grad=True
        )
        weights = beta.reshape(beta.shape[:-1] + (arch.num_classes, arch.local_dim))
        d_weights_t = fwd.query_local.swapaxes(-1, -2) @ d_logits_g
        d_beta = d_weights_t.swapaxes(-1, -2).reshape(beta.shape)
        d_query_local = d_logits_g @ weights
        d_mean, d_scale = sample_reparam_grad(noise, d_beta)
        kl_mean, kl_scale = kl_diag_grad(q, prior)
        kl_g = np.asarray(g * weight)[..., None]
        d_mean = d_mean + kl_g * kl_mean
        d_scale = d_scale + kl_g * kl_scale
        d_support_global = _posterior_backward(
            params, fwd.stats, fwd.post_acts, d_mean, d_scale,
            d_logits_g.sum(axis=-2), out.theta_post, fwd.support_counts,
        )
        s, g_dim = fwd.support_size, arch.global_dim
        d_rep = np.zeros(d_logits.shape[:-2] + (batch, arch.rep_dim))
        d_rep[..., :s, :g_dim] = d_support_global
        d_rep[..., s:, :g_dim] = d_query_global
        d_rep[..., s:, g_dim:] = d_query_local
        _mlp_backward(params.theta_embed, fwd.embed_acts, d_rep, out.theta_embed)
        return [out.flat]

    loss = nn.fused(value.sum(), [Tensor(params.flat, requires_grad=True, name="theta")], grads)
    return loss, LossParts(nll=nll, kl=kl, kl_weight=weight)


def global_branch_loss(
    params: FedVIParams,
    x,
    y: np.ndarray,
    sizes: np.ndarray | None = None,
    grad: FedVIParams | None = None,
) -> tuple[Tensor, LossParts]:
    """Summed NLL of the global branch on the whole batch (fedavg's loss).

    One fused node over the parameter vector, as in ``minibatch_loss``; the
    constructor's gradient is +0.0, so an SGD step leaves it bit for bit as
    it was. A stack of batches works as in ``minibatch_loss``; so does a
    padded stack, except that batch c's real rows are its first sizes[c].
    A given ``grad`` buffer must hold zeros in the constructor's blocks,
    which this loss never writes.
    """
    acts: list[np.ndarray] = []
    nll, d_logits = nn.softmax_nll(global_branch_logits(params, x, acts), y, sizes)
    nn.assert_all_finite(nll, "minibatch loss")

    def grads(g: np.ndarray) -> list[np.ndarray]:
        out = grad if grad is not None else FedVIParams(np.zeros_like(params.flat), params.arch)
        d_global = _mlp_backward(
            params.theta_cls, acts[-1:], g * d_logits, out.theta_cls, input_grad=True
        )
        d_rep = np.zeros(d_logits.shape[:-1] + (params.arch.rep_dim,))
        d_rep[..., : params.arch.global_dim] = d_global
        _mlp_backward(params.theta_embed, acts[:-1], d_rep, out.theta_embed)
        return [out.flat]

    loss = nn.fused(nll.sum(), [Tensor(params.flat, requires_grad=True, name="theta")], grads)
    return loss, LossParts(nll=nll, kl=np.zeros_like(nll), kl_weight=0.0)
