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

Every stage works on plain float64 arrays. ``minibatch_loss`` (and
``global_branch_loss`` for the averaging baseline) returns the loss as one
``nn.fused`` graph node over the parameter leaves; its reverse pass is
derived by hand, stage by stage, from the activations the forward pass
kept, so ``nn.backward(loss)`` yields every parameter's gradient.

Every stage also takes a stack of batches, one per client, on a leading
axis: a 2-D [B x d] input is one client's batch, a 3-D [C x B x d] input C
batches of equal size. Stacked batches run with shared parameters (as
``evaluate`` does) or with stacked ones from ``FedVIParams.stacked`` (as
the cohort's local training does). Each client's slice goes through the
same BLAS calls and reductions as its batch alone, so its results are
bit-identical to the 2-D case.
"""

from __future__ import annotations

import functools
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
from .nn import ParamBlock, Tensor

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


@dataclass
class FedVIParams:
    """All server-side parameters: embedding, posterior constructor, classifier."""

    theta_embed: list[ParamBlock]
    theta_post: list[ParamBlock]
    theta_cls: list[ParamBlock]
    arch: ArchConfig

    def all_blocks(self) -> list[ParamBlock]:
        return [*self.theta_embed, *self.theta_post, *self.theta_cls]

    def stacked(self, count: int) -> "FedVIParams":
        """``count`` copies of every block along a new leading client axis.

        Every stacked block is 3-D: a weight [count x in x out], a bias
        [count x 1 x out], so that it broadcasts over a stacked batch.
        """

        def stack(b: ParamBlock) -> ParamBlock:
            a = b.value.array.reshape((1,) * (3 - b.value.array.ndim) + b.shape)
            return ParamBlock(b.name, np.broadcast_to(a, (count, *a.shape[1:])))

        return self._map(stack)

    def rows(self, sel: slice) -> "FedVIParams":
        """The clients ``sel`` of stacked parameters, as views (``ParamBlock.rows``)."""
        return self._map(lambda b: b.rows(sel))

    def _map(self, fn) -> "FedVIParams":
        return FedVIParams(
            [fn(b) for b in self.theta_embed],
            [fn(b) for b in self.theta_post],
            [fn(b) for b in self.theta_cls],
            self.arch,
        )

    def block(self, name: str) -> ParamBlock:
        for b in self.all_blocks():
            if b.name == name:
                return b
        raise KeyError(name)


def block_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter block's name and shape, in ``all_blocks`` order."""
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


def params_from_blocks(blocks: list[ParamBlock], arch: ArchConfig) -> FedVIParams:
    """Blocks in ``block_shapes`` order, grouped by their name's prefix."""
    embed, post, cls = (
        [b for b in blocks if b.name.startswith(prefix)] for prefix in ("embed.", "post.", "cls.")
    )
    return FedVIParams(embed, post, cls, arch)


def init_params(arch: ArchConfig, rng: np.random.Generator) -> FedVIParams:
    """Glorot-normal weights, zero biases.

    The posterior constructor's output layer is shrunk so the rebuilt
    posterior starts out indistinguishable from its prior.
    """
    head = f"post.{len(arch.posterior_widths)}.W"
    blocks = []
    for name, shape in block_shapes(arch).items():
        if len(shape) == 1:
            blocks.append(ParamBlock(name, np.zeros(shape)))
            continue
        std = glorot_scale(*shape)
        if name == head:
            std /= POSTERIOR_HEAD_INIT_SHRINK
        blocks.append(ParamBlock(name, std * rng.standard_normal(shape)))
    return params_from_blocks(blocks, arch)


def _mlp_forward(
    blocks: list[ParamBlock], x: np.ndarray, acts: list[np.ndarray] | None = None
) -> np.ndarray:
    """Dense layers with ReLU between them (none after the last).

    When ``acts`` is given, each layer's input is appended to it: all that
    ``_mlp_backward`` needs, since a ReLU's output is positive exactly
    where its input is. ``x`` is [B x in] or a stack [C x B x in].
    """
    n_layers = len(blocks) // 2
    h = x
    for i in range(n_layers):
        if acts is not None:
            acts.append(h)
        h = h @ blocks[2 * i].value.array + blocks[2 * i + 1].value.array
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def _mlp_backward(
    blocks: list[ParamBlock],
    acts: list[np.ndarray],
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
    input_grad: bool = False,
) -> np.ndarray | None:
    """Reverse pass of ``_mlp_forward`` from d(loss)/d(output).

    Writes each block's gradient into ``grads`` by name and returns
    d(loss)/d(input) when ``input_grad`` is set. Stacked blocks (3-D, from
    ``FedVIParams.stacked``) get one gradient per client.
    """
    d = d_out
    for i in reversed(range(len(blocks) // 2)):
        h = acts[i]
        weight, bias = blocks[2 * i], blocks[2 * i + 1]
        grads[weight.name] = h.swapaxes(-1, -2) @ d
        grads[bias.name] = d.sum(axis=-2, keepdims=bias.value.array.ndim == d.ndim)
        if i == 0 and not input_grad:
            return None
        d = d @ weight.value.array.swapaxes(-1, -2)
        if i > 0:
            d = d * (h > 0.0)
    return d


def embed(
    params: FedVIParams, x, acts: list[np.ndarray] | None = None
) -> np.ndarray:
    """Map raw inputs [B x input_dim] to representations [B x rep_dim]
    (or a stack [C x B x input_dim] to [C x B x rep_dim])."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.arch.input_dim:
        raise nn.ShapeMismatchError(
            f"embed expects [B x {params.arch.input_dim}] or [C x B x "
            f"{params.arch.input_dim}], got {x.shape}"
        )
    return _mlp_forward(params.theta_embed, x, acts)


def split_support_query(batch_size: int, support_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """First floor(fraction * B) indices are support, the rest query."""
    support = int(support_fraction * batch_size)
    if support < 1 or batch_size - support < 1:
        raise ValueError(
            f"batch of {batch_size} cannot give nonempty support and query halves"
        )
    idx = np.arange(batch_size)
    return idx[:support], idx[support:]


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
) -> PosteriorStats:
    """Aggregate support rows into a diagonal Gaussian over local weights.

    g = row-mean of the constructor MLP output; the first L*K entries times
    mean_damp give the mean, the next L*K times logscale_damp the log-scale
    perturbation around the prior scale, the last K the logit bias. The
    scale never drops below scale_floor. ``acts`` collects the constructor
    MLP's layer inputs, as in ``_mlp_forward``.

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
    g = _mlp_forward(params.theta_post, support_global, acts).mean(axis=-2)
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
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Reverse pass of ``construct_posterior`` from d(loss)/d(mu, sigma,
    b_beta); fills the constructor's gradients, returns d/d(support_global)."""
    arch = params.arch
    m = arch.beta_dim
    d_g = np.empty(d_bias.shape[:-1] + (arch.posterior_out_dim,))
    d_g[..., :m] = d_mean * arch.mean_damp
    d_g[..., m : 2 * m] = d_scale * arch.prior_scale * stats.scale_exp * arch.logscale_damp
    d_g[..., 2 * m :] = d_bias
    rows = acts[0].shape[-2]
    d_out = np.repeat((d_g / rows)[..., None, :], rows, axis=-2)
    return _mlp_backward(params.theta_post, acts, d_out, grads, input_grad=True)


def predict_logits(
    params: FedVIParams,
    beta: np.ndarray,
    b_beta: np.ndarray,
    query_global: np.ndarray,
    query_local: np.ndarray,
) -> np.ndarray:
    """Local branch reshape(beta, [K, L]) . local + global classifier + biases.

    For stacked queries [C x Q x L], ``beta`` is [C x m] and ``b_beta``
    [C x K], one per client. ``query_global`` may omit the leading axes of
    ``query_local``: the global classifier then runs once on its [Q x G]
    rows and its logits broadcast against the [C x Q x K] local ones.
    """
    arch = params.arch
    if beta.shape != query_local.shape[:-2] + (arch.beta_dim,):
        raise nn.ShapeMismatchError(
            f"beta must be [{arch.beta_dim}] per query batch of {query_local.shape}, "
            f"got {beta.shape}"
        )
    weights = beta.reshape(beta.shape[:-1] + (arch.num_classes, arch.local_dim))
    return (
        query_local @ weights.swapaxes(-1, -2)
        + _mlp_forward(params.theta_cls, query_global)
        + b_beta[..., None, :]
    )


def global_branch_logits(
    params: FedVIParams, x, acts: list[np.ndarray] | None = None
) -> np.ndarray:
    """Global classifier on global features only (the non-personalized path).

    ``acts`` collects the layer inputs of the embedding and then of the
    classifier, as in ``_mlp_forward``.
    """
    feats_global, _ = split_features(params.arch, embed(params, x, acts))
    return _mlp_forward(params.theta_cls, feats_global, acts)


@dataclass
class LossParts:
    """Query NLL and KL of one batch, or arrays of them, one per client, for
    a stack of batches."""

    nll: float | np.ndarray
    kl: float | np.ndarray
    kl_weight: float

    @property
    def loss(self) -> float:
        return self.nll + self.kl_weight * self.kl


@dataclass
class BatchForward:
    """Reusable pieces of one personalized forward pass, plus the layer
    inputs of both MLPs that the reverse pass reads."""

    params: FedVIParams
    stats: PosteriorStats
    query_global: np.ndarray
    query_local: np.ndarray
    support_size: int
    embed_acts: list[np.ndarray]
    post_acts: list[np.ndarray]

    def logits_for(self, beta: np.ndarray) -> np.ndarray:
        return predict_logits(
            self.params, beta, self.stats.b_beta, self.query_global, self.query_local
        )


def forward_batch(params: FedVIParams, x) -> BatchForward:
    """Embed, split support/query and features, rebuild the posterior."""
    x = np.asarray(x, dtype=np.float64)
    support, _ = split_support_query(x.shape[-2], params.arch.support_fraction)
    s = support.size
    embed_acts: list[np.ndarray] = []
    post_acts: list[np.ndarray] = []
    rep = embed(params, x, embed_acts)
    support_global, _ = split_features(params.arch, rep[..., :s, :])
    query_global, query_local = split_features(params.arch, rep[..., s:, :])
    stats = construct_posterior(params, support_global, post_acts)
    return BatchForward(params, stats, query_global, query_local, s, embed_acts, post_acts)


def minibatch_loss(
    params: FedVIParams,
    x,
    y: np.ndarray,
    tau: float,
    noise: np.ndarray,
) -> tuple[Tensor, LossParts]:
    """Query NLL plus (tau / batch) * KL(q, prior), with the parts reported.

    ``noise`` is the frozen standard-normal vector for the reparameterized
    local-weight sample, so the loss is a deterministic function of
    (params, batch, tau, noise). Support labels are never read.

    For a stack of C batches, ``params`` are stacked (``FedVIParams.stacked``),
    ``y`` is [C x B] and ``noise`` [C x m]; the parts hold one value per
    client and the loss node's value is their sum, whose gradient leaves
    each client's gradient exactly as its own loss gives it.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    arch = params.arch
    batch = np.asarray(x).shape[-2]
    fwd = forward_batch(params, x)
    q = fwd.stats.q
    beta = sample_reparam(q, noise)
    nll, d_logits = nn.softmax_nll(
        fwd.logits_for(beta), np.asarray(y)[..., fwd.support_size :]
    )
    prior = arch.prior
    kl = kl_diag(q, prior)
    weight = tau / batch
    value = nll + weight * kl
    nn.assert_all_finite(value, "minibatch loss")
    blocks = params.all_blocks()

    def grads(g: np.ndarray) -> list[np.ndarray]:
        out: dict[str, np.ndarray] = {}
        d_logits_g = g * d_logits
        # two-branch logits: q_local @ reshape(beta).T + cls(q_global) + b_beta
        d_query_global = _mlp_backward(
            params.theta_cls, [fwd.query_global], d_logits_g, out, input_grad=True
        )
        weights = beta.reshape(beta.shape[:-1] + (arch.num_classes, arch.local_dim))
        d_weights_t = fwd.query_local.swapaxes(-1, -2) @ d_logits_g
        d_beta = d_weights_t.swapaxes(-1, -2).reshape(beta.shape)
        d_query_local = d_logits_g @ weights
        d_mean, d_scale = sample_reparam_grad(noise, d_beta)
        kl_mean, kl_scale = kl_diag_grad(q, prior)
        d_mean = d_mean + (g * weight) * kl_mean
        d_scale = d_scale + (g * weight) * kl_scale
        d_support_global = _posterior_backward(
            params, fwd.stats, fwd.post_acts, d_mean, d_scale,
            d_logits_g.sum(axis=-2), out,
        )
        s, g_dim = fwd.support_size, arch.global_dim
        d_rep = np.zeros(d_logits.shape[:-2] + (batch, arch.rep_dim))
        d_rep[..., :s, :g_dim] = d_support_global
        d_rep[..., s:, :g_dim] = d_query_global
        d_rep[..., s:, g_dim:] = d_query_local
        _mlp_backward(params.theta_embed, fwd.embed_acts, d_rep, out)
        return [out[b.name] for b in blocks]

    loss = nn.fused(value.sum(), [b.value for b in blocks], grads)
    return loss, LossParts(nll=nll, kl=kl, kl_weight=weight)


def global_branch_loss(params: FedVIParams, x, y: np.ndarray) -> tuple[Tensor, LossParts]:
    """Summed NLL of the global branch on the whole batch (fedavg's loss).

    One fused node over the embedding and classifier leaves; the
    constructor gets no gradient. A stack of batches works as in
    ``minibatch_loss``.
    """
    acts: list[np.ndarray] = []
    nll, d_logits = nn.softmax_nll(global_branch_logits(params, x, acts), y)
    nn.assert_all_finite(nll, "minibatch loss")
    blocks = [*params.theta_embed, *params.theta_cls]

    def grads(g: np.ndarray) -> list[np.ndarray]:
        out: dict[str, np.ndarray] = {}
        d_global = _mlp_backward(params.theta_cls, acts[-1:], g * d_logits, out, input_grad=True)
        d_rep = np.zeros(d_logits.shape[:-1] + (params.arch.rep_dim,))
        d_rep[..., : params.arch.global_dim] = d_global
        _mlp_backward(params.theta_embed, acts[:-1], d_rep, out)
        return [out[b.name] for b in blocks]

    loss = nn.fused(nll.sum(), [b.value for b in blocks], grads)
    return loss, LossParts(nll=nll, kl=np.zeros_like(nll), kl_weight=0.0)
