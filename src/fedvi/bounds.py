"""Objective decomposition audit and generalization-bound evaluation.

Two jobs. First, re-accumulate a training pass at fixed parameters and
check that the combined per-minibatch losses equal expected loss plus
weighted regularizers. Second, evaluate the PAC-Bayes style bound

    true risk <= empirical risk + (KL + log(1/delta) + log-moment) / eta

where the log-moment slack term is Monte-Carlo estimable only when the
data distribution is the synthetic generator (true risks are computable
there by sampling the known process). The global-parameter KL is zero
throughout: the global posterior is a point estimate under a uniform
non-normalized global prior.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    FederatedDataset,
    GenConfig,
    GroundTruth,
    _sample_categorical_rows,
    generate_hierarchical,
    softmax_rows,
)
from .distributions import DiagGaussian, kl_diag, standard_prior
from .federation import TrainConfig, iter_local_batches
from .model import FedVIParams, embed, forward_batch, minibatch_loss, predict_logits, split_features
from .seeding import DOMAIN_CLIENT, substream

TRUE_RISK_POINTS_PER_CLIENT = 2048
AUDIT_BATCH_SIZE = 256
# Logits in one tile of estimate_slack: 1 MiB of float64.
SLACK_TILE_ELEMENTS = 1 << 17


@dataclass
class ElboReport:
    """Loss decomposition: expected loss, regularizers and their total.

    ``local_regs`` are per-client sums of KL / batch-size, so that
    ``expected_loss + tau * sum(local_regs)`` matches the accumulated
    per-minibatch objective exactly. ``global_reg`` is the global KL, 0 for
    the point-estimate global posterior, and carries no weight.
    """

    expected_loss: float
    global_reg: float
    local_regs: dict[int, float]
    total: float

    def recomposed(self, tau: float) -> float:
        return self.expected_loss + tau * sum(self.local_regs.values())

    def check_identity(self, tau: float, tol: float = 1e-10) -> None:
        gap = abs(self.total - self.recomposed(tau))
        if gap > tol:
            raise AssertionError(f"decomposition identity violated by {gap:.3e}")


def elbo_components(
    params: FedVIParams,
    clients: list,
    cfg: TrainConfig,
    round_index: int,
) -> ElboReport:
    """Accumulate loss components over one round's cohort at fixed params.

    Uses the same per-(round, client) streams as local training, so with a
    zero client learning rate it reproduces the training loop's accumulated
    loss bit-for-bit. The total is accumulated from the combined per-batch
    losses, independently of the parts, making the identity a real check.
    """
    if cfg.algorithm != "fedvi":
        raise ValueError("loss decomposition is defined for the fedvi objective")
    expected_loss = 0.0
    total = 0.0
    local_regs: dict[int, float] = {}
    for client in clients:
        rng = substream(cfg.seed, DOMAIN_CLIENT, round_index, client.client_id)
        reg = 0.0
        for xb, yb, noise in iter_local_batches(client, cfg, params.arch, rng):
            loss, parts = minibatch_loss(params, xb, yb, cfg.tau, noise)
            total += loss.item()
            expected_loss += parts.nll
            reg += parts.kl / xb.shape[0]
        local_regs[client.client_id] = reg
    return ElboReport(
        expected_loss=expected_loss, global_reg=0.0, local_regs=local_regs, total=total
    )


@dataclass(frozen=True)
class PacBayesConfig:
    eta: float
    delta: float
    slack_samples: int
    posterior_samples: int = 16

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.slack_samples < 1 or self.posterior_samples < 1:
            raise ValueError("slack_samples and posterior_samples must be >= 1")


def pacbayes_rhs(empirical_risk: float, kl: float, eta: float, delta: float, slack: float) -> float:
    """empirical_risk + (kl + log(1/delta) + slack) / eta.

    ``slack`` is the plain log-moment term; the delta scaling is added here.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return empirical_risk + (kl + math.log(1.0 / delta) + slack) / eta


def scaled_log_moment(gaps: np.ndarray, delta: float) -> float:
    """log((1/delta) * mean(exp(gaps))) without overflow.

    Returns +inf (with a heavy-tail warning) if any gap is itself infinite.
    """
    g = np.asarray(gaps, dtype=np.float64).ravel()
    if g.size == 0:
        raise ValueError("need at least one gap sample")
    if np.any(np.isposinf(g)):
        warnings.warn(
            "slack estimate diverged (+inf gap sample); the moment may be heavy-tailed",
            RuntimeWarning,
        )
        return math.inf
    m = float(g.max())
    return math.log(1.0 / delta) + m + math.log(float(np.mean(np.exp(g - m))))


@dataclass
class SyntheticTask:
    """A fixed draw of the generator's client-level process.

    Holds everything needed to sample fresh datasets from the same client
    population and to compute risks exactly: the shared predictor, the
    per-client effects and input shifts, and the per-client sample counts.
    """

    cfg: GenConfig
    truth: GroundTruth
    n_per_client: list[int]


def synthetic_task(cfg: GenConfig) -> tuple[FederatedDataset, SyntheticTask]:
    ds, truth = generate_hierarchical(cfg)
    return ds, SyntheticTask(cfg=cfg, truth=truth, n_per_client=[c.n for c in ds.clients])


def generator_prior(task: SyntheticTask) -> DiagGaussian:
    """The generator's own prior over per-client effects (flattened)."""
    dim = task.cfg.d * task.cfg.num_classes
    scale = task.cfg.sigma_beta if task.cfg.sigma_beta > 0 else 1.0
    return standard_prior(dim, scale)


def draw_client_inputs(
    task: SyntheticTask, k: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh inputs for client k plus the exact label conditionals."""
    x = task.truth.shifts[k] + rng.standard_normal((n, task.cfg.d))
    probs = softmax_rows(x @ (task.truth.theta + task.truth.betas[k]))
    return x, probs


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the last axis, shifted by its max.

    Every risk below goes through it: the NLL of label y is lse(z) - z[y],
    the expected NLL under label probabilities p is lse(z) - p.z, and the
    log of a mean of probabilities is a log-mean-exp of log-probabilities,
    finite where a probability underflows. The axis is short (classes or
    draws), so it is walked column by column: a numpy reduction over a
    short last axis loops per row and is about three times slower.
    """
    cols = [z[..., j] for j in range(z.shape[-1])]
    peak = functools.reduce(np.maximum, cols)
    return peak + np.log(sum(np.exp(c - peak) for c in cols))


def estimate_slack(
    task: SyntheticTask,
    prior: DiagGaussian,
    eta: float,
    delta: float,
    n_prior_samples: int,
    n_data_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of log((1/delta) E_data E_prior exp(eta * gap)).

    The gap is true total risk minus empirical total risk for a hypothesis
    drawn from ``prior`` in the generator's own predictor family (shared
    matrix fixed at the task's ground truth, per-client effects sampled
    from the prior). True risks use an exact inner expectation over labels
    on a large fresh input pool; empirical risks use freshly sampled
    datasets of the task's per-client sizes.

    The empirical risks stream through one tile per client and data draw:
    the draw's n_k x S x K logits (about 1 MB for 200 rows, 200 hypotheses
    and 3 classes), so memory does not grow with the number of draws.
    Hypotheses are sliced only when a draw's tile would exceed
    ``SLACK_TILE_ELEMENTS``. The tile size changes no bit of the result.
    """
    cfg = task.cfg
    d, k_classes = cfg.d, cfg.num_classes
    if prior.dim != d * k_classes:
        raise ValueError(f"prior dimension {prior.dim} != d*K = {d * k_classes}")

    r_true = np.zeros(n_prior_samples)
    r_emp = np.zeros((n_prior_samples, n_data_draws))
    for k, n_k in enumerate(task.n_per_client):
        # Two or more hypotheses a slice: numpy would sum a lone column pairwise.
        per_slice = max(1, SLACK_TILE_ELEMENTS // (n_k * k_classes))
        n_slices = max(1, min(-(-n_prior_samples // per_slice), n_prior_samples // 2))
        betas = prior.mean + prior.scale * rng.standard_normal((n_prior_samples, prior.dim))
        x_pool, p_pool = draw_client_inputs(task, k, TRUE_RISK_POINTS_PER_CLIENT, rng)
        x_data, p_data = draw_client_inputs(task, k, n_data_draws * n_k, rng)
        y_data = _sample_categorical_rows(p_data, rng).reshape(n_data_draws, n_k)
        x_data = x_data.reshape(n_data_draws, n_k, d)
        rows = np.arange(n_k)
        for hyp in np.array_split(np.arange(n_prior_samples), n_slices):
            mats = task.truth.theta + betas[hyp].reshape(-1, d, k_classes)  # [S, d, K]
            stacked = np.transpose(mats, (1, 0, 2)).reshape(d, -1)
            z_pool = (x_pool @ stacked).reshape(-1, hyp.size, k_classes)
            pool_risk = _logsumexp(z_pool) - np.einsum("pk,psk->ps", p_pool, z_pool)
            r_true[hyp] += n_k * pool_risk.mean(axis=0)
            for j in range(n_data_draws):
                z_data = (x_data[j] @ stacked).reshape(n_k, hyp.size, k_classes)
                nll = _logsumexp(z_data) - z_data[rows, :, y_data[j]]
                r_emp[hyp, j] += nll.sum(axis=0)
    gaps = eta * (r_true[:, None] - r_emp)
    return scaled_log_moment(gaps, delta)


@dataclass
class BoundCheckResult:
    holding_fraction: float
    trials: int
    slack: float
    rhs_values: list[float] = field(default_factory=list)
    true_risks: list[float] = field(default_factory=list)
    empirical_risks: list[float] = field(default_factory=list)
    kl_values: list[float] = field(default_factory=list)


ClientAudit = namedtuple("ClientAudit", "b_beta beta_draws n_query gibbs_nll kl")


def client_posterior_audit(
    params: FedVIParams,
    x: np.ndarray,
    y: np.ndarray,
    cfg: PacBayesConfig,
    rng: np.random.Generator,
) -> ClientAudit:
    """One client's audit batch, its first ``AUDIT_BATCH_SIZE`` rows.

    Rebuilds the posterior from the unlabeled support half and returns its
    per-class logit bias ``b_beta``, ``cfg.posterior_samples`` local-weight
    draws [S x m], the query count, the query NLL summed over the query
    and averaged over the draws (Gibbs), and the KL to the architecture's
    prior.
    """
    batch = min(x.shape[0], AUDIT_BATCH_SIZE)
    fwd = forward_batch(params, x[:batch])
    q = fwd.stats.q
    beta_draws = q.mean + q.scale * rng.standard_normal((cfg.posterior_samples, q.dim))
    y_query = y[fwd.support_size : batch]
    local = np.broadcast_to(fwd.query_local, (cfg.posterior_samples, *fwd.query_local.shape))
    logits = predict_logits(params, beta_draws, fwd.stats.b_beta, fwd.query_global, local)
    nll = _logsumexp(logits) - logits[:, np.arange(y_query.size), y_query]
    gibbs_nll = float(nll.sum()) / cfg.posterior_samples
    kl = float(kl_diag(q, params.arch.prior))
    return ClientAudit(fwd.stats.b_beta, beta_draws, y_query.size, gibbs_nll, kl)


def bound_holds_check(
    task: SyntheticTask,
    params: FedVIParams,
    cfg: PacBayesConfig,
    trials: int,
    rng: np.random.Generator,
    slack: float,
) -> BoundCheckResult:
    """Fraction of fresh-dataset trials on which RHS >= true risk.

    Per trial: draw a fresh dataset from the task's client processes,
    audit each client (``client_posterior_audit``: Gibbs empirical risk on
    its query points, KL to the prior), and compare the bound against the
    Monte-Carlo true risk of the posterior-averaged predictive on fresh
    inputs (exact inner expectation over labels). ``slack`` is the
    delta-scaled log-moment term that ``estimate_slack`` returns, shared
    across trials.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    result = BoundCheckResult(holding_fraction=1.0, trials=trials, slack=slack)
    if trials == 0:
        return result
    draws = cfg.posterior_samples
    eval_points = max(2, math.ceil(10_000 / task.cfg.c))
    holds = 0
    for _ in range(trials):
        emp = kl_total = true = 0.0
        for k in range(task.cfg.c):
            x, probs = draw_client_inputs(task, k, task.n_per_client[k], rng)
            y = _sample_categorical_rows(probs, rng)
            audit = client_posterior_audit(params, x, y, cfg, rng)
            emp += audit.gibbs_nll
            kl_total += audit.kl

            x_eval, p_eval = draw_client_inputs(task, k, eval_points, rng)
            g_eval, l_eval = split_features(params.arch, embed(params, x_eval))
            local = np.broadcast_to(l_eval, (draws, *l_eval.shape))
            logits = predict_logits(params, audit.beta_draws, audit.b_beta, g_eval, local)
            log_probs = logits - _logsumexp(logits)[..., None]
            # log of the predictive averaged over the S draws of [S x P x K]
            log_predictive = _logsumexp(np.moveaxis(log_probs, 0, -1)) - math.log(draws)
            true += audit.n_query * float(-(p_eval * log_predictive).sum(axis=1).mean())
        rhs = pacbayes_rhs(emp, kl_total, cfg.eta, cfg.delta, slack - math.log(1.0 / cfg.delta))
        if rhs >= true:
            holds += 1
        result.rhs_values.append(rhs)
        result.true_risks.append(true)
        result.empirical_risks.append(emp)
        result.kl_values.append(kl_total)
    result.holding_fraction = holds / trials
    return result
