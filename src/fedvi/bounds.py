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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datagen import FederatedDataset, GenConfig, GroundTruth, generate_hierarchical, softmax_rows
from .distributions import DiagGaussian, kl_diag, standard_prior
from .federation import TrainConfig, iter_local_batches
from .model import FedVIParams, embed, forward_batch, minibatch_loss, predict_logits, split_features
from .seeding import DOMAIN_CLIENT, substream

TRUE_RISK_POINTS_PER_CLIENT = 2048
AUDIT_BATCH_SIZE = 256


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
    prior: DiagGaussian | None = None  # over local weights; arch prior when None
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


def _sample_labels(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    return (rng.random(probs.shape[0])[:, None] > cum).sum(axis=1).astype(np.int64)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    """
    cfg = task.cfg
    dim = cfg.d * cfg.num_classes
    if prior.dim != dim:
        raise ValueError(f"prior dimension {prior.dim} != d*K = {dim}")
    mean, scale = prior.mean, prior.scale
    k_classes = cfg.num_classes
    chunk = max(1, 8_000_000 // max(n_data_draws * max(task.n_per_client), 1))

    r_true = np.zeros(n_prior_samples)
    r_emp = np.zeros((n_prior_samples, n_data_draws))
    for k in range(cfg.c):
        n_k = task.n_per_client[k]
        betas = (
            mean + scale * rng.standard_normal((n_prior_samples, dim))
        ).reshape(n_prior_samples, cfg.d, k_classes)
        x_pool, p_pool = draw_client_inputs(task, k, TRUE_RISK_POINTS_PER_CLIENT, rng)
        x_data, p_data = draw_client_inputs(task, k, n_data_draws * n_k, rng)
        y_data = _sample_labels(p_data, rng)
        m = x_data.shape[0]
        for s0 in range(0, n_prior_samples, chunk):
            mats = task.truth.theta + betas[s0 : s0 + chunk]  # [S, d, K]
            s = mats.shape[0]
            stacked = np.transpose(mats, (1, 0, 2)).reshape(cfg.d, s * k_classes)
            logp_pool = _log_softmax((x_pool @ stacked).reshape(-1, s, k_classes))
            r_true[s0 : s0 + s] += n_k * -(
                (p_pool[:, None, :] * logp_pool).sum(axis=2).mean(axis=0)
            )
            logp_data = _log_softmax((x_data @ stacked).reshape(m, s, k_classes))
            nll = -logp_data[np.arange(m)[:, None], np.arange(s)[None, :], y_data[:, None]]
            r_emp[s0 : s0 + s] += nll.reshape(n_data_draws, n_k, s).sum(axis=1).T
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


def client_posterior_audit(
    params: FedVIParams,
    x: np.ndarray,
    y: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
):
    """One audit batch: posterior, sampled local weights, query Gibbs NLL."""
    batch = min(x.shape[0], AUDIT_BATCH_SIZE)
    fwd = forward_batch(params, x[:batch])
    q = fwd.stats.q
    mu, sig = q.mean, q.scale
    beta_draws = mu + sig * rng.standard_normal((n_samples, q.dim))
    y_query = y[fwd.support_size : batch]
    nll_sum = 0.0
    for b in beta_draws:
        logits = fwd.logits_for(b)
        logp = _log_softmax(logits)
        nll_sum += float(-logp[np.arange(y_query.size), y_query].sum())
    return fwd, beta_draws, y_query.size, nll_sum / n_samples


def bound_holds_check(
    task: SyntheticTask,
    params: FedVIParams,
    cfg: PacBayesConfig,
    trials: int,
    rng: np.random.Generator,
    slack: float | None = None,
) -> BoundCheckResult:
    """Fraction of fresh-dataset trials on which RHS >= true risk.

    Per trial: draw a fresh dataset from the task's client processes,
    rebuild each client's posterior from its own unlabeled support half,
    take the Gibbs empirical risk on the query points, the summed KL to
    the prior, and compare against the Monte-Carlo true risk of the
    posterior-averaged predictive on fresh inputs (exact inner expectation
    over labels). The slack term is shared across trials; when not
    supplied it is estimated once with ``estimate_slack`` under the
    generator's own prior.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if slack is None:
        slack = estimate_slack(
            task,
            generator_prior(task),
            cfg.eta,
            cfg.delta,
            cfg.slack_samples,
            cfg.slack_samples,
            rng,
        )
    result = BoundCheckResult(holding_fraction=1.0, trials=trials, slack=slack)
    if trials == 0:
        return result
    arch = params.arch
    prior = cfg.prior if cfg.prior is not None else arch.prior
    eval_points = max(2, math.ceil(10_000 / task.cfg.c))
    holds = 0
    for _ in range(trials):
        emp = 0.0
        kl_total = 0.0
        true = 0.0
        for k in range(task.cfg.c):
            n_k = task.n_per_client[k]
            x, probs = draw_client_inputs(task, k, n_k, rng)
            y = _sample_labels(probs, rng)
            fwd, beta_draws, n_query, gibbs_nll = client_posterior_audit(
                params, x, y, cfg.posterior_samples, rng
            )
            emp += gibbs_nll
            kl_total += float(kl_diag(fwd.stats.q, prior))

            x_eval, p_eval = draw_client_inputs(task, k, eval_points, rng)
            rep = embed(params, x_eval)
            g_eval, l_eval = split_features(arch, rep)
            predictive = np.zeros((eval_points, task.cfg.num_classes))
            for b in beta_draws:
                logits = predict_logits(params, b, fwd.stats.b_beta, g_eval, l_eval)
                predictive += softmax_rows(logits)
            predictive /= beta_draws.shape[0]
            true += n_query * float(-(p_eval * np.log(predictive)).sum(axis=1).mean())
        rhs = pacbayes_rhs(emp, kl_total, cfg.eta, cfg.delta, slack - math.log(1.0 / cfg.delta))
        if rhs >= true:
            holds += 1
        result.rhs_values.append(rhs)
        result.true_risks.append(true)
        result.empirical_risks.append(emp)
        result.kl_values.append(kl_total)
    result.holding_fraction = holds / trials
    return result
