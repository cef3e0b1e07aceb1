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
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .datagen import GroundTruth, sample_labels
from .distributions import DiagGaussian, kl_diag, standard_prior
from .federation import TrainConfig, iter_local_batches
from .model import FedVIParams, _mlp_forward, embed, forward_batch, minibatch_loss, split_features
from .nn import NonFiniteError
from .seeding import DOMAIN_CLIENT, substream

TRUE_RISK_POINTS_PER_CLIENT = 2048
AUDIT_BATCH_SIZE = 256
# Logits in one tile of estimate_slack, pool or data: 1 MiB of float64.
SLACK_TILE_ELEMENTS = 1 << 17


@dataclass
class ElboReport:
    """Loss decomposition: expected loss, regularizers and their total.

    ``local_regs`` are per-client sums of KL / batch-size, so that
    ``expected_loss + tau * sum(local_regs)`` matches the accumulated
    per-minibatch objective exactly.
    """

    expected_loss: float
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

    Uses the same per-(round, client) streams as local training and reads
    them the same way (``local_draws``, through ``iter_local_batches``), so
    it scores the batches and noise training scores, one unpadded batch at
    a time. With a zero client learning rate it reproduces the training
    loop's accumulated loss up to rounding, not bit for bit: training pads
    each tail batch to ``batch_size``, and the padding regroups numpy's
    pairwise sum over 8 or more query rows. The total is accumulated from
    the combined per-batch losses, independently of the parts, making the
    identity a real check.
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
    return ElboReport(expected_loss=expected_loss, local_regs=local_regs, total=total)


@dataclass(frozen=True)
class PacBayesConfig:
    eta: float = 1.0
    delta: float = 0.05
    slack_samples: int = 200
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

    Returns +inf (with a heavy-tail warning) only if a gap is +inf. A NaN
    gap, or gaps that are all -inf, raise ``NonFiniteError``.
    """
    g = np.asarray(gaps, dtype=np.float64).ravel()
    if g.size == 0:
        raise ValueError("need at least one gap sample")
    n_nan = int(np.isnan(g).sum())
    if n_nan:
        raise NonFiniteError(f"slack estimate: {n_nan} of {g.size} gap samples are NaN")
    if np.isneginf(g).all():
        raise NonFiniteError(f"slack estimate: {g.size} of {g.size} gap samples are -inf")
    if np.any(np.isposinf(g)):
        warnings.warn(
            "slack estimate diverged (+inf gap sample); the moment may be heavy-tailed",
            RuntimeWarning,
        )
        return math.inf
    m = float(g.max())
    return math.log(1.0 / delta) + m + math.log(float(np.mean(np.exp(g - m))))


def generator_prior(task: GroundTruth) -> DiagGaussian:
    """The generator's own prior over per-client effects (flattened)."""
    dim = task.cfg.d * task.cfg.num_classes
    scale = task.cfg.sigma_beta if task.cfg.sigma_beta > 0 else 1.0
    return standard_prior(dim, scale)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the leading axis, shifted by its max.

    Every risk below goes through it: the NLL of label y is lse(z) - z[y],
    the expected NLL under label probabilities p is lse(z) - p.z, and the
    log of a mean of probabilities is a log-mean-exp of log-probabilities,
    finite where a probability underflows. Bound arrays lay out their short
    axes (classes K, posterior draws S) first and their rows last, so the
    reduced axis leads: numpy then adds whole rows in order, one vector add
    per class or draw, instead of looping over a short last axis per row.
    """
    peak = z.max(axis=0)
    shifted = z - peak
    np.exp(shifted, out=shifted)
    return peak + np.log(shifted.sum(axis=0))


def _hypothesis_slices(w: np.ndarray, rows: int) -> list[slice]:
    """Ranges of the hypotheses in ``w`` [K x d x S] whose logits on
    ``rows`` rows, [K x rows x S'], fit one tile.

    Two or more hypotheses a slice: numpy would sum a lone column pairwise.
    """
    k_classes, n_hyp = w.shape[0], w.shape[-1]
    per_slice = max(1, SLACK_TILE_ELEMENTS // (rows * k_classes))
    n_slices = max(1, min(-(-n_hyp // per_slice), n_hyp // 2))
    return [slice(h[0], h[-1] + 1) for h in np.array_split(np.arange(n_hyp), n_slices)]


def _pool_risks(task: GroundTruth, k: int, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """True risk [S] of each hypothesis in ``w`` [K x d x S] on client k:
    the exact expected NLL over labels, averaged over a fresh input pool."""
    x_pool, p_pool = task.draw(k, TRUE_RISK_POINTS_PER_CLIENT, rng)
    p_cols = p_pool[..., None]  # [K x P x 1]
    risks = np.empty(w.shape[-1])
    for hyp in _hypothesis_slices(w, x_pool.shape[0]):
        z = x_pool @ w[..., hyp]
        risks[hyp] = (_logsumexp(z) - (p_cols * z).sum(axis=0)).mean(axis=0)
    return risks


def _data_risks(
    task: GroundTruth, k: int, w: np.ndarray, n_data_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Empirical risk [S x D] of each hypothesis in ``w`` [K x d x S] on D
    fresh datasets of client k's size, one data draw a tile.

    The labels are drawn one data draw at a time, from the law's n_k
    columns of that draw, in order: the same uniforms as one draw over the
    whole law, without its cumulative sums at full size."""
    n_k = task.n_per_client[k]
    x, p = task.draw(k, n_data_draws * n_k, rng)
    y = [sample_labels(p[:, j * n_k : (j + 1) * n_k], rng) for j in range(n_data_draws)]
    del p
    x = x.reshape(n_data_draws, n_k, -1)
    rows = np.arange(n_k)
    risks = np.empty((w.shape[-1], n_data_draws))
    for hyp in _hypothesis_slices(w, n_k):
        for j in range(n_data_draws):
            z = x[j] @ w[..., hyp]
            risks[hyp, j] = (_logsumexp(z) - z[y[j], rows]).sum(axis=0)
    return risks


def estimate_slack(
    task: GroundTruth,
    prior: DiagGaussian,
    eta: float,
    delta: float,
    n_prior_samples: int,
    n_data_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of log((1/delta) E_data E_prior exp(eta * gap)).

    The gap is true total risk minus empirical total risk, over the task's
    clients, for a hypothesis drawn from ``prior`` in the generator's own
    predictor family (shared matrix fixed at the task's ground truth,
    per-client effects sampled from the prior). True risks use an exact
    inner expectation over labels on a large fresh input pool; empirical
    risks use freshly sampled datasets of the task's per-client sizes.
    ``fedvi bound`` passes only the clients it audits
    (``GroundTruth.clients``), so the slack covers the rows that the
    empirical risk and the KL cover.

    Each client's hypotheses become class-major weights w [K x d x S]
    once, so rows x score as one ``x @ w`` into K x rows x S logits. The
    empirical risks stream through one such tile per client and data draw
    (about 1 MB for 200 rows, 200 hypotheses and 3 classes), so memory
    does not grow with the number of draws. The pool term and the data term
    slice the hypotheses, each on its own, only where a tile would exceed
    ``SLACK_TILE_ELEMENTS`` (the 2048 pool rows take about 21 hypotheses a
    slice). The tile size changes no bit of the result.
    """
    cfg = task.cfg
    d, k_classes = cfg.d, cfg.num_classes
    if prior.dim != d * k_classes:
        raise ValueError(f"prior dimension {prior.dim} != d*K = {d * k_classes}")

    r_true = np.zeros(n_prior_samples)
    r_emp = np.zeros((n_prior_samples, n_data_draws))
    for k, n_k in enumerate(task.n_per_client):
        betas = prior.mean + prior.scale * rng.standard_normal((n_prior_samples, prior.dim))
        w = np.ascontiguousarray((task.theta + betas.reshape(-1, d, k_classes)).T)
        r_true += n_k * _pool_risks(task, k, w, rng)
        r_emp += _data_risks(task, k, w, n_data_draws, rng)
    gaps = eta * (r_true[:, None] - r_emp)
    return scaled_log_moment(gaps, delta)


@dataclass
class BoundTrials:
    """Per-trial totals of ``bound_holds_check``, one entry a trial; the
    RHS and the holding fraction follow from them under a slack."""

    empirical_risks: list[float] = field(default_factory=list)
    kl_values: list[float] = field(default_factory=list)
    true_risks: list[float] = field(default_factory=list)

    def rhs_values(self, cfg: PacBayesConfig, slack: float) -> list[float]:
        """Each trial's RHS under ``slack``, the delta-scaled log-moment
        term that ``estimate_slack`` returns."""
        moment = slack - math.log(1.0 / cfg.delta)
        return [
            pacbayes_rhs(emp, kl, cfg.eta, cfg.delta, moment)
            for emp, kl in zip(self.empirical_risks, self.kl_values)
        ]

    def holding_fraction(self, cfg: PacBayesConfig, slack: float) -> float:
        """The fraction of trials whose RHS under ``slack`` is at least
        the true risk (1.0 for no trials)."""
        rhs = self.rhs_values(cfg, slack)
        holds = sum(r >= t for r, t in zip(rhs, self.true_risks))
        return holds / len(rhs) if rhs else 1.0


ClientAudit = namedtuple("ClientAudit", "b_beta beta_draws n_query gibbs_nll kl")


def _draw_logits(
    params: FedVIParams,
    beta_draws: np.ndarray,
    b_beta: np.ndarray,
    query_global: np.ndarray,
    query_local: np.ndarray,
) -> np.ndarray:
    """``model.predict_logits`` of S draws [S x m] on Q rows, as [S x K x Q].

    The local branch of every draw is one GEMM and the global head runs
    once; the additions are predict_logits's, in its order.
    """
    arch = params.arch
    n_draws = beta_draws.shape[0]
    weights = beta_draws.reshape(n_draws * arch.num_classes, arch.local_dim)
    logits = (weights @ query_local.T).reshape(n_draws, arch.num_classes, -1)
    logits += _mlp_forward(params.theta_cls, query_global).T
    logits += b_beta[:, None]
    return logits


def client_posterior_audit(
    params: FedVIParams,
    x: np.ndarray,
    y: np.ndarray,
    cfg: PacBayesConfig,
    rng: np.random.Generator,
) -> ClientAudit | None:
    """One client's audit batch: the first of ``ArchConfig.batch_slices``
    at ``AUDIT_BATCH_SIZE`` rows. None, with no draw taken, for a client
    with no batch: training and evaluation skip it too.

    Rebuilds the posterior from the unlabeled support half and returns its
    per-class logit bias ``b_beta``, ``cfg.posterior_samples`` local-weight
    draws [S x m], the query count, the query NLL summed over the query
    and averaged over the draws (Gibbs), and the KL to the architecture's
    prior.
    """
    batches = params.arch.batch_slices(x.shape[0], AUDIT_BATCH_SIZE)
    if not batches:
        return None
    x, y = x[batches[0]], y[batches[0]]
    fwd = forward_batch(params, x)
    q = fwd.stats.q
    beta_draws = q.mean + q.scale * rng.standard_normal((cfg.posterior_samples, q.dim))
    y_query = y[fwd.support_size :]
    logits = _draw_logits(params, beta_draws, fwd.stats.b_beta, fwd.query_global, fwd.query_local)
    nll = _logsumexp(logits.swapaxes(0, 1)) - logits[:, y_query, np.arange(y_query.size)]
    gibbs_nll = float(nll.sum()) / cfg.posterior_samples
    kl = float(kl_diag(q, params.arch.prior))
    return ClientAudit(fwd.stats.b_beta, beta_draws, y_query.size, gibbs_nll, kl)


def bound_holds_check(
    task: GroundTruth,
    params: FedVIParams,
    cfg: PacBayesConfig,
    trials: int,
    rng: np.random.Generator,
) -> BoundTrials:
    """Empirical risk, KL and true risk of each of ``trials`` fresh-dataset
    trials; ``BoundTrials.holding_fraction`` then compares the RHS with the
    true risk.

    Per trial: draw a fresh dataset from the task's client processes,
    audit each client (``client_posterior_audit``: Gibbs empirical risk on
    its query points, KL to the prior), and take the Monte-Carlo true risk
    of the posterior-averaged predictive on fresh inputs (exact inner
    expectation over labels). No slack is needed, so ``fedvi bound`` runs
    this beside ``estimate_slack``, on a stream of its own. Clients the
    audit skips are skipped before their data is drawn. A NaN risk raises
    ``NonFiniteError`` naming the trial and client.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    result = BoundTrials()
    draws = cfg.posterior_samples
    eval_points = max(2, math.ceil(10_000 / task.cfg.c))
    for trial in range(trials):
        emp = kl_total = true = 0.0
        for k, n_k in enumerate(task.n_per_client):
            if not params.arch.batch_slices(n_k, AUDIT_BATCH_SIZE):
                continue
            x, probs = task.draw(k, n_k, rng)
            audit = client_posterior_audit(params, x, sample_labels(probs, rng), cfg, rng)

            x_eval, p_eval = task.draw(k, eval_points, rng)
            g_eval, l_eval = split_features(params.arch, embed(params, x_eval))
            logits = _draw_logits(params, audit.beta_draws, audit.b_beta, g_eval, l_eval)
            # log-softmax in place: with the slack's tiles alive beside it,
            # the check keeps one [S x K x P] array, not two
            logits -= _logsumexp(logits.swapaxes(0, 1))[:, None]
            # log of the predictive averaged over the S draws, [K x P]
            log_predictive = _logsumexp(logits) - math.log(draws)
            risk = audit.n_query * float(-(p_eval * log_predictive).sum(axis=0).mean())
            for what, value in (("empirical risk", audit.gibbs_nll), ("true risk", risk)):
                if math.isnan(value):
                    raise NonFiniteError(f"{what} is NaN").add_context(trial=trial, client=k)
            emp += audit.gibbs_nll
            kl_total += audit.kl
            true += risk
        result.empirical_risks.append(emp)
        result.kl_values.append(kl_total)
        result.true_risks.append(true)
    return result
