"""End-to-end acceptance checks.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (run with -rP to
see them for passing tests) and then asserts the stated property at its
stated tolerance.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

from fedvi import nn
from fedvi.bounds import (
    PacBayesConfig,
    bound_holds_check,
    elbo_components,
    estimate_slack,
    generator_prior,
)
from fedvi.cli import main
from fedvi.config import parse_config_text
from fedvi.datagen import (
    TRAIN_FRACTION,
    ClientDataset,
    FederatedDataset,
    GenConfig,
    generate_hierarchical,
    label_law,
    sample_labels,
)
from fedvi.distributions import DiagGaussian, kl_diag
from fedvi.federation import (
    TrainConfig,
    client_update,
    init_server,
    iter_local_batches,
    run_training,
    sample_cohort,
    server_apply,
    summarize,
)
from fedvi.model import ArchConfig, construct_posterior, init_params, minibatch_loss
from fedvi.seeding import DOMAIN_CLIENT, DOMAIN_COHORT, DOMAIN_DATA, substream

from conftest import grad_blocks, replay_rounds


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)


# -- shared fixtures -------------------------------------------------------

BENCH_ARCH = dict(
    embed_widths=(32, 20),
    local_dim=4,
    global_dim=16,
    posterior_widths=(64, 64),
)
BENCH_TRAIN = dict(
    rounds=200,
    cohort_size=8,
    client_lr=0.001,
    server_lr=0.5,
    server_momentum=0.9,
    local_epochs=1,
    batch_size=32,
    eval_every=10,
)


def bench_dataset(seed: int):
    gen = GenConfig(
        c=40, n_range=(200, 400), d=16, num_classes=5, sigma_beta=2.0,
        input_shift_scale=1.0, seed=seed, holdout_count=8,
    )
    ds, _ = generate_hierarchical(gen)
    return ds


_BENCH_CACHE: dict = {}


def bench_run(data: str, data_seed: int, algorithm: str, tau: float, seed: int, window: int = 50):
    """Summary of one BENCH_TRAIN run on the ``data`` dataset ("bench" or
    "typed") built from ``data_seed``; cached on what builds the dataset and
    the run, so that criteria sharing a run train it once."""
    key = (data, data_seed, algorithm, tau, seed, window)
    if key not in _BENCH_CACHE:
        ds = cached_bench_dataset(data_seed) if data == "bench" else typed_dataset(data_seed)[0]
        arch = ArchConfig(input_dim=16, num_classes=5, **BENCH_ARCH)
        cfg = TrainConfig(tau=tau, seed=seed, algorithm=algorithm, **BENCH_TRAIN)
        result = run_training(cfg, arch, ds)
        _BENCH_CACHE[key] = summarize(result.reports, cfg.rounds, window=window)
    return _BENCH_CACHE[key]


_BENCH_DATASETS: dict = {}


def cached_bench_dataset(seed: int):
    if seed not in _BENCH_DATASETS:
        _BENCH_DATASETS[seed] = bench_dataset(seed)
    return _BENCH_DATASETS[seed]


# -- criterion 1: gradient correctness -------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for trial in range(20):
        r = substream(8800, trial)
        d_in = int(r.integers(2, 9))
        local = int(r.integers(1, 4))
        num_classes = int(r.integers(2, 5))
        rep = int(r.integers(local + 1, 11))
        batch = int(r.choice([2, 4, 8]))
        arch = ArchConfig(
            input_dim=d_in,
            embed_widths=(int(r.integers(2, 7)), rep),
            local_dim=local,
            global_dim=rep - local,
            num_classes=num_classes,
            posterior_widths=(int(r.integers(2, 7)),),
            mean_damp=1.0,
            logscale_damp=1.0,
        )
        params = init_params(arch, r)
        for block in params.blocks.values():
            block[...] = r.uniform(-0.5, 0.5, block.shape)
        x = r.uniform(-1, 1, (batch, d_in))
        y = r.integers(0, num_classes, batch)
        noise = r.standard_normal(arch.beta_dim)
        tau = [0.0, 0.3, 1.0][trial % 3]

        def build():
            loss, _ = minibatch_loss(params, x, y, tau, noise)
            return loss

        grads = grad_blocks(params, build())
        fd = nn.finite_diff_grad(lambda: build().item(), params.blocks, eps=1e-5)
        for name in params.blocks:
            exact = grads[name].ravel()
            approx = fd[name].ravel()
            mask = np.abs(exact) > 1e-8
            checked += int(mask.sum())
            if mask.any():
                worst = max(
                    worst,
                    float(np.max(np.abs(approx - exact)[mask] / np.abs(exact)[mask])),
                )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(
        "01 gradient correctness",
        ok,
        f"20 configs, {checked} coordinates, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-4
    assert elapsed < 30.0


# -- criterion 2: KL correctness --------------------------------------------


def _log_density(x, mean, scale):
    z = (x - mean) / scale
    return -0.5 * (z * z + 2.0 * np.log(scale) + math.log(2 * math.pi)).sum(axis=1)


def test_criterion_02_kl_against_monte_carlo():
    t0 = time.perf_counter()
    n = 1_000_000
    worst_z = 0.0
    for trial in range(50):
        r = substream(8801, trial)
        m = int(r.integers(1, 9))
        q_mean, p_mean = r.uniform(-2, 2, (2, m))
        q_scale, p_scale = r.uniform(0.2, 2.5, (2, m))
        q = DiagGaussian.from_arrays(q_mean, q_scale)
        p = DiagGaussian.from_arrays(p_mean, p_scale)
        x = q_mean + q_scale * r.standard_normal((n, m))
        ratios = _log_density(x, q_mean, q_scale) - _log_density(x, p_mean, p_scale)
        mc = float(ratios.mean())
        se = float(ratios.std(ddof=1) / math.sqrt(n))
        closed = kl_diag(q, p).item()
        worst_z = max(worst_z, abs(closed - mc) / se)
        q_self = kl_diag(q, q).item()
        assert abs(q_self) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_z < 5.0 and elapsed < 60.0
    report(
        "02 KL correctness",
        ok,
        f"50 pairs at n=1e6, worst |closed-mc|/se = {worst_z:.2f}, {elapsed:.1f}s",
    )
    assert worst_z < 5.0
    assert elapsed < 60.0


# -- criterion 3: loss decomposition identity --------------------------------


def test_criterion_03_loss_decomposition_identity():
    gen = GenConfig(
        c=4, n_range=(40, 60), d=5, num_classes=3, sigma_beta=1.0,
        input_shift_scale=0.5, seed=303, holdout_count=0,
    )
    ds, _ = generate_hierarchical(gen)
    arch = ArchConfig(
        input_dim=5, embed_widths=(8, 6), local_dim=2, global_dim=4,
        num_classes=3, posterior_widths=(8, 8),
    )
    cfg = TrainConfig(
        rounds=3, cohort_size=4, client_lr=0.0, server_lr=1.0, server_momentum=0.0,
        local_epochs=1, batch_size=16, tau=0.4, seed=44, eval_every=10,
    )
    result = run_training(cfg, arch, ds)
    params = init_params(arch, substream(cfg.seed, 1))
    by_id = {c.client_id: c for c in ds.clients}

    accumulated = sum(r.loss_sum for r in result.reports)
    total = 0.0
    recomposed = 0.0
    for r in result.reports:
        rep = elbo_components(params, [by_id[c] for c in r.cohort], cfg, r.round_index)
        rep.check_identity(cfg.tau, tol=1e-10)
        total += rep.total
        recomposed += rep.recomposed(cfg.tau)
    gap1 = abs(accumulated - total)
    gap2 = abs(accumulated - recomposed)
    ok = gap1 < 1e-10 and gap2 < 1e-10
    report(
        "03 loss decomposition identity",
        ok,
        f"4 clients x 3 rounds: |train - components| = {gap1:.2e}, "
        f"|train - recomposed| = {gap2:.2e}",
    )
    assert gap1 < 1e-10
    assert gap2 < 1e-10


# -- criterion 4: posterior sits at the prior at init ------------------------


def test_criterion_04_posterior_at_init():
    arch = ArchConfig(
        input_dim=6, embed_widths=(8, 6), local_dim=2, global_dim=4,
        num_classes=3, posterior_widths=(16, 16),
    )
    sigma0 = arch.prior_scale
    worst_mu = 0.0
    worst_sigma = 0.0
    for trial in range(100):
        r = substream(8804, trial)
        params = init_params(arch, r)
        support = r.standard_normal((8, arch.global_dim))
        stats = construct_posterior(params, support)
        worst_mu = max(worst_mu, float(np.abs(stats.q.mean).max()))
        worst_sigma = max(
            worst_sigma,
            float(np.abs(stats.q.scale - sigma0).max() / sigma0),
        )
    ok = worst_mu < 0.05 and worst_sigma < 0.05
    report(
        "04 posterior at init",
        ok,
        f"100 inits: max |mu| = {worst_mu:.4f} (< 0.05), "
        f"max rel sigma dev = {worst_sigma:.4f} (< 0.05)",
    )
    assert worst_mu < 0.05
    assert worst_sigma < 0.05


# -- criterion 5: support labels are never read ------------------------------


def _support_rows_of_training(client, cfg, arch):
    """Replay the batch plan to find which train rows serve as support."""
    rng = substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id)
    rows = []
    n = client.n_train
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            rng.standard_normal(arch.beta_dim)
            rows.extend(idx[: int(arch.support_fraction * idx.size)].tolist())
    return np.array(rows, dtype=np.intp)


def test_criterion_05_label_free_support():
    from fedvi.datagen import ClientDataset
    from fedvi.federation import evaluate

    bitwise_ok = True
    for trial in range(3):
        r = substream(8805, trial)
        gen = GenConfig(
            c=4, n_range=(50, 70), d=int(r.integers(3, 8)),
            num_classes=int(r.integers(2, 5)), sigma_beta=1.5,
            input_shift_scale=1.0, seed=int(r.integers(1, 1000)), holdout_count=1,
        )
        ds, _ = generate_hierarchical(gen)
        rep_dim = int(r.integers(4, 9))
        local = int(r.integers(1, rep_dim - 1))
        arch = ArchConfig(
            input_dim=gen.d, embed_widths=(8, rep_dim), local_dim=local,
            global_dim=rep_dim - local, num_classes=gen.num_classes,
            posterior_widths=(8,),
        )
        cfg = TrainConfig(
            rounds=1, cohort_size=2, client_lr=0.01, server_lr=1.0,
            server_momentum=0.0, local_epochs=1, batch_size=16, tau=0.2,
            seed=int(r.integers(1, 1000)), eval_every=1,
        )
        params = init_params(arch, substream(gen.seed, 7))
        client = ds.clients[1]

        # training loss: garble exactly the rows that act as support
        support_rows = _support_rows_of_training(client, cfg, arch)
        y2 = client.y.copy()
        y2[support_rows] = (y2[support_rows] + 1) % gen.num_classes
        garbled = ClientDataset(client.client_id, client.x, y2, client.split)
        stream = [substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id)]
        u1 = client_update(params, [client], cfg, stream).updates[0]
        stream = [substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id)]
        u2 = client_update(params, [garbled], cfg, stream).updates[0]
        bitwise_ok &= u1.loss_sum == u2.loss_sum
        bitwise_ok &= np.array_equal(u1.delta, u2.delta)

        # evaluation: garble the support half of every test batch
        eval_clients = []
        for cl in ds.clients:
            y = cl.y.copy()
            n_test = cl.n_test
            for start in range(0, n_test, cfg.batch_size):
                size = min(cfg.batch_size, n_test - start)
                if size < 2:
                    continue
                sup = int(arch.support_fraction * size)
                rows = cl.split + start + np.arange(sup)
                y[rows] = (y[rows] + 1) % gen.num_classes
            eval_clients.append(ClientDataset(cl.client_id, cl.x, y, cl.split))
        base = evaluate(params, ds.clients, cfg)
        noisy = evaluate(params, eval_clients, cfg)
        bitwise_ok &= base.accuracy == noisy.accuracy
    report(
        "05 label-free support",
        bitwise_ok,
        "3 random configs: training loss, deltas and eval accuracy bit-identical",
    )
    assert bitwise_ok


# -- criterion 6: plain-averaging equivalence --------------------------------


def test_criterion_06_fedavg_equivalence():
    gen = GenConfig(
        c=10, n_range=(40, 60), d=5, num_classes=3, sigma_beta=1.0,
        input_shift_scale=0.5, seed=606, holdout_count=2,
    )
    ds, _ = generate_hierarchical(gen)
    arch = ArchConfig(
        input_dim=5, embed_widths=(8, 6), local_dim=2, global_dim=4,
        num_classes=3, posterior_widths=(8, 8),
    )
    worst = 0.0
    for trial in range(10):
        cfg = TrainConfig(
            rounds=1, cohort_size=4, client_lr=0.02, server_lr=1.0,
            server_momentum=0.0, local_epochs=1, batch_size=16, tau=0.1,
            seed=700 + trial, eval_every=1,
        )
        state = init_server(arch, cfg.seed)
        ids = [c.client_id for c in ds.participating_clients()]
        cohort = sample_cohort(ids, 4, substream(cfg.seed, DOMAIN_COHORT, 1))
        by_id = {c.client_id: c for c in ds.clients}
        updates = [
            client_update(
                state.params, [by_id[cid]], cfg, [substream(cfg.seed, DOMAIN_CLIENT, 1, cid)]
            ).updates[0]
            for cid in sorted(cohort)
        ]
        start = state.params.flat.copy()
        finals = [start - u.delta for u in updates]
        weights = [u.weight for u in updates]
        server_apply(state, [u.delta for u in updates], weights, cfg)
        wsum = sum(weights)
        want = sum(w * f for w, f in zip(weights, finals)) / wsum
        worst = max(worst, float(np.max(np.abs(state.params.flat - want))))
    ok = worst < 1e-12
    report(
        "06 plain-averaging equivalence",
        ok,
        f"10 cohorts: max |server - weighted mean of finals| = {worst:.2e}",
    )
    assert worst < 1e-12


# -- criterion 7: personalization benefit on unseen clients ------------------


TYPE_COUNT = 4
TYPE_SHIFT_SCALE = 0.3


@functools.cache
def typed_dataset(seed: int):
    """bench_dataset's sizes, with clients drawn from TYPE_COUNT client types.

    A type t fixes both the input shift m_t ~ TYPE_SHIFT_SCALE * N(0, I) and
    the predictive effect beta_t ~ sigma_beta * N(0, I), so a client's
    unlabeled inputs carry information about its effect: the hierarchical
    model with one client-level latent behind both p(x) and p(y|x). Client k
    has type k mod TYPE_COUNT, so every type has 8 participating and 2
    held-out clients. Returns the dataset and the per-type shifts [T x d];
    cached, so that the premise check and bench_run build it once per seed.
    """
    c, (lo, hi), d, num_classes, sigma_beta, holdout = 40, (200, 400), 16, 5, 2.0, 8
    rng = substream(seed, DOMAIN_DATA)
    theta = rng.standard_normal((d, num_classes))
    betas = sigma_beta * rng.standard_normal((TYPE_COUNT, d, num_classes))
    shifts = TYPE_SHIFT_SCALE * rng.standard_normal((TYPE_COUNT, d))
    clients = []
    for k in range(c):
        t = k % TYPE_COUNT
        n_k = int(rng.integers(lo, hi + 1))
        x = shifts[t] + rng.standard_normal((n_k, d))
        y = sample_labels(label_law(x @ (theta + betas[t])), rng)
        perm = rng.permutation(n_k)
        clients.append(ClientDataset(k, x[perm], y[perm], int(TRAIN_FRACTION * n_k)))
    return FederatedDataset(clients, num_classes, holdout), shifts


def nearest_type_accuracy(ds, shifts: np.ndarray) -> tuple[float, float]:
    """How often the nearest type shift is the client's own type.

    Scored over every client's rows, once per single input and once per mean
    of a support half: consecutive blocks of as many rows as a full batch's
    support half (BENCH_TRAIN's batch size, ArchConfig's support fraction).
    Nearest shift is the Bayes rule here, since the types share the identity
    input covariance.
    """
    half = int(ArchConfig.support_fraction * BENCH_TRAIN["batch_size"])
    single, halves = [], []
    for client in ds.clients:
        own = client.client_id % TYPE_COUNT
        dist = ((client.x[:, None, :] - shifts[None, :, :]) ** 2).sum(axis=2)
        single.extend(dist.argmin(axis=1) == own)
        blocks = client.n // half
        means = client.x[: blocks * half].reshape(blocks, half, -1).mean(axis=1)
        dist = ((means[:, None, :] - shifts[None, :, :]) ** 2).sum(axis=2)
        halves.extend(dist.argmin(axis=1) == own)
    return float(np.mean(single)), float(np.mean(halves))


@pytest.mark.slow
def test_criterion_07_personalization_benefit_nonparticipating():
    # Premise: one support half identifies an unseen client's type (so its
    # effect); one input does not, so fedavg, which sees one input at a
    # time, cannot condition on the type.
    typed = [typed_dataset(100 + seed) for seed in range(1, 6)]
    single_acc, support_acc = (
        float(a) for a in np.mean([nearest_type_accuracy(*t) for t in typed], axis=0)
    )
    premise = support_acc >= 0.95 and single_acc <= 0.75

    margins = []
    for seed in range(1, 6):
        vi = bench_run("typed", 100 + seed, "fedvi", tau=0.01, seed=seed)
        avg = bench_run("typed", 100 + seed, "fedavg", tau=0.0, seed=seed)
        margins.append(vi["nonpart_acc"] - avg["nonpart_acc"])
    median = float(np.median(margins))

    # Reported, not asserted: on bench_dataset each client's effect is drawn
    # independently of its input shift, so the posterior of the effect given
    # unlabeled inputs is its prior, and no support-based method can beat
    # the client-agnostic predictor that fedavg learns as well.
    independent = []
    for seed in range(1, 6):
        vi = bench_run("bench", 100 + seed, "fedvi", tau=0.01, seed=seed)
        avg = bench_run("bench", 100 + seed, "fedavg", tau=0.0, seed=seed)
        independent.append(vi["nonpart_acc"] - avg["nonpart_acc"])

    ok = premise and median >= 0.05
    report(
        "07 personalization benefit (non-participating)",
        ok,
        f"typed clients: nearest-type accuracy {support_acc:.3f} from one support "
        f"half (need >= 0.95), {single_acc:.3f} from one input (need <= 0.75); "
        f"median nonpart margin {median:+.4f} (need >= +0.05), per seed "
        f"{[round(m, 4) for m in margins]}; independent effects (bench data, "
        f"not asserted): median {float(np.median(independent)):+.4f}, per seed "
        f"{[round(m, 4) for m in independent]}",
    )
    assert support_acc >= 0.95, f"a support half identifies the type only {support_acc:.3f}"
    assert single_acc <= 0.75, f"a single input already identifies the type {single_acc:.3f}"
    assert median >= 0.05, (
        "the rebuilt local posterior adds too little on unseen clients whose "
        f"support data identifies their type (median margin {median:+.4f})"
    )


@pytest.mark.slow
def test_criterion_07_supplement_participating_ordering():
    # The ordering the personalization machinery can honestly deliver here:
    # seen clients benefit from support-based reconstruction.
    margins = []
    for seed in range(1, 6):
        vi = bench_run("bench", 100 + seed, "fedvi", tau=0.01, seed=seed)
        avg = bench_run("bench", 100 + seed, "fedavg", tau=0.0, seed=seed)
        margins.append(vi["part_acc"] - avg["part_acc"])
    median_margin = float(np.median(margins))
    ok = median_margin > 0.0
    report(
        "07s participating-accuracy ordering (supplement)",
        ok,
        f"median participating margin {median_margin:+.4f} over 5 seeds",
    )
    assert median_margin > 0.0


# -- criterion 8: KL-weight ablation shrinks the participation gap -----------


@pytest.mark.slow
def test_criterion_08_tau_ablation_gap():
    taus = [0.0, 1e-6, 1e-4, 1e-2, 1.0]
    verdicts = []
    details = []
    for seed in (1, 2, 3):
        ds = cached_bench_dataset(100 + seed)
        arch = ArchConfig(input_dim=16, num_classes=5, **BENCH_ARCH)
        gaps = {}
        for i, tau in enumerate(sorted(taus)):
            cfg = TrainConfig(tau=tau, seed=1000 * seed + i, algorithm="fedvi", **BENCH_TRAIN)
            result = run_training(cfg, arch, ds)
            s = summarize(result.reports, cfg.rounds, window=50)
            gaps[tau] = abs(s["part_acc"] - s["nonpart_acc"])
        best_positive = min(v for t, v in gaps.items() if t > 0)
        verdicts.append(best_positive <= gaps[0.0])
        details.append(f"seed {seed}: gap(0)={gaps[0.0]:.4f}, min gap(tau>0)={best_positive:.4f}")
    ok = sum(verdicts) >= 2
    report("08 tau-ablation gap", ok, "; ".join(details))
    assert sum(verdicts) >= 2


# -- criterion 9: the generalization bound holds -----------------------------


def test_criterion_09_pacbayes_bound_holds():
    t0 = time.perf_counter()
    gen = GenConfig(
        c=8, n_range=(200, 200), d=4, num_classes=3, sigma_beta=1.0,
        input_shift_scale=0.5, seed=909, holdout_count=0,
    )
    ds, task = generate_hierarchical(gen)
    arch = ArchConfig(
        input_dim=4, embed_widths=(8, 6), local_dim=2, global_dim=4,
        num_classes=3, posterior_widths=(16, 16),
    )
    cfg = TrainConfig(
        rounds=30, cohort_size=4, client_lr=0.002, server_lr=1.0,
        server_momentum=0.9, local_epochs=1, batch_size=32, tau=0.01,
        seed=9, eval_every=10,
    )
    params = run_training(cfg, arch, ds).state.params
    pb = PacBayesConfig(eta=1.0, delta=0.05, slack_samples=200, posterior_samples=16)
    rng = substream(99, 0)
    slack = estimate_slack(
        task, generator_prior(task), pb.eta, pb.delta, pb.slack_samples,
        pb.slack_samples, rng,
    )
    res = bound_holds_check(task, params, pb, trials=100, rng=rng).judge(pb, slack=slack)
    elapsed = time.perf_counter() - t0
    ok = res.holding_fraction >= 0.95 and elapsed < 600
    report(
        "09 PAC-Bayes bound",
        ok,
        f"holding fraction {res.holding_fraction:.2f} over 100 trials "
        f"(slack {slack:.1f}), {elapsed:.0f}s",
    )
    assert res.holding_fraction >= 0.95
    assert elapsed < 600


# -- criterion 10: determinism ------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg_text = """
[data]
clients = 10
holdout = 2
n_min = 50
n_max = 70
input_dim = 5
num_classes = 3
sigma_beta = 1.0
input_shift_scale = 0.5

[arch]
embed_widths = 8,6
local_dim = 2
global_dim = 4
posterior_widths = 8,8

[train]
rounds = 6
cohort_size = 3
batch_size = 16
client_lr = 0.01
eval_every = 2

[run]
seed = 10
"""
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg_text)
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "b")]) == 0
    byte_identical = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()

    # run_training trains each cohort in lockstep; replaying its rounds one
    # client at a time must give the same bits
    cfg = parse_config_text(cfg_text)
    ds, _ = generate_hierarchical(cfg.gen)
    lockstep = run_training(cfg.train, cfg.arch, ds)
    ds2, _ = generate_hierarchical(cfg.gen)
    alone_state, alone_losses = replay_rounds(cfg.train, cfg.arch, ds2)
    lockstep_same = np.array_equal(
        lockstep.state.params.flat, alone_state.params.flat
    ) and [r.loss_sum for r in lockstep.reports] == alone_losses
    ok = byte_identical and lockstep_same
    report(
        "10 determinism",
        ok,
        f"metrics byte-identical: {byte_identical}; "
        f"lockstep cohort == one client at a time: {lockstep_same}",
    )
    assert byte_identical
    assert lockstep_same


# -- criterion 11: IID degeneracy ---------------------------------------------


def test_criterion_11_iid_degeneracy():
    diffs = []
    for seed in (1, 2, 3):
        # enough holdout test mass that evaluation noise stays well under
        # the 3-point tolerance
        gen = GenConfig(
            c=26, n_range=(500, 700), d=8, num_classes=4, sigma_beta=0.0,
            input_shift_scale=0.0, seed=1100 + seed, holdout_count=6,
        )
        ds, _ = generate_hierarchical(gen)
        arch = ArchConfig(
            input_dim=8, embed_widths=(16, 10), local_dim=2, global_dim=8,
            num_classes=4, posterior_widths=(32, 32),
        )
        accs = {}
        for algorithm in ("fedvi", "fedavg"):
            cfg = TrainConfig(
                rounds=150, cohort_size=6, client_lr=0.001, server_lr=0.5,
                server_momentum=0.9, local_epochs=1, batch_size=32,
                tau=0.01 if algorithm == "fedvi" else 0.0,
                seed=seed, eval_every=10, algorithm=algorithm,
            )
            result = run_training(cfg, arch, ds)
            s = summarize(result.reports, cfg.rounds, window=50)
            accs[algorithm] = s["nonpart_acc"]
        diffs.append(abs(accs["fedvi"] - accs["fedavg"]))
    median_diff = float(np.median(diffs))
    ok = median_diff <= 0.03
    report(
        "11 IID degeneracy",
        ok,
        f"median |fedvi - fedavg| nonpart accuracy = {median_diff:.4f} (<= 0.03); "
        f"per-seed {[round(d, 4) for d in diffs]}",
    )
    assert median_diff <= 0.03
