from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import log_softmax, logsumexp

from fedvi import bounds
from fedvi.bounds import (
    AUDIT_BATCH_SIZE,
    TRUE_RISK_POINTS_PER_CLIENT,
    PacBayesConfig,
    bound_holds_check,
    elbo_components,
    estimate_slack,
    generator_prior,
    pacbayes_rhs,
    scaled_log_moment,
)
from fedvi.datagen import GenConfig, generate_hierarchical, sample_labels
from fedvi.federation import TrainConfig, iter_local_batches, run_training
from fedvi.model import (
    ArchConfig,
    embed,
    forward_batch,
    init_params,
    minibatch_loss,
    predict_logits,
    split_features,
)
from fedvi.nn import NonFiniteError
from fedvi.seeding import DOMAIN_CLIENT, substream

from conftest import small_arch


def toy_task(c=4, n=(30, 40), d=4, k=3, seed=17, holdout=0, sigma_beta=1.0):
    cfg = GenConfig(
        c=c, n_range=n, d=d, num_classes=k, sigma_beta=sigma_beta,
        input_shift_scale=0.5, seed=seed, holdout_count=holdout,
    )
    return generate_hierarchical(cfg)


def toy_train_cfg(**overrides) -> TrainConfig:
    base = dict(
        rounds=3,
        cohort_size=3,
        client_lr=0.0,
        server_lr=1.0,
        server_momentum=0.0,
        local_epochs=1,
        batch_size=12,
        tau=0.25,
        seed=5,
        eval_every=10,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestElboComponents:
    def test_single_client_single_batch_matches_loss_parts(self, rng):
        ds, _ = toy_task()
        arch = small_arch(input_dim=4)
        params = init_params(arch, rng)
        client = ds.clients[0]
        cfg = toy_train_cfg(batch_size=1024)  # everything in one batch
        report = elbo_components(params, [client], cfg, round_index=1)

        stream = substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id)
        batches = list(iter_local_batches(client, cfg, arch, stream))
        assert len(batches) == 1
        xb, yb, noise = batches[0]
        loss, parts = minibatch_loss(params, xb, yb, cfg.tau, noise)
        assert report.expected_loss == parts.nll
        assert report.local_regs[client.client_id] == parts.kl / xb.shape[0]
        assert report.total == loss.item()

    def test_zero_weights_collapse_total_to_expected_loss(self, rng):
        ds, _ = toy_task()
        params = init_params(small_arch(input_dim=4), rng)
        cfg = toy_train_cfg(tau=0.0)
        report = elbo_components(params, ds.clients[:2], cfg, round_index=1)
        assert report.total == report.expected_loss

    def test_decomposition_identity_multi_client(self, rng):
        ds, _ = toy_task()
        params = init_params(small_arch(input_dim=4), rng)
        cfg = toy_train_cfg(tau=0.8, batch_size=8)
        report = elbo_components(params, ds.clients, cfg, round_index=2)
        report.check_identity(cfg.tau, tol=1e-10)

    def test_matches_frozen_training_accumulation(self):
        # with a zero client learning rate the training loop evaluates the
        # same losses this evaluator replays, round by round
        ds, _ = toy_task()
        arch = small_arch(input_dim=4)
        cfg = toy_train_cfg(client_lr=0.0, rounds=3, cohort_size=3, batch_size=8)
        result = run_training(cfg, arch, ds)
        params = init_params(arch, substream(cfg.seed, 1))
        by_id = {c.client_id: c for c in ds.clients}

        accumulated = sum(r.loss_sum for r in result.reports)
        replayed = 0.0
        for report in result.reports:
            cohort = [by_id[cid] for cid in report.cohort]
            replayed += elbo_components(params, cohort, cfg, report.round_index).total
        assert abs(accumulated - replayed) < 1e-10

    def test_rejects_non_fedvi_objective(self, rng):
        ds, _ = toy_task()
        params = init_params(small_arch(input_dim=4), rng)
        with pytest.raises(ValueError):
            elbo_components(params, ds.clients, toy_train_cfg(algorithm="fedavg"), 1)


class TestPacBayesRhs:
    def test_collapses_to_empirical_risk(self):
        assert pacbayes_rhs(1.25, 0.0, eta=3.0, delta=1.0, slack=0.0) == 1.25

    def test_arithmetic(self):
        got = pacbayes_rhs(0.5, kl=2.0, eta=4.0, delta=0.05, slack=0.0)
        assert abs(got - (0.5 + (2.0 + math.log(20.0)) / 4.0)) < 1e-12

    @given(
        eta1=st.floats(0.1, 50),
        eta2=st.floats(0.1, 50),
        kl=st.floats(0, 10),
        slack=st.floats(0, 10),
        delta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_eta_kl_slack_delta(self, eta1, eta2, kl, slack, delta):
        lo, hi = sorted([eta1, eta2])
        assert pacbayes_rhs(1.0, kl, hi, delta, slack) <= pacbayes_rhs(
            1.0, kl, lo, delta, slack
        ) + 1e-12
        assert pacbayes_rhs(1.0, kl + 1, lo, delta, slack) >= pacbayes_rhs(
            1.0, kl, lo, delta, slack
        )
        assert pacbayes_rhs(1.0, kl, lo, delta, slack + 1) >= pacbayes_rhs(
            1.0, kl, lo, delta, slack
        )
        assert pacbayes_rhs(1.0, kl, lo, delta / 2, slack) >= pacbayes_rhs(
            1.0, kl, lo, delta, slack
        )

    def test_large_eta_approaches_empirical_risk_from_above(self):
        values = [pacbayes_rhs(2.0, 1.0, eta, 0.5, 0.3) for eta in (1, 10, 100, 1000)]
        assert all(v >= 2.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_eta_delta(self):
        with pytest.raises(ValueError):
            pacbayes_rhs(0.0, 0.0, eta=0.0, delta=0.5, slack=0.0)
        with pytest.raises(ValueError):
            pacbayes_rhs(0.0, 0.0, eta=1.0, delta=0.0, slack=0.0)


class TestScaledLogMoment:
    def test_zero_gaps_give_exactly_log_inv_delta(self):
        for delta in (1.0, 0.25, 0.05):
            got = scaled_log_moment(np.zeros(1000), delta)
            assert got == math.log(1.0 / delta)

    def test_infinite_gap_warns_and_returns_inf(self):
        with pytest.warns(RuntimeWarning, match="heavy-tailed"):
            out = scaled_log_moment(np.array([0.0, math.inf]), 0.1)
        assert out == math.inf

    def test_nan_gap_is_a_non_finite_error(self):
        # A NaN gap used to give a NaN slack, written to bound.csv with exit 0.
        with pytest.raises(NonFiniteError, match="^slack estimate: 1 of 2 gap samples are NaN$"):
            scaled_log_moment(np.array([math.nan, 1.0]), 0.1)
        with pytest.raises(NonFiniteError, match="1 of 2 gap samples are NaN"):
            scaled_log_moment(np.array([math.inf, math.nan]), 0.1)
        # All -inf gaps used to give a NaN slack with only a numpy warning.
        with pytest.raises(NonFiniteError, match="^slack estimate: 2 of 2 gap samples are -inf$"):
            scaled_log_moment(np.array([-math.inf, -math.inf]), 0.1)

    def test_no_overflow_for_huge_gaps(self):
        out = scaled_log_moment(np.array([5000.0, 4000.0]), 0.5)
        assert math.isfinite(out)
        assert abs(out - (math.log(2.0) + 5000.0 + math.log(0.5 * (1 + math.exp(-1000))))) < 1e-9


class TestEstimateSlack:
    def test_eta_zero_limit_is_log_inv_delta(self):
        ds, task = toy_task()
        rng = substream(33, 0)
        got = estimate_slack(task, generator_prior(task), 1e-12, 0.1, 20, 20, rng)
        assert abs(got - math.log(10.0)) < 1e-6

    def test_estimate_is_finite_and_stable_under_more_samples(self):
        ds, task = toy_task(c=4, n=(200, 200), d=4, k=3, seed=9)
        a = estimate_slack(task, generator_prior(task), 1.0, 0.1, 150, 150, substream(1, 0))
        b = estimate_slack(task, generator_prior(task), 1.0, 0.1, 300, 300, substream(2, 0))
        assert math.isfinite(a) and math.isfinite(b)
        assert abs(a - b) / abs(b) < 0.10

    def test_matches_a_per_hypothesis_log_softmax_reference(self):
        _, task = toy_task()
        prior = generator_prior(task)
        n_hyp, n_draws, eta, delta = 5, 3, 0.7, 0.1
        got = estimate_slack(task, prior, eta, delta, n_hyp, n_draws, substream(6, 0))

        # The same estimate, one hypothesis at a time, on a replay of its stream.
        rng = substream(6, 0)
        cfg = task.cfg
        r_true = np.zeros(n_hyp)
        r_emp = np.zeros((n_hyp, n_draws))
        for k in range(cfg.c):
            n_k = task.n_per_client[k]
            betas = prior.mean + prior.scale * rng.standard_normal((n_hyp, prior.dim))
            x_pool, p_pool = task.draw(k, TRUE_RISK_POINTS_PER_CLIENT, rng)
            x_data, p_data = task.draw(k, n_draws * n_k, rng)
            y_data = sample_labels(p_data, rng)
            for s, beta in enumerate(betas):
                mat = task.theta + beta.reshape(cfg.d, cfg.num_classes)
                r_true[s] += n_k * -(p_pool * log_softmax(x_pool @ mat, axis=1).T).sum(0).mean()
                logp = log_softmax(x_data @ mat, axis=1)[np.arange(y_data.size), y_data]
                r_emp[s] -= logp.reshape(n_draws, n_k).sum(axis=1)
        gaps = eta * (r_true[:, None] - r_emp)
        want = math.log(1 / delta) + logsumexp(gaps) - math.log(gaps.size)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tile", [1, 360, 10**9])
    def test_tile_size_changes_no_bit(self, tile, monkeypatch):
        # Ragged clients (30-40 rows), 7 hypotheses: a tile of 1 cuts them
        # into the smallest slices (3, 2, 2), 360 into slices of 2 to 4, and
        # 10**9 holds all of them for every row of a client.
        _, task = toy_task()
        args = (task, generator_prior(task), 0.7, 0.1, 7, 5)
        want = estimate_slack(*args, substream(8, 0))
        monkeypatch.setattr(bounds, "SLACK_TILE_ELEMENTS", tile)
        assert estimate_slack(*args, substream(8, 0)) == want

    def test_memory_stays_bounded_by_the_tile(self):
        # All of one client's data logits would be 40,000 x 200 x 3 floats
        # (183 MiB); the tiled estimator holds one draw's 200 x 200 x 3.
        _, task = toy_task(c=2, n=(200, 200), d=4, k=3, seed=4)
        tracemalloc.start()
        try:
            estimate_slack(task, generator_prior(task), 1.0, 0.1, 200, 200, substream(3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_pool_memory_stays_bounded_by_the_tile(self):
        # Few rows, many hypotheses: a hypothesis slice sized by the data
        # tile alone would score all 400 on the 2048 pool rows at once
        # (19 MiB of logits); the pool takes slices of its own.
        _, task = toy_task(c=2, n=(10, 12), d=4, k=3, seed=4)
        tracemalloc.start()
        try:
            estimate_slack(task, generator_prior(task), 1.0, 0.1, 400, 50, substream(3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_prior_dimension_checked(self):
        ds, task = toy_task()
        from fedvi.distributions import standard_prior

        with pytest.raises(ValueError):
            estimate_slack(task, standard_prior(3, 1.0), 1.0, 0.1, 5, 5, substream(0, 0))


class TestDrawLogits:
    @pytest.mark.parametrize("batch, draws", [(24, 16), (2, 5), (24, 1)])
    def test_equals_predict_logits_draw_by_draw(self, batch, draws, rng):
        # The audits score all draws in one GEMM; training scores through
        # predict_logits. Each draw's [K x Q] slice is its logits, bit for
        # bit. A batch of 2 leaves one query row.
        arch = ArchConfig(
            input_dim=4, embed_widths=(8, 6), local_dim=2, global_dim=4, num_classes=3,
            posterior_widths=(16, 16),
        )
        params = init_params(arch, rng)
        fwd = forward_batch(params, rng.standard_normal((batch, arch.input_dim)))
        q = fwd.stats.q
        betas = q.mean + q.scale * rng.standard_normal((draws, q.dim))
        got = bounds._draw_logits(
            params, betas, fwd.stats.b_beta, fwd.query_global, fwd.query_local
        )
        assert got.shape == (draws, arch.num_classes, batch - fwd.support_size)
        for beta, logits in zip(betas, got):
            want = predict_logits(
                params, beta, fwd.stats.b_beta, fwd.query_global, fwd.query_local
            )
            assert np.array_equal(logits.T, want)


class TestBoundHoldsCheck:
    def _trained(self, task_seed=17):
        ds, task = toy_task(c=4, n=(60, 80), d=4, k=3, seed=task_seed)
        arch = small_arch(input_dim=4)
        cfg = toy_train_cfg(client_lr=0.002, rounds=5, cohort_size=3, batch_size=16)
        result = run_training(cfg, arch, ds)
        return task, result.state.params

    def test_zero_trials_is_vacuously_one(self):
        task, params = self._trained()
        pb = PacBayesConfig(eta=1.0, delta=0.1, slack_samples=10, posterior_samples=4)
        trials = bound_holds_check(task, params, pb, 0, substream(4, 0))
        assert trials.holding_fraction(pb, slack=1.0) == 1.0

    def test_overestimated_slack_never_lowers_the_fraction(self):
        task, params = self._trained()
        pb = PacBayesConfig(eta=1.0, delta=0.1, slack_samples=10, posterior_samples=4)
        trials = bound_holds_check(task, params, pb, 5, substream(4, 1))
        assert trials.holding_fraction(pb, slack=15.0) >= trials.holding_fraction(pb, slack=5.0)
        base, bumped = trials.rhs_values(pb, slack=5.0), trials.rhs_values(pb, slack=15.0)
        assert all(a <= b for a, b in zip(base, bumped))

    def test_slack_under_the_true_risk_fails_the_check(self):
        # Negative control: the RHS is linear in the slack and the trials'
        # draws do not depend on it, so lowering the slack by eta times the
        # largest margin of RHS over true risk, plus eta, puts every trial's
        # RHS under its true risk.
        task, params = self._trained()
        pb = PacBayesConfig(eta=1.0, delta=0.1, slack_samples=10, posterior_samples=4)
        trials = bound_holds_check(task, params, pb, 5, substream(4, 5))
        assert trials.holding_fraction(pb, slack=5.0) == 1.0
        margin = max(r - t for r, t in zip(trials.rhs_values(pb, slack=5.0), trials.true_risks))
        low = 5.0 - pb.eta * (margin + 1.0)
        assert all(r < t for r, t in zip(trials.rhs_values(pb, low), trials.true_risks))
        assert trials.holding_fraction(pb, low) == 0.0 < 0.95

    def test_details_align_with_rhs(self):
        task, params = self._trained()
        pb = PacBayesConfig(eta=2.0, delta=0.2, slack_samples=10, posterior_samples=4)
        res = bound_holds_check(task, params, pb, 3, substream(4, 2))
        for rhs, emp, kl in zip(res.rhs_values(pb, slack=7.0), res.empirical_risks, res.kl_values):
            want = pacbayes_rhs(emp, kl, pb.eta, pb.delta, 7.0 - math.log(1 / pb.delta))
            assert abs(rhs - want) < 1e-10

    @pytest.mark.parametrize("stage, what", [
        ("client_posterior_audit", "empirical risk"),
        ("embed", "true risk"),
    ])
    def test_nan_risk_names_trial_and_client(self, stage, what, monkeypatch):
        # A NaN risk used to count as a trial where the bound fails. Four
        # clients a trial, so the sixth call is trial 1's client 1.
        task, params = self._trained()
        original = getattr(bounds, stage)
        calls = []

        def poisoned(*args):
            out = original(*args)
            calls.append(stage)
            if len(calls) != 6:
                return out
            if stage == "embed":
                return np.full_like(out, np.nan)
            return out._replace(gibbs_nll=math.nan)

        monkeypatch.setattr(bounds, stage, poisoned)
        pb = PacBayesConfig(eta=1.0, delta=0.1, slack_samples=10, posterior_samples=4)
        with pytest.raises(NonFiniteError, match=f"^trial 1, client 1: {what} is NaN$"):
            bound_holds_check(task, params, pb, 3, substream(4, 4))

    def test_stacked_draws_match_a_per_draw_loop_when_a_class_underflows(self):
        # Class 0's classifier bias is so low that its softmax probability is
        # exactly 0 under every posterior draw, while the generator gives the
        # class positive probability: a log of the mean softmax is -inf there.
        task, params = self._trained()
        params.theta_cls[-1][..., 0] = -2000.0
        draws = 4
        pb = PacBayesConfig(eta=1.0, delta=0.1, slack_samples=10, posterior_samples=draws)
        res = bound_holds_check(task, params, pb, 1, substream(4, 3))
        assert math.isfinite(res.true_risks[0])

        # The same trial, one draw at a time, on a replay of the check's stream.
        rng = substream(4, 3)
        emp = true = 0.0
        for k in range(task.cfg.c):
            x, probs = task.draw(k, task.n_per_client[k], rng)
            y = sample_labels(probs, rng)
            fwd = forward_batch(params, x[:AUDIT_BATCH_SIZE])
            q = fwd.stats.q
            betas = q.mean + q.scale * rng.standard_normal((draws, q.dim))
            y_query = y[fwd.support_size : AUDIT_BATCH_SIZE]
            nll = 0.0
            for beta in betas:
                z = fwd.logits_for(beta)
                nll += -(z[np.arange(y_query.size), y_query] - logsumexp(z, axis=1)).sum()
            emp += nll / draws

            x_eval, p_eval = task.draw(k, math.ceil(10_000 / task.cfg.c), rng)
            g_eval, l_eval = split_features(params.arch, embed(params, x_eval))
            log_probs = []
            for beta in betas:
                z = predict_logits(params, beta, fwd.stats.b_beta, g_eval, l_eval)
                log_probs.append(z - logsumexp(z, axis=1, keepdims=True))
            assert np.all(np.exp(np.array(log_probs))[..., 0] == 0.0)
            assert np.all(p_eval[0] > 0.0)
            log_predictive = logsumexp(np.array(log_probs), axis=0) - math.log(draws)
            true += y_query.size * -(p_eval * log_predictive.T).sum(axis=0).mean()
        assert res.empirical_risks[0] == pytest.approx(emp, rel=1e-12)
        assert res.true_risks[0] == pytest.approx(true, rel=1e-12)
