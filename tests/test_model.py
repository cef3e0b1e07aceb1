from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvi import nn
from fedvi.distributions import glorot_scale
from fedvi.model import (
    ArchConfig,
    FedVIParams,
    _posterior_backward,
    construct_posterior,
    embed,
    block_shapes,
    forward_batch,
    global_branch_logits,
    global_branch_loss,
    init_params,
    minibatch_loss,
    padded_slots,
    predict_logits,
    split_features,
)
from fedvi.seeding import substream

from conftest import grad_blocks, max_rel_err, small_arch


def zero_params(arch: ArchConfig):
    params = init_params(arch, substream(0, 0))
    for block in params.theta_post:
        block[...] = 0.0
    return params


class TestEmbed:
    def test_zero_parameters_give_zero_representation(self, rng):
        params = init_params(small_arch(), rng)
        for block in params.theta_embed:
            block[...] = 0.0
        out = embed(params, rng.standard_normal((4, 5)))
        assert np.array_equal(out, np.zeros((4, 6)))

    def test_identity_single_layer(self, rng):
        arch = small_arch(input_dim=6, embed_widths=(6,), local_dim=2, global_dim=4)
        params = init_params(arch, rng)
        params.theta_embed[0][...] = np.eye(6)
        params.theta_embed[1][...] = 0.0
        x = rng.standard_normal((3, 6))
        assert np.array_equal(embed(params, x), x)

    def test_matches_manual_composition(self, rng):
        arch = small_arch()
        params = init_params(arch, rng)
        x = rng.standard_normal((4, 5))
        out = embed(params, x)
        w0, b0, w1, b1 = params.theta_embed
        manual = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        assert np.max(np.abs(out - manual)) < 1e-12

    def test_wrong_input_width(self, tiny_params, rng):
        with pytest.raises(nn.ShapeMismatchError):
            embed(tiny_params, rng.standard_normal((3, 9)))


def halves(arch: ArchConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The support and query rows of a batch of ``n`` rows."""
    s = arch.support_size(n)
    return np.arange(s), np.arange(s, n)


class TestSplits:
    def test_half_split_of_256(self, tiny_params, rng):
        support, query = halves(tiny_params.arch, 256)
        assert np.array_equal(support, np.arange(128))
        assert np.array_equal(query, np.arange(128, 256))
        fwd = forward_batch(tiny_params, rng.standard_normal((256, 5)))
        assert fwd.support_size == 128 and fwd.query_local.shape[0] == 128

    def test_floor_rule_on_odd_batch(self, tiny_params):
        support, query = halves(tiny_params.arch, 3)
        assert support.size == 1 and query.size == 2

    def test_minimal_batch(self, tiny_params):
        support, query = halves(tiny_params.arch, 2)
        assert support.size == 1 and query.size == 1

    def test_batch_of_one_rejected(self, tiny_params, rng):
        with pytest.raises(ValueError):
            forward_batch(tiny_params, rng.standard_normal((1, 5)))

    def test_feature_columns(self, rng):
        arch = ArchConfig(
            input_dim=4, embed_widths=(128,), local_dim=26, global_dim=102,
            num_classes=3,
        )
        rep = rng.standard_normal((5, 128))
        feats_global, feats_local = split_features(arch, rep)
        assert np.array_equal(feats_global, rep[:, :102])
        assert np.array_equal(feats_local, rep[:, 102:])
        recombined = np.concatenate([feats_global, feats_local], axis=1)
        assert np.array_equal(recombined, rep)

    def test_two_feature_minimum(self, rng):
        arch = ArchConfig(
            input_dim=4, embed_widths=(2,), local_dim=1, global_dim=1, num_classes=2
        )
        rep = rng.standard_normal((3, 2))
        feats_global, feats_local = split_features(arch, rep)
        assert np.array_equal(feats_global, rep[:, :1])
        assert np.array_equal(feats_local, rep[:, 1:])


# every support fraction ArchConfig accepts; below the least normal float
# no batch can split
FRACTIONS = st.floats(sys.float_info.min, 1.0, exclude_max=True)
BATCH_SIZES = st.integers(1, 64)


class TestSupportRule:
    """``ArchConfig.support_size`` is the one support/query rule; the batch
    cut, the padded layout and the forward pass all follow it."""

    @given(FRACTIONS, BATCH_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_is_the_floor_rule_for_ints_and_arrays(self, fraction, n):
        arch = small_arch(support_fraction=fraction)
        assert arch.support_size(n) == int(fraction * n)
        assert type(arch.support_size(n)) is int
        sizes = np.arange(1, 65)
        got = arch.support_size(sizes)
        assert got.dtype == np.int64
        assert got.tolist() == [int(fraction * m) for m in sizes.tolist()]

    @given(FRACTIONS, st.integers(0, 256), BATCH_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_min_batch_is_the_smallest_split(self, fraction, rows, size):
        arch = small_arch(support_fraction=fraction)
        m = arch.min_batch
        assert arch.support_size(m) >= 1 and m - arch.support_size(m) >= 1
        for n in range(1, 65):
            s = arch.support_size(n)
            assert (s >= 1 and n - s >= 1) == (n >= m), n
        cuts = arch.batch_slices(rows, size)
        assert all(cut.stop - cut.start >= m for cut in cuts)
        assert [cut.start for cut in cuts] == list(range(0, len(cuts) * size, size))

    @given(FRACTIONS, BATCH_SIZES, BATCH_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_padded_slots_place_the_support_rows(self, fraction, a, b):
        arch = small_arch(support_fraction=fraction)
        n, width = min(a, b), max(a, b)
        s = arch.support_size(n)
        slots = padded_slots(arch, n, width)
        below = slots < arch.support_size(width)
        assert below.sum() == s
        assert np.array_equal(below, np.arange(n) < s)
        assert np.unique(slots).size == n and 0 <= slots.min() and slots.max() < width

    @given(FRACTIONS)
    @settings(max_examples=100, deadline=None)
    def test_forward_batch_rejects_a_batch_below_min_batch(self, fraction):
        arch = small_arch(support_fraction=fraction)
        params = zero_params(arch)
        rows = min(arch.min_batch - 1, 64)
        with pytest.raises(ValueError, match="nonempty support and query halves"):
            forward_batch(params, np.zeros((rows, arch.input_dim)))
        if arch.min_batch <= 64:
            fwd = forward_batch(params, np.zeros((arch.min_batch, arch.input_dim)))
            assert fwd.support_size == arch.support_size(arch.min_batch)

    def test_tiny_fractions(self):
        # below 2**-53 a step of one row can leave fraction * rows unchanged
        for fraction in (1e-17, 1e-300, sys.float_info.min):
            arch = small_arch(support_fraction=fraction)
            assert arch.support_size(arch.min_batch) == 1
        with pytest.raises(ValueError, match="normal float"):
            small_arch(support_fraction=sys.float_info.min / 2)


class TestConstructPosterior:
    def test_zero_constructor_sits_at_prior(self, rng):
        arch = small_arch()
        params = zero_params(arch)
        support = rng.standard_normal((6, arch.global_dim))
        stats = construct_posterior(params, support)
        sigma0 = glorot_scale(arch.local_dim, arch.num_classes)
        assert np.array_equal(stats.q.mean, np.zeros(arch.beta_dim))
        assert np.allclose(stats.q.scale, arch.scale_floor + sigma0, atol=0)
        assert np.array_equal(stats.b_beta, np.zeros(arch.num_classes))

    def test_random_init_stays_near_prior(self):
        arch = small_arch()
        sigma0 = arch.prior_scale
        worst_mu, worst_sigma = 0.0, 0.0
        for trial in range(30):
            r = substream(31337, trial)
            params = init_params(arch, r)
            support = r.standard_normal((8, arch.global_dim))
            stats = construct_posterior(params, support)
            worst_mu = max(worst_mu, np.abs(stats.q.mean).max())
            worst_sigma = max(
                worst_sigma, np.abs(stats.q.scale - sigma0).max() / sigma0
            )
        assert worst_mu < 0.05
        assert worst_sigma < 0.05

    def test_duplicating_support_rows_changes_nothing(self, tiny_params, rng):
        arch = tiny_params.arch
        rows = rng.standard_normal((2, arch.global_dim))
        doubled = np.vstack([rows, rows])
        a = construct_posterior(tiny_params, rows)
        b = construct_posterior(tiny_params, doubled)
        # row means of duplicated rows agree up to summation order (~1 ulp)
        assert np.allclose(a.q.mean, b.q.mean, rtol=1e-14, atol=1e-16)
        assert np.allclose(a.q.scale, b.q.scale, rtol=1e-14, atol=0)
        assert np.allclose(a.b_beta, b.b_beta, rtol=1e-14, atol=1e-16)

    def test_scale_floor_is_respected(self, rng):
        arch = small_arch(scale_floor=1e-3)
        params = init_params(arch, rng)
        # drive the log-scale head hard negative
        params.theta_post[-1][...] = -50.0
        support = rng.standard_normal((4, arch.global_dim))
        stats = construct_posterior(params, support)
        assert np.all(stats.q.scale >= arch.scale_floor)

    def test_gradients_reach_the_constructor(self, rng):
        # loss = sum(mu) + sum(sigma) + sum(b_beta), pulled back by hand
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        params = init_params(arch, rng)
        for block in params.theta_post:
            block[...] = rng.uniform(-0.5, 0.5, block.shape)
        support = rng.standard_normal((4, arch.global_dim))

        def total():
            stats = construct_posterior(params, support)
            return float(stats.q.mean.sum() + stats.q.scale.sum() + stats.b_beta.sum())

        acts: list[np.ndarray] = []
        stats = construct_posterior(params, support, acts)
        out = FedVIParams(np.full(arch.num_params, np.nan), arch)
        d_support = _posterior_backward(
            params, stats, acts, np.ones(arch.beta_dim), np.ones(arch.beta_dim),
            np.ones(arch.num_classes), out.theta_post,
        )
        grads = {name: g for name, g in out.blocks.items() if not np.isnan(g).any()}
        post = {name: b for name, b in params.blocks.items() if name.startswith("post.")}
        assert sorted(grads) == sorted(post)
        fd = nn.finite_diff_grad(total, {**post, "support": support}, eps=1e-6)
        for name in post:
            err = max_rel_err(fd[name], grads[name])
            assert err < 1e-6, f"{name}: rel err {err}"
        assert max_rel_err(fd["support"], d_support) < 1e-6

    def test_segments_equal_their_rows_alone(self):
        # the segment mean adds each segment's rows in order and divides by
        # the count, as the row mean does: every segment's posterior is its
        # rows' own, bit for bit
        rng = substream(2026, 7)
        params = randomized_params(small_arch(), rng)
        counts = np.array([3, 2, 8, 2, 5])
        support = rng.standard_normal((counts.sum(), params.arch.global_dim))
        stats = construct_posterior(params, support, counts=counts)
        assert stats.q.mean.shape == (counts.size, params.arch.beta_dim)
        starts = np.cumsum(counts) - counts
        for i, (lo, n) in enumerate(zip(starts, counts)):
            alone = construct_posterior(params, support[lo : lo + n])
            assert np.array_equal(stats.q.mean[i], alone.q.mean)
            assert np.array_equal(stats.q.scale[i], alone.q.scale)
            assert np.array_equal(stats.b_beta[i], alone.b_beta)

    @pytest.mark.parametrize("counts", [[3, 1], [2, 0, 3], [6]])
    def test_segments_must_tile_the_rows(self, tiny_params, rng, counts):
        support = rng.standard_normal((5, tiny_params.arch.global_dim))
        with pytest.raises(nn.ShapeMismatchError, match="do not tile"):
            construct_posterior(tiny_params, support, counts=np.array(counts))


class TestPredictLogits:
    def test_zero_local_branch_reduces_to_global(self, tiny_params, rng):
        arch = tiny_params.arch
        q_global = rng.standard_normal((4, arch.global_dim))
        q_local = rng.standard_normal((4, arch.local_dim))
        logits = predict_logits(
            tiny_params,
            np.zeros(arch.beta_dim),
            np.zeros(arch.num_classes),
            q_global,
            q_local,
        )
        expected = (
            q_global @ tiny_params.theta_cls[0]
            + tiny_params.theta_cls[1]
        )
        assert np.max(np.abs(logits - expected)) < 1e-15

    def test_zero_global_branch_reduces_to_local(self, rng):
        arch = small_arch()
        params = init_params(arch, rng)
        params.theta_cls[0][...] = 0.0
        params.theta_cls[1][...] = 0.0
        beta = rng.standard_normal(arch.beta_dim)
        b_beta = rng.standard_normal(arch.num_classes)
        q_local = rng.standard_normal((3, arch.local_dim))
        logits = predict_logits(
            params, beta, b_beta, np.zeros((3, arch.global_dim)), q_local
        )
        expected = q_local @ beta.reshape(arch.num_classes, arch.local_dim).T + b_beta
        assert np.max(np.abs(logits - expected)) < 1e-15

    def test_matches_naive_loop_oracle(self, tiny_params, rng):
        arch = tiny_params.arch
        beta = rng.standard_normal(arch.beta_dim)
        b_beta = rng.standard_normal(arch.num_classes)
        q_global = rng.standard_normal((3, arch.global_dim))
        q_local = rng.standard_normal((3, arch.local_dim))
        logits = predict_logits(tiny_params, beta, b_beta, q_global, q_local)
        w_cls = tiny_params.theta_cls[0]
        b_cls = tiny_params.theta_cls[1]
        local_mat = beta.reshape(arch.num_classes, arch.local_dim)
        for i in range(3):
            for cls in range(arch.num_classes):
                acc = b_cls[cls] + b_beta[cls]
                for l in range(arch.local_dim):
                    acc += local_mat[cls, l] * q_local[i, l]
                for g in range(arch.global_dim):
                    acc += w_cls[g, cls] * q_global[i, g]
                assert abs(logits[i, cls] - acc) < 1e-12

    def test_row_form_equals_each_batch_alone(self, rng):
        # one weight vector and bias per query row: each batch's rows get
        # its own logits, up to the rounding of einsum against a GEMM
        params = randomized_params(small_arch(), rng)
        arch = params.arch
        sizes = [3, 1, 4]
        beta = rng.standard_normal((len(sizes), arch.beta_dim))
        b_beta = rng.standard_normal((len(sizes), arch.num_classes))
        q_global = rng.standard_normal((sum(sizes), arch.global_dim))
        q_local = rng.standard_normal((sum(sizes), arch.local_dim))
        rows = np.repeat(np.arange(len(sizes)), sizes)
        logits = predict_logits(params, beta[rows], b_beta[rows], q_global, q_local)
        lo = 0
        for i, n in enumerate(sizes):
            want = predict_logits(
                params, beta[i], b_beta[i], q_global[lo : lo + n], q_local[lo : lo + n]
            )
            assert max_rel_err(logits[lo : lo + n], want) < 1e-13
            lo += n

    def test_bad_beta_length(self, tiny_params, rng):
        arch = tiny_params.arch
        with pytest.raises(nn.ShapeMismatchError):
            predict_logits(
                tiny_params,
                np.zeros(arch.beta_dim + 1),
                np.zeros(arch.num_classes),
                rng.standard_normal((2, arch.global_dim)),
                rng.standard_normal((2, arch.local_dim)),
            )


def batch_for(arch: ArchConfig, rng, batch: int = 8):
    x = rng.standard_normal((batch, arch.input_dim))
    y = rng.integers(0, arch.num_classes, batch)
    noise = rng.standard_normal(arch.beta_dim)
    return x, y, noise


class TestMinibatchLoss:
    def test_zero_tau_is_pure_query_nll(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        loss, parts = minibatch_loss(tiny_params, x, y, 0.0, noise)
        assert parts.kl_weight == 0.0
        assert loss.item() == parts.nll

    def test_tiny_tau_contribution_is_negligible(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        loss, parts = minibatch_loss(tiny_params, x, y, 1e-9, noise)
        assert abs(parts.kl) < 1e6
        assert parts.kl_weight * parts.kl < 1e-5 * parts.nll

    def test_decomposition_identity(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        loss, parts = minibatch_loss(tiny_params, x, y, 0.37, noise)
        assert abs(loss.item() - (parts.nll + parts.kl_weight * parts.kl)) < 1e-12

    def test_gradients_match_finite_differences(self):
        # full damping constants and O(1) parameters keep every gradient
        # coordinate well above finite-difference roundoff
        rng = substream(2024, 0)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        params = init_params(arch, rng)
        for block in params.blocks.values():
            block[...] = rng.uniform(-0.5, 0.5, block.shape)
        x, y, noise = batch_for(arch, rng)

        def build():
            loss, _ = minibatch_loss(params, x, y, 0.5, noise)
            return loss

        grads = grad_blocks(params, build())
        fd = nn.finite_diff_grad(lambda: build().item(), params.blocks, eps=1e-5)
        for name in params.blocks:
            err = max_rel_err(fd[name], grads[name])
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_support_labels_are_never_read(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        support, _ = halves(tiny_params.arch, x.shape[0])
        garbled = y.copy()
        garbled[support] = (garbled[support] + 1) % tiny_params.arch.num_classes
        loss_a, parts_a = minibatch_loss(tiny_params, x, y, 0.3, noise)
        loss_b, parts_b = minibatch_loss(tiny_params, x, garbled, 0.3, noise)
        assert loss_a.item() == loss_b.item()
        ga, gb = nn.backward(loss_a), nn.backward(loss_b)
        assert all(np.array_equal(ga[k], gb[k]) for k in ga)

    def test_query_permutation_leaves_loss_unchanged(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        support, query = halves(tiny_params.arch, x.shape[0])
        perm = rng.permutation(query.size)
        x2, y2 = x.copy(), y.copy()
        x2[query] = x[query][perm]
        y2[query] = y[query][perm]
        loss_a, _ = minibatch_loss(tiny_params, x, y, 0.3, noise)
        loss_b, _ = minibatch_loss(tiny_params, x2, y2, 0.3, noise)
        assert abs(loss_a.item() - loss_b.item()) < 1e-10

    def test_support_permutation_leaves_posterior_unchanged(self, tiny_params, rng):
        arch = tiny_params.arch
        x = rng.standard_normal((8, arch.input_dim))
        support, _ = halves(arch, 8)
        x2 = x.copy()
        x2[support] = x[support][rng.permutation(support.size)]
        a = forward_batch(tiny_params, x).stats
        b = forward_batch(tiny_params, x2).stats
        assert np.max(np.abs(a.q.mean - b.q.mean)) < 1e-12
        assert np.max(np.abs(a.q.scale - b.q.scale)) < 1e-12
        assert np.max(np.abs(a.b_beta - b.b_beta)) < 1e-12

    def test_frozen_noise_is_deterministic(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        loss_a, _ = minibatch_loss(tiny_params, x, y, 0.2, noise)
        loss_b, _ = minibatch_loss(tiny_params, x, y, 0.2, noise)
        assert loss_a.item() == loss_b.item()

    def test_negative_tau_rejected(self, tiny_params, rng):
        x, y, noise = batch_for(tiny_params.arch, rng)
        with pytest.raises(ValueError):
            minibatch_loss(tiny_params, x, y, -0.1, noise)


def randomized_params(arch: ArchConfig, rng):
    # O(1) parameters keep every gradient coordinate well above
    # finite-difference roundoff
    params = init_params(arch, rng)
    for block in params.blocks.values():
        block[...] = rng.uniform(-0.5, 0.5, block.shape)
    return params


def fd_errors(params, build) -> tuple[dict, dict[str, float]]:
    """The fused loss's gradients and their rel errors against finite differences."""
    grads = grad_blocks(params, build())
    fd = nn.finite_diff_grad(lambda: build().item(), params.blocks, eps=1e-5)
    errs = {
        name: max_rel_err(fd[name], g) for name, g in grads.items()
    }
    return grads, errs


class TestHandDerivedBackwardEdges:
    @pytest.mark.parametrize("batch", [2, 3])
    def test_one_row_support_half(self, batch):
        rng = substream(2025, batch)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        params = randomized_params(arch, rng)
        x, y, noise = batch_for(arch, rng, batch=batch)
        assert arch.support_size(batch) == 1
        grads, errs = fd_errors(params, lambda: minibatch_loss(params, x, y, 0.5, noise)[0])
        assert len(grads) == len(params.blocks)
        assert max(errs.values()) < 1e-4, errs

    def test_zero_tau_leaves_out_the_kl_gradient(self):
        rng = substream(2025, 10)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        params = randomized_params(arch, rng)
        x, y, noise = batch_for(arch, rng)
        grads, errs = fd_errors(params, lambda: minibatch_loss(params, x, y, 0.0, noise)[0])
        assert max(errs.values()) < 1e-4, errs
        # tau = 0 is exactly the query NLL, so its gradient differs from a
        # small positive tau's only through the KL term
        with_kl = grad_blocks(params, minibatch_loss(params, x, y, 1e-3, noise)[0])
        assert any(not np.array_equal(grads[k], with_kl[k]) for k in grads)

    def test_backward_results_are_not_aliased(self):
        rng = substream(2025, 13)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        params = randomized_params(arch, rng)
        x, y, noise = batch_for(arch, rng)
        first = nn.backward(minibatch_loss(params, x, y, 0.0, noise)[0])
        kept = {k: g.copy() for k, g in first.items()}
        second = nn.backward(minibatch_loss(params, x, y, 0.5, noise)[0])
        assert all(np.array_equal(first[k], kept[k]) for k in kept)
        assert any(not np.array_equal(first[k], second[k]) for k in kept)
        assert set(second) == {"theta"}

    def test_scale_pinned_at_floor(self):
        rng = substream(2025, 11)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0, scale_floor=1e-3)
        params = randomized_params(arch, rng)
        m = arch.beta_dim
        # log-scale outputs of -100 whatever the support: sigma = floor exactly
        params.theta_post[-2][:, m : 2 * m] = 0.0
        params.theta_post[-1][m : 2 * m] = -100.0
        x, y, noise = batch_for(arch, rng)
        stats = forward_batch(params, x).stats
        assert np.all(stats.q.scale == arch.scale_floor)
        grads, errs = fd_errors(params, lambda: minibatch_loss(params, x, y, 0.3, noise)[0])
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert max(errs.values()) < 1e-4, errs

    def test_global_branch_loss(self):
        rng = substream(2025, 12)
        arch = small_arch()
        params = randomized_params(arch, rng)
        x = rng.standard_normal((7, arch.input_dim))
        y = rng.integers(0, arch.num_classes, 7)
        loss, parts = global_branch_loss(params, x, y)
        nll, _ = nn.softmax_nll(global_branch_logits(params, x), y)
        assert loss.item() == parts.nll == nll
        assert parts.kl == 0.0 and parts.kl_weight == 0.0
        grads, errs = fd_errors(params, lambda: global_branch_loss(params, x, y)[0])
        reached = [name for name, g in grads.items() if g.any()]
        assert sorted(reached) == sorted(n for n in params.blocks if not n.startswith("post."))
        assert max(errs.values()) < 1e-4, errs


class TestGlobalBranch:
    def test_uses_only_global_features(self, rng):
        arch = small_arch(input_dim=6, embed_widths=(6,), local_dim=2, global_dim=4)
        params = init_params(arch, rng)
        params.theta_embed[0][...] = np.eye(6)
        params.theta_embed[1][...] = 0.0
        x = rng.standard_normal((3, 6))
        logits = global_branch_logits(params, x)
        expected = (
            x[:, :4] @ params.theta_cls[0] + params.theta_cls[1]
        )
        assert np.max(np.abs(logits - expected)) < 1e-14


class TestFlatLayout:
    def test_blocks_tile_the_vector_in_order(self, tiny_params):
        params = tiny_params
        shapes = block_shapes(params.arch)
        assert list(params.blocks) == list(shapes)
        assert [b.shape for b in params.blocks.values()] == list(shapes.values())
        assert params.flat.shape == (params.arch.num_params,)
        pieces = np.concatenate([b.ravel() for b in params.blocks.values()])
        assert np.array_equal(pieces, params.flat)
        thetas = params.theta_embed + params.theta_post + params.theta_cls
        assert len(thetas) == len(params.blocks)
        assert all(a is b for a, b in zip(thetas, params.blocks.values()))

    @pytest.mark.parametrize("count", [None, 3])
    def test_blocks_are_views(self, tiny_params, count):
        params = tiny_params if count is None else tiny_params.stacked(count)
        for name, block in params.blocks.items():
            before = params.flat.copy()
            block[...] = -7.0
            changed = params.flat != before
            assert changed.sum() == block.size and np.all(params.flat[changed] == -7.0), name

    def test_stacked_rows_copy_the_vector(self, tiny_params):
        stacked = tiny_params.stacked(3)
        assert stacked.flat.shape == (3, tiny_params.arch.num_params)
        assert all(np.array_equal(row, tiny_params.flat) for row in stacked.flat)
        for name, block in stacked.blocks.items():
            assert block.ndim == 3, name
        stacked.rows(slice(1, 2)).flat[...] = 0.0
        assert np.all(stacked.flat[1] == 0.0) and np.array_equal(stacked.flat[0], tiny_params.flat)


class TestArchConfig:
    def test_feature_split_must_cover_representation(self):
        with pytest.raises(ValueError):
            small_arch(local_dim=3)  # 3 + 4 != 6

    def test_posterior_output_width(self):
        arch = small_arch()
        assert arch.posterior_out_dim == (2 * arch.local_dim + 1) * arch.num_classes

    def test_support_fraction_bounds(self):
        with pytest.raises(ValueError):
            small_arch(support_fraction=1.0)

    @pytest.mark.parametrize(
        "field, widths",
        [("embed_widths", (0, 6)), ("posterior_widths", (-2, 4)), ("posterior_widths", (8, 0))],
    )
    def test_layer_widths_must_be_positive(self, field, widths):
        with pytest.raises(ValueError, match=f"^{field}: every width must be >= 1"):
            small_arch(**{field: widths})


def client_row(stacked, row: int):
    """Row ``row`` of stacked parameters as one client's own parameters."""
    return FedVIParams(stacked.flat[row].copy(), stacked.arch)


class TestStackedBatches:
    @pytest.mark.parametrize("loss_fn", ["fedvi", "fedavg"])
    def test_each_row_equals_its_batch_alone(self, loss_fn):
        # rows of stacked parameters that differ, each on its own batch: the
        # stacked loss parts and gradients are those of the 2-D calls, bit
        # for bit, and the fused node's value is the sum of the losses
        rng = substream(2026, 1)
        arch = small_arch()
        params = randomized_params(arch, rng)
        stacked = params.stacked(3)
        for block in stacked.blocks.values():
            block[...] += rng.uniform(-0.1, 0.1, block.shape)
        batches = [batch_for(arch, rng, batch=7) for _ in range(3)]
        x, y, noise = (np.stack(parts) for parts in zip(*batches))
        if loss_fn == "fedvi":
            loss, parts = minibatch_loss(stacked, x, y, 0.3, noise)
        else:
            loss, parts = global_branch_loss(stacked, x, y)
        grads = nn.backward(loss)
        assert loss.item() == parts.loss.sum()
        for row, (xb, yb, nb) in enumerate(batches):
            alone = client_row(stacked, row)
            if loss_fn == "fedvi":
                one_loss, one_parts = minibatch_loss(alone, xb, yb, 0.3, nb)
            else:
                one_loss, one_parts = global_branch_loss(alone, xb, yb)
            one = nn.backward(one_loss)
            assert parts.loss[row] == one_loss.item()
            assert (parts.nll[row], parts.kl[row]) == (one_parts.nll, one_parts.kl)
            assert grads.keys() == one.keys()
            for name, g in one.items():
                assert np.array_equal(grads[name][row].reshape(g.shape), g), name


def padded_stack(arch: ArchConfig, batches, width: int, fedvi: bool = True):
    """Batches (x, y) of at most ``width`` rows as one padded stack, laid
    out as local training lays them out: by ``padded_slots`` for fedvi, in
    the first slots for fedavg; padding holds zeros."""
    x = np.zeros((len(batches), width, arch.input_dim))
    y = np.zeros((len(batches), width), dtype=np.int64)
    for row, (xb, yb) in enumerate(batches):
        slots = padded_slots(arch, yb.size, width) if fedvi else np.arange(yb.size)
        x[row, slots], y[row, slots] = xb, yb
    return x, y, np.array([yb.size for _, yb in batches])


class TestPaddedBatches:
    # a stack at batch size 16 with tails of 2, 5 and 13 rows and a full
    # batch; at support fraction 0.5 the tails' support halves have 1, 2
    # and 6 rows
    WIDTH = 16
    SIZES = (2, 5, 13, 16)

    def setup(self, loss_fn, seed=1):
        rng = substream(2027, seed)
        arch = small_arch(mean_damp=1.0, logscale_damp=1.0)
        stacked = randomized_params(arch, rng).stacked(len(self.SIZES))
        for block in stacked.blocks.values():
            block[...] += rng.uniform(-0.1, 0.1, block.shape)
        batches = [batch_for(arch, rng, batch=size) for size in self.SIZES]
        noise = np.stack([nb for _, _, nb in batches])
        x, y, sizes = padded_stack(
            arch, [(xb, yb) for xb, yb, _ in batches], self.WIDTH, loss_fn == "fedvi"
        )
        return stacked, batches, (x, y, noise, sizes)

    @staticmethod
    def loss(loss_fn, params, x, y, noise, sizes=None, grad=None):
        if loss_fn == "fedvi":
            return minibatch_loss(params, x, y, 0.5, noise, sizes, grad)
        return global_branch_loss(params, x, y, sizes, grad)

    @pytest.mark.parametrize("loss_fn", ["fedvi", "fedavg"])
    def test_gradient_matches_finite_differences(self, loss_fn):
        stacked, _, (x, y, noise, sizes) = self.setup(loss_fn)
        grads, errs = fd_errors(stacked, lambda: self.loss(loss_fn, stacked, x, y, noise, sizes)[0])
        assert len(grads) == len(stacked.blocks)
        assert max(errs.values()) < 1e-4, errs

    @pytest.mark.parametrize("loss_fn", ["fedvi", "fedavg"])
    def test_each_row_equals_its_batch_unpadded(self, loss_fn):
        # loss parts within 1e-12 (padding zeros regroup numpy's pairwise
        # sum over 8 or more rows); the gradient bit for bit, except where
        # the unpadded batch has a one-row support half
        stacked, batches, (x, y, noise, sizes) = self.setup(loss_fn)
        buffer = FedVIParams(np.zeros_like(stacked.flat), stacked.arch)
        loss, parts = self.loss(loss_fn, stacked, x, y, noise, sizes, buffer)
        grad = nn.backward(loss)["theta"]
        assert np.shares_memory(grad, buffer.flat)
        assert loss.item() == parts.loss.sum()
        for row, (xb, yb, nb) in enumerate(batches):
            alone = client_row(stacked, row)
            one_loss, one_parts = self.loss(loss_fn, alone, xb, yb, nb)
            for got, want in [
                (parts.loss[row], one_loss.item()),
                (parts.nll[row], one_parts.nll),
                (parts.kl[row], one_parts.kl),
            ]:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert np.broadcast_to(parts.kl_weight, sizes.shape)[row] == one_parts.kl_weight
            one = nn.backward(one_loss)["theta"]
            if loss_fn == "fedavg" or yb.size >= 4:
                assert np.array_equal(grad[row], one), yb.size
            else:
                assert max_rel_err(grad[row], one) < 1e-12

    @pytest.mark.parametrize("loss_fn", ["fedvi", "fedavg"])
    def test_padding_and_support_labels_change_nothing(self, loss_fn):
        stacked, _, (x, y, noise, sizes) = self.setup(loss_fn)
        loss, parts = self.loss(loss_fn, stacked, x, y, noise, sizes)
        grad = nn.backward(loss)["theta"]
        rng = substream(2027, 2)
        support = int(stacked.arch.support_fraction * self.WIDTH)
        x2, y2 = x.copy(), y.copy()
        for row, size in enumerate(sizes):
            real = padded_slots(stacked.arch, size, self.WIDTH) if loss_fn == "fedvi" else (
                np.arange(size)
            )
            pad = np.setdiff1d(np.arange(self.WIDTH), real)
            x2[row, pad] = rng.standard_normal((pad.size, stacked.arch.input_dim))
            y2[row, pad] = rng.integers(0, stacked.arch.num_classes, pad.size)
            if loss_fn == "fedvi":
                y2[row, :support] = (y2[row, :support] + 1) % stacked.arch.num_classes
        assert np.any(x2 != x) and np.any(y2 != y)
        loss2, parts2 = self.loss(loss_fn, stacked, x2, y2, noise, sizes)
        assert loss2.item() == loss.item()
        assert np.array_equal(parts2.nll, parts.nll) and np.array_equal(parts2.kl, parts.kl)
        assert np.array_equal(nn.backward(loss2)["theta"], grad)

    @pytest.mark.parametrize(
        "loss_fn, bad", [("fedvi", 1), ("fedvi", 17), ("fedavg", -1), ("fedavg", 17)]
    )
    def test_sizes_must_fit_the_stack(self, loss_fn, bad):
        # fedvi needs a support and a query row; the global branch any row
        stacked, _, (x, y, noise, sizes) = self.setup(loss_fn)
        sizes[1] = bad
        with pytest.raises(nn.ShapeMismatchError):
            self.loss(loss_fn, stacked, x, y, noise, sizes)
