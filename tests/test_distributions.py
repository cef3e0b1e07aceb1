from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedvi import nn
from fedvi.distributions import (
    DiagGaussian,
    glorot_scale,
    kl_diag,
    kl_diag_grad,
    mc_kl_estimate,
    sample_reparam,
    sample_reparam_grad,
    standard_prior,
)
from fedvi.seeding import substream

from conftest import max_rel_err


def scipy_log_ratio(x: np.ndarray, q: DiagGaussian, p: DiagGaussian) -> np.ndarray:
    """Independent log q(x) - log p(x) built on scipy densities."""
    lq = stats.norm.logpdf(x, loc=q.mean, scale=q.scale).sum(axis=1)
    lp = stats.norm.logpdf(x, loc=p.mean, scale=p.scale).sum(axis=1)
    return lq - lp


def mc_with_se(q: DiagGaussian, p: DiagGaussian, n: int, rng) -> tuple[float, float]:
    x = q.mean + q.scale * rng.standard_normal((n, q.dim))
    ratios = scipy_log_ratio(x, q, p)
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(n))


class TestKlDiag:
    def test_identical_distributions(self):
        q = standard_prior(5, 1.0)
        assert abs(kl_diag(q, q).item()) < 1e-12

    def test_unit_mean_shift(self, rng):
        q = DiagGaussian.from_arrays([1.0], [1.0])
        p = DiagGaussian.from_arrays([0.0], [1.0])
        assert abs(kl_diag(q, p).item() - 0.5) < 1e-12
        est = mc_kl_estimate(q, p, 1_000_000, rng)
        assert abs(est - 0.5) < 0.005

    def test_double_scale(self, rng):
        q = DiagGaussian.from_arrays([0.0], [2.0])
        p = DiagGaussian.from_arrays([0.0], [1.0])
        expected = 1.5 - math.log(2.0)
        assert abs(kl_diag(q, p).item() - expected) < 1e-12
        est = mc_kl_estimate(q, p, 1_000_000, rng)
        assert abs(est - expected) < 0.01

    def test_dimension_mismatch(self):
        with pytest.raises(nn.ShapeMismatchError):
            kl_diag(standard_prior(3, 1.0), standard_prior(4, 1.0))

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_factorizes_over_coordinates(self, seed, m):
        r = np.random.default_rng(seed)
        mq, mp = r.uniform(-2, 2, (2, m))
        sq, sp = r.uniform(0.2, 2.0, (2, m))
        joint = kl_diag(
            DiagGaussian.from_arrays(mq, sq), DiagGaussian.from_arrays(mp, sp)
        ).item()
        split = sum(
            kl_diag(
                DiagGaussian.from_arrays(mq[i : i + 1], sq[i : i + 1]),
                DiagGaussian.from_arrays(mp[i : i + 1], sp[i : i + 1]),
            ).item()
            for i in range(m)
        )
        assert abs(joint - split) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        m = int(r.integers(1, 5))
        q = DiagGaussian.from_arrays(r.uniform(-2, 2, m), r.uniform(0.1, 3.0, m))
        p = DiagGaussian.from_arrays(r.uniform(-2, 2, m), r.uniform(0.1, 3.0, m))
        assert kl_diag(q, p).item() >= 0.0

    def test_zero_iff_equal(self, rng):
        mean = rng.uniform(-1, 1, 4)
        scale = rng.uniform(0.3, 1.5, 4)
        same = kl_diag(
            DiagGaussian.from_arrays(mean, scale), DiagGaussian.from_arrays(mean, scale)
        ).item()
        assert abs(same) < 1e-12
        perturbed = kl_diag(
            DiagGaussian.from_arrays(mean + 1e-3, scale),
            DiagGaussian.from_arrays(mean, scale),
        ).item()
        assert perturbed > 1e-8

    def test_matches_mc_within_five_se(self):
        for trial in range(6):
            r = substream(4242, trial)
            m = int(r.integers(1, 5))
            q = DiagGaussian.from_arrays(r.uniform(-1.5, 1.5, m), r.uniform(0.3, 2.0, m))
            p = DiagGaussian.from_arrays(r.uniform(-1.5, 1.5, m), r.uniform(0.3, 2.0, m))
            est, se = mc_with_se(q, p, 200_000, r)
            assert abs(kl_diag(q, p).item() - est) < 5 * se

    def test_gradient_matches_finite_differences(self, rng):
        mean = rng.uniform(-1, 1, 4)
        scale = rng.uniform(0.3, 1.2, 4)
        prior = DiagGaussian.from_arrays(rng.uniform(-0.5, 0.5, 4), rng.uniform(0.5, 1.0, 4))

        def q():
            return DiagGaussian(mean, scale)

        d_mean, d_scale = kl_diag_grad(q(), prior)
        fd = nn.finite_diff_grad(
            lambda: float(kl_diag(q(), prior)), {"mean": mean, "scale": scale}, eps=1e-6
        )
        assert max_rel_err(fd["mean"], d_mean) < 1e-6
        assert max_rel_err(fd["scale"], d_scale) < 1e-6


class TestSampleReparam:
    def test_zero_noise_gives_mean(self, rng):
        q = DiagGaussian.from_arrays(rng.uniform(-2, 2, 5), rng.uniform(0.1, 2, 5))
        out = sample_reparam(q, np.zeros(5))
        assert np.array_equal(out, q.mean)

    def test_standard_gaussian_is_identity(self, rng):
        z = rng.standard_normal(6)
        out = sample_reparam(standard_prior(6, 1.0), z)
        assert np.max(np.abs(out - z)) < 1e-15

    def test_law_of_large_numbers(self, rng):
        q = DiagGaussian.from_arrays([1.5, -2.0], [0.7, 1.3])
        draws = np.stack(
            [sample_reparam(q, rng.standard_normal(2)) for _ in range(100_000)]
        )
        assert np.all(np.abs(draws.mean(0) / q.mean - 1.0) < 0.01)
        assert np.all(np.abs(draws.std(0) / q.scale - 1.0) < 0.01)

    def test_dimension_mismatch(self):
        with pytest.raises(nn.ShapeMismatchError):
            sample_reparam(standard_prior(3, 1.0), np.zeros(4))

    def test_gradients_flow_through_mean_and_scale(self, rng):
        mean = rng.uniform(-1, 1, 3)
        scale = rng.uniform(0.5, 1.5, 3)
        noise = rng.standard_normal(3)
        upstream = rng.uniform(-1, 1, 3)

        def pulled():
            q = DiagGaussian(mean, scale)
            return float(upstream @ sample_reparam(q, noise))

        d_mean, d_scale = sample_reparam_grad(noise, upstream)
        assert np.array_equal(d_mean, upstream)
        assert np.array_equal(d_scale, upstream * noise)
        fd = nn.finite_diff_grad(pulled, {"m": mean, "s": scale}, eps=1e-6)
        assert max_rel_err(fd["m"], d_mean) < 1e-8
        assert max_rel_err(fd["s"], d_scale) < 1e-8


class TestGlorotScale:
    def test_values(self):
        assert abs(glorot_scale(26, 62) - math.sqrt(2.0 / 88.0)) < 1e-15
        assert glorot_scale(1, 1) == 1.0
        assert abs(glorot_scale(26, 100) - math.sqrt(2.0 / 126.0)) < 1e-15

    def test_rejects_bad_fans(self):
        with pytest.raises(ValueError):
            glorot_scale(0, 5)


class TestMcKlEstimate:
    def test_identical_distributions_near_zero(self, rng):
        q = standard_prior(3, 1.0)
        n = 1_000_000
        assert abs(mc_kl_estimate(q, q, n, rng)) < 3.0 / math.sqrt(n)

    def test_single_sample_is_finite(self, rng):
        q = DiagGaussian.from_arrays([1.0], [0.5])
        p = DiagGaussian.from_arrays([0.0], [1.0])
        assert math.isfinite(mc_kl_estimate(q, p, 1, rng))

    def test_rejects_nonpositive_n(self, rng):
        q = standard_prior(2, 1.0)
        with pytest.raises(ValueError):
            mc_kl_estimate(q, q, 0, rng)


class TestDiagGaussianInvariants:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            DiagGaussian.from_arrays([0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(nn.ShapeMismatchError):
            DiagGaussian.from_arrays([0.0, 1.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(nn.NonFiniteError):
            DiagGaussian.from_arrays([np.nan], [1.0])
