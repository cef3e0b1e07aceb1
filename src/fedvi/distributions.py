"""Diagonal Gaussians: closed-form KL, reparameterized sampling, priors.

Scales are standard deviations, not variances. Everything works on plain
float64 arrays; ``kl_diag_grad`` and ``sample_reparam_grad`` are the
hand-derived gradients the model's reverse pass uses. ``mc_kl_estimate`` is
the independent Monte-Carlo oracle for ``kl_diag`` and deliberately shares
no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DiagGaussian:
    """Mean/scale vectors of an axis-aligned Gaussian, checked finite and
    (scale) strictly positive on construction."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        m, s = self.mean, self.scale
        if m.ndim != 1 or s.ndim != 1 or m.shape != s.shape:
            raise nn.ShapeMismatchError(
                f"DiagGaussian mean {m.shape} and scale {s.shape} must be equal-length vectors"
            )
        nn.assert_all_finite(m, "DiagGaussian mean")
        nn.assert_all_finite(s, "DiagGaussian scale")
        if (s <= 0.0).any():
            raise ValueError("DiagGaussian scale must be strictly positive")

    @staticmethod
    def from_arrays(mean, scale) -> "DiagGaussian":
        return DiagGaussian(
            np.asarray(mean, dtype=np.float64), np.asarray(scale, dtype=np.float64)
        )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def mean_array(self) -> np.ndarray:
        return self.mean

    def scale_array(self) -> np.ndarray:
        return self.scale


def standard_prior(dim: int, scale: float) -> DiagGaussian:
    """N(0, scale^2 I)."""
    return DiagGaussian(np.zeros(dim), np.full(dim, float(scale)))


def _check_dims(q: DiagGaussian, p: DiagGaussian) -> None:
    if q.dim != p.dim:
        raise nn.ShapeMismatchError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> np.float64:
    """Closed-form KL(q || p).

    Per coordinate: log(sp/sq) + (sq^2 + (mq-mp)^2) / (2 sp^2) - 1/2.
    """
    _check_dims(q, p)
    inv_two_var_p = 1.0 / (2.0 * p.scale**2)
    dmean = q.mean - p.mean
    per_coord = (
        (np.log(p.scale) - np.log(q.scale))
        + (q.scale * q.scale + dmean * dmean) * inv_two_var_p
        - 0.5
    )
    return per_coord.sum()


def kl_diag_grad(q: DiagGaussian, p: DiagGaussian) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``kl_diag(q, p)`` with respect to (q.mean, q.scale):
    (mq - mp) / sp^2 and sq / sp^2 - 1 / sq."""
    _check_dims(q, p)
    inv_var_p = 1.0 / p.scale**2
    return (q.mean - p.mean) * inv_var_p, q.scale * inv_var_p - 1.0 / q.scale


def sample_reparam(q: DiagGaussian, noise) -> np.ndarray:
    """mean + scale * noise.

    ``noise`` must be drawn externally from a standard normal so runs stay
    reproducible.
    """
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != (q.dim,):
        raise nn.ShapeMismatchError(
            f"noise shape {eps.shape} does not match distribution dim {q.dim}"
        )
    return q.mean + q.scale * eps


def sample_reparam_grad(noise: np.ndarray, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull ``upstream`` (the gradient at the sample) back to (mean, scale)."""
    return upstream, upstream * noise


def glorot_scale(fan_in: int, fan_out: int) -> float:
    """sqrt(2 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    return math.sqrt(2.0 / (fan_in + fan_out))


def _log_density(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    z = (x - mean) / scale
    return -0.5 * (z * z + 2.0 * np.log(scale) + _LOG_2PI).sum(axis=-1)


def mc_kl_estimate(
    q: DiagGaussian, p: DiagGaussian, n: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo KL oracle: mean of log q(x) - log p(x) over n q-samples."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q.dim != p.dim:
        raise nn.ShapeMismatchError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    mq, sq = q.mean, q.scale
    mp, sp = p.mean, p.scale
    acc = 0.0
    chunk = 200_000
    done = 0
    while done < n:
        m = min(chunk, n - done)
        x = mq + sq * rng.standard_normal((m, q.dim))
        acc += float((_log_density(x, mq, sq) - _log_density(x, mp, sp)).sum())
        done += m
    return acc / n
