"""Dense substrate: float64 tensors and the reverse-pass entry point.

A ``Tensor`` is a bare graph node: its array, its parents and ``grads``,
the hand-derived map from an upstream gradient to one gradient per parent.
:func:`fused` builds every node, and :func:`backward` replays the graph in
reverse, adding up what ``grads`` returns for each parent, to produce exact
gradients for every named leaf reachable from a scalar loss. The model
builds one ``fused`` node per minibatch, or per stack of minibatches, over
one leaf, its flat parameter vector, so the graph is the loss plus that
leaf. :func:`softmax_nll` works on arrays, one batch or a stack of them,
and returns its gradient alongside.

The graph ops (``add`` ... ``dropout``), each one ``fused`` node, remain
only because ``benchmarks/tracing.py`` names them: it counts their calls
in traced runs. The model does not use them.

``finite_diff_grad`` is the independent test oracle for every gradient and
must never share code with the reverse-mode path.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A published value contains NaN or Inf.

    ``context`` says where, outermost first (round, client, batch); callers
    add their part with :meth:`add_context` as the error passes up.
    """

    def __init__(self, what: str) -> None:
        super().__init__(what)
        self.what = what
        self.context: dict[str, object] = {}

    def add_context(self, **where) -> "NonFiniteError":
        self.context = {**where, **self.context}
        return self

    def __str__(self) -> str:
        where = ", ".join(f"{key} {value}" for key, value in self.context.items())
        return f"{where}: {self.what}" if where else self.what


def assert_all_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite entries")


class Tensor:
    """A float64 array plus the graph edges needed for reverse mode.

    ``parents`` is empty and ``grads`` None for leaves; ``grads(g)`` maps
    an upstream gradient to one gradient per parent, in order. ``name``
    names a leaf whose gradient :func:`backward` returns.
    """

    __slots__ = ("array", "parents", "grads", "requires_grad", "name")

    def __init__(
        self,
        array: np.ndarray,
        parents: tuple["Tensor", ...] = (),
        grads: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
        requires_grad: bool = False,
        name: str | None = None,
    ):
        self.array = array
        self.parents = parents
        self.grads = grads
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.shape}")
        return float(self.array.reshape(()))


def fused(
    value,
    parents: Sequence[Tensor],
    grads: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Tensor:
    """One graph node for a function of ``parents`` with a hand-derived
    reverse pass: ``grads(g)`` maps the upstream gradient ``g`` to one
    gradient per parent, in order."""
    array = np.asarray(value, dtype=np.float64)
    if not any(p.requires_grad for p in parents):
        return Tensor(array)
    return Tensor(array, tuple(parents), grads, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    return fused(
        a.array + b.array,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return fused(
        a.array * b.array,
        (a, b),
        lambda g: (_unbroadcast(g * b.array, a.shape), _unbroadcast(g * a.array, b.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return fused(-a.array, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
    return fused(a.array @ b.array, (a, b), lambda g: (g @ b.array.T, a.array.T @ g))


def transpose(a: Tensor) -> Tensor:
    return fused(a.array.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return fused(a.array.reshape(tuple(shape)), (a,), lambda g: (g.reshape(a.shape),))


def _scatter(a: Tensor, index) -> Callable[[np.ndarray], tuple[np.ndarray]]:
    """Reverse pass of ``a.array[index]``: the gradient in place, zeros elsewhere."""

    def grads(g):
        full = np.zeros_like(a.array)
        full[index] = g
        return (full,)

    return grads


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` along the last axis."""
    index = (..., slice(start, stop))
    return fused(a.array[index], (a,), _scatter(a, index))


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` along the first axis."""
    index = slice(start, stop)
    return fused(a.array[index], (a,), _scatter(a, index))


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x); shape preserved."""
    return fused(np.maximum(a.array, 0.0), (a,), lambda g: (g * (a.array > 0.0),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.array)
    return fused(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return fused(np.log(a.array), (a,), lambda g: (g / a.array,))


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0; a [S×m] input becomes an [m] vector."""
    n = a.shape[0]
    return fused(
        a.array.mean(axis=0), (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),)
    )


def total(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return fused(a.array.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def dense_forward(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ W + b`` for x [B×d_in], W [d_in×d_out], b [d_out]."""
    if (
        x.array.ndim != 2
        or W.array.ndim != 2
        or b.array.ndim != 1
        or x.shape[1] != W.shape[0]
        or b.shape[0] != W.shape[1]
    ):
        raise ShapeMismatchError(
            f"dense_forward shapes do not conform: x {x.shape}, W {W.shape}, b {b.shape}"
        )
    return add(matmul(x, W), b)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return fused(a.array * mask, (a,), lambda g: (g * mask,))


def softmax_nll(
    logits: np.ndarray, labels: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Summed negative log-likelihood of integer labels under row softmax,
    and its gradient with respect to the logits (softmax minus one-hot).

    ``logits`` is [..., B, K] and ``labels`` [..., B]; the sum runs over
    the B rows of each leading index, so [B, K] logits give one scalar and
    a stack of them one sum per batch. Uses the log-sum-exp shift, so
    arbitrarily large logits stay stable.

    ``counts`` [...], when given, counts the real rows of each batch, which
    come first; the rest is padding, whose NLL and gradient are zero (its
    labels must still be in range).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ShapeMismatchError(f"softmax_nll expects [..., B, K] logits, got {z.shape}")
    y = np.asarray(labels)
    if y.shape != z.shape[:-1]:
        raise ShapeMismatchError(
            f"softmax_nll labels shape {y.shape} does not match logits {z.shape}"
        )
    k = z.shape[-1]
    if y.size and (y.min() < 0 or y.max() >= k):
        raise IndexError(f"label out of range [0, {k})")
    if counts is not None and (
        np.shape(counts) != y.shape[:-1] or np.min(counts) < 0 or np.max(counts) > y.shape[-1]
    ):
        raise ShapeMismatchError(f"row counts {counts} do not fit labels of shape {y.shape}")
    flat_y = y.reshape(-1).astype(np.intp, copy=False)
    rows = np.arange(flat_y.size)
    shift = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    norm = e.sum(axis=-1)
    picked = shift.reshape(-1, k)[rows, flat_y].reshape(y.shape)
    nll = np.log(norm) - picked
    grad = e / norm[..., None]
    grad.reshape(-1, k)[rows, flat_y] -= 1.0
    if counts is not None:
        real = np.arange(y.shape[-1]) < np.asarray(counts)[..., None]
        nll = np.where(real, nll, 0.0)
        grad = np.where(real[..., None], grad, 0.0)
    return nll.sum(axis=-1), grad


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse-accumulate d(loss)/d(leaf) for every reachable named leaf.

    The loss must be scalar. Gradients are returned by name, as arrays of
    this call that a later call leaves alone; a leaf the loss does not
    reach has no entry. Repeated calls on the same graph give identical
    results.
    """
    if loss.array.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.array)}
    out: dict[str, np.ndarray] = {}
    if not loss.requires_grad:
        return out
    for node in reversed(_topo_order(loss)):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.name is not None:
            out[node.name] = g
        if node.grads is None:
            continue
        for parent, pg in zip(node.parents, node.grads(g)):
            if parent.requires_grad:
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg
    return out


def finite_diff_grad(
    f: Callable[[], float],
    params: Mapping[str, np.ndarray],
    eps: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradient oracle: (f(p+eps) - f(p-eps)) / (2 eps).

    ``params`` maps names to the arrays ``f`` reads (views work, such as
    ``FedVIParams.blocks``); each is perturbed in place one entry at a time
    and restored. ``f`` must be deterministic under fixed noise.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grads: dict[str, np.ndarray] = {}
    for name, arr in params.items():
        g = np.zeros(arr.shape)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + eps
            hi = f()
            arr[i] = orig - eps
            lo = f()
            arr[i] = orig
            g[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads
