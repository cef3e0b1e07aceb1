"""Dense substrate: float64 tensors and the reverse-pass entry point.

A ``Tensor`` is a node in a graph that :func:`backward` replays in reverse
to produce exact gradients for every named leaf reachable from a scalar
loss. The model builds that graph as one :func:`fused` node per minibatch,
or per stack of minibatches, over one leaf, its flat parameter vector: the
node's value is computed on plain arrays and its reverse pass is
hand-derived, so the graph is the loss plus that leaf. :func:`softmax_nll`
works on arrays, one batch or a stack of them, and returns its gradient
alongside.

The one-node-per-op graph ops (``add`` ... ``dropout``) remain because
``benchmarks/tracing.py`` names them: it counts their calls in traced
runs. The model does not use them.

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

    ``parents`` and ``_push`` are empty for leaves. ``_push(grad, sink)``
    propagates an upstream gradient to the parents through ``sink``.
    ``name`` names a leaf whose gradient :func:`backward` returns.
    """

    __slots__ = ("array", "parents", "_push", "requires_grad", "name")

    # Defer mixed ndarray/Tensor arithmetic to the reflected operators below.
    __array_ufunc__ = None

    def __init__(
        self,
        array: np.ndarray,
        parents: tuple["Tensor", ...] = (),
        push: Callable | None = None,
        requires_grad: bool = False,
        name: str | None = None,
    ):
        self.array = array
        self.parents = parents
        self._push = push
        self.requires_grad = requires_grad
        self.name = name

    @staticmethod
    def const(value) -> "Tensor":
        return Tensor(np.asarray(value, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.array.ravel()

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.shape}")
        return float(self.array.reshape(()))

    def assert_finite(self, what: str = "tensor") -> "Tensor":
        assert_all_finite(self.array, what)
        return self

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; floats and ndarrays are coerced to constant leaves.
    def __add__(self, other) -> "Tensor":
        return add(self, _coerce(other))

    def __radd__(self, other) -> "Tensor":
        return add(_coerce(other), self)

    def __sub__(self, other) -> "Tensor":
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other) -> "Tensor":
        return add(_coerce(other), neg(self))

    def __mul__(self, other) -> "Tensor":
        return mul(self, _coerce(other))

    def __rmul__(self, other) -> "Tensor":
        return mul(_coerce(other), self)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, _coerce(other))


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor.const(value)


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


def _node(array: np.ndarray, parents: tuple[Tensor, ...], push: Callable) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(array)
    return Tensor(array, parents=parents, push=push, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.array + b.array

    def push(g, sink):
        sink(a, _unbroadcast(g, a.array.shape))
        sink(b, _unbroadcast(g, b.array.shape))

    return _node(out, (a, b), push)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.array * b.array

    def push(g, sink):
        sink(a, _unbroadcast(g * b.array, a.array.shape))
        sink(b, _unbroadcast(g * a.array, b.array.shape))

    return _node(out, (a, b), push)


def neg(a: Tensor) -> Tensor:
    def push(g, sink):
        sink(a, -g)

    return _node(-a.array, (a,), push)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim != 2 or b.array.ndim != 2 or a.array.shape[1] != b.array.shape[0]:
        raise ShapeMismatchError(
            f"matmul shapes do not conform: {a.array.shape} @ {b.array.shape}"
        )
    out = a.array @ b.array

    def push(g, sink):
        sink(a, g @ b.array.T)
        sink(b, a.array.T @ g)

    return _node(out, (a, b), push)


def transpose(a: Tensor) -> Tensor:
    def push(g, sink):
        sink(a, g.T)

    return _node(a.array.T, (a,), push)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    orig = a.array.shape
    out = a.array.reshape(tuple(shape))

    def push(g, sink):
        sink(a, g.reshape(orig))

    return _node(out, (a,), push)


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` along the last axis."""
    out = a.array[..., start:stop]

    def push(g, sink):
        full = np.zeros_like(a.array)
        full[..., start:stop] = g
        sink(a, full)

    return _node(out, (a,), push)


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` along the first axis."""
    out = a.array[start:stop]

    def push(g, sink):
        full = np.zeros_like(a.array)
        full[start:stop] = g
        sink(a, full)

    return _node(out, (a,), push)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x); shape preserved."""
    out = np.maximum(a.array, 0.0)

    def push(g, sink):
        sink(a, g * (a.array > 0.0))

    return _node(out, (a,), push)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.array)

    def push(g, sink):
        sink(a, g * out)

    return _node(out, (a,), push)


def log(a: Tensor) -> Tensor:
    out = np.log(a.array)

    def push(g, sink):
        sink(a, g / a.array)

    return _node(out, (a,), push)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0; a [S×m] input becomes an [m] vector."""
    n = a.array.shape[0]
    out = a.array.mean(axis=0)

    def push(g, sink):
        sink(a, np.broadcast_to(g / n, a.array.shape).copy())

    return _node(out, (a,), push)


def total(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = np.asarray(a.array.sum())

    def push(g, sink):
        sink(a, np.broadcast_to(g, a.array.shape).copy())

    return _node(out, (a,), push)


def dense_forward(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ W + b`` for x [B×d_in], W [d_in×d_out], b [d_out]."""
    if (
        x.array.ndim != 2
        or W.array.ndim != 2
        or b.array.ndim != 1
        or x.array.shape[1] != W.array.shape[0]
        or b.array.shape[0] != W.array.shape[1]
    ):
        raise ShapeMismatchError(
            f"dense_forward shapes do not conform: x {x.array.shape}, "
            f"W {W.array.shape}, b {b.array.shape}"
        )
    return add(matmul(x, W), b)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(a.array.shape) >= rate) / (1.0 - rate)
    out = a.array * mask

    def push(g, sink):
        sink(a, g * mask)

    return _node(out, (a,), push)


def softmax_nll(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed negative log-likelihood of integer labels under row softmax,
    and its gradient with respect to the logits (softmax minus one-hot).

    ``logits`` is [..., B, K] and ``labels`` [..., B]; the sum runs over
    the B rows of each leading index, so [B, K] logits give one scalar and
    a stack of them one sum per batch. Uses the log-sum-exp shift, so
    arbitrarily large logits stay stable.
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
    flat_y = y.reshape(-1).astype(np.intp, copy=False)
    rows = np.arange(flat_y.size)
    shift = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    norm = e.sum(axis=-1)
    picked = shift.reshape(-1, k)[rows, flat_y].reshape(y.shape)
    nll = (np.log(norm) - picked).sum(axis=-1)
    grad = e / norm[..., None]
    grad.reshape(-1, k)[rows, flat_y] -= 1.0
    return nll, grad


def fused(
    value,
    parents: Sequence[Tensor],
    grads: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Tensor:
    """One graph node for a function of ``parents`` with a hand-derived
    reverse pass: ``grads(g)`` maps the upstream gradient ``g`` to one
    gradient per parent, in order."""

    def push(g, sink):
        for parent, grad in zip(parents, grads(g)):
            sink(parent, grad)

    return _node(np.asarray(value, dtype=np.float64), tuple(parents), push)


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

    def sink(node: Tensor, g: np.ndarray) -> None:
        if not node.requires_grad:
            return
        key = id(node)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    for node in reversed(_topo_order(loss)):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.name is not None:
            out[node.name] = g
        if node._push is not None:
            node._push(g, sink)
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
