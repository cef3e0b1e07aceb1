from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvi import nn
from fedvi.nn import Tensor
from fedvi.seeding import substream

from conftest import max_rel_err


def matmul_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop affine map, independent of the library path."""
    out = np.zeros((x.shape[0], w.shape[1]))
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            acc = b[j]
            for k in range(x.shape[1]):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc
    return out


class TestDenseForward:
    def test_identity_weight(self):
        out = nn.dense_forward(
            Tensor.const([[1.0, 2.0]]),
            Tensor.const([[1.0, 0.0], [0.0, 1.0]]),
            Tensor.const([0.0, 0.0]),
        )
        assert np.array_equal(out.array, [[1.0, 2.0]])

    def test_single_output(self):
        out = nn.dense_forward(
            Tensor.const([[1.0, 1.0]]),
            Tensor.const([[2.0], [3.0]]),
            Tensor.const([1.0]),
        )
        assert np.array_equal(out.array, [[6.0]])

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 2))
        b = rng.uniform(-1, 1, 2)
        out = nn.dense_forward(Tensor.const(x), Tensor.const(w), Tensor.const(b))
        assert np.max(np.abs(out.array - matmul_oracle(x, w, b))) < 1e-12

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(nn.ShapeMismatchError, match=r"\(2, 3\).*\(4, 2\)"):
            nn.dense_forward(
                Tensor.const(np.zeros((2, 3))),
                Tensor.const(np.zeros((4, 2))),
                Tensor.const(np.zeros(2)),
            )

    def test_linear_in_x_with_zero_bias(self, rng):
        w = Tensor.const(rng.uniform(-1, 1, (4, 3)))
        b = Tensor.const(np.zeros(3))
        x1, x2 = rng.uniform(-1, 1, (2, 2, 4))
        alpha, beta = 0.7, -1.3
        lhs = nn.dense_forward(Tensor.const(alpha * x1 + beta * x2), w, b).array
        rhs = (
            alpha * nn.dense_forward(Tensor.const(x1), w, b).array
            + beta * nn.dense_forward(Tensor.const(x2), w, b).array
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRelu:
    def test_mixed(self):
        assert np.array_equal(
            nn.relu(Tensor.const([-1.0, 0.0, 2.0])).array, [0.0, 0.0, 2.0]
        )

    def test_all_negative(self):
        x = -np.abs(np.linspace(1, 3, 6)).reshape(2, 3)
        assert np.array_equal(nn.relu(Tensor.const(x)).array, np.zeros((2, 3)))

    def test_identity_on_positive(self, rng):
        x = rng.uniform(0.1, 2.0, (3, 3))
        assert np.array_equal(nn.relu(Tensor.const(x)).array, x)


class TestSoftmaxNll:
    def test_uniform_logits(self):
        nll, _ = nn.softmax_nll(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(nll - math.log(2.0)) < 1e-12

    def test_confident_logits(self):
        nll, _ = nn.softmax_nll(np.array([[10.0, -10.0]]), np.array([0]))
        assert abs(nll - math.log1p(math.exp(-20.0))) < 1e-12

    def test_four_way_uniform(self):
        nll, _ = nn.softmax_nll(np.array([[0.0] * 4]), np.array([3]))
        assert abs(nll - math.log(4.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            nn.softmax_nll(np.array([[0.0, 1.0]]), np.array([2]))
        with pytest.raises(IndexError):
            nn.softmax_nll(np.array([[0.0, 1.0]]), np.array([-1]))

    def test_huge_logits_stay_finite(self):
        nll, grad = nn.softmax_nll(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert math.isfinite(nll)
        assert np.all(np.isfinite(grad))

    @given(
        c=st.floats(-50, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_logit_shift_invariance(self, c, seed):
        r = np.random.default_rng(seed)
        logits = r.uniform(-5, 5, (4, 3))
        y = r.integers(0, 3, 4)
        base, _ = nn.softmax_nll(logits, y)
        shifted, _ = nn.softmax_nll(logits + c, y)
        assert abs(base - shifted) < 1e-10

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.uniform(-3, 3, (5, 4))
        y = rng.integers(0, 4, 5)
        _, grad = nn.softmax_nll(logits, y)
        fd = nn.finite_diff_grad(
            lambda: float(nn.softmax_nll(logits, y)[0]), {"logits": logits}, eps=1e-5
        )
        assert max_rel_err(fd["logits"], grad) < 1e-6


class TestBackward:
    def test_sum_of_dense_grad_has_outer_structure(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True, name="W")
        b = Tensor(np.zeros(2), requires_grad=True, name="b")
        grads = nn.backward(nn.total(nn.dense_forward(Tensor.const(x), w, b)))
        # d/dW of sum(xW + b) is the column sums of x broadcast across outputs
        expected = np.repeat(x.sum(axis=0)[:, None], 2, axis=1)
        assert np.max(np.abs(grads["W"] - expected)) < 1e-12
        fd = nn.finite_diff_grad(
            lambda: nn.dense_forward(Tensor.const(x), w, b).array.sum(),
            {"W": w.array},
            eps=1e-5,
        )
        assert max_rel_err(fd["W"], grads["W"]) < 1e-6

    def test_unused_parameter_gets_no_gradient(self, rng):
        used = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True, name="used")
        unused = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True, name="unused")
        grads = nn.backward(nn.total(nn.relu(used)))
        assert unused.name not in grads and set(grads) == {used.name}

    def test_composite_matches_finite_differences(self, rng):
        # graph ops up to the logits, then softmax_nll's explicit gradient
        # as a fused node on top
        x = rng.uniform(-1, 1, (3, 4))
        y = rng.integers(0, 2, 3)
        w1 = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True, name="w1")
        b1 = Tensor(rng.uniform(-0.2, 0.2, 5), requires_grad=True, name="b1")
        w2 = Tensor(rng.uniform(-1, 1, (5, 2)), requires_grad=True, name="w2")
        b2 = Tensor(rng.uniform(-0.2, 0.2, 2), requires_grad=True, name="b2")
        blocks = [w1, b1, w2, b2]

        def forward():
            h = nn.relu(nn.dense_forward(Tensor.const(x), w1, b1))
            logits = nn.dense_forward(h, w2, b2)
            nll, grad = nn.softmax_nll(logits.array, y)
            return nn.fused(nll, [logits], lambda g: [g * grad])

        grads = nn.backward(forward())
        fd = nn.finite_diff_grad(
            lambda: forward().item(), {b.name: b.array for b in blocks}, eps=1e-5
        )
        for block in blocks:
            assert max_rel_err(fd[block.name], grads[block.name]) < 1e-5

    def test_fused_node_feeds_each_parent_its_gradient(self, rng):
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True, name="a")
        b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True, name="b")
        value = float((a.array**2).sum() + np.sin(b.array).sum())

        def grads(g):
            return [g * 2.0 * a.array, g * np.cos(b.array)]

        out = nn.backward(nn.fused(value, [a, b], grads))
        assert np.array_equal(out["a"], 2.0 * a.array)
        assert np.array_equal(out["b"], np.cos(b.array))
        assert set(out) == {"a", "b"}

    def test_backward_twice_is_identical(self, rng):
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True, name="w")
        loss = nn.total(nn.exp(w * 0.3))
        first = {k: v.copy() for k, v in nn.backward(loss).items()}
        second = nn.backward(loss)
        assert np.array_equal(first["w"], second["w"])

    def test_non_scalar_root_rejected(self, rng):
        w = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True, name="w")
        with pytest.raises(nn.ShapeMismatchError):
            nn.backward(nn.relu(w))


class TestFiniteDiff:
    def test_square_at_three(self):
        p = np.array([3.0])
        fd = nn.finite_diff_grad(lambda: float(p[0] ** 2), {"p": p}, eps=1e-4)
        assert abs(fd["p"][0] - 6.0) < 1e-6

    def test_constant_function(self):
        p = np.array([1.0, -2.0, 0.5])
        fd = nn.finite_diff_grad(lambda: 42.0, {"p": p}, eps=1e-4)
        assert np.array_equal(fd["p"], np.zeros(3))

    def test_eps_must_be_positive(self):
        p = np.array([1.0])
        with pytest.raises(ValueError):
            nn.finite_diff_grad(lambda: 0.0, {"p": p}, eps=0.0)


def _op_cases(rng):
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True, name="a")
    b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True, name="b")
    m = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True, name="m")
    pos = Tensor(rng.uniform(0.2, 1.0, (3, 4)), requires_grad=True, name="pos")
    vec = Tensor(rng.uniform(-1, 1, 4), requires_grad=True, name="vec")
    shifted = Tensor(rng.uniform(-1, 1, (3, 4)) + 2.0, requires_grad=True, name="shifted")

    def drop():
        # recreate the generator per call so the mask is frozen across
        # the finite-difference re-evaluations
        return nn.dropout(a, 0.3, np.random.default_rng(7), training=True)

    return [
        ("add", [a, b], lambda: nn.total(a + b)),
        ("add_broadcast", [a, vec], lambda: nn.total(a + vec)),
        ("mul", [a, b], lambda: nn.total(a * b)),
        ("neg", [a], lambda: nn.total(-a)),
        ("matmul", [a, m], lambda: nn.total(nn.matmul(a, m))),
        ("transpose", [a], lambda: nn.total(nn.transpose(a) * 0.5)),
        ("reshape", [a], lambda: nn.total(nn.exp(nn.reshape(a, (4, 3))))),
        ("narrow", [a], lambda: nn.total(nn.exp(nn.narrow(a, 1, 3)))),
        ("row_slice", [a], lambda: nn.total(nn.exp(nn.row_slice(a, 1, 3)))),
        ("relu", [shifted], lambda: nn.total(nn.relu(shifted))),
        ("exp", [a], lambda: nn.total(nn.exp(a))),
        ("log", [pos], lambda: nn.total(nn.log(pos))),
        ("mean_rows", [a], lambda: nn.total(nn.exp(nn.mean_rows(a)))),
        ("dropout", [a], lambda: nn.total(nn.exp(drop()))),
    ]


@pytest.mark.parametrize("case_index", range(14))
def test_published_op_gradients_match_finite_differences(case_index):
    rng = substream(777, case_index)
    name, blocks, build = _op_cases(rng)[case_index]
    grads = nn.backward(build())
    fd = nn.finite_diff_grad(lambda: build().item(), {b.name: b.array for b in blocks}, eps=1e-5)
    for block in blocks:
        err = max_rel_err(fd[block.name], grads.get(block.name, np.zeros(block.shape)))
        assert err < 1e-4, f"{name}/{block.name}: rel err {err}"


class TestNonFiniteError:
    def test_context_reads_outermost_first(self):
        exc = nn.NonFiniteError("minibatch loss contains non-finite entries")
        assert str(exc) == "minibatch loss contains non-finite entries"
        exc.add_context(client=7, batch=2)
        exc.add_context(round=3)
        assert str(exc) == "round 3, client 7, batch 2: minibatch loss contains non-finite entries"
        assert exc.context == {"round": 3, "client": 7, "batch": 2}


class TestTensorInvariants:
    def test_flat_data_matches_shape(self, rng):
        t = Tensor.const(rng.uniform(-1, 1, (3, 5)))
        assert t.data.shape == (15,)
        assert int(np.prod(t.shape)) == t.data.size

    def test_published_ops_preserve_finiteness(self, rng):
        x = Tensor.const(rng.uniform(-1, 1, (4, 4)))
        for out in (nn.relu(x), nn.exp(x), x + x, x * x):
            out.assert_finite()

    def test_dropout_disabled_outside_training(self, rng):
        x = Tensor.const(rng.uniform(-1, 1, (4, 4)))
        out = nn.dropout(x, 0.5, rng, training=False)
        assert out is x
