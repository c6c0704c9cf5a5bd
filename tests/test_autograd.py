"""Gradient correctness of the autograd engine (numeric checks +
hypothesis property tests)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, as_tensor, is_grad_enabled, no_grad
from repro.nn import functional as F


def numeric_grad(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x0, dtype=np.float64)
    for idx in np.ndindex(*x0.shape):
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (fn(Tensor(xp)).item() - fn(Tensor(xm)).item()) / (2 * eps)
    return grad


def check_grad(fn, x0: np.ndarray, atol: float = 1e-5) -> None:
    x = Tensor(x0.copy(), requires_grad=True)
    fn(x).backward()
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, numeric_grad(fn, x0), atol=atol)


SAFE = arrays(np.float64, (3, 2),
              elements=st.floats(-2.0, 2.0, allow_nan=False, width=64))


class TestElementwiseGradients:
    def test_add(self, rng):
        check_grad(lambda x: (x + 2.5).sum(), rng.standard_normal((4, 3)))

    def test_mul(self, rng):
        other = rng.standard_normal((4, 3))
        check_grad(lambda x: (x * other).sum(), rng.standard_normal((4, 3)))

    def test_sub_and_neg(self, rng):
        check_grad(lambda x: (3.0 - x - x).sum(), rng.standard_normal((2, 5)))

    def test_div(self, rng):
        denom = rng.standard_normal((3, 3)) + 4.0
        check_grad(lambda x: (x / denom).sum(), rng.standard_normal((3, 3)))

    def test_rdiv(self, rng):
        x0 = rng.uniform(1.0, 2.0, size=(3, 3))
        check_grad(lambda x: (1.0 / x).sum(), x0)

    def test_pow(self, rng):
        check_grad(lambda x: (x**3).sum(), rng.standard_normal((3, 3)))

    def test_exp_log(self, rng):
        x0 = rng.uniform(0.5, 2.0, size=(4, 2))
        check_grad(lambda x: x.exp().sum(), x0)
        check_grad(lambda x: x.log().sum(), x0)

    def test_tanh_sigmoid_sqrt_abs(self, rng):
        x0 = rng.uniform(0.2, 1.5, size=(3, 3))
        check_grad(lambda x: x.tanh().sum(), x0)
        check_grad(lambda x: x.sigmoid().sum(), x0)
        check_grad(lambda x: x.sqrt().sum(), x0)
        check_grad(lambda x: x.abs().sum(), x0)

    def test_relu(self, rng):
        x0 = rng.standard_normal((4, 4)) + 0.05  # keep away from the kink
        check_grad(lambda x: x.relu().sum(), x0)

    def test_clip_gradient_zero_outside(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestBroadcasting:
    def test_bias_broadcast(self, rng):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 3)))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))

    def test_scalar_broadcast(self, rng):
        s = Tensor(np.array(2.0), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 4)))
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, x.data.sum())

    def test_row_broadcast_mul(self, rng):
        row = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        x = rng.standard_normal((3, 4))
        (Tensor(x) * row).sum().backward()
        np.testing.assert_allclose(row.grad, x.sum(axis=0, keepdims=True))


class TestMatmul:
    def test_matmul_both_sides(self, rng):
        a0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal((3, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 2)) @ b0.T)
        np.testing.assert_allclose(b.grad, a0.T @ np.ones((4, 2)))

    def test_vector_matmul(self, rng):
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2)))
        (v @ m).sum().backward()
        np.testing.assert_allclose(v.grad, m.data.sum(axis=1))


class TestReductionsAndShape:
    def test_sum_axis(self, rng):
        check_grad(lambda x: x.sum(axis=0).sum(), rng.standard_normal((3, 4)))
        check_grad(lambda x: x.sum(axis=1, keepdims=True).sum(), rng.standard_normal((3, 4)))

    def test_mean(self, rng):
        x0 = rng.standard_normal((4, 5))
        check_grad(lambda x: x.mean(), x0)
        check_grad(lambda x: x.mean(axis=1).sum(), x0)

    def test_max(self, rng):
        x0 = rng.standard_normal((3, 6))
        check_grad(lambda x: x.max(axis=1).sum(), x0)

    def test_reshape(self, rng):
        check_grad(lambda x: (x.reshape(6) ** 2).sum(), rng.standard_normal((2, 3)))

    def test_transpose(self, rng):
        w = rng.standard_normal((3, 2))
        check_grad(lambda x: (x.T @ Tensor(w)).sum(), rng.standard_normal((3, 4)))

    def test_getitem(self, rng):
        check_grad(lambda x: (x[0:2, 1] ** 2).sum(), rng.standard_normal((4, 3)))

    def test_getitem_fancy_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])


class TestFunctional:
    def test_minimum_maximum(self, rng):
        x0 = rng.standard_normal((4, 3))
        other = rng.standard_normal((4, 3))
        check_grad(lambda x: F.minimum(x, other).sum(), x0)
        check_grad(lambda x: F.maximum(x * 2.0, other).sum(), x0)

    def test_where(self, rng):
        x0 = rng.standard_normal((5, 2))
        cond = x0 > 0
        check_grad(lambda x: F.where(cond, x**2, x * 3.0).sum(), x0)

    def test_concatenate(self, rng):
        x0 = rng.standard_normal((3, 2))
        check_grad(lambda x: F.concatenate([x, x * 2.0], axis=0).sum(), x0)
        check_grad(lambda x: F.concatenate([x, x.tanh()], axis=1).sum(), x0)

    def test_stack(self, rng):
        x0 = rng.standard_normal((3,))
        check_grad(lambda x: (F.stack([x, x * 3.0], axis=0) ** 2).sum(), x0)

    def test_logsumexp_matches_numpy(self, rng):
        x0 = rng.standard_normal((4, 6))
        out = F.logsumexp(Tensor(x0), axis=-1)
        expected = np.log(np.exp(x0).sum(axis=-1))
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_logsumexp_grad(self, rng):
        check_grad(lambda x: F.logsumexp(x, axis=-1).sum(), rng.standard_normal((3, 4)))

    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(Tensor(rng.standard_normal((5, 7))), axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_mse_and_huber(self, rng):
        x0 = rng.standard_normal((6,))
        target = rng.standard_normal((6,))
        check_grad(lambda x: F.mse_loss(x, target), x0)
        check_grad(lambda x: F.huber_loss(x * 3.0, target), x0, atol=1e-4)


class TestEngineMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_out_of_order_exit(self):
        """Enter A, enter B, exit A, exit B must re-enable grad mode."""
        a, b = no_grad(), no_grad()
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        assert not is_grad_enabled()  # B is still open
        b.__exit__(None, None, None)
        assert is_grad_enabled()
        x = Tensor(np.ones(2), requires_grad=True)
        assert (x * 2.0).requires_grad

    def test_no_grad_is_thread_local(self):
        """Two threads interleaving scopes see only their own grad mode."""
        import threading

        steps = [threading.Event() for _ in range(4)]
        seen: dict[str, bool] = {}

        def worker_a():
            with no_grad():
                steps[0].set()
                steps[1].wait(5)
                seen["a_inside"] = is_grad_enabled()
            steps[2].set()

        def worker_b():
            steps[0].wait(5)
            seen["b_before"] = is_grad_enabled()  # A's scope is open
            with no_grad():
                steps[1].set()
                steps[2].wait(5)  # A exits while B's scope is open
                seen["b_inside"] = is_grad_enabled()
            seen["b_after"] = is_grad_enabled()
            steps[3].set()

        threads = [threading.Thread(target=worker_a), threading.Thread(target=worker_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert steps[3].is_set()
        assert seen == {"a_inside": False, "b_before": True,
                        "b_inside": False, "b_after": True}
        assert is_grad_enabled()  # the main thread never entered a scope

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 3.0
        y.backward()
        y2 = x * 3.0
        y2.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a * b).sum().backward()  # d/dx 12x^2 = 24x
        np.testing.assert_allclose(x.grad, [48.0])

    def test_reuse_node_multiple_consumers(self, rng):
        x0 = rng.standard_normal((3, 3))
        check_grad(lambda x: (x.tanh() * x.tanh()).sum(), x0)

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = (x * 2.0).detach() * 5.0
        assert not y.requires_grad

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0, 2.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0]), Tensor)


@settings(max_examples=30, deadline=None)
@given(SAFE)
def test_property_tanh_chain_grad(x0):
    x = Tensor(x0, requires_grad=True)
    (x.tanh() * 2.0 + x**2).sum().backward()
    expected = (1.0 - np.tanh(x0) ** 2) * 2.0 + 2.0 * x0
    np.testing.assert_allclose(x.grad, expected, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(SAFE, SAFE)
def test_property_min_plus_max_equals_sum(a, b):
    total = F.minimum(Tensor(a), Tensor(b)) + F.maximum(Tensor(a), Tensor(b))
    np.testing.assert_allclose(total.data, a + b, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(SAFE)
def test_property_softmax_invariant_to_shift(x0):
    p1 = F.softmax(Tensor(x0), axis=-1).data
    p2 = F.softmax(Tensor(x0 + 100.0), axis=-1).data
    np.testing.assert_allclose(p1, p2, atol=1e-10)
