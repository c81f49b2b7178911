"""Unit tests for the autodiff Tensor engine."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    Tensor,
    as_tensor,
    concat,
    is_grad_enabled,
    no_grad,
    softmax,
    stack,
)


def numerical_gradient(func, value, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        plus = value.copy()
        minus = value.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (func(plus) - func(minus)) / (2 * eps)
        it.iternext()
    return grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = as_tensor(2.5)
        assert t.item() == pytest.approx(2.5)

    def test_detach_drops_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12

    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_needs_scalar_or_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = Tensor([1.0], requires_grad=True) * 2
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_leaf_built_under_no_grad_keeps_its_flag(self):
        with no_grad():
            leaf = Tensor([1.0], requires_grad=True)
        assert leaf.requires_grad

    def test_parameters_built_under_no_grad_train(self):
        with no_grad():
            layer = Linear(3, 2, rng=np.random.default_rng(0))
        before = [p.data.copy() for p in layer.parameters()]
        optimizer = Adam(list(layer.parameters()), lr=0.1)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        optimizer.step()
        for old, param in zip(before, layer.parameters()):
            assert param.requires_grad
            assert not np.array_equal(old, param.data)

    def test_no_grad_outputs_keep_no_parents(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._prev == ()
        assert y._backward is None

    def test_no_grad_intermediates_are_freed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        refs = []

        def expression():
            intermediate = x * 2.0
            refs.append(weakref.ref(intermediate))
            return (intermediate + 1.0).sum()

        with no_grad():
            out = expression()
        gc.collect()
        assert refs[0]() is None
        assert out.data == pytest.approx(9.0)


class TestArithmeticGradients:
    def test_add_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        (2.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_div_gradient(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_rdiv(self):
        a = Tensor([4.0], requires_grad=True)
        (8.0 / a).backward()
        np.testing.assert_allclose(a.grad, [-0.5])

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_broadcast_mul_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [3.0]])

    def test_matmul_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_value = rng.normal(size=(3, 4))
        b_value = rng.normal(size=(4, 2))
        a = Tensor(a_value, requires_grad=True)
        b = Tensor(b_value, requires_grad=True)
        (a @ b).sum().backward()
        num_a = numerical_gradient(lambda v: float((v @ b_value).sum()), a_value)
        num_b = numerical_gradient(lambda v: float((a_value @ v).sum()), b_value)
        np.testing.assert_allclose(a.grad, num_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-6)

    def test_matvec_gradient(self):
        a = Tensor(np.eye(2), requires_grad=True)
        v = Tensor([1.0, 2.0], requires_grad=True)
        (a @ v).sum().backward()
        assert a.grad.shape == (2, 2)
        # d/dv of sum(A v) is A^T 1 = [1, 1] for the identity matrix.
        np.testing.assert_allclose(v.grad, [1.0, 1.0])

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).backward()
        np.testing.assert_allclose(a.grad, [4.0])


class TestActivations:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu", "softplus",
                                      "cosh", "sinh", "abs", "sqrt", "log"])
    def test_unary_gradient_matches_numerical(self, name):
        rng = np.random.default_rng(1)
        value = rng.uniform(0.2, 1.5, size=(3,))
        x = Tensor(value, requires_grad=True)
        getattr(x, name)().sum().backward()
        numerical = numerical_gradient(
            lambda v: float(getattr(Tensor(v), name)().sum().data), value)
        np.testing.assert_allclose(x.grad, numerical, atol=1e-5)

    def test_relu_zeroes_negative(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(x.relu().data, [0.0, 2.0])

    def test_clip(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        y = x.clip(0.0, 1.0)
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))

    def test_max_gradient_goes_to_argmax(self):
        x = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 2.0], [5.0, 0.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_norm(self):
        x = Tensor([3.0, 4.0])
        assert x.norm().item() == pytest.approx(5.0, abs=1e-6)

    def test_norm_gradient_safe_at_zero(self):
        x = Tensor([0.0, 0.0], requires_grad=True)
        x.norm().backward()
        assert np.isfinite(x.grad).all()

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.T
        assert y.shape == (3, 2)
        y.sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_gradient_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestOps:
    def test_concat_gradient_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concat([a, b], axis=0)
        assert out.shape == (3,)
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_stack(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        np.testing.assert_allclose(softmax(x, axis=-1).data.sum(axis=-1), np.ones(4))

    def test_softmax_stable_for_large_values(self):
        x = Tensor([1000.0, 1000.0])
        np.testing.assert_allclose(softmax(x).data, [0.5, 0.5])
