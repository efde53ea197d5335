"""Tests for the autograd tensor engine (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad
from repro.nn.tensor import is_grad_enabled, zeros


def numeric_grad(fn, x, eps=1e-3):
    """Central-difference gradient of a scalar function of a numpy array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_sub_and_div(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = (a - b) / b
        out.backward()
        assert np.allclose(a.grad, [0.5])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        out = 1.0 - a
        assert np.allclose(out.data, [-1.0])
        out2 = 1.0 / a
        assert np.allclose(out2.data, [0.5])

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a * 2.0 + 1.0).sum().backward()
        assert np.allclose(a.grad, np.full((2, 3), 2.0))


class TestBroadcasting:
    def test_broadcast_add_grad_shapes(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])

    def test_broadcast_keepdims_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((2, 1, 4)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (2, 1, 4)
        assert np.allclose(b.grad, np.full((2, 1, 4), 3.0))


class TestMatmul:
    def test_matmul_2d(self, rng):
        a_np = rng.standard_normal((3, 4)).astype(np.float32)
        b_np = rng.standard_normal((4, 2)).astype(np.float32)
        a = Tensor(a_np, requires_grad=True)
        b = Tensor(b_np, requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b_np.T, atol=1e-5)
        assert np.allclose(b.grad, a_np.T @ np.ones((3, 2)), atol=1e-5)

    def test_matmul_batched(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)).astype(np.float32), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_matmul_broadcast_weights(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        out = a.matmul(w)
        out.sum().backward()
        assert w.grad.shape == (4, 5)


class TestReductionsAndShape:
    def test_sum_axis(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        a.sum(axis=1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full((2, 4), 1.0 / 8))

    def test_var(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        v = a.var()
        assert np.isclose(v.item(), np.var([1.0, 2.0, 3.0]))

    def test_max_backward_distributes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        out = a.reshape(6, 4).transpose()
        assert out.shape == (4, 6)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_getitem_backward(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a[2:4].sum().backward()
        assert np.allclose(a.grad, [0, 0, 1, 1, 0, 0])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["relu", "tanh", "exp"])
    def test_gradcheck_elementwise(self, op, rng):
        x_np = rng.standard_normal(5).astype(np.float64) * 0.5
        x = Tensor(x_np.astype(np.float32), requires_grad=True)
        getattr(x, op)().sum().backward()
        numeric = numeric_grad(lambda arr: float(getattr(Tensor(arr.astype(np.float32)), op)().sum().item()),
                               x_np.copy())
        assert np.allclose(x.grad, numeric, atol=1e-2)

    def test_log(self):
        x = Tensor([1.0, np.e], requires_grad=True)
        x.log().sum().backward()
        assert np.allclose(x.grad, [1.0, 1.0 / np.e], atol=1e-4)

    def test_clip_gradient_mask(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestGraphControl:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_detach(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad

    def test_backward_requires_grad_error(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulation_and_zero(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        (a * 3).backward()
        assert np.allclose(a.grad, [5.0])
        a.zero_grad()
        assert a.grad is None

    def test_frozen_subgraph_not_visited(self):
        """Leaves without requires_grad receive no gradient (freezing semantics)."""
        frozen = Tensor([2.0], requires_grad=False)
        active = Tensor([3.0], requires_grad=True)
        out = frozen * active
        out.backward()
        assert frozen.grad is None
        assert np.allclose(active.grad, [2.0])

    def test_clone_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        a.clone().sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])


class TestCombinators:
    def test_concatenate(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)


class TestConstructors:
    def test_zeros(self):
        assert zeros(2, 3).shape == (2, 3)

    def test_repr_and_len(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert len(t) == 3


# ---------------------------------------------------------------------- #
# Graph lifetime and gradient aliasing (the substrate's acyclic-graph and
# fresh-vs-pass-through rules, see the repro.nn.tensor module docstring)
# ---------------------------------------------------------------------- #
def _registry_model_and_inputs(name):
    from repro.models import WORKLOADS

    rng = np.random.default_rng(0)
    model = WORKLOADS[name].model_factory()
    if WORKLOADS[name].task == "machine_translation":
        tokens = rng.integers(1, 30, size=(2, 6))
        return model, (tokens, tokens[:, ::-1].copy())
    return model, (Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32)),)


class TestGraphLifetime:
    @pytest.mark.parametrize("name", ["resnet56_cifar10", "transformer_tiny_wmt16"])
    def test_graph_is_freed_by_refcount_when_the_loss_is_dropped(self, name):
        import gc
        import weakref

        model, inputs = _registry_model_and_inputs(name)
        captured = []
        handle = next(model.children()).register_forward_hook(lambda _m, _i, out: captured.append(out))
        gc.collect()
        gc.disable()
        try:
            outputs = model(*inputs)
            handle.remove()
            loss = (outputs * outputs).sum()
            assert loss.backward() > 10
            activation = captured.pop()
            assert activation.requires_grad and activation.grad is not None
            alive = [weakref.ref(activation.data), weakref.ref(activation.grad), weakref.ref(loss.data)]
            del activation, outputs, loss
            assert [ref() for ref in alive] == [None, None, None], "a reference cycle keeps the graph alive"
            assert gc.collect() == 0, "the iteration left objects only the cyclic collector can free"
        finally:
            gc.enable()

    def test_no_grad_and_frozen_forwards_attach_no_closure(self):
        model, inputs = _registry_model_and_inputs("resnet56_cifar10")
        captured = []
        for module in model.modules():
            module.register_forward_hook(lambda _m, _i, out: captured.append(out))
        with no_grad():
            model(*inputs)
        model.freeze()
        model(*inputs)
        assert len(captured) > 20
        assert all(out._backward is None and out._prev == () and not out.requires_grad for out in captured)

    def test_backward_twice_accumulates(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.25, -1.0], requires_grad=True)
        product = x * w
        loss = product.sum()
        assert loss.backward() == 4
        assert np.allclose(x.grad, w.data) and np.allclose(w.grad, x.data)
        # Nothing was torn down: the second pass re-seeds the root, adds into
        # the intermediate gradient (now 2) and pushes that to the leaves.
        assert loss.backward() == 4
        assert np.allclose(product.grad, 2.0)
        assert np.allclose(x.grad, 3 * w.data) and np.allclose(w.grad, 3 * x.data)


class TestGradientAliasing:
    @staticmethod
    def _graph(accumulate=None):
        """Fan-out and pass-through ops; returns every tensor of the graph after backward."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        doubled = x + x
        mixed = x.reshape(3, 4) + y.transpose(1, 0).reshape(3, 4) + x.transpose(1, 0)
        joined = concatenate([doubled.reshape(3, 4), mixed, y.clone()], axis=0)
        picked = joined[np.array([0, 0, 5, 8])]
        rows = concatenate([picked.sum(axis=0).reshape(1, 4), picked[1].reshape(1, 4)], axis=0)
        loss = (rows * rows).sum() + (y * 0.5).sum()
        loss.backward()
        return [x, y, doubled, mixed, joined, picked, rows, loss]

    def test_no_two_gradients_share_memory(self):
        tensors = self._graph()
        grads = [t.grad for t in tensors]
        assert all(isinstance(g, np.ndarray) for g in grads)
        for i, first in enumerate(grads):
            for second in grads[i + 1:]:
                assert not np.shares_memory(first, second)

    def test_gradients_equal_the_copy_always_oracle(self, monkeypatch):
        from oracles import nn_reference

        adopted = [t.grad for t in self._graph()]
        monkeypatch.setattr(Tensor, "_accumulate", nn_reference.accumulate)
        copied = [t.grad for t in self._graph()]
        for fresh, reference in zip(adopted, copied):
            assert np.array_equal(fresh, reference) and fresh.strides == reference.strides
