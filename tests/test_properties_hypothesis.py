"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sp_loss
from repro.core.plasticity import (
    PlasticityTracker,
    moving_average,
    similarity_matrix,
    windowed_slope,
)
from repro.core.queues import SPSCQueue
from repro.core.modules import LayerModule
from repro.data import DataLoader, make_dataset
from repro.experiments import available_workloads, build_workload
from repro.nn import Tensor
from repro.nn.tensor import _unbroadcast
from repro.quantization import INT8, fake_quantize
from repro.sim.cost_model import CostModel, GPUSpec


# --------------------------------------------------------------------------- #
# Autograd invariants
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_unbroadcast_restores_shape(rows, cols):
    grad = np.ones((rows, cols), dtype=np.float32)
    assert _unbroadcast(grad, (1, cols)).shape == (1, cols)
    assert _unbroadcast(grad, (cols,)).shape == (cols,)
    assert np.allclose(_unbroadcast(grad, (1, cols)), rows)


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=20))
@settings(max_examples=30, deadline=None)
def test_sum_gradient_is_all_ones(values):
    x = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, 1.0)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_matmul_grad_shapes_match_operands(n, m):
    rng = np.random.default_rng(n * 13 + m)
    a = Tensor(rng.standard_normal((n, m)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((m, 3)).astype(np.float32), requires_grad=True)
    (a @ b).sum().backward()
    assert a.grad.shape == a.shape and b.grad.shape == b.shape


# --------------------------------------------------------------------------- #
# Plasticity invariants
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_similarity_matrix_rows_unit_norm(batch):
    rng = np.random.default_rng(batch)
    activation = rng.standard_normal((batch, 7)).astype(np.float32) + 0.1
    g = similarity_matrix(activation)
    assert g.shape == (batch, batch)
    norms = np.linalg.norm(g, axis=1)
    assert np.all(norms <= 1.0 + 1e-5)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_moving_average_bounded_by_extremes(values, window):
    avg = moving_average(values, window)
    assert min(values) - 1e-6 <= avg <= max(values) + 1e-6


@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.integers(min_value=3, max_value=15))
@settings(max_examples=30, deadline=None)
def test_windowed_slope_recovers_linear_trend(slope, intercept, length)  :
    series = [intercept + slope * i for i in range(length)]
    assert abs(windowed_slope(series, window=length) - slope) < 1e-6


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_tracker_smoothed_history_grows_with_records(values):
    tracker = PlasticityTracker(window=5)
    for i, value in enumerate(values):
        tracker.record(value, iteration=i)
    assert len(tracker.smoothed_history) == len(values)
    assert all(np.isfinite(v) for v in tracker.smoothed_history)


# --------------------------------------------------------------------------- #
# Queue and cost-model invariants
# --------------------------------------------------------------------------- #
@given(st.lists(st.integers(), min_size=0, max_size=50), st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_queue_never_exceeds_capacity_and_preserves_order(items, maxsize):
    queue = SPSCQueue(maxsize=maxsize)
    accepted = [item for item in items if queue.put(item)]
    assert len(queue) <= maxsize
    drained = []
    while not queue.empty():
        drained.append(queue.get())
    assert drained == accepted[: len(drained)]
    assert queue.put_count + queue.dropped == len(items)


def _synthetic_modules(param_counts):
    from repro import nn

    modules = []
    for index, count in enumerate(param_counts):
        layer = nn.Linear(1, count)
        modules.append(LayerModule(name=f"m{index}", paths=[f"m{index}"], blocks=[layer],
                                   num_params=sum(p.size for p in layer.parameters()), index=index))
    return modules


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6))
@settings(max_examples=20, deadline=None)
def test_cost_model_monotone_in_frozen_prefix(param_counts):
    modules = _synthetic_modules(param_counts)
    cost = CostModel(modules, batch_size=4, gpu=GPUSpec())
    times = [cost.iteration(k, cached_fp=False, include_reference_overhead=False).total
             for k in range(len(modules) + 1)]
    assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(times, times[1:]))


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=15, deadline=None)
def test_quantization_preserves_sign(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(64).astype(np.float32) * seed
    quantized = fake_quantize(x, INT8)
    big = np.abs(x) > np.abs(x).max() * 0.1
    assert np.all(np.sign(quantized[big]) == np.sign(x[big]))


# --------------------------------------------------------------------------- #
# state_dict round-trip across every workload's model (checkpoint correctness)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload_name", available_workloads())
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=3, deadline=None)
def test_model_state_dict_roundtrip_exact(workload_name, seed):
    """Arbitrary perturbed states load back bit-exactly into a twin model.

    This is the foundation of the checkpoint subsystem's bit-exact resume:
    ``load_state_dict(state_dict())`` must be the identity for every model
    a workload trains, including buffers (BatchNorm statistics).
    """
    workload = build_workload(workload_name, scale="tiny")
    model = workload.make_model()
    rng = np.random.default_rng(seed)
    perturbed = {key: (value + rng.standard_normal(value.shape).astype(value.dtype)
                       if np.issubdtype(value.dtype, np.floating) else value)
                 for key, value in model.state_dict().items()}

    twin = workload.make_model()
    twin.load_state_dict(perturbed)
    roundtripped = twin.state_dict()
    assert set(roundtripped) == set(perturbed)
    for key, value in perturbed.items():
        assert np.array_equal(roundtripped[key], np.asarray(value, dtype=roundtripped[key].dtype)), key


# --------------------------------------------------------------------------- #
# Data loader invariants
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=8, max_value=64), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=15, deadline=None)
def test_loader_epoch_is_permutation_prefix(num_samples, batch_size, epoch)  :
    dataset = make_dataset("synthetic_cifar10", num_samples=num_samples, num_classes=2,
                           image_size=8, seed=0)
    loader = DataLoader(dataset, batch_size=batch_size, seed=1)
    loader.set_epoch(epoch)
    seen = []
    while True:
        batch = loader.next_batch()
        if batch is None:
            break
        seen.extend(int(i) for i in batch.indices)
    assert len(seen) == len(set(seen))
    assert set(seen) <= set(range(num_samples))
