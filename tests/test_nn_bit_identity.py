"""The ``nn`` substrate reproduces its reference formulation bit for bit, layouts included.

Training here is chaotic in a single ulp (one different conv contraction
moves a final loss outside ``bench/golden.json``'s tolerance) and numpy
reduces in stride order, so "same result" means ``np.array_equal`` values *and*
equal ``.strides``: BatchNorm sums the conv output in memory order and the
slab cache stores activation rows in memory order.  The reference
(``tests/oracles/nn_reference.py``) has one row per production op:

* ``conv2d`` / ``max_pool2d`` — im2col +
  ``einsum(optimize=True)``; ``accumulate`` — the copy-always gradient
  accumulation.  Every conv case runs each layout of ``x``, ``weight`` and
  the upstream gradient under every trainable/frozen combination of ``x``,
  ``weight`` and ``bias`` but all frozen;
* ``linear`` / ``softmax`` / ``layer_norm`` / ``batch_norm`` (both modes) —
  the composites of primitive ``Tensor`` ops that production computes as one
  graph node each, replaying the composite's numpy calls in its
  reverse-topological order.  Their op-level cases draw every memory layout of
  ``x`` and of the upstream gradient, every trainable/frozen combination of
  ``x``, ``weight`` and ``bias``, and a residual consumer of ``x`` whose
  gradient arrives before or after the op's four (``x.grad`` sums them in
  graph order).  Train-mode ``batch_norm`` also moves the running buffers,
  held to ``np.mean`` / ``np.var``, also over several steps at counts (63,
  50, 45, 7) that are no power of two, where dividing by the count and
  multiplying by its inverse round differently.  Both normalisations also
  run at the models' own shapes, which the drawn sides (1-5) never reach,
  and ``batch_norm`` at those four;
* ReLU's input gradient against its boolean-mask form ``(data > 0) * grad``,
  bit patterns (signed zeros, NaN) included, over every layout of the input
  and of the gradient;
* ``attention`` — ``MultiHeadAttention``'s core between its projections, one
  node in production.  Its cases draw every layout of the three inputs and of
  the upstream gradient, ``s_q != s_k``, no mask / a causal mask / a padding
  mask, no dropout or a seeded ``Dropout`` with ``p`` 0 or 0.3 in train and
  eval mode, every trainable/frozen combination, and three ways to make
  ``q``, ``k``, ``v``: separate tensors, three projections of one input
  (whose gradients must arrive in the composite's order), or one tensor
  passed three times — each with a residual consumer.

The two-epoch trajectories also train with the per-tensor optimizers of
``tests/oracles/optim_reference.py`` (their own suite is
``tests/test_optim_flat.py``).

Strides are compared on axes longer than 1 (a length-1 axis never addresses
memory, and numpy reports whatever the last reshape left there).  Bit-identity
holds whenever the batch, the patch size ``c_in * k * k`` and ``c_out`` all
exceed 1; einsum drops length-1 indices before lowering and then hands BLAS
differently transposed operands, so those degenerate shapes only agree to
float32 rounding.  The fused ops are bit-identical on every shape.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import nn_reference, optim_reference

from repro.experiments import available_workloads, build_trainer, build_workload, workloads
from repro.nn import BatchNorm2d, Dropout, Tensor, no_grad
from repro.nn import functional as F


def _layout(array, kind):
    """``array`` re-laid in memory: C order, channels-last, or first axis fastest (what ``weight.grad`` has)."""
    if kind == "c":
        return np.ascontiguousarray(array)
    if kind == "last":
        return _laid_out(array, (0, 2, 3, 1))
    return _laid_out(array, (1, 2, 3, 0))


def _laid_out(array, order):
    """``array`` with its axes stored in memory in ``order``, slowest first."""
    return np.ascontiguousarray(array.transpose(order)).transpose(np.argsort(order))


def _strides(array):
    return tuple(stride for stride, size in zip(array.strides, array.shape) if size != 1)


def _conv_results(conv, x, weight, bias, upstream, stride, padding, groups, trainable):
    """Forward output and every gradient of one convolution, on private copies of the operands.

    ``trainable`` says which of ``x``, ``weight``, ``bias`` require grad; a
    frozen operand's gradient is ``None``.
    """
    x = Tensor(x.copy(order="K"), requires_grad=trainable[0])
    weight = Tensor(weight.copy(order="K"), requires_grad=trainable[1])
    bias = None if bias is None else Tensor(bias.copy(), requires_grad=trainable[2])
    out = conv(x, weight, bias, stride=stride, padding=padding, groups=groups)
    out.backward(upstream.copy(order="K"))
    grads = [x.grad, weight.grad] + ([] if bias is None else [bias.grad])
    return [out.data] + grads


def _trainable_combinations(use_bias):
    """Every trainable/frozen combination of ``x``, ``weight`` and ``bias`` but all frozen.

    Training runs them all: the stem conv's input needs no gradient, and
    Egeria's frozen prefix freezes weights while a later layer still needs
    ``x.grad``.  Without a bias its flag is fixed to frozen.
    """
    combinations = itertools.product((True, False), (True, False), (True, False) if use_bias else (False,))
    return [trainable for trainable in combinations if any(trainable)]


def _assert_conv_matches_oracle(x_shape, w_shape, use_bias, stride, padding, groups, exact=True, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(np.float32)
    weight = rng.standard_normal(w_shape).astype(np.float32)
    bias = rng.standard_normal(w_shape[0]).astype(np.float32) if use_bias else None
    out_shape = (x_shape[0], w_shape[0],
                 F.conv_output_size(x_shape[2], w_shape[2], stride, padding),
                 F.conv_output_size(x_shape[3], w_shape[2], stride, padding))
    upstream = rng.standard_normal(out_shape).astype(np.float32)
    # Every layout the operands take in training (activations and their
    # gradients are C-ordered or channels-last, weights C-ordered), plus a
    # weight laid out like its own gradient, first axis fastest.
    layouts = itertools.product(("c", "last"), ("c", "first"), ("c", "last"))
    for (x_kind, w_kind, g_kind), trainable in itertools.product(layouts, _trainable_combinations(use_bias)):
        operands = (_layout(x, x_kind), _layout(weight, w_kind), bias, _layout(upstream, g_kind))
        expected = _conv_results(nn_reference.conv2d, *operands, stride, padding, groups, trainable)
        actual = _conv_results(F.conv2d, *operands, stride, padding, groups, trainable)
        for name, want, got in zip(("output", "x.grad", "weight.grad", "bias.grad"), expected, actual):
            where = (f"{name} of conv {x_shape} * {w_shape} s{stride} p{padding} g{groups}, "
                     f"layouts {x_kind}/{w_kind}/{g_kind}, trainable {trainable}")
            assert (want is None) == (got is None), f"gradient presence differs: {where}"
            if want is None:
                continue
            if exact:
                assert np.array_equal(want, got), f"values differ: {where}"
                assert _strides(want) == _strides(got), f"strides differ: {where}"
            else:
                assert np.allclose(want, got, rtol=1e-5, atol=1e-5), f"values differ: {where}"


def _registry_conv_shapes():
    """Every distinct ``conv2d`` call of one training forward of each registry workload (tiny scale)."""
    seen = set()
    original = F.conv2d

    def spy(x, weight, bias=None, stride=1, padding=0, groups=1):
        seen.add((x.shape, weight.shape, bias is not None, stride, padding, groups))
        return original(x, weight, bias, stride=stride, padding=padding, groups=groups)

    F.conv2d = spy
    try:
        for name in available_workloads():
            workload = build_workload(name, scale="tiny", seed=0)
            trainer = build_trainer("vanilla", workload)
            trainer.forward_batch(next(iter(trainer.train_loader)))
    finally:
        F.conv2d = original
    return sorted(seen)


REGISTRY_CONV_SHAPES = _registry_conv_shapes()


def test_registry_covers_the_conv_variants_the_models_use():
    variants = {(w_shape[2], stride, padding) for _, w_shape, _, stride, padding, _ in REGISTRY_CONV_SHAPES}
    assert {(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)} <= variants
    assert {bias for _, _, bias, _, _, _ in REGISTRY_CONV_SHAPES} == {False, True}
    assert any(groups > 1 and groups == x_shape[1] for x_shape, _, _, _, _, groups in REGISTRY_CONV_SHAPES)
    assert any(x_shape[2] == 1 for x_shape, *_ in REGISTRY_CONV_SHAPES), "1x1 feature maps are the einsum corner case"


@pytest.mark.parametrize("x_shape,w_shape,use_bias,stride,padding,groups", REGISTRY_CONV_SHAPES)
def test_conv2d_is_bit_identical_on_registry_shapes(x_shape, w_shape, use_bias, stride, padding, groups):
    _assert_conv_matches_oracle(x_shape, w_shape, use_bias, stride, padding, groups)


@st.composite
def _conv_cases(draw, degenerate):
    groups = draw(st.sampled_from([1, 1, 1, 2, 3]))
    kernel = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    stride = draw(st.integers(1, 2))
    height = draw(st.integers(max(1, kernel - 2 * padding), 7))
    width = draw(st.integers(max(1, kernel - 2 * padding), 7))
    if degenerate:
        batch, c_in, c_out = draw(st.sampled_from([(1, 3, 4), (3, 2, 1), (1, 1, 1), (2, 1, 3)]))
        groups, kernel = 1, (1 if c_in == 1 else kernel)
        height, width = max(height, kernel), max(width, kernel)
    else:
        batch = draw(st.integers(2, 4))
        c_in = groups * draw(st.integers(1 if kernel > 1 else 2, 4))
        c_out = groups * draw(st.integers(2, 4))
    return ((batch, c_in, height, width), (c_out, c_in // groups, kernel, kernel),
            draw(st.booleans()), stride, padding, groups, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(_conv_cases(degenerate=False))
def test_conv2d_is_bit_identical_on_drawn_shapes(case):
    *shape, seed = case
    _assert_conv_matches_oracle(*shape, seed=seed)


@settings(max_examples=25, deadline=None)
@given(_conv_cases(degenerate=True))
def test_conv2d_agrees_to_rounding_on_degenerate_shapes(case):
    *shape, seed = case
    _assert_conv_matches_oracle(*shape, exact=False, seed=seed)


@pytest.mark.parametrize("pool", ["max_pool2d"])
@pytest.mark.parametrize("shape,kernel,stride", [
    ((2, 3, 8, 8), 2, None), ((2, 4, 7, 7), 3, 2), ((3, 2, 6, 6), 3, 1), ((2, 5, 4, 4), 4, None), ((1, 1, 5, 5), 2, 2),
])
@pytest.mark.parametrize("kind", ["c", "last"])
def test_pooling_is_unchanged(pool, shape, kernel, stride, kind):
    rng = np.random.default_rng(0)
    data = _layout(rng.standard_normal(shape).astype(np.float32), kind)
    results = []
    for module in (nn_reference, F):
        x = Tensor(data.copy(order="K"), requires_grad=True)
        out = getattr(module, pool)(x, kernel, stride)
        upstream = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
        out.backward(_layout(upstream, kind))
        results.append((out.data, x.grad))
    for want, got in zip(*results):
        assert np.array_equal(want, got) and _strides(want) == _strides(got)


def _bits(array):
    """``array``'s float32 bit patterns: NaN compares equal to itself and ``-0.0`` differs from ``+0.0``."""
    return array.view(np.uint32)


@pytest.mark.parametrize("data_order", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("grad_order", list(itertools.permutations(range(3))))
def test_relu_backward_is_the_boolean_mask_times_the_gradient(data_order, grad_order):
    """Signed zeros and NaN on both sides of the mask, every layout of the input and of the gradient."""
    specials = np.array([0.0, -0.0, np.nan, -np.inf, np.inf, 1.5, -2.5, 1e-40], dtype=np.float32)
    rng = np.random.default_rng(0)
    shape = (4, 5, 6)
    data = rng.standard_normal(shape).astype(np.float32)
    data.reshape(-1)[rng.choice(data.size, 24, replace=False)] = rng.choice([0.0, -0.0, np.nan], 24)
    grad = rng.choice(specials, shape).astype(np.float32)
    data, grad = _laid_out(data, data_order), _laid_out(grad, grad_order)
    x = Tensor(data.copy(order="K"), requires_grad=True)
    x.relu().backward(grad.copy(order="K"))
    want = (data > 0) * grad  # the boolean-mask form ``Tensor.relu`` had
    assert np.array_equal(_bits(want), _bits(x.grad)) and _strides(want) == _strides(x.grad)


@pytest.mark.parametrize("shape", [(3, 5, 3, 7), (2, 3, 5, 5), (5, 2, 3, 3), (1, 4, 7, 1)])
def test_batch_norm_running_buffers_follow_np_mean_and_np_var_over_steps(shape):
    """Three train-mode steps on data whose channel means sit away from 0.  Dividing the sum by a count
    that is no power of two and multiplying it by the count's inverse round differently here, for the
    mean and for the variance; the one standard-normal step per shape of the model-shape test does not
    tell the mean's two forms apart."""
    layer = BatchNorm2d(shape[1], momentum=0.3)
    running_mean = layer.running_mean.copy()
    running_var = layer.running_var.copy()
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        data = (rng.standard_normal(shape) * 3 + rng.standard_normal((1, shape[1], 1, 1))).astype(np.float32)
        layer(Tensor(data, requires_grad=True))
        running_mean *= 1.0 - 0.3
        running_mean += 0.3 * np.mean(data, axis=(0, 2, 3))
        running_var *= 1.0 - 0.3
        running_var += 0.3 * np.var(data, axis=(0, 2, 3))
        assert np.array_equal(_bits(running_mean), _bits(layer.running_mean))
        assert np.array_equal(_bits(running_var), _bits(layer.running_var))


@st.composite
def _attention_cases(draw):
    """Heads, sequence lengths, how q/k/v are made, layouts, mask, dropout, trainable inputs and a residual."""
    inputs = draw(st.sampled_from(["separate", "projected", "same"]))
    s_q = draw(st.integers(1, 4))
    return {
        "inputs": inputs,
        "batch": draw(st.integers(1, 3)),
        "heads": draw(st.integers(1, 3)),
        "head_dim": draw(st.integers(1, 3)),
        "s_q": s_q,
        "s_k": draw(st.integers(1, 4)) if inputs == "separate" else s_q,
        "orders": draw(st.tuples(*[st.permutations(range(3)) for _ in range(3)])),
        "grad_order": draw(st.permutations(range(3))),
        "mask": draw(st.sampled_from([None, "causal", "padding"])),
        "dropout": draw(st.sampled_from([None, 0.0, 0.3])),
        "training": draw(st.booleans()),
        # separate: q, k, v; projected: x, w_q, w_k, w_v; same: the one tensor.
        "trainable": draw(st.tuples(*[st.booleans() for _ in range(4)])),
        "residual": draw(st.sampled_from([None, "before", "after"])),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _attention_results(module, case):
    """Output and every leaf gradient of one attention through ``module``, on fresh operands."""
    rng = np.random.default_rng(case["seed"])
    batch, heads, s_q, s_k = case["batch"], case["heads"], case["s_q"], case["s_k"]
    d_model = heads * case["head_dim"]
    trainable = case["trainable"]

    def activation(seq, order, requires_grad):
        data = rng.standard_normal((batch, seq, d_model)).astype(np.float32)
        return Tensor(_laid_out(data, order), requires_grad=requires_grad)

    if case["inputs"] == "separate":
        leaves = [activation(seq, order, flag) for seq, order, flag in zip((s_q, s_k, s_k), case["orders"], trainable)]
        q, k, v = leaves
    elif case["inputs"] == "projected":
        # One input projected three times: the three gradients of x arrive in the composite's order.
        x = activation(s_q, case["orders"][0], trainable[0])
        weights = [Tensor(rng.standard_normal((d_model, d_model)).astype(np.float32), requires_grad=flag)
                   for flag in trainable[1:]]
        leaves = [x] + weights
        q, k, v = (F.linear(x, weight) for weight in weights)
    else:
        leaves = [activation(s_q, case["orders"][0], trainable[0])]
        q = k = v = leaves[0]
    mask = None
    if case["mask"] == "causal":
        mask = np.tril(np.ones((s_q, s_k), dtype=bool))
    elif case["mask"] == "padding":
        mask = rng.random((batch, 1, 1, s_k)) < 0.7
    dropout = None
    if case["dropout"] is not None:
        dropout = Dropout(case["dropout"], seed=case["seed"]).train(case["training"])
    out = module.attention(q, k, v, heads, mask, dropout)
    total = out
    if case["residual"] is not None:
        first = leaves[0]
        side = (first * Tensor(rng.standard_normal(first.shape).astype(np.float32))).sum()
        total = out + side if case["residual"] == "after" else side + out
    upstream = _laid_out(rng.standard_normal(out.shape).astype(np.float32), case["grad_order"])
    if total.requires_grad:
        total.backward(upstream)
    return [out.data] + [leaf.grad for leaf in leaves]


def test_fused_attention_draws_its_dropout_mask_as_the_dropout_module_does():
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True) for _ in range(3))
    streams = []
    for module in (nn_reference, F):
        dropout = Dropout(0.5, seed=11)
        module.attention(q, k, v, 2, None, dropout)
        streams.append(dropout._rng.random(4))
    assert np.array_equal(*streams)
    assert not np.array_equal(streams[0], Dropout(0.5, seed=11)._rng.random(4))


def test_fused_attention_builds_no_closure_without_grad():
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((1, 2, 4)).astype(np.float32), requires_grad=True) for _ in range(3))
    with no_grad():
        out = F.attention(q, k, v, 2)
    assert not out.requires_grad and out._backward is None and out._prev == ()
    frozen = F.attention(*(Tensor(t.data) for t in (q, k, v)), 2)
    assert not frozen.requires_grad and frozen._backward is None


FUSED_OPS = ["linear", "softmax", "layer_norm", "batch_norm", "batch_norm_running", "attention"]
#: What ``_fused_op_results`` returns for every op but attention (``batch_norm`` adds its running buffers).
RESULT_NAMES = ("output", "x.grad", "weight.grad", "bias.grad", "running_mean", "running_var")


@st.composite
def _fused_op_cases(draw, op):
    """A shape, memory layouts, the trainable inputs and a residual consumer of ``x`` for one fused op."""
    if op == "attention":
        return {"op": op, **draw(_attention_cases())}
    if op.startswith("batch_norm"):
        x_shape = tuple(draw(st.integers(1, 4)) for _ in range(4))
    else:
        x_shape = tuple(draw(st.integers(1, 5)) for _ in range(draw(st.integers(2, 4 if op == "softmax" else 3))))
    return {
        "op": op,
        "x_shape": x_shape,
        "out_features": draw(st.integers(1, 5)),
        "bias": op != "linear" or draw(st.booleans()),
        "axis": draw(st.integers(-len(x_shape), len(x_shape) - 1)),
        "x_order": draw(st.permutations(range(len(x_shape)))),
        "grad_order": draw(st.permutations(range(len(x_shape)))),
        "weight_order": draw(st.permutations(range(2))),
        "trainable": draw(st.tuples(st.booleans(), st.booleans(), st.booleans())),
        "residual": draw(st.sampled_from([None, "before", "after"])),
        "running": op == "batch_norm" and draw(st.booleans()),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _fused_op_results(module, case):
    """Output and every gradient of one op run through ``module``, on fresh operands laid out as ``case`` says."""
    if case["op"] == "attention":
        return _attention_results(module, case)
    op, x_shape = case["op"], case["x_shape"]
    rng = np.random.default_rng(case["seed"])
    x = Tensor(_laid_out(rng.standard_normal(x_shape).astype(np.float32), case["x_order"]),
               requires_grad=case["trainable"][0])
    if op == "linear":
        params = [_laid_out(rng.standard_normal((case["out_features"], x_shape[-1])).astype(np.float32),
                            case["weight_order"]),
                  rng.standard_normal(case["out_features"]).astype(np.float32) if case["bias"] else None]
    else:
        features = x_shape[-1] if op == "layer_norm" else x_shape[1]
        params = [] if op == "softmax" else [rng.standard_normal(features).astype(np.float32) for _ in range(2)]
    params = [None if p is None else Tensor(p, requires_grad=trainable)
              for p, trainable in zip(params, case["trainable"][1:])]
    if op == "linear":
        out = module.linear(x, *params)
    elif op == "softmax":
        out = module.softmax(x, axis=case["axis"])
    elif op == "layer_norm":
        out = module.layer_norm(x, *params, 1e-5)
    else:
        running = [rng.standard_normal(x_shape[1]).astype(np.float32),
                   (rng.random(x_shape[1]) + 0.5).astype(np.float32)]
        if op == "batch_norm":
            # Training mode, moving the running buffers (when given) by the batch's statistics.
            running = running if case["running"] else [None, None]
            out = module.batch_norm(x, *params, 1e-5, *running, training=True, momentum=0.1)
        else:
            out = module.batch_norm(x, *params, 1e-5, *running)
    # A second consumer of x: the graph orders its gradient before or after the op's.
    total = out
    if case["residual"] is not None:
        side = (x * Tensor(rng.standard_normal(x_shape).astype(np.float32))).sum()
        total = out + side if case["residual"] == "after" else side + out
    if total.requires_grad:
        total.backward(_laid_out(rng.standard_normal(out.shape).astype(np.float32), case["grad_order"]))
    buffers = running if op == "batch_norm" else []
    return [out.data, x.grad] + [None if p is None else p.grad for p in params] + buffers


@pytest.mark.parametrize("op", FUSED_OPS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fused_op_is_bit_identical_to_its_composite(op, data):
    case = data.draw(_fused_op_cases(op))
    expected = _fused_op_results(nn_reference, case)
    actual = _fused_op_results(F, case)
    names = RESULT_NAMES if op != "attention" else ("output",) + tuple(f"grad of leaf {i}" for i in range(4))
    for name, want, got in zip(names, expected, actual):
        assert (want is None) == (got is None), f"{name} of {case}"
        if want is not None:
            assert np.array_equal(want, got), f"values differ: {name} of {case}"
            assert _strides(want) == _strides(got), f"strides differ: {name} of {case}"


#: Axis orders by name: C order, the second axis fastest (channels-last), the first axis fastest.
_ORDERS = {"c": lambda n: tuple(range(n)), "last": lambda n: (0, *range(2, n), 1), "first": lambda n: (*range(1, n), 0)}


@pytest.mark.parametrize("op,x_shape", [
    *[("batch_norm", shape) for shape in [(16, 6, 16, 16), (16, 12, 8, 8), (16, 24, 4, 4), (16, 48, 2, 2),
                                          (16, 48, 1, 1), (3, 5, 3, 7), (2, 3, 5, 5), (5, 2, 3, 3), (1, 4, 7, 1)]],
    *[("layer_norm", shape) for shape in [(16, 10, 32), (16, 9, 32)]],
])
@pytest.mark.parametrize("x_order", ["c", "last", "first"])
@pytest.mark.parametrize("grad_order", ["c", "last"])
@pytest.mark.parametrize("residual", [None, "before", "after"])
def test_normalisation_is_bit_identical_at_the_models_shapes(op, x_shape, x_order, grad_order, residual):
    """The shapes the CNN's BatchNorms and the transformer's LayerNorms see, which the drawn
    cases (sides 1-5) never reach: a layout change inside the backward (say, ``square_grad``
    as a broadcast view) moves bits here."""
    case = {"op": op, "x_shape": x_shape, "bias": True, "x_order": _ORDERS[x_order](len(x_shape)),
            "grad_order": _ORDERS[grad_order](len(x_shape)), "trainable": (True, True, True),
            "residual": residual, "running": True, "seed": 0}
    expected = _fused_op_results(nn_reference, case)
    actual = _fused_op_results(F, case)
    for name, want, got in zip(RESULT_NAMES, expected, actual):
        assert np.array_equal(want, got) and _strides(want) == _strides(got), f"{name} of {case}"


def _trajectory(name, system, seed, tmp_path):
    """A 2-epoch run: ``(losses, metrics, freezing timeline, final parameter and buffer bytes), backward_nodes``."""
    overrides = {"cache_dir": str(tmp_path / f"{name}-{system}-{seed}")} if system == "egeria" else {}
    trainer = build_trainer(system, build_workload(name, scale="tiny", seed=seed), **overrides)
    history = trainer.fit(2)
    timeline = trainer.freezing_timeline() if system == "egeria" else []
    parameters = [(path, array.tobytes()) for path, array in trainer.model.state_dict().items()]
    if system == "egeria":
        trainer.close()
    return (history.losses(), history.metrics(), timeline, parameters), trainer.backward_nodes


@pytest.mark.parametrize("name", available_workloads())
@pytest.mark.parametrize("system", ["egeria", "vanilla"])
@pytest.mark.parametrize("seed", [0, 1])
def test_training_trajectory_equals_the_oracle_substrate(name, system, seed, tmp_path, monkeypatch):
    """``backward_nodes`` is left out: one fused node counts once where its composite counted up to 19."""
    actual, _ = _trajectory(name, system, seed, tmp_path / "actual")
    monkeypatch.setattr(F, "conv2d", nn_reference.conv2d)
    monkeypatch.setattr(F, "max_pool2d", nn_reference.max_pool2d)
    monkeypatch.setattr(F, "linear", nn_reference.linear)
    monkeypatch.setattr(F, "softmax", nn_reference.softmax)
    monkeypatch.setattr(F, "layer_norm", nn_reference.layer_norm)
    monkeypatch.setattr(F, "batch_norm", nn_reference.batch_norm)
    monkeypatch.setattr(F, "attention", nn_reference.attention)
    monkeypatch.setattr(Tensor, "_accumulate", nn_reference.accumulate)
    for optimizer in ("SGD", "Adam", "AdamW"):
        monkeypatch.setattr(workloads, optimizer, getattr(optim_reference, optimizer))
    expected, _ = _trajectory(name, system, seed, tmp_path / "oracle")
    assert actual == expected


@pytest.mark.parametrize("name,nodes,composite_nodes", [
    ("resnet56_cifar10", 1022, 3318),
    ("transformer_base_wmt16", 5760, 17964),
])
@pytest.mark.parametrize("system", ["egeria", "vanilla"])
def test_backward_nodes_are_pinned(name, nodes, composite_nodes, system, tmp_path, monkeypatch):
    """Seed 0, two epochs: the autograd nodes every ``backward()`` visited, an
    exact work counter.  ``composite_nodes`` is the count with the oracle's
    composite ``linear`` / ``softmax`` / ``layer_norm`` / ``batch_norm`` /
    ``attention``."""
    _, fused = _trajectory(name, system, 0, tmp_path / "fused")
    for op in ("linear", "softmax", "layer_norm", "batch_norm", "attention"):
        monkeypatch.setattr(F, op, getattr(nn_reference, op))
    _, composite = _trajectory(name, system, 0, tmp_path / "composite")
    assert (fused, composite) == (nodes, composite_nodes)
