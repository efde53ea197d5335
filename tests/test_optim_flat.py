"""The run-wise optimizers reproduce the per-tensor ones bit for bit.

``repro.optim`` updates runs of consecutive parameters over flat float32
state; ``tests/oracles/optim_reference.py`` keeps the per-tensor ``SGD``,
``Adam`` and ``AdamW`` they replaced.  A hypothesis property drives both
through the same steps — freeze/unfreeze masks and missing gradients that
split runs and make Adam's ``t`` diverge, gradients in every memory layout,
a learning-rate change, replaced parameter arrays and a ``state_dict()``
round trip across the two implementations — and after every step requires
equal parameter bytes and strides and equal ``state_dict()`` trees.  The
contract tests below hold what the flat layout adds: a step never writes
into an array it handed out, no two parameters share memory, and a
parameter the step stops updating keeps no run array alive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import optim_reference

from repro import optim
from repro.nn.module import Parameter

OPTIMIZERS = {
    "sgd": (optim.SGD, optim_reference.SGD),
    "adam": (optim.Adam, optim_reference.Adam),
    "adamw": (optim.AdamW, optim_reference.AdamW),
}


def _params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape).astype(np.float32)) for shape in shapes]


def _laid_out(array, layout):
    """``array``'s values in C order, Fortran order, or as the transposed copy a transpose's gradient is."""
    if layout == "f":
        return np.asfortranarray(array)
    if layout == "t":
        return np.ascontiguousarray(array.T).T
    return np.ascontiguousarray(array)


def _assert_trees_equal(want, got, where):
    assert type(want) is type(got), where
    if isinstance(want, dict):
        assert list(want) == list(got), where
        for key in want:
            _assert_trees_equal(want[key], got[key], f"{where}/{key}")
    elif isinstance(want, np.ndarray):
        assert (want.dtype, want.shape, want.strides) == (got.dtype, got.shape, got.strides), where
        assert want.tobytes() == got.tobytes(), where
    else:
        assert want == got, where


@st.composite
def _sequences(draw):
    kind = draw(st.sampled_from(sorted(OPTIMIZERS)))
    shapes = draw(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple), min_size=1, max_size=8))
    options = {"lr": draw(st.sampled_from([0.1, 0.01, 3e-3]))}
    if kind == "sgd":
        options.update(momentum=draw(st.sampled_from([0.0, 0.9])), nesterov=draw(st.booleans()),
                       weight_decay=draw(st.sampled_from([0.0, 5e-4])))
    else:
        options["weight_decay"] = draw(st.sampled_from([0.0, 0.01]))
    num_steps = draw(st.integers(1, 6))
    # Per step and parameter: active, frozen (with or without a stale gradient) or no gradient.
    states = st.sampled_from(["active", "active", "active", "frozen", "frozen_with_grad", "no_grad"])
    steps = [{
        "states": draw(st.lists(states, min_size=len(shapes), max_size=len(shapes))),
        "layouts": draw(st.lists(st.sampled_from("cft"), min_size=len(shapes), max_size=len(shapes))),
        "adopt": draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes))),
    } for _ in range(num_steps)]
    return {
        "kind": kind,
        "shapes": shapes,
        "options": options,
        "steps": steps,
        "new_lr_at": draw(st.integers(0, num_steps)),
        "round_trip_at": draw(st.integers(0, num_steps)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


@settings(max_examples=300, deadline=None)
@given(_sequences())
def test_run_wise_step_is_bit_identical_to_the_per_tensor_oracle(case):
    production_cls, oracle_cls = OPTIMIZERS[case["kind"]]
    rng = np.random.default_rng(case["seed"])
    production_params = _params(case["shapes"], seed=case["seed"])
    oracle_params = _params(case["shapes"], seed=case["seed"])
    production = production_cls(production_params, **case["options"])
    oracle = oracle_cls(oracle_params, **case["options"])
    for index, step in enumerate(case["steps"]):
        if index == case["new_lr_at"]:
            production.lr = oracle.lr = production.lr * 0.37
        if index == case["round_trip_at"]:
            # Each side continues from the other's snapshot, in a fresh optimizer.
            from_production, from_oracle = production.state_dict(), oracle.state_dict()
            production = production_cls(production_params, **case["options"])
            production.load_state_dict(from_oracle)
            oracle = oracle_cls(oracle_params, **case["options"])
            oracle.load_state_dict(from_production)
        for position, shape in enumerate(case["shapes"]):
            grad = rng.standard_normal(shape).astype(np.float32)
            state = step["states"][position]
            for param in (production_params[position], oracle_params[position]):
                param.requires_grad = not state.startswith("frozen")
                param.grad = None if state in ("frozen", "no_grad") else _laid_out(grad, step["layouts"][position])
                if step["adopt"][position]:  # a new array with new values, as a loaded snapshot brings
                    param.data = param.data * np.float32(0.5)
        production.step()
        oracle.step()
        where = f"step {index} of {case}"
        for position, (want, got) in enumerate(zip(oracle_params, production_params)):
            assert want.data.strides == got.data.strides, f"strides of parameter {position}, {where}"
            assert want.data.tobytes() == got.data.tobytes(), f"bytes of parameter {position}, {where}"
        _assert_trees_equal(oracle.state_dict(), production.state_dict(), where)


def _step(optimizer, params, seed, frozen=()):
    rng = np.random.default_rng(seed)
    for position, param in enumerate(params):
        param.requires_grad = position not in frozen
        param.grad = rng.standard_normal(param.shape).astype(np.float32) if param.requires_grad else None
    optimizer.step()


SHAPES = [(4, 3), (5,), (1,), (3, 1, 2), (7,)]


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
class TestContract:
    def test_a_step_never_writes_into_an_array_it_handed_out(self, kind):
        params = _params(SHAPES)
        optimizer = OPTIMIZERS[kind][0](params, lr=0.1)
        _step(optimizer, params, seed=1)
        handed = [param.data for param in params]
        before = [array.tobytes() for array in handed]
        _step(optimizer, params, seed=2)
        _step(optimizer, params, seed=3, frozen={0, 3})
        assert [array.tobytes() for array in handed] == before

    def test_no_two_parameters_share_memory(self, kind):
        params = _params(SHAPES)
        optimizer = OPTIMIZERS[kind][0](params, lr=0.1)
        for seed, frozen in enumerate([(), (1,), (0, 1), (), (4,)]):
            _step(optimizer, params, seed=seed, frozen=frozen)
            for i, a in enumerate(params):
                for b in params[i + 1:]:
                    assert not np.shares_memory(a.data, b.data), (seed, frozen)

    def test_one_run_is_one_array_and_a_released_parameter_pins_none(self, kind):
        params = _params(SHAPES)
        optimizer = OPTIMIZERS[kind][0](params, lr=0.1)
        _step(optimizer, params, seed=1)
        run_array = params[0].data.base
        assert run_array is not None and all(param.data.base is run_array for param in params)
        assert all(param.data.flags.c_contiguous for param in params)
        _step(optimizer, params, seed=2, frozen={0, 1})
        run_array = params[2].data.base
        assert all(param.data.base is run_array for param in params[2:])
        for frozen in params[:2]:
            assert frozen.data.base is None
            assert not np.shares_memory(frozen.data, run_array)

    def test_a_repeated_parameter_is_refused(self, kind):
        p, q = _params([(2,), (3,)])
        with pytest.raises(ValueError, match=r"position 2 \(same as 0\)"):
            OPTIMIZERS[kind][0]([p, q, p], lr=0.1)

    def test_a_snapshot_of_another_parameter_order_is_refused_and_changes_nothing(self, kind):
        p, q = _params([(3, 4), (5,)])
        source = OPTIMIZERS[kind][0]([p, q], lr=0.1)
        _step(source, [p, q], seed=1)
        target_params = [Parameter(q.data.copy()), Parameter(p.data.copy())]
        target = OPTIMIZERS[kind][0](target_params, lr=0.5)
        _step(target, target_params, seed=2)
        before = target.state_dict()
        with pytest.raises(ValueError, match=r"\[0\] has shape \(3, 4\), but parameter 0 has shape \(5,\)"):
            target.load_state_dict(source.state_dict())
        _assert_trees_equal(before, target.state_dict(), "after a refused load")

    def test_a_position_past_the_end_is_refused(self, kind):
        params = _params([(2,), (3,)])
        optimizer = OPTIMIZERS[kind][0](params, lr=0.1)
        _step(optimizer, params, seed=1)
        state = optimizer.state_dict()
        for name, table in state["buffers"].items():
            table["2"] = table.pop("1")
        with pytest.raises(ValueError, match=r"names position 2, but the optimizer holds 2 parameters"):
            optimizer.load_state_dict(state)

