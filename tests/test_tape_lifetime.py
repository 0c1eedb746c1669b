"""How long saved state lives: the backward consumes the graph it walks,
the offset map holds only its table, its index and its extents, and a
forward without a tape keeps nothing for a backward. Sizes are at the
24x24 grid (N_s = 576), where one (4, n_q, n_k) float64 grid is 10.6 MB."""

import tracemalloc

import numpy as np
import pytest

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    offset_map_2d,
)
from attnlab.errors import ContractViolation
from attnlab.models import build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor, _softmax_sum, no_grad
from attnlab.train import train_model


def _traced(f):
    """f's result, and the bytes traced as held after it and at its peak."""
    tracemalloc.start()
    try:
        out = f()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


# -- a consumed graph -----------------------------------------------------------------


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(ContractViolation, match="consumed"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_a_new_graph_over_a_consumed_node_raises():
    x = Tensor([3.0], requires_grad=True)
    y = x * x
    y.sum().backward()
    with pytest.raises(ContractViolation, match="consumed"):
        (y * 2.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [6.0])


def test_backward_drops_the_vjp_of_every_node_it_ran():
    x = Tensor(np.ones(3), requires_grad=True)
    mid = x * 2.0
    loss = (mid * mid).sum()
    saved = {id(node._backward) for node in (mid, loss)}
    loss.backward()
    for node in (mid, loss):
        assert node.grad is None and id(node._backward) not in saved
        with pytest.raises(ContractViolation, match="consumed"):
            node._backward(np.ones(node.shape))
    assert x._backward is None
    np.testing.assert_array_equal(x.grad, np.full(3, 8.0))


def test_backward_frees_the_layer_weights_it_read():
    """After the backward less than 1 MB is left of the layer's tape,
    although ``out`` is still referenced; its forward kept 10.6 MB."""
    rng = Rng(7)
    params = AttentionParams(16, 2, enc_dim=16, rng=rng)
    offsets = offset_map_2d(24, 24, 16)
    x = Tensor(rng.uniform(-1, 1, (2 * 576, 16)), requires_grad=True)
    config = AttentionConfig.from_beta("1111", heads=2)

    def step():
        out = attention_forward(x, x, params, config, offsets, residual=True, batch=2).sum()
        out.backward()
        return out

    out, held, _ = _traced(step)
    assert held < 1e6
    assert out.size == 1 and x.grad.shape == x.shape


# -- what a training step and an eval hold ------------------------------------------------


@pytest.fixture(scope="module")
def grid_cell():
    task = make_task("salient-detection", seed=0, extent=(24, 24), eval_size=4)
    return task, build_model(task, "attended-block", "1111", seed=0)


def test_training_steps_do_not_stack_their_tapes(grid_cell):
    """Three steps of train_model peak within 1 MB of one step's forward and
    backward: step k's tape is gone before step k + 1's forward runs."""
    task, model = grid_cell
    batch = task.train_batch(0, 2)
    _, _, one = _traced(lambda: model.batch_loss(batch).backward())
    _, _, three = _traced(lambda: train_model(model, task, 3, batch_size=2))
    assert three < one + 1e6


def test_no_grad_eval_peaks_below_one_head_grid(grid_cell):
    """A 4-sample eval without a tape keeps no weights for a VJP: its peak
    stays below one head's (4, n_q, n_k) weight grid."""
    task, model = grid_cell
    samples = task.eval_set()[:4]

    def evaluate():
        with no_grad():
            return model.batch_accuracy(samples)

    scores, _, peak = _traced(evaluate)
    assert peak < 4 * 576 * 576 * 8
    assert scores.shape == (4,)


def test_offset_map_builds_and_holds_one_index_grid():
    """At 24x24 the int64 index is 2.65 MB and the table 0.28 MB; the build
    makes nothing else of that size and the map holds nothing else."""
    offsets, held, peak = _traced(lambda: offset_map_2d(24, 24, 16))
    assert peak < 4e6
    assert held < 3e6
    assert offsets.index.shape == (576, 576) and offsets.index.dtype == np.int64


# -- the layer's weight arrays ------------------------------------------------------------


def test_softmax_sum_into_out_matches_a_fresh_buffer():
    rng = Rng(3)
    terms = [rng.uniform(-2, 2, (2, 3, 5)), rng.uniform(-2, 2, (2, 1, 5))]
    mask = rng.uniform(0, 1, (2, 3, 5)) < 0.7
    mask[..., 0] = True
    fresh, fresh_vjp = _softmax_sum(*terms, shape=(2, 3, 5), mask=mask)
    out = np.full((2, 3, 5), np.nan)
    into, into_vjp = _softmax_sum(*terms, shape=(2, 3, 5), mask=mask, out=out)
    assert into is out
    np.testing.assert_array_equal(into, fresh)
    g = rng.uniform(-1, 1, (2, 3, 5))
    for a, b in zip(fresh_vjp(g), into_vjp(g)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("beta", ["1111", "0010"])
def test_layer_output_is_the_same_with_and_without_a_tape(beta):
    rng = Rng(5)
    params = AttentionParams(8, 2, enc_dim=8, rng=rng)
    offsets = offset_map_2d(7, 7, 8)
    x = Tensor(rng.uniform(-1, 1, (3 * 49, 8)))
    config = AttentionConfig.from_beta(beta, heads=2)
    taped = attention_forward(x, x, params, config, offsets, batch=3)
    with no_grad():
        untaped = attention_forward(x, x, params, config, offsets, batch=3)
    assert taped._backward is not None and untaped._backward is None
    np.testing.assert_array_equal(taped.data, untaped.data)
