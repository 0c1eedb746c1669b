"""A batch of samples stacked along the rows gives, layer by layer and
for every model, what the samples give one at a time."""

import numpy as np
import pytest

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    local_mask,
    offset_map_1d,
)
from attnlab.conv import ConvParams, deformable_conv, neighbor_table, regular_conv
from attnlab.dynconv import DynamicConvParams, dynamic_conv
from attnlab.errors import ShapeMismatch
from attnlab.models import STACKS, build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor
from attnlab.train import evaluate

BATCH = 5
TASKS = {
    "attended-block": ("salient-detection",),
    "transformer": ("permuted-copy", "windowed-denoise"),
}
EXTENTS = [(7,), (4, 5)]


def _stack_cases():
    for stack in STACKS:
        for kind in TASKS[stack.partition("+")[0]]:
            if not (kind == "permuted-copy" and stack.endswith("+dynamic")):
                yield stack, kind


def _perturbed(model, seed):
    """Move every parameter off its initial value, zero-initialized gates
    and offset predictors included, so every path carries gradient."""
    rng = Rng(seed)
    for p in model.parameters():
        p.data = p.data + rng.uniform(-0.3, 0.3, p.shape)
    return model


@pytest.mark.parametrize("stack,kind", list(_stack_cases()))
def test_batch_loss_and_gradients_equal_the_per_sample_mean(stack, kind):
    task = make_task(kind, seed=3, eval_size=BATCH)
    model = _perturbed(build_model(task, stack, "1111", seed=3), seed=4)
    params = model.parameters()
    samples = task.eval_set()

    want_loss = 0.0
    want_grads = [np.zeros(p.shape) for p in params]
    for sample in samples:
        for p in params:
            p.grad = None
        loss = model.loss(sample)
        loss.backward()
        want_loss += loss.item() / BATCH
        for acc, p in zip(want_grads, params):
            if p.grad is not None:  # the cross read leaves res_scale unused
                acc += p.grad / BATCH

    for p in params:
        p.grad = None
    loss = model.batch_loss(samples)
    loss.backward()
    assert abs(loss.item() - want_loss) <= 1e-12
    for want, p in zip(want_grads, params):
        got = np.zeros(p.shape) if p.grad is None else p.grad
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack,kind", list(_stack_cases()))
def test_batch_logits_stack_the_per_sample_logits(stack, kind):
    task = make_task(kind, seed=5, eval_size=BATCH)
    model = _perturbed(build_model(task, stack, "1111", seed=5), seed=6)
    samples = task.eval_set()
    want = np.concatenate([model.logits(s).data for s in samples])
    np.testing.assert_allclose(model.batch_logits(samples).data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [format(i, "04b") for i in range(16)])
@pytest.mark.parametrize("mode", ["self", "cross"])
def test_attention_forward_batch_matches_per_sample(beta, mode):
    rng = Rng(7)
    params = AttentionParams(8, 2, enc_dim=8, rng=rng.child(0))
    for p in params.parameters():
        p.data = p.data + rng.uniform(-0.3, 0.3, p.shape)
    n_q = 6 if mode == "self" else 2
    offsets = offset_map_1d(n_q, 6, enc_dim=8)
    mask = local_mask(offsets, 5)
    config = AttentionConfig.from_beta(beta, heads=2)
    xs = [Tensor(rng.normal((6, 8))) for _ in range(3)]
    zs = xs if mode == "self" else [Tensor(rng.normal((n_q, 8))) for _ in range(3)]
    x = Tensor(np.concatenate([t.data for t in xs]))
    z = x if mode == "self" else Tensor(np.concatenate([t.data for t in zs]))
    out = attention_forward(z, x, params, config, offsets, mask, mode=mode, residual=True,
                            batch=3)
    want = np.concatenate([
        attention_forward(zi, xi, params, config, offsets, mask, mode=mode,
                          residual=True).data
        for zi, xi in zip(zs, xs)])
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)


def test_attention_rejects_rows_that_are_not_a_batch():
    params = AttentionParams(8, 2, enc_dim=8, rng=Rng(8))
    x = Tensor(np.zeros((7, 8)))
    with pytest.raises(ShapeMismatch):
        attention_forward(x, x, params, AttentionConfig.from_beta("1000", heads=2), batch=2)


def _per_sample_and_batched(conv, params, extent, seed, **kw):
    rng = Rng(seed)
    n = int(np.prod(extent))
    parts = [rng.normal((n, params.c_in)) for _ in range(3)]
    layout = None if len(extent) == 1 else extent
    batched = conv(Tensor(np.concatenate(parts)), params, layout, batch=3, **kw)
    alone = np.concatenate([conv(Tensor(p), params, layout, **kw).data for p in parts])
    return batched.data, alone


@pytest.mark.parametrize("extent", EXTENTS)
def test_regular_conv_batch_matches_per_sample(extent):
    params = ConvParams(3, 4, kernel=3, ndim=len(extent), rng=Rng(9))
    batched, alone = _per_sample_and_batched(regular_conv, params, extent, seed=10)
    np.testing.assert_array_equal(batched, alone)


@pytest.mark.parametrize("extent", EXTENTS)
def test_deformable_conv_batch_matches_per_sample(extent):
    params = ConvParams(3, 4, kernel=3, ndim=len(extent), rng=Rng(11), deformable=True)
    # offsets of a cell or more reach across sample borders if unshifted
    params.offset_w.data = Rng(12).uniform(-1.5, 1.5, params.offset_w.shape)
    batched, alone = _per_sample_and_batched(deformable_conv, params, extent, seed=13)
    np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-12)


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("extent", EXTENTS)
def test_dynamic_conv_batch_matches_per_sample(extent, renormalize):
    params = DynamicConvParams(4, 4, kernel=3, n_groups=2, rng=Rng(14), ndim=len(extent))
    batched, alone = _per_sample_and_batched(dynamic_conv, params, extent, seed=15,
                                             renormalize=renormalize)
    np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-12)


def test_batched_neighbor_table_shifts_rows_per_sample():
    points = ((-1, 0), (0, 1))
    one = neighbor_table((2, 3), points)
    three = neighbor_table((2, 3), points, 3)
    assert three is neighbor_table((2, 3), points, 3)
    assert not three.flags.writeable
    for b in range(3):
        want = np.where(one >= 0, one + 6 * b, -1)
        np.testing.assert_array_equal(three[6 * b:6 * (b + 1)], want)


@pytest.mark.parametrize("kind,stack", [("permuted-copy", "transformer+deformable"),
                                        ("windowed-denoise", "transformer+dynamic"),
                                        ("salient-detection", "attended-block")])
def test_evaluate_equals_the_mean_per_sample_accuracy(kind, stack):
    task = make_task(kind, seed=16, eval_size=45)
    model = _perturbed(build_model(task, stack, "1111", seed=16), seed=17)
    want = float(np.mean([model.accuracy(s) for s in task.eval_set()]))
    assert evaluate(model, task) == want
