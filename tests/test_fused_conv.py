"""The deformable and dynamic convs as one tape op each: their hand-written
VJPs against central differences, the input scatter skipped when the input
is untracked, and the nodes one training step records."""

import math

import numpy as np
import pytest

from attnlab import conv
from attnlab.conv import ConvParams, deformable_conv
from attnlab.dynconv import DynamicConvParams, dynamic_conv
from attnlab.models import build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor

from oracles import glu_numpy, loop_dynamic1d

STEP = 1e-5
EXTENTS = [pytest.param((7,), id="1d"), pytest.param((3, 4), id="2d")]
BATCH = 2


def _matches_central_differences(loss, tensors, rng):
    """For each tensor in turn, the tape gradient dotted with a random
    direction equals the central difference along it."""
    for t in tensors:
        t.grad = None
    loss().backward()
    for t in tensors:
        u = rng.uniform(-1, 1, t.shape)
        keep = t.data.copy()
        t.data = keep + STEP * u
        hi = loss().item()
        t.data = keep - STEP * u
        lo = loss().item()
        t.data = keep
        numeric = (hi - lo) / (2 * STEP)
        assert t.grad.shape == t.shape
        analytic = float((t.grad * u).sum())
        assert abs(analytic - numeric) <= 1e-7 * (1 + abs(numeric)), (t.shape, analytic, numeric)


def _deformable_case(extent, tracked, seed=0):
    """Offsets of up to a few cells, so that many reads straddle the edge:
    one corner inside the extent, one outside."""
    rng = Rng(seed)
    params = ConvParams(3, 2, 3, ndim=len(extent), rng=rng.child(0), deformable=True)
    params.offset_w.data = rng.uniform(-0.8, 0.8, params.offset_w.shape)
    rows = BATCH * math.prod(extent)
    x = Tensor(rng.uniform(-1, 1, (rows, 3)), requires_grad=tracked)
    probe = Tensor(rng.uniform(-1, 1, (rows, 2)))

    def loss():
        return (deformable_conv(x, params, extent, batch=BATCH) * probe).sum()

    # every read position, (ndim, rows, K)
    disp = (x.data @ params.offset_w.data).reshape(rows, len(params.points), -1)
    pos = conv._displaced(extent, params.points, BATCH) + np.moveaxis(disp, -1, 0)
    lows = np.floor(pos)
    sizes = np.array(extent).reshape(-1, 1, 1)
    straddles = ((lows == -1) | (lows == sizes - 1)) & (pos != lows)
    assert straddles.any()
    # central differences stay inside one cell: a step moves a read by at
    # most 3 * STEP (three channels, each entry under 1), no read is that near a kink
    assert np.abs(pos - np.round(pos)).min() > 1e-4
    return loss, params, x, rng


@pytest.mark.parametrize("tracked", [True, False])
@pytest.mark.parametrize("extent", EXTENTS)
def test_deformable_vjp_matches_central_differences(extent, tracked):
    loss, params, x, rng = _deformable_case(extent, tracked)
    _matches_central_differences(loss, params.parameters() + ([x] if tracked else []), rng)


@pytest.mark.parametrize("extent", EXTENTS)
def test_untracked_input_skips_the_scatter_and_keeps_the_weight_gradients(extent, monkeypatch):
    """The input's gradient is one bincount over every corner's reads, and
    none at all when the input is untracked; the parameters' gradients do
    not depend on it."""
    bincounts = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        bincounts.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    grads = []
    for tracked in (True, False):
        loss, params, x, _ = _deformable_case(extent, tracked)
        out = loss()
        bincounts.clear()
        out.backward()
        assert len(bincounts) == (1 if tracked else 0)
        assert (x.grad is not None) == tracked
        grads.append([p.grad for p in params.parameters()])
    for with_x, without_x in zip(*grads):
        np.testing.assert_array_equal(with_x, without_x)


def _dynamic_case(extent, renormalize, seed=1):
    rng = Rng(seed)
    params = DynamicConvParams(4, 3, 3, n_groups=2, rng=rng.child(0), ndim=len(extent))
    rows = BATCH * math.prod(extent)
    x = Tensor(rng.uniform(-1, 1, (rows, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (rows, 3)))

    def loss():
        out = dynamic_conv(x, params, extent, batch=BATCH, renormalize=renormalize)
        return (out * probe).sum()

    return loss, params, x, rng


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("extent", EXTENTS)
def test_dynamic_vjp_matches_central_differences(extent, renormalize):
    loss, params, x, rng = _dynamic_case(extent, renormalize)
    _matches_central_differences(loss, params.parameters() + [x], rng)


@pytest.mark.parametrize("renormalize", [False, True])
def test_dynamic_forward_matches_the_loop_oracle_per_sample(renormalize):
    _, params, x, _ = _dynamic_case((7,), renormalize)
    got = dynamic_conv(x, params, (7,), batch=BATCH, renormalize=renormalize).data
    n_pts = len(params.points)
    # predictor column g * n_points + j as the oracle's (groups, points, c)
    kernel_pred = params.kernel_pred.data.reshape(4, 2, n_pts).transpose(1, 2, 0)
    glu_w = [p.data for p in params.parameters()[:4]]
    for sample, rows in enumerate(np.split(x.data, BATCH)):
        want = loop_dynamic1d(glu_numpy(rows, *glu_w), kernel_pred, params.point_w.data, 2,
                              [p[0] for p in params.points], renormalize=renormalize)
        np.testing.assert_allclose(got[sample * 7:(sample + 1) * 7], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack, beta", [
    ("attended-block+deformable", "0010"),
    ("attended-block+deformable", "1111"),
    ("attended-block+dynamic", "0000"),
])
def test_a_training_step_records_at_most_22_nodes(stack, beta, monkeypatch):
    """One 16-sample loss at 6x6: the conv is one op (the deformable conv's
    offset matmul, its sampling op and the packed-kernel reshape and
    matmul), not a tape loop over corners or taps."""
    task = make_task("salient-detection", seed=0, eval_size=4)
    model = build_model(task, stack, beta, seed=0)
    samples = task.train_batch(0, 16)
    recorded = []
    from_op = Tensor._from_op

    def counted(data, parents, backward):
        out = from_op(data, parents, backward)
        recorded.append(bool(out._parents))
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
    model.batch_loss(samples)
    assert 0 < sum(recorded) <= 22
