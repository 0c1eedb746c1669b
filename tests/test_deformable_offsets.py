"""The deformable offset predictor starts at zero and must still learn.

At zero offsets every sampling position is a whole cell, where the
interpolation kernel max(0, 1 - |a - b|) has a kink; the gradient must be
the one-sided slope there, or the offsets never leave zero.
"""

import math

import numpy as np
import pytest

from attnlab.conv import ConvParams, deformable_conv
from attnlab.models import build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor
from attnlab.train import train_model


@pytest.mark.parametrize("extent", [(7,), (3, 4)])
def test_offset_gradient_at_zero_is_the_forward_difference(extent):
    rng = Rng(71)
    n, c_in = math.prod(extent), 3
    params = ConvParams(c_in, 2, 3, ndim=len(extent), rng=rng.child(0), deformable=True)
    # a positive input displaces every point forward when one entry grows
    x = Tensor(rng.uniform(0.5, 1.5, (n, c_in)))
    probe = Tensor(rng.uniform(-1, 1, (n, 2)))

    def f():
        return (deformable_conv(x, params, extent) * probe).sum()

    loss = f()
    loss.backward()
    grad = params.offset_w.grad
    h = 1e-6
    numeric = np.zeros_like(grad)
    for idx in np.ndindex(grad.shape):
        params.offset_w.data[idx] = h
        numeric[idx] = (float(f().data) - float(loss.data)) / h
        params.offset_w.data[idx] = 0.0
    assert np.abs(numeric).max() > 1e-2
    np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kind, stack", [
    ("salient-detection", "attended-block+deformable"),
    ("windowed-denoise", "transformer+deformable"),
    ("permuted-copy", "transformer+deformable"),
])
def test_short_training_moves_the_offsets_off_zero(kind, stack):
    task = make_task(kind, seed=0, eval_size=4)
    model = build_model(task, stack, "1111", seed=0)
    offset_w = [p for p in model.parameters() if p.lr_scale != 1.0]
    assert len(offset_w) == 1 and not offset_w[0].data.any()
    train_model(model, task, steps=10, batch_size=4, lr=0.1, clip=1.0)
    assert np.abs(offset_w[0].data).max() > 0.0
