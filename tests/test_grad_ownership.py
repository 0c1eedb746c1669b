"""Who owns a gradient array: a leaf keeps a private copy, which
clip_gradients scales in place, while an intermediate may hold an array
another node passed it, so a later gradient must not be added into it."""

import numpy as np
import pytest

from attnlab.tensor import Rng, Tensor
from attnlab.train import clip_gradients


def test_leaf_gradients_stay_private():
    a = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 5.0]), requires_grad=True)
    # the add hands both leaves the same incoming array
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    # global norm 2 clipped to 0.5: each leaf scaled by 1/4 exactly once
    clip_gradients([a, b], 0.5)
    np.testing.assert_array_equal(a.grad, [0.25, 0.25])
    np.testing.assert_array_equal(b.grad, [0.25, 0.25])


@pytest.mark.parametrize("order", range(4))
def test_intermediate_fed_a_transposed_view_first_sums_its_consumers(order):
    rng = Rng(37)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w = rng.uniform(-1, 1, (3, 4))
    v = rng.uniform(-1, 1, (4, 3))
    p = rng.uniform(-1, 1, (4, 3))
    h = x * Tensor(w)
    z = y * Tensor(v)
    # the add hands h.T and z one array; h then holds a swapped view of it
    # while z, still waiting on its second consumer, holds the array itself
    pair = h.T + z if order % 2 else z + h.T
    terms = [(pair * Tensor(p)).sum(), (h * z.T).sum()]
    (terms[0] + terms[1] if order < 2 else terms[1] + terms[0]).backward()
    np.testing.assert_allclose(x.grad, (p.T + z.data.T) * w, rtol=0, atol=1e-15)
    np.testing.assert_allclose(y.grad, (p + h.data.T) * v, rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", range(4))
def test_parents_of_an_add_share_its_gradient_without_corrupting_it(order):
    rng = Rng(41)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    p = rng.uniform(-1, 1, (2, 3))
    q = rng.uniform(-1, 1, (2, 3))
    h1 = x * 2.0
    h2 = y * 3.0
    # the add hands h1 and h2 one array; the product gives each another
    pair = h1 + h2 if order % 2 else h2 + h1
    terms = [(pair * Tensor(p)).sum(), (h1 * h2 * Tensor(q)).sum()]
    (terms[0] + terms[1] if order < 2 else terms[1] + terms[0]).backward()
    np.testing.assert_allclose(x.grad, 2.0 * (p + q * h2.data), rtol=0, atol=1e-15)
    np.testing.assert_allclose(y.grad, 3.0 * (p + q * h1.data), rtol=0, atol=1e-15)
