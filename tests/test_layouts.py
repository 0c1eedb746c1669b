"""One convolution family for sequences and grids: the layout is the extent."""

import numpy as np
import pytest

from attnlab import conv, dynconv
from attnlab.conv import ConvParams, kernel_points, neighbor_index
from attnlab.dynconv import DynamicConvParams, dynamic_conv
from attnlab.errors import ContractViolation
from attnlab.flops import count_deformable
from attnlab.tensor import Rng, Tensor


def test_layout_names_alias_the_generic_functions():
    assert conv.regular_conv1d is conv.regular_conv2d is conv.regular_conv
    assert conv.deformable_conv1d is conv.deformable_conv2d is conv.deformable_conv
    assert dynconv.dynamic_conv1d is dynconv.dynamic_conv2d is dynconv.dynamic_conv


def test_neighbor_index_matches_explicit_shifts():
    for n in (1, 4, 7):
        for d in (-2, 0, 1):
            idx = np.arange(n) + d
            want = np.where((idx >= 0) & (idx < n), idx, -1)
            np.testing.assert_array_equal(neighbor_index((n,), (d,)), want)
    h, w = 3, 5
    for dy, dx in kernel_points(3, 2):
        want = np.full(h * w, -1)
        for y in range(h):
            for x in range(w):
                if 0 <= y + dy < h and 0 <= x + dx < w:
                    want[y * w + x] = (y + dy) * w + x + dx
        np.testing.assert_array_equal(neighbor_index((h, w), (dy, dx)), want)


def test_layout_mismatch_names_extent_and_ndim():
    rng = Rng(2)
    x = Tensor(rng.uniform(-1, 1, (9, 4)))
    params = ConvParams(4, 4, 3, ndim=2, rng=rng.child(0))
    with pytest.raises(ContractViolation, match=r"extent \(9,\) has 1 axes.*ndim=2"):
        conv.regular_conv2d(x, params)
    dyn = DynamicConvParams(4, 4, 3, n_groups=2, rng=rng.child(1))
    with pytest.raises(TypeError):
        dynconv.dynamic_conv1d(x, dyn, None, True)


def test_sequence_extent_equals_default():
    rng = Rng(5)
    x = Tensor(rng.uniform(-1, 1, (7, 4)))
    params = ConvParams(4, 3, 3, ndim=1, rng=rng.child(0), deformable=True)
    params.offset_w.data[:] = rng.uniform(-0.4, 0.4, params.offset_w.shape)
    for fn in (conv.regular_conv, conv.deformable_conv):
        np.testing.assert_array_equal(fn(x, params).data, fn(x, params, (7,)).data)
    dyn = DynamicConvParams(4, 4, 3, n_groups=2, rng=rng.child(1))
    np.testing.assert_array_equal(dynamic_conv(x, dyn).data,
                                  dynamic_conv(x, dyn, (7,)).data)


def test_count_deformable_rejects_other_ndim():
    with pytest.raises(ContractViolation):
        count_deformable(12, 27, 4, ndim=3)
