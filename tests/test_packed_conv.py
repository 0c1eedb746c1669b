"""The convolutions as one gather and one packed-kernel matmul."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab import conv, dynconv, tensor
from attnlab.conv import (
    ConvParams,
    deformable_conv,
    kernel_points,
    neighbor_index,
    neighbor_table,
    regular_conv,
)
from attnlab.dynconv import DynamicConvParams, dynamic_conv
from attnlab.flops import count_deformable, count_dynamic, count_regular
from attnlab.tensor import Rng, Tensor, counting


@st.composite
def conv_shapes(draw):
    """A 1-d or 2-d extent, channel counts, an odd kernel and a group
    count that divides c_in."""
    ndim = draw(st.integers(1, 2))
    extent = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    c_in = draw(st.integers(1, 6))
    c_out = draw(st.integers(1, 4))
    kernel = draw(st.sampled_from((1, 3, 5)))
    n_groups = draw(st.sampled_from([g for g in range(1, c_in + 1) if c_in % g == 0]))
    return extent, c_in, c_out, kernel, n_groups, Rng(draw(st.integers(0, 2**16)))


@settings(max_examples=40, deadline=None)
@given(conv_shapes())
def test_conv_macs_equal_the_closed_forms(case):
    extent, c_in, c_out, kernel, n_groups, rng = case
    ndim, n = len(extent), math.prod(extent)
    k = kernel ** ndim
    x = Tensor(rng.uniform(-1, 1, (n, c_in)))

    params = ConvParams(c_in, c_out, kernel, ndim, rng=rng.child(0), deformable=True)
    params.offset_w.data[:] = rng.uniform(-0.7, 0.7, params.offset_w.shape)
    with counting() as reg:
        regular_conv(x, params, extent)
    assert (reg.macs, reg.exps, reg.divs) == (count_regular(n, k, c_in, c_out), 0, 0)
    with counting() as dfm:
        deformable_conv(x, params, extent)
    assert (dfm.macs, dfm.exps, dfm.divs) == (count_deformable(n, k, c_in, c_out, ndim), 0, 0)

    dyn = DynamicConvParams(c_in, c_out, kernel, n_groups, rng=rng.child(1), ndim=ndim)
    with counting() as plain:
        dynamic_conv(x, dyn, extent)
    assert (plain.macs, plain.exps, plain.divs) == count_dynamic(n, k, c_in, n_groups, c_out)
    with counting() as renorm:
        dynamic_conv(x, dyn, extent, renormalize=True)
    # the in-range mass and the rescale are one multiply each per tap,
    # plus one reciprocal per (cell, channel)
    assert (renorm.macs - plain.macs, renorm.exps - plain.exps,
            renorm.divs - plain.divs) == (2 * n * k * c_in, 0, n * c_in)


def test_point_weights_equal_successive_draws():
    for c_in, c_out, kernel, ndim in [(3, 2, 3, 2), (1, 4, 5, 1), (4, 4, 1, 2)]:
        params = ConvParams(c_in, c_out, kernel, ndim, rng=Rng(7, c_in))
        k = len(params.points)
        stream = Rng(7, c_in)
        want = [stream.param((c_out, c_in), fan_in=c_in * k).data for _ in range(k)]
        got = params.point_weights
        assert len(got) == k
        for view, drawn in zip(got, want):
            np.testing.assert_array_equal(view.data, drawn)
            assert np.shares_memory(view.data, params.weight.data)
            assert not view.data.flags.writeable


def test_parameters_hold_one_kernel():
    plain = ConvParams(3, 5, 3, ndim=2, rng=Rng(1))
    assert plain.parameters() == [plain.weight]
    assert plain.weight.shape == (9 * 3, 5)
    deform = ConvParams(3, 5, 3, ndim=2, rng=Rng(1), deformable=True)
    assert deform.parameters() == [deform.weight, deform.offset_w]


def test_neighbor_table_is_cached_read_only_and_columnwise():
    for extent, kernel in [((7,), 3), ((3, 5), 3), ((4, 2), 5)]:
        points = tuple(kernel_points(kernel, len(extent)))
        table = neighbor_table(extent, points)
        assert table is neighbor_table(extent, points)
        assert table.shape == (math.prod(extent), len(points))
        assert not table.flags.writeable
        for column, point in zip(table.T, points):
            np.testing.assert_array_equal(column, neighbor_index(extent, point))


def test_each_conv_gathers_its_input_once_per_corner(monkeypatch):
    rng = Rng(3)
    x = Tensor(rng.uniform(-1, 1, (12, 2)))
    reads = []
    take_rows = tensor._take_rows

    def counted(data, *args, **kwargs):
        reads.append(data is x.data)
        return take_rows(data, *args, **kwargs)

    # the numpy body, under each name the convs and the tape wrapper call
    for module in (tensor, conv, dynconv):
        monkeypatch.setattr(module, "_take_rows", counted)
    regular_conv(x, ConvParams(2, 3, 3, ndim=2, rng=rng.child(0)), (3, 4))
    assert reads.count(True) == 1
    reads.clear()
    deformable_conv(x, ConvParams(2, 3, 3, ndim=2, rng=rng.child(1), deformable=True), (3, 4))
    assert reads.count(True) == 4
    reads.clear()
    # one gather, of the gated feature's taps: each group's kernel is
    # repeated over its channels, not gathered
    dynamic_conv(x, DynamicConvParams(2, 3, 3, 1, rng=rng.child(2), ndim=2), (3, 4))
    assert reads.count(True) == 0 and len(reads) == 1
