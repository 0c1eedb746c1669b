import numpy as np
import pytest

from attnlab.conv import (
    ConvParams,
    deformable_conv,
    deformable_conv1d,
    deformable_conv2d,
    indicator_weights,
    kernel_points,
    linear_kernel,
    regular_conv1d,
    regular_conv2d,
)
from attnlab.errors import ContractViolation, ShapeMismatch
from attnlab.tensor import Rng, Tensor, finite_diff_check

from oracles import loop_deform1d, loop_deform2d, sliding_conv1d, sliding_conv2d


def test_kernel_points_layout():
    assert kernel_points(3, 1) == [(-1,), (0,), (1,)]
    pts = kernel_points(3, 2)
    assert len(pts) == 9
    assert pts[0] == (-1, -1) and pts[4] == (0, 0) and pts[8] == (1, 1)
    assert kernel_points(1, 2) == [(0, 0)]
    with pytest.raises(ContractViolation):
        kernel_points(2, 1)
    with pytest.raises(ContractViolation):
        kernel_points(3, 3)


def test_regular_conv2d_matches_sliding_oracle():
    rng = Rng(31)
    for trial in range(20):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        kernel = 3 if trial % 4 else 1
        params = ConvParams(c_in, c_out, kernel, ndim=2, rng=rng.child(trial))
        x = rng.uniform(-2, 2, (h, w, c_in))
        got = regular_conv2d(Tensor(x.reshape(h * w, c_in)), params, (h, w))
        want = sliding_conv2d(x, [t.data for t in params.point_weights], params.points)
        assert np.abs(got.data.reshape(h, w, c_out) - want).max() <= 1e-10


def test_regular_conv1d_matches_sliding_oracle():
    rng = Rng(37)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        params = ConvParams(3, 2, 3, ndim=1, rng=rng.child(trial))
        x = rng.uniform(-2, 2, (n, 3))
        got = regular_conv1d(Tensor(x), params)
        want = sliding_conv1d(
            x, [t.data for t in params.point_weights], [p[0] for p in params.points]
        )
        assert np.abs(got.data - want).max() <= 1e-10


def test_indicator_weights_realize_the_same_conv():
    rng = Rng(41)
    h, w, c = 4, 5, 3
    params = ConvParams(c, c, 3, ndim=2, rng=rng)
    x = rng.uniform(-1, 1, (h * w, c))
    mats = indicator_weights((h, w), 3)
    want = np.zeros((h * w, c))
    for mat, wm in zip(mats, params.point_weights):
        want += (mat @ x) @ wm.data.T
    got = regular_conv2d(Tensor(x), params, (h, w))
    assert np.abs(got.data - want).max() <= 1e-12


def test_indicator_weights_are_one_hot_rows():
    mats = indicator_weights((3, 3), 3)
    center = mats[4]
    assert np.array_equal(center, np.eye(9))
    up_left = mats[0]  # offset (-1, -1): corner queries fall off the edge
    assert up_left[0].sum() == 0.0
    assert up_left[4, 0] == 1.0 and up_left[4].sum() == 1.0
    seq = indicator_weights(5, 3)
    assert seq[2][1, 2] == 1.0 and seq[0][0].sum() == 0.0


def test_linear_kernel_values():
    assert linear_kernel(0.3, 0.0) == 0.7
    assert linear_kernel(2.5, 1.0) == 0.0
    assert linear_kernel(1.0, 1.0) == 1.0
    assert linear_kernel(0.25, 1.0) == linear_kernel(1.0, 0.25)


def test_bilinear_weights_partition_unity_inside():
    rng = Rng(43)
    pos = rng.uniform(0.0, 6.0, (1000, 2))  # interior of an 8x8 grid
    y0 = np.floor(pos[:, 0])
    x0 = np.floor(pos[:, 1])
    total = np.zeros(1000)
    for ny in (y0, y0 + 1):
        for nx in (x0, x0 + 1):
            total += linear_kernel(pos[:, 0], ny) * linear_kernel(pos[:, 1], nx)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_deformable_with_zero_predictor_equals_regular():
    rng = Rng(47)
    for extent in [(3, 3), (5, 4), (2, 7)]:
        h, w = extent
        params = ConvParams(3, 4, 3, ndim=2, rng=rng.child(h, w), deformable=True)
        x = Tensor(rng.uniform(-2, 2, (h * w, 3)))
        reg = regular_conv2d(x, params, extent)
        deform = deformable_conv2d(x, params, extent)
        assert np.abs(deform.data - reg.data).max() <= 1e-12

    params = ConvParams(3, 3, 3, ndim=1, rng=rng.child(99), deformable=True)
    x = Tensor(rng.uniform(-2, 2, (9, 3)))
    assert np.abs(deformable_conv1d(x, params).data - regular_conv1d(x, params).data).max() <= 1e-12


def test_deformable_matches_loop_oracle():
    rng = Rng(53)
    h, w, c = 5, 4, 3
    params = ConvParams(c, 2, 3, ndim=2, rng=rng.child(0), deformable=True)
    params.offset_w.data[:] = rng.uniform(-0.4, 0.4, params.offset_w.shape)
    x = rng.uniform(-1, 1, (h, w, c))
    got = deformable_conv2d(Tensor(x.reshape(h * w, c)), params, (h, w))
    want = loop_deform2d(
        x, [t.data for t in params.point_weights], params.points, params.offset_w.data
    )
    assert np.abs(got.data.reshape(h, w, 2) - want).max() <= 1e-9

    params1 = ConvParams(c, 2, 3, ndim=1, rng=rng.child(1), deformable=True)
    params1.offset_w.data[:] = rng.uniform(-0.6, 0.6, params1.offset_w.shape)
    xs = rng.uniform(-1, 1, (8, c))
    got1 = deformable_conv1d(Tensor(xs), params1)
    want1 = loop_deform1d(
        xs, [t.data for t in params1.point_weights], [p[0] for p in params1.points],
        params1.offset_w.data,
    )
    assert np.abs(got1.data - want1).max() <= 1e-9

    # batches of 2-3 samples, each against the oracle on its own, with the
    # predictor scaled so that displacements pass the extent plus two cells
    # either way: many reads straddle the edge, one corner inside, one outside
    for extent, batch in [((5, 4), 3), ((7,), 2)]:
        ndim = len(extent)
        params = ConvParams(c, 2, 3, ndim=ndim, rng=rng.child(2, batch), deformable=True)
        xs = rng.uniform(-1, 1, (batch, *extent, c))
        params.offset_w.data[:] = rng.uniform(-1, 1, params.offset_w.shape)
        disp = xs @ params.offset_w.data
        params.offset_w.data *= (max(extent) + 2.5) / min(disp.max(), -disp.min())
        got = deformable_conv(Tensor(xs.reshape(-1, c)), params, extent, batch=batch).data
        disp = (xs @ params.offset_w.data).reshape(batch, *extent, -1, ndim)
        pos = (np.moveaxis(np.indices(extent), 0, -1)[..., None, :]
               + np.array(params.points) + disp)
        sizes = np.array(extent)
        straddles = ((np.floor(pos) == -1) | (np.floor(pos) == sizes - 1)) & (pos % 1 != 0)
        assert straddles.any()
        weights = [t.data for t in params.point_weights]
        for sample, out in zip(xs, got.reshape(batch, *extent, 2)):
            if ndim == 2:
                want = loop_deform2d(sample, weights, params.points, params.offset_w.data)
            else:
                want = loop_deform1d(sample, weights, [p[0] for p in params.points],
                                     params.offset_w.data)
            assert np.abs(out - want).max() <= 1e-9


def test_reads_far_outside_come_back_zero():
    rng = Rng(59)
    params = ConvParams(2, 2, 1, ndim=2, rng=rng, deformable=True)
    params.offset_w.data[:] = 100.0  # push every sample far off the grid
    x = Tensor(np.ones((9, 2)))
    out = deformable_conv2d(x, params, (3, 3))
    assert np.abs(out.data).max() == 0.0


def test_a_finite_displacement_past_int64_reads_as_one_of_100_cells():
    """Row 4 displaced by 1e19 cells, out of int64's range, reads zero
    without a cast warning, and every other row reads as before: the
    output and the kernel and predictor gradients equal those of a
    100-cell displacement."""
    results = []
    for far in (100.0, 1e19):
        rng = Rng(67)
        params = ConvParams(3, 2, 3, ndim=2, rng=rng.child(0), deformable=True)
        params.offset_w.data[1:] = rng.uniform(-0.4, 0.4, (2, 18))
        # channel 0, one on row 4 only, moves its points +far down and -far across
        params.offset_w.data[0] = far * np.tile([1.0, -1.0], 9)
        x = rng.uniform(-1, 1, (9, 3))
        x[:, 0] = 0.0
        x[4, 0] = 1.0
        probe = Tensor(rng.uniform(-1, 1, (9, 2)))
        out = deformable_conv2d(Tensor(x), params, (3, 3))
        (out * probe).sum().backward()
        results.append([out.data, params.weight.grad, params.offset_w.grad])
    assert not results[0][0][4].any()
    for near, past in zip(*results):
        np.testing.assert_array_equal(past, near)


def test_deformable_gradients_off_integer():
    rng = Rng(61)
    params = ConvParams(3, 2, 3, ndim=2, rng=rng.child(0), deformable=True)
    params.offset_w.data[:] = rng.uniform(0.05, 0.3, params.offset_w.shape)
    x = Tensor(rng.uniform(-1, 1, (9, 3)))
    probe = Tensor(rng.uniform(-1, 1, (9, 2)))

    def f():
        return (deformable_conv2d(x, params, (3, 3)) * probe).sum()

    assert finite_diff_check(f, params.parameters()) <= 1e-4


def test_offset_predictor_learning_rate_scale():
    params = ConvParams(4, 4, 3, ndim=2, rng=Rng(1), deformable=True)
    assert params.offset_w.lr_scale == 0.1
    assert np.all(params.offset_w.data == 0.0)
    assert all(t.lr_scale == 1.0 for t in params.point_weights)


def test_contract_errors():
    rng = Rng(2)
    plain = ConvParams(3, 3, 3, ndim=2, rng=rng)
    x = Tensor(np.zeros((9, 3)))
    with pytest.raises(ContractViolation):
        deformable_conv2d(x, plain, (3, 3))
    with pytest.raises(ShapeMismatch):
        regular_conv2d(x, plain, (4, 3))
    seq_params = ConvParams(3, 3, 3, ndim=1, rng=rng)
    with pytest.raises(ContractViolation):
        regular_conv2d(x, seq_params, (3, 3))
    with pytest.raises(ContractViolation):
        regular_conv1d(x, plain)
