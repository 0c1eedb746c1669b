"""Convolutions realized on the attention path.

A regular convolution is attention with one head per sampling point:
the head attends with weight one to the key sitting at the query plus
that point's offset (keys off the edge contribute zero), the value
projection is the identity, and the head's output projection carries
the learnable kernel slice. The forward reads those indicator weights
as one gather of an (n, K) neighbour table and aggregates it with one
packed (K * c_in, c_out) kernel, which is the same arithmetic without
storing the one-hot matrices; ``indicator_weights`` materializes them
for anyone who wants the literal attention view.

The deformable variant displaces every sampling point by an offset
predicted from the query's content (a shared 1x1 projection, zero
initialized, stepped at a tenth of the global learning rate) and reads
features at the fractional result through the linear interpolation
kernel g(a, b) = max(0, 1 - |a - b|), multiplied across axes. Reads
outside the extent return zero. Along an axis the two cells around p
weigh 1 - f and f, f = p - floor(p): g's values with g's one-sided slope
at whole cells, whose kink would pin the zero-initialized offsets at zero.
The sampling is one tape op, ``_interpolate``: a numpy forward that
reads every corner of x in one ``tensor._take_rows`` gather and weighs
them in one contraction, and a hand-written VJP into the displacement
and, when x is tracked, into x.
It ends in the regular convolution's matmul, so with the predictor at
zero it reproduces that convolution bit for bit.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from .errors import ContractViolation, ShapeMismatch, positive_int
from .relpos import cells, flat_index
from .tensor import Rng, Tensor, _emit, _take_rows, rows_per_sample, vjp_op, zeros

OFFSET_LR_SCALE = 0.1


def kernel_points(kernel, ndim):
    """Sampling offsets of a centered kernel, row-major, center included."""
    if not positive_int(kernel) or kernel % 2 != 1:
        raise ContractViolation(f"kernel must be an odd positive int, got {kernel!r}")
    if not (positive_int(ndim) and ndim <= 2):
        raise ContractViolation(f"ndim must be 1 or 2, got {ndim!r}")
    reach = kernel // 2
    return list(itertools.product(range(-reach, reach + 1), repeat=ndim))


class ConvParams:
    """One packed (K * c_in, c_out) kernel whose rows m * c_in to
    (m + 1) * c_in hold point m's (c_out, c_in) kernel, transposed;
    optionally an offset predictor for the deformable variant."""

    def __init__(self, c_in, c_out, kernel, ndim, rng: Rng, deformable=False):
        if not (positive_int(c_in) and positive_int(c_out)):
            raise ContractViolation(f"channels ({c_in!r}, {c_out!r}) must be positive ints")
        self.c_in = c_in
        self.c_out = c_out
        self.ndim = ndim
        self.points = tuple(kernel_points(kernel, ndim))
        k = len(self.points)
        # one draw of K (c_out, c_in) blocks gives the numbers of K draws
        drawn = rng.param((k, c_out, c_in), fan_in=c_in * k).data
        self.weight = Tensor(drawn.transpose(0, 2, 1).reshape(k * c_in, c_out),
                             requires_grad=True)
        if deformable:
            self.offset_w = zeros((c_in, ndim * k), requires_grad=True, lr_scale=OFFSET_LR_SCALE)
        else:
            self.offset_w = None

    @property
    def point_weights(self):
        """Per-point (c_out, c_in) kernels: read-only views of ``weight``."""
        blocks = self.weight.data.reshape(-1, self.c_in, self.c_out).transpose(0, 2, 1)
        blocks.flags.writeable = False
        return [Tensor(block) for block in blocks]

    def parameters(self):
        return [self.weight] + ([] if self.offset_w is None else [self.offset_w])


def check_layout(x, params, extent=None, batch=1):
    """The extent tuple of one sample of x, checked against conv or
    dynamic conv params; x stacks ``batch`` samples along its rows.

    ``extent=None`` means sequences of ``x.shape[0] // batch`` cells; a
    tuple gives the sizes of a row-major grid.
    """
    rows = rows_per_sample(x, batch, "input")
    extent = (rows,) if extent is None else tuple(extent)
    if len(extent) != params.ndim:
        raise ContractViolation(f"extent {extent} has {len(extent)} axes, params "
                                f"were built for ndim={params.ndim}")
    if not all(map(positive_int, extent)):
        raise ContractViolation(f"extent {extent} is not all positive ints")
    n = math.prod(extent) * batch
    if x.shape[0] != n:
        raise ShapeMismatch(f"input has {x.shape[0]} cells, extent {extent} and batch "
                            f"{batch} imply {n}")
    if x.shape[1] != params.c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, params expect {params.c_in}")
    return extent


def _displaced(extent, points, batch):
    """Integer coordinates of every cell displaced by every point, for
    ``batch`` samples stacked along the rows, shape (ndim, batch * n, K)."""
    at = cells(extent)[:, :, None] + np.array(points, dtype=np.int64).T[:, None, :]
    return np.tile(at, (1, batch, 1))


def _first_rows(extent, batch):
    """(batch * n, 1): the row where each row's sample starts."""
    n = math.prod(extent)
    return np.repeat(np.arange(batch) * n, n)[:, None]


@cache
def neighbor_table(extent, points, batch=1):
    """(batch * n, K) rows of each cell displaced by each point, -1 off
    the edge, for ``batch`` samples stacked along the rows: each sample's
    rows point into its own sample. Built once per key and shared, so
    read-only."""
    table = flat_index(_displaced(extent, points, batch), extent, _first_rows(extent, batch))
    table.flags.writeable = False
    return table


def neighbor_index(extent, point):
    """For each cell, the row of the cell displaced by ``point``; -1 off
    the edge."""
    return neighbor_table(tuple(extent), (tuple(point),))[:, 0]


def indicator_weights(extent, kernel):
    """The regular convolution's attention matrices, one per point.

    Entry [q, k] is 1.0 exactly when key k sits at query q displaced by
    the point's offset; rows whose target falls off the edge are all
    zero. Returned as plain arrays for inspection and testing.
    """
    extent = tuple(int(s) for s in np.atleast_1d(extent))
    n = math.prod(extent)
    mats = []
    for idx in neighbor_table(extent, tuple(kernel_points(kernel, len(extent)))).T:
        rows = np.flatnonzero(idx >= 0)
        mat = np.zeros((n, n))
        mat[rows, idx[rows]] = 1.0
        mats.append(mat)
    return mats


def _aggregate(sampled, params: ConvParams):
    """(n, K, c_in) samples times the packed kernel: (n, c_out)."""
    return sampled.reshape(sampled.shape[0], -1) @ params.weight


def regular_conv(x, params: ConvParams, extent=None, *, batch=1):
    """Convolution with zero padding; x is (batch * n, c_in), ``batch``
    samples stacked along the rows, each a sequence when ``extent`` is
    None, else a row-major grid of that extent."""
    extent = check_layout(x, params, extent, batch=batch)
    table = neighbor_table(extent, params.points, batch)
    return _aggregate(x.take_rows(table, oob_zero=True), params)


def linear_kernel(a, b):
    """Interpolation kernel g(a, b) = max(0, 1 - |a - b|) on numbers or arrays."""
    return np.maximum(0.0, 1.0 - np.abs(np.subtract(a, b)))


def _interpolate(x, disp, extent, points, batch):
    """Rows of x read at fractional cells, (batch * n, K, c_in), as one
    tape op over x and the (batch * n, ndim * K) displacement, whose column
    ndim * m + axis displaces point m along that axis; each position stays
    within its own sample's extent.

    Each read sums the 2**ndim surrounding cells, weighted by the product
    of the per-axis linear kernels (1 - f, f) of the fraction f past the
    lower cell; cells outside the extent read zero. All corners of all
    reads are one ``_take_rows`` gather of x, (2**ndim, rows, K, c_in),
    weighted and summed in one contraction. The VJP gives the displacement
    the kernels' slope in f, one-sided at whole cells, from one dot of the
    gradient with the corner reads, held from the forward, and x one
    bincount over every corner's reads, skipped when x is untracked.
    """
    ndim = len(extent)
    at = _displaced(extent, points, batch)
    pos = at + np.moveaxis(disp.data.reshape(*at.shape[1:], ndim), -1, 0)
    floor = np.floor(pos)
    frac = pos - floor
    # a floor below -2 or above the size reads only off-edge cells either
    # way; clipping it keeps far but finite positions inside int64
    lows = np.clip(floor, -2, np.reshape(extent, (-1, 1, 1))).astype(np.int64)
    bits = np.array(list(itertools.product((0, 1), repeat=ndim)))
    # (2**ndim, rows, K) corner rows of x and (2**ndim, ndim, rows, K) kernels
    idx = flat_index(lows[:, None] + bits.T[:, :, None, None], extent,
                     _first_rows(extent, batch))
    kernels = np.stack([1.0 - frac, frac])[bits, np.arange(ndim)]
    weight = kernels.prod(axis=1)
    reads, scatter = _take_rows(x.data, idx, oob_zero=True)
    sampled = np.einsum("nrk,nrkc->rkc", weight, reads)
    _emit(macs=(ndim - 1) * weight.size + sampled.size * len(bits))

    def vjp(g):
        dot = np.einsum("rkc,nrkc->nrk", g, reads)
        # the slope of a corner's weight along an axis: the other axes'
        # kernels, negated for the lower cell
        slope = np.stack([np.prod(np.delete(kernels, axis, 1), axis=1)
                          for axis in range(ndim)], axis=1)
        slope *= np.where(bits, 1.0, -1.0)[:, :, None, None]
        gpos = np.einsum("nrk,nark->ark", dot, slope)
        gx = scatter(g * weight[..., None]) if x.tracked else None
        return gx, np.moveaxis(gpos, 0, -1).reshape(disp.shape)

    return vjp_op(sampled, vjp, (x, disp))


def deformable_conv(x, params: ConvParams, extent=None, *, batch=1):
    """Deformable convolution; x is (batch * n, c_in), laid out as in
    regular_conv."""
    extent = check_layout(x, params, extent, batch=batch)
    if params.offset_w is None:
        raise ContractViolation("params carry no offset predictor; build with deformable=True")
    disp = x @ params.offset_w
    return _aggregate(_interpolate(x, disp, extent, params.points, batch), params)


# Layout-named aliases: the layout itself comes from ``extent``.
regular_conv1d = regular_conv2d = regular_conv
deformable_conv1d = deformable_conv2d = deformable_conv
