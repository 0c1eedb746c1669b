"""Dynamic convolution: kernels predicted per position from content.

The input first passes a gated linear unit (two full projections, one
squashed through a sigmoid and multiplied onto the other). From the
gated feature, a shared projection predicts one kernel per channel
group and position; a softmax over the window turns it into mixing
weights. Channels within a group share their kernel, so the predictor
costs N_s * C * N_g * N_k instead of a full per-channel kernel. The
window is then applied depthwise and a pointwise projection mixes
channels at the end.

At sequence edges, window positions falling outside contribute zero
and the remaining weights are used as they are; ``renormalize=True``
rescales the in-range weights to sum to one instead.
"""

from __future__ import annotations

import numpy as np

from .conv import check_layout, kernel_points, neighbor_table
from .errors import ContractViolation, ShapeMismatch, positive_int
from .tensor import Rng, Tensor


def group_of_channel(channel, channels, n_groups):
    """1-indexed group of a 1-indexed channel; groups are contiguous."""
    if not positive_int(n_groups) or channels % n_groups != 0:
        raise ShapeMismatch(f"groups ({n_groups}) must divide channels ({channels})")
    if not 1 <= channel <= channels:
        raise ContractViolation(f"channel {channel} out of range 1..{channels}")
    return (channel - 1) // (channels // n_groups) + 1


class DynamicConvParams:
    """GLU projections, grouped kernel predictor, pointwise output."""

    def __init__(self, c_in, c_out, kernel, n_groups, rng: Rng, ndim=1):
        if not all(map(positive_int, (c_in, c_out, n_groups))):
            raise ContractViolation(f"channels ({c_in!r}, {c_out!r}) and groups ({n_groups!r}) "
                                    f"must be positive ints")
        if c_in % n_groups != 0:
            raise ShapeMismatch(f"groups ({n_groups}) must divide channels ({c_in})")
        self.c_in = c_in
        self.n_groups = n_groups
        self.ndim = ndim
        self.points = tuple(kernel_points(kernel, ndim))
        self.glu_lin_w = rng.param((c_in, c_in), fan_in=c_in)
        self.glu_lin_b = rng.param((1, c_in), fan_in=c_in)
        self.glu_gate_w = rng.param((c_in, c_in), fan_in=c_in)
        self.glu_gate_b = rng.param((1, c_in), fan_in=c_in)
        # column g * n_points + j predicts kernel slot j of group g
        self.kernel_pred = rng.param((c_in, n_groups * len(self.points)), fan_in=c_in)
        self.point_w = rng.param((c_out, c_in), fan_in=c_in)

    def parameters(self):
        return [
            self.glu_lin_w,
            self.glu_lin_b,
            self.glu_gate_w,
            self.glu_gate_b,
            self.kernel_pred,
            self.point_w,
        ]


def glu(x, params: DynamicConvParams):
    """Gated linear unit, both branches keeping the channel width."""
    lin = x @ params.glu_lin_w + params.glu_lin_b
    gate = (x @ params.glu_gate_w + params.glu_gate_b).sigmoid()
    return lin * gate


def dynamic_kernel(h, params: DynamicConvParams):
    """Window weights per position and group, shape (n, n_groups, n_k).

    Softmax runs over the window, so every (position, group) row is a
    distribution regardless of content.
    """
    n = h.shape[0]
    n_pts = len(params.points)
    logits = h @ params.kernel_pred
    return logits.reshape(n, params.n_groups, n_pts).softmax(axis=-1)


def dynamic_conv(x, params: DynamicConvParams, extent=None, *, batch=1, renormalize=False):
    """Full dynamic convolution; x is (batch * n, c_in), ``batch`` samples
    stacked along the rows, each a sequence when ``extent`` is None, else
    a row-major grid with an n_k x n_k window."""
    extent = check_layout(x, params, extent, batch=batch)
    rows, c = x.shape
    h = glu(x, params)
    n_pts = len(params.points)
    # coefficient (i, j, ch) is kernel[i, group of ch, j]: the per-group
    # duplication happens inside the gather
    group = np.arange(c) // (c // params.n_groups)
    coeff_rows = ((np.arange(rows)[:, None, None] * params.n_groups + group) * n_pts
                  + np.arange(n_pts)[:, None])
    coeffs = dynamic_kernel(h, params).reshape(-1).take_rows(coeff_rows)
    table = neighbor_table(extent, params.points, batch)
    if renormalize:
        inside = Tensor((table >= 0).astype(np.float64)[:, :, None])
        coeffs = coeffs * (coeffs * inside).sum(axis=1, keepdims=True).reciprocal()
    mixed = (coeffs * h.take_rows(table, oob_zero=True)).sum(axis=1)
    return mixed @ params.point_w.T


# Layout-named aliases: the layout itself comes from ``extent``.
dynamic_conv1d = dynamic_conv2d = dynamic_conv
