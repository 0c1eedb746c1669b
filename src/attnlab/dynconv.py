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

``dynamic_conv`` is one tape op: a numpy forward over the bodies of
``tensor`` (``_matmul``, ``_softmax_sum``, ``_take_rows``) and a
hand-written VJP into x and the six parameter tensors. Each group's
kernel is repeated over the group's channels, not gathered. ``glu`` and
``dynamic_kernel`` are tape views over the same bodies.
"""

from __future__ import annotations

import numpy as np

from .conv import check_layout, kernel_points, neighbor_table
from .errors import ContractViolation, ShapeMismatch, positive_int
from .tensor import Rng, _emit, _matmul, _softmax_sum, _take_rows, vjp_op


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


def _glu(x, lin_w, lin_b, gate_w, gate_b):
    """numpy body of ``glu``: its value and its VJP into x and the four
    projection tensors."""
    lin, lin_f = _matmul(x, lin_w)
    lin += lin_b
    pre, gate_f = _matmul(x, gate_w)
    pre += gate_b
    gate = 1.0 / (1.0 + np.exp(-pre))
    h = lin * gate
    _emit(macs=h.size, exps=gate.size, divs=gate.size)

    def vjp(g):
        g_lin = g * gate
        g_pre = g * lin * gate * (1.0 - gate)
        gx, g_lin_w = lin_f(g_lin)
        gx_gate, g_gate_w = gate_f(g_pre)
        return (gx + gx_gate, g_lin_w, g_lin.sum(axis=0, keepdims=True), g_gate_w,
                g_pre.sum(axis=0, keepdims=True))

    return h, vjp


def _dynamic_kernel(h, kernel_pred, n_groups):
    """numpy body of ``dynamic_kernel``: its value and its VJP into h and
    the predictor."""
    logits, logit_f = _matmul(h, kernel_pred)
    shape = (len(h), n_groups, logits.shape[1] // n_groups)
    kernel, soft_f = _softmax_sum(logits.reshape(shape), shape=shape)
    return kernel, lambda g: logit_f(soft_f(g)[0].reshape(logits.shape))


def glu(x, params: DynamicConvParams):
    """Gated linear unit, both branches keeping the channel width."""
    inputs = (x, *params.parameters()[:4])
    return vjp_op(*_glu(*(t.data for t in inputs)), inputs)


def dynamic_kernel(h, params: DynamicConvParams):
    """Window weights per position and group, shape (n, n_groups, n_k).

    Softmax runs over the window, so every (position, group) row is a
    distribution regardless of content.
    """
    return vjp_op(*_dynamic_kernel(h.data, params.kernel_pred.data, params.n_groups),
                  (h, params.kernel_pred))


def _dynamic_conv(x, lin_w, lin_b, gate_w, gate_b, kernel_pred, point_w, *, table, n_groups,
                  renormalize):
    """numpy body of ``dynamic_conv``: its value and its VJP into x and
    the six parameter tensors."""
    h, glu_f = _glu(x, lin_w, lin_b, gate_w, gate_b)
    kernel, kernel_f = _dynamic_kernel(h, kernel_pred, n_groups)
    taps, tap_f = _take_rows(h, table, oob_zero=True)
    rows, n_pts, c = taps.shape
    if renormalize:
        inside = (table >= 0)[:, None, :]
        scale = 1.0 / (kernel * inside).sum(axis=-1, keepdims=True)
        # charged per channel as the per-channel rescale it stands for: the
        # in-range mass and the rescale one multiply each per tap, one
        # reciprocal per (cell, channel)
        _emit(macs=2 * taps.size, divs=rows * c)
        mix = kernel * scale
    else:
        mix = kernel
    # coefficient (i, j, ch) is mix[i, group of ch, j]
    coeff = np.repeat(mix.swapaxes(1, 2), c // n_groups, axis=2)
    mixed = np.einsum("rjc,rjc->rc", taps, coeff)
    _emit(macs=taps.size)
    out, out_f = _matmul(mixed, point_w.T)

    def vjp(g):
        g_mixed, g_point_t = out_f(g)
        # per (row, group), the group's taps (n_pts, group size) @ its gradient
        g_mix = np.matmul(taps.reshape(rows, n_pts, n_groups, -1).transpose(0, 2, 1, 3),
                          g_mixed.reshape(rows, n_groups, -1, 1))[..., 0]
        if renormalize:
            g_mix = scale * (g_mix - inside * scale * (g_mix * kernel).sum(axis=-1,
                                                                          keepdims=True))
        g_h, g_kernel_pred = kernel_f(g_mix)
        g_h += tap_f(coeff * g_mixed[:, None, :])
        return *glu_f(g_h), g_kernel_pred, g_point_t.T

    return out, vjp


def dynamic_conv(x, params: DynamicConvParams, extent=None, *, batch=1, renormalize=False):
    """Full dynamic convolution as one tape op; x is (batch * n, c_in),
    ``batch`` samples stacked along the rows, each a sequence when
    ``extent`` is None, else a row-major grid with an n_k x n_k window."""
    extent = check_layout(x, params, extent, batch=batch)
    inputs = (x, *params.parameters())
    return vjp_op(*_dynamic_conv(*(t.data for t in inputs),
                                 table=neighbor_table(extent, params.points, batch),
                                 n_groups=params.n_groups, renormalize=renormalize), inputs)


# Layout-named aliases: the layout itself comes from ``extent``.
dynamic_conv1d = dynamic_conv2d = dynamic_conv
