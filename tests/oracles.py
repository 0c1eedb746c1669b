"""Reference implementations used only by tests.

Everything here is written as plain loops over scalars/vectors so it
shares no code path with the library. Slow on purpose; run at toy
shapes only.
"""

import math

import numpy as np


def head_arrays(params):
    """Pull per-head numpy arrays out of an AttentionParams."""
    return {
        "query_embed": list(params.query_embed.data),
        "key_embed": list(params.key_embed_.data),
        "pos_embed": list(params.pos_embed.data),
        "content_bias": list(params.content_bias.data[..., 0]),
        "position_bias": list(params.position_bias.data[..., 0]),
        "value_proj": list(params.value_proj.data),
        "out_proj": list(params.out_proj.data),
    }


def loop_attention(z, x, p, gates, table=None, index=None, mask=None):
    """Four-term attention via explicit per-pair loops."""
    heads = len(p["query_embed"])
    n_q = z.shape[0]
    n_k = x.shape[0]
    y = np.zeros((n_q, z.shape[1]))
    for m in range(heads):
        u_proj = p["query_embed"][m]
        k_proj = p["key_embed"][m]
        r_proj = p["pos_embed"][m]
        u_bias = p["content_bias"][m]
        v_bias = p["position_bias"][m]
        w_val = p["value_proj"][m]
        w_out = p["out_proj"][m]
        energy = np.zeros((n_q, n_k))
        for q in range(n_q):
            zq = u_proj @ z[q]
            for k in range(n_k):
                xk = k_proj @ x[k]
                r = r_proj @ table[index[q, k]] if table is not None else None
                e = 0.0
                if gates[0]:
                    e += float(zq @ xk)
                if gates[1]:
                    e += float(zq @ r)
                if gates[2]:
                    e += float(u_bias @ xk)
                if gates[3]:
                    e += float(v_bias @ r)
                energy[q, k] = e
        for q in range(n_q):
            keep = [k for k in range(n_k) if mask is None or mask[q, k]]
            top = max(energy[q, k] for k in keep)
            exps = {k: math.exp(energy[q, k] - top) for k in keep}
            total = sum(exps.values())
            head_q_rows = np.zeros(u_proj.shape[0])
            for k in keep:
                head_q_rows += (exps[k] / total) * (w_val @ x[k])
            y[q] += head_q_rows @ w_out
    return y


def sliding_conv2d(x, weights, points):
    """Regular convolution by sliding windows with zero padding.

    x: (h, w, c_in); weights: list of (c_out, c_in), one per sampling
    point; points: list of (dy, dx) offsets.
    """
    h, w, _ = x.shape
    c_out = weights[0].shape[0]
    out = np.zeros((h, w, c_out))
    for i in range(h):
        for j in range(w):
            acc = np.zeros(c_out)
            for wm, (dy, dx) in zip(weights, points):
                ky, kx = i + dy, j + dx
                if 0 <= ky < h and 0 <= kx < w:
                    acc += wm @ x[ky, kx]
            out[i, j] = acc
    return out


def sliding_conv1d(x, weights, points):
    """1-d counterpart of sliding_conv2d. x: (n, c_in)."""
    n, _ = x.shape
    c_out = weights[0].shape[0]
    out = np.zeros((n, c_out))
    for q in range(n):
        acc = np.zeros(c_out)
        for wm, dp in zip(weights, points):
            k = q + dp
            if 0 <= k < n:
                acc += wm @ x[k]
        out[q] = acc
    return out


def kernel_value(a, b):
    """Linear interpolation kernel g(a, b) = max(0, 1 - |a - b|)."""
    return max(0.0, 1.0 - abs(a - b))


def gather_bilinear_2d(x, pos):
    """Sample x (h, w, c) at fractional pos (y, x); outside reads zero."""
    h, w, c = x.shape
    out = np.zeros(c)
    y0 = math.floor(pos[0])
    x0 = math.floor(pos[1])
    for ny in (y0, y0 + 1):
        for nx in (x0, x0 + 1):
            weight = kernel_value(pos[0], ny) * kernel_value(pos[1], nx)
            if 0 <= ny < h and 0 <= nx < w:
                out += weight * x[ny, nx]
    return out


def gather_linear_1d(x, pos):
    """Sample x (n, c) at fractional position; outside reads zero."""
    n, c = x.shape
    out = np.zeros(c)
    k0 = math.floor(pos)
    for nk in (k0, k0 + 1):
        weight = kernel_value(pos, nk)
        if 0 <= nk < n:
            out += weight * x[nk]
    return out


def loop_deform2d(x, weights, points, offset_w):
    """Deformable convolution: displaced bilinear reads, then weights.

    offset_w: (c_in, 2 * n_points) predictor; displacement for point m
    at query q is x[q] @ offset_w[:, 2m:2m+2].
    """
    h, w, _ = x.shape
    c_out = weights[0].shape[0]
    out = np.zeros((h, w, c_out))
    for i in range(h):
        for j in range(w):
            disp = x[i, j] @ offset_w
            acc = np.zeros(c_out)
            for m, (wm, (dy, dx)) in enumerate(zip(weights, points)):
                pos = (i + dy + disp[2 * m], j + dx + disp[2 * m + 1])
                acc += wm @ gather_bilinear_2d(x, pos)
            out[i, j] = acc
    return out


def loop_deform1d(x, weights, points, offset_w):
    """1-d deformable convolution; offset_w: (c_in, n_points)."""
    n, _ = x.shape
    c_out = weights[0].shape[0]
    out = np.zeros((n, c_out))
    for q in range(n):
        disp = x[q] @ offset_w
        acc = np.zeros(c_out)
        for m, (wm, dp) in enumerate(zip(weights, points)):
            acc += wm @ gather_linear_1d(x, q + dp + disp[m])
        out[q] = acc
    return out


def glu_numpy(x, lin_w, lin_b, gate_w, gate_b):
    """Gated linear unit on plain arrays."""
    lin = x @ lin_w + lin_b
    gate = 1.0 / (1.0 + np.exp(-(x @ gate_w + gate_b)))
    return lin * gate


def loop_dynamic2d(h, kernel_pred, w_point, n_groups, points, extent):
    """2-d dynamic convolution on a post-gate feature h (n, c)."""
    rows, cols = extent
    n, c = h.shape
    size = c // n_groups
    mixed = np.zeros((n, c))
    for q in range(n):
        qi, qj = divmod(q, cols)
        for g in range(n_groups):
            logits = np.array([kernel_pred[g, j] @ h[q] for j in range(len(points))])
            e = np.exp(logits - logits.max())
            kernel = e / e.sum()
            for ci in range(g * size, (g + 1) * size):
                acc = 0.0
                for j, (dy, dx) in enumerate(points):
                    ky, kx = qi + dy, qj + dx
                    if 0 <= ky < rows and 0 <= kx < cols:
                        acc += kernel[j] * h[ky * cols + kx, ci]
                mixed[q, ci] = acc
    return mixed @ w_point.T


def loop_dynamic1d(h, kernel_pred, w_point, n_groups, points, renormalize=False):
    """Dynamic convolution on a post-gate feature h (n, c).

    kernel_pred: (n_groups, n_points, c) logits predictors; w_point:
    (c_out, c) pointwise output projection. Kernel weights are shared
    within channel groups and softmax-normalized over the window.
    """
    n, c = h.shape
    size = c // n_groups
    mixed = np.zeros((n, c))
    for q in range(n):
        for g in range(n_groups):
            logits = np.array([kernel_pred[g, j] @ h[q] for j in range(len(points))])
            e = np.exp(logits - logits.max())
            kernel = e / e.sum()
            if renormalize:
                inside = np.array([0 <= q + dp < n for dp in points])
                kernel = kernel * inside
                kernel = kernel / kernel.sum()
            for ci in range(g * size, (g + 1) * size):
                acc = 0.0
                for j, dp in enumerate(points):
                    k = q + dp
                    if 0 <= k < n:
                        acc += kernel[j] * h[k, ci]
                mixed[q, ci] = acc
    return mixed @ w_point.T


def window_majority_loop(observed):
    """Windowed-denoise labels by counting each truncated 3-wide window:
    the most frequent value, or the center on a tie."""
    n = len(observed)
    labels = np.empty(n, dtype=np.int64)
    for q in range(n):
        window = observed[max(0, q - 1): q + 2]
        values, counts = np.unique(window, return_counts=True)
        winners = values[counts == counts.max()]
        labels[q] = winners[0] if len(winners) == 1 else observed[q]
    return labels
