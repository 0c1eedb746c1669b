"""The layer as one tape op: its hand-written VJP against central
differences, on one query tile and on several, the nodes and arrays it
leaves on the tape, and the inputs it rejects at the boundary."""

import tracemalloc

import numpy as np
import pytest

from attnlab import attention
from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    attention_weights,
    local_mask,
    offset_map_1d,
    offset_map_2d,
)
from attnlab.errors import DegenerateRegion, ShapeMismatch
from attnlab.tensor import GATHER_DOT_ROWS, Rng, Tensor

ALL_BETAS = [format(i, "04b") for i in range(16)]
STEP = 1e-5


def _layer_case(beta, mode, masked, batch, seed=0, heads=2):
    """A perturbed layer of ``heads`` heads (C = 4) with every parameter,
    res_scale included, off its initial value; self mode runs 3 cells with
    the residual on, cross mode 2 queries over 4 keys."""
    rng = Rng(seed)
    params = AttentionParams(4, heads, enc_dim=4, rng=rng.child(0))
    for p in params.parameters():
        p.data = p.data + rng.uniform(-0.5, 0.5, p.shape)
    n_q, n_k = (3, 3) if mode == "self" else (2, 4)
    offsets = offset_map_1d(n_q, n_k, enc_dim=4)
    mask = None
    if masked:
        mask = rng.uniform(0, 1, (n_q, n_k)) < 0.5
        mask[np.arange(n_q), rng.integers(0, n_k, n_q)] = True
    x = Tensor(rng.uniform(-1, 1, (batch * n_k, 4)), requires_grad=True)
    z = x if mode == "self" else Tensor(rng.uniform(-1, 1, (batch * n_q, 4)),
                                        requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (batch * n_q, 4)))
    config = AttentionConfig.from_beta(beta, heads=heads)

    def loss():
        out = attention_forward(z, x, params, config, offsets, mask, mode=mode,
                                residual=mode == "self", batch=batch)
        return (out * probe).sum()

    return loss, params.parameters() + ([x] if mode == "self" else [z, x]), rng


# every switch string at two heads; at one and four heads, three that
# between them run each term alongside another
HEAD_CASES = ([pytest.param(beta, 2, id=beta) for beta in ALL_BETAS]
              + [pytest.param(beta, heads, id=f"{beta}-h{heads}")
                 for heads in (1, 4) for beta in ("1111", "0110", "1001")])


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("mode", ["self", "cross"])
@pytest.mark.parametrize("beta, heads", HEAD_CASES)
def test_vjp_matches_central_differences_on_every_input(beta, heads, mode, masked, batch):
    """For each parameter, z and x in turn, the tape gradient dotted with a
    random direction equals the central difference along it; a weight the
    loss does not read (the difference is exactly zero) gets no gradient."""
    loss, tensors, rng = _layer_case(beta, mode, masked, batch, heads=heads)
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
        analytic = 0.0 if t.grad is None else float((t.grad * u).sum())
        assert t.grad is None or t.grad.shape == t.shape
        assert hi != lo or t.grad is None or not t.grad.any()
        assert abs(analytic - numeric) <= 1e-7 * (1 + abs(numeric)), (t.shape, analytic, numeric)


# -- the query tiles: a 1-d self layer of 40 rows walks a full tile and a partial one --


TILED_N = 40


def _tiled_case(beta, window):
    """A perturbed self layer (C = 4, M = 2, batch 2, residual on) over a
    sequence of TILED_N, unmasked or with a local window; returns its loss,
    the tensors it reads and an rng for directions."""
    rng = Rng(5)
    params = AttentionParams(4, 2, enc_dim=4, rng=rng.child(0))
    for p in params.parameters():
        p.data = p.data + rng.uniform(-0.5, 0.5, p.shape)
    offsets = offset_map_1d(TILED_N, TILED_N, enc_dim=4)
    mask = None if window is None else local_mask(offsets, window)
    x = Tensor(rng.uniform(-1, 1, (2 * TILED_N, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, (2 * TILED_N, 4)))
    config = AttentionConfig.from_beta(beta, heads=2)

    def loss():
        out = attention_forward(x, x, params, config, offsets, mask, residual=True, batch=2)
        return (out * probe).sum()

    return loss, params.parameters() + [x], rng


TILED_CASES = [pytest.param(beta, window, id=f"{beta}-{'w7' if window else 'full'}")
               for beta in ("1111", "0010", "0101", "1000") for window in (None, 7)]


@pytest.mark.parametrize("beta, window", TILED_CASES)
def test_tiled_vjp_matches_central_differences(beta, window):
    assert GATHER_DOT_ROWS < TILED_N < 2 * GATHER_DOT_ROWS
    loss, tensors, rng = _tiled_case(beta, window)
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
        analytic = 0.0 if t.grad is None else float((t.grad * u).sum())
        assert abs(analytic - numeric) <= 1e-7 * (1 + abs(numeric)), (t.shape, analytic, numeric)


@pytest.mark.parametrize("beta, window", TILED_CASES)
def test_tiles_agree_with_one_tile_of_all_rows(beta, window, monkeypatch):
    """The layer's output and every gradient are those of a run whose tile
    holds all TILED_N rows; a head runs one masked softmax per tile."""
    calls = []
    softmax = attention._softmax_sum
    monkeypatch.setattr(attention, "_softmax_sum",
                        lambda *a, **k: calls.append(k["shape"]) or softmax(*a, **k))

    def run():
        loss, tensors, _ = _tiled_case(beta, window)
        value = loss()
        value.backward()
        return [value.data] + [t.grad for t in tensors]

    tiled = run()
    assert [shape[1] for shape in calls] == [GATHER_DOT_ROWS, TILED_N - GATHER_DOT_ROWS] * 2
    calls.clear()
    monkeypatch.setattr(attention, "GATHER_DOT_ROWS", TILED_N)
    whole = run()
    assert [shape[1] for shape in calls] == [TILED_N] * 2
    for a, b in zip(tiled, whole):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_a_fully_masked_row_in_the_last_partial_tile_raises():
    """Row 37 of 40 is the one fully masked row; it lies in the second
    tile, which holds rows 32-39."""
    offsets = offset_map_1d(TILED_N, TILED_N, enc_dim=4)
    mask = np.ones((TILED_N, TILED_N), dtype=bool)
    mask[37] = False
    params = AttentionParams(4, 2, enc_dim=4, rng=Rng(0))
    x = Tensor(Rng(1).uniform(-1, 1, (2 * TILED_N, 4)))
    config = AttentionConfig.from_beta("1111", heads=2)
    with pytest.raises(DegenerateRegion):
        attention_forward(x, x, params, config, offsets, mask, batch=2)
    mask[37, 0] = True
    assert attention_forward(x, x, params, config, offsets, mask, batch=2).shape == x.shape


@pytest.mark.parametrize("m", [0, 1, 2])
def test_one_heads_weights_backprop_into_its_row_only(m):
    """Head m of the tape view reads row m of each packed energy weight, so
    every other row's gradient is exactly zero, and it reads no value or
    output projection."""
    rng = Rng(3)
    params = AttentionParams(6, 3, enc_dim=4, rng=rng)
    x = Tensor(rng.uniform(-1, 1, (6, 6)), requires_grad=True)
    config = AttentionConfig.from_beta("1111", heads=3)
    weights = attention_weights(x, x, params, config, offset_map_1d(3, 3, enc_dim=4), batch=2)
    (weights[m] * Tensor(rng.uniform(-1, 1, (6, 3)))).sum().backward()
    for w in params.parameters()[:5]:
        assert w.grad.shape == w.shape
        assert w.grad[m].any() and not np.delete(w.grad, m, axis=0).any()
    assert all(w.grad is None for w in params.parameters()[5:])


def _tape_nodes(out):
    """Every non-leaf node reachable from ``out``."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("beta", ALL_BETAS)
def test_a_layer_is_one_tape_node_plus_the_residual(beta):
    rng = Rng(1)
    params = AttentionParams(4, 2, enc_dim=4, rng=rng)
    x = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
    config = AttentionConfig.from_beta(beta, heads=2)
    out = attention_forward(x, x, params, config, offset_map_1d(3, 3, enc_dim=4),
                            residual=True, batch=2)
    nodes = _tape_nodes(out)
    # the residual's add and mul, and the layer
    assert len(nodes) == 3
    layer = next(n for n in nodes if x in n._parents and n is not out)
    assert set(map(id, layer._parents)) <= set(map(id, [x] + params.parameters()))


def _grid_layer(beta):
    rng = Rng(7)
    params = AttentionParams(16, 2, enc_dim=16, rng=rng)
    x = Tensor(rng.uniform(-1, 1, (2 * 576, 16)), requires_grad=True)
    return params, AttentionConfig.from_beta(beta, heads=2), offset_map_2d(24, 24, 16), x


@pytest.mark.parametrize("beta", ALL_BETAS)
def test_tape_holds_at_most_one_weight_grid_per_head(beta):
    """At 24x24, B = 2, M = 2 a (B, n_q, n_k) array is 5.3 MB; after the
    forward the tape keeps one per head and nothing else of 1 MB or more."""
    params, config, offsets, x = _grid_layer(beta)
    tracemalloc.start()
    try:
        out = attention_forward(x, x, params, config, offsets, residual=True, batch=2)
        held = tracemalloc.get_traced_memory()[0]
        big = [t for t in tracemalloc.take_snapshot().traces if t.size >= 1e6]
    finally:
        tracemalloc.stop()
    assert len(big) <= params.heads
    assert all(t.size == 2 * 576 * 576 * 8 for t in big)
    if beta == "1111":
        assert held < 12.5e6
    assert out.shape == x.shape


def test_one_layer_forward_and_backward_peak_stays_under_32_mb():
    params, config, offsets, x = _grid_layer("1111")
    tracemalloc.start()
    try:
        attention_forward(x, x, params, config, offsets, residual=True,
                          batch=2).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert x.grad.shape == x.shape


def test_one_layer_forward_and_backward_peak_stays_under_20_mb():
    """Walking query tiles, the layer makes no grid-sized array but the
    kept weights (5.3 MB per head here)."""
    params, config, offsets, x = _grid_layer("1111")
    tracemalloc.start()
    try:
        attention_forward(x, x, params, config, offsets, residual=True,
                          batch=2).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# -- inputs the layer rejects at its boundary ---------------------------------------------


def _small_layer():
    params = AttentionParams(4, 2, enc_dim=4, rng=Rng(0))
    x = Tensor(Rng(1).uniform(-1, 1, (3, 4)))
    return params, AttentionConfig.from_beta("1111", heads=2), offset_map_1d(3, 3, enc_dim=4), x


@pytest.mark.parametrize("bad, shape", [
    (Tensor(np.ones(4)), r"\(4,\)"),
    (Tensor(np.ones((1, 3, 4))), r"\(1, 3, 4\)"),
    (np.ones((3, 4)), r"\(3, 4\)"),
], ids=["1-d", "3-d", "ndarray"])
@pytest.mark.parametrize("which", ["z", "x"])
def test_an_input_that_is_not_a_2d_tensor_is_named(bad, shape, which):
    params, config, offsets, x = _small_layer()
    z, xx = (bad, x) if which == "z" else (x, bad)
    with pytest.raises(ShapeMismatch, match=rf"{which} must be a 2-D Tensor.*{shape}"):
        attention_forward(z, xx, params, config, offsets, mode="cross")
    with pytest.raises(ShapeMismatch, match=rf"{which} must be a 2-D Tensor.*{shape}"):
        attention_weights(z, xx, params, config, offsets)
    if which == "z":
        with pytest.raises(ShapeMismatch, match=rf"z must be a 2-D Tensor.*{shape}"):
            attention_forward(bad, bad, params, config, offsets)


@pytest.mark.parametrize("beta", [b for b in ALL_BETAS if b[1] == "1" or b[3] == "1"])
def test_offset_table_of_another_width_names_both_widths(beta):
    params, _, _, x = _small_layer()
    config = AttentionConfig.from_beta(beta, heads=2)
    offsets = offset_map_1d(3, 3, enc_dim=8)
    with pytest.raises(ShapeMismatch, match=r"\(5, 8\).*enc_dim 4"):
        attention_forward(x, x, params, config, offsets)
    with pytest.raises(ShapeMismatch, match=r"\(5, 8\).*enc_dim 4"):
        attention_weights(x, x, params, config, offsets)
