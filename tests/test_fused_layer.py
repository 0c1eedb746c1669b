"""The layer as one tape op: its hand-written VJP against central
differences, the nodes and arrays it leaves on the tape, and the inputs
it rejects at the boundary."""

import tracemalloc

import numpy as np
import pytest

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    attention_weights,
    offset_map_1d,
    offset_map_2d,
)
from attnlab.errors import ShapeMismatch
from attnlab.tensor import Rng, Tensor

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
