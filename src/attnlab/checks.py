"""Self-contained invariant suite behind the `check` subcommand.

Each check raises on violation; the runner turns that into a named
pass/fail line. The suite is a fast cross-section of the package's
contracts, not a substitute for the test suite.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    attention_weights,
    offset_map_1d,
    offset_map_2d,
)
from .conv import ConvParams, deformable_conv2d, regular_conv2d
from .dynconv import DynamicConvParams, dynamic_conv1d, dynamic_kernel, glu
from .errors import DegenerateRegion
from .flops import count_attention, count_deformable, count_dynamic
from .harness import RunConfig, train
from .tensor import Rng, Tensor, counting, finite_diff_check


def check_softmax_rows():
    """softmax rows always sum to one, masked entries are exactly zero"""
    rng = Rng(0)
    for i in range(50):
        x = Tensor(rng.normal((7, 9), scale=3.0))
        np.testing.assert_allclose(x.softmax(axis=-1).data.sum(axis=1),
                                   1.0, atol=1e-12)
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 2:] = False
    w = Tensor(rng.normal((3, 5))).softmax(axis=-1, mask=mask)
    assert (w.data[:, 2:] == 0.0).all()
    try:
        Tensor(np.zeros((2, 2))).softmax(mask=np.zeros((2, 2), dtype=bool))
    except DegenerateRegion:
        pass
    else:
        raise AssertionError("fully masked row must raise")


def check_attention_normalized():
    """all 16 switch settings produce row-stochastic attention weights"""
    rng = Rng(1)
    params = AttentionParams(8, 2, enc_dim=8, rng=rng.child(0))
    offsets = offset_map_1d(4, 4, enc_dim=8)
    x = Tensor(rng.normal((4, 8)))
    for i in range(16):
        config = AttentionConfig.from_beta(format(i, "04b"), heads=2)
        for wm in attention_weights(x, x, params, config, offsets=offsets):
            np.testing.assert_allclose(wm.data.sum(axis=1), 1.0, atol=1e-6)


def check_uniform_switch():
    """the all-zero switch spreads weight evenly over the region"""
    rng = Rng(2)
    params = AttentionParams(8, 2, enc_dim=8, rng=rng.child(0))
    x = Tensor(rng.normal((5, 8)))
    config = AttentionConfig.from_beta("0000", heads=2)
    for wm in attention_weights(x, x, params, config):
        np.testing.assert_allclose(wm.data, 0.2, atol=1e-12)


def check_deformable_degenerates():
    """zero offset predictions reproduce the regular convolution exactly"""
    rng = Rng(3)
    reg = ConvParams(3, 4, kernel=3, ndim=2, rng=rng.child(0))
    def_ = ConvParams(3, 4, kernel=3, ndim=2, rng=rng.child(0), deformable=True)
    x = Tensor(rng.normal((30, 3)))
    a = regular_conv2d(x, reg, extent=(5, 6))
    b = deformable_conv2d(x, def_, extent=(5, 6))
    assert np.abs(a.data - b.data).max() <= 1e-12


def check_bilinear_partition():
    """deformable reads at fractional in-extent positions weigh their
    corners to one: a constant input reads back constant"""
    rng = Rng(4)
    c, side = 3, 7
    for i in range(20):
        params = ConvParams(c, 2, kernel=3, ndim=2, rng=rng.child(i), deformable=True)
        # channel 0 steers each cell's offsets within (-1, 1) and the kernel
        # ignores it; the other channels are constant
        params.weight.data.reshape(9, c, 2)[:, 0] = 0.0
        params.offset_w.data[0] = rng.uniform(-0.9, 0.9, (18,))
        x = np.ones((side * side, c))
        x[:, 0] = rng.uniform(-1.0, 1.0, (side * side,))
        got = deformable_conv2d(Tensor(x), params, extent=(side, side)).data
        want = regular_conv2d(Tensor(x), params, extent=(side, side)).data
        # cells two or more from the edge read only inside the extent
        inner = (slice(2, side - 2),) * 2
        err = np.abs(got - want).reshape(side, side, 2)[inner].max()
        assert err <= 1e-12, f"constant input read back off by {err:.3g}"


def check_dynamic_kernel_rows():
    """predicted dynamic kernels are distributions per group"""
    rng = Rng(5)
    params = DynamicConvParams(8, 8, kernel=3, n_groups=4, rng=rng.child(0))
    x = Tensor(rng.normal((6, 8)))
    k = dynamic_kernel(glu(x, params), params)
    np.testing.assert_allclose(k.data.sum(axis=-1), 1.0, atol=1e-6)


def check_count_exactness():
    """instrumented mac counts equal the closed forms with no tolerance"""
    rng = Rng(6)
    c, m, n = 8, 2, 6
    params = AttentionParams(c, m, enc_dim=c, rng=rng.child(0))
    offsets = offset_map_1d(n, n, enc_dim=c)
    x = Tensor(rng.normal((n, c)))
    for beta in ("1111", "0010", "0101"):
        config = AttentionConfig.from_beta(beta, heads=2)
        with counting() as got:
            attention_forward(x, x, params, config, offsets=offsets)
        want = count_attention(config.gates, n, n, c, m)
        assert (got.macs, got.exps, got.divs) == want, beta

    # cross shape: one query over n keys, default offset-table size
    query = Tensor(rng.normal((1, c)))
    config = AttentionConfig.from_beta("0101", heads=2)
    with counting() as got:
        attention_forward(query, x, params, config, offsets=offset_map_1d(1, n, enc_dim=c),
                          mode="cross")
    assert (got.macs, got.exps, got.divs) == count_attention(config.gates, 1, n, c, m)

    def_ = ConvParams(c, c, kernel=3, ndim=2, rng=rng.child(1), deformable=True)
    grid = Tensor(rng.normal((12, c)))
    with counting() as got:
        deformable_conv2d(grid, def_, extent=(3, 4))
    assert got.macs == count_deformable(12, 9, c, c, ndim=2)

    dyn = DynamicConvParams(c, c, kernel=3, n_groups=4, rng=rng.child(2))
    seq = Tensor(rng.normal((10, c)))
    with counting() as got:
        dynamic_conv1d(seq, dyn)
    assert (got.macs, got.exps, got.divs) == count_dynamic(10, 3, c, 4, c)


def check_gradients():
    """analytic gradients agree with finite differences"""
    rng = Rng(7)
    params = AttentionParams(4, 2, enc_dim=4, rng=rng.child(0))
    offsets = offset_map_2d(2, 2, enc_dim=4)
    x = Tensor(rng.normal((4, 4)), requires_grad=True)
    config = AttentionConfig.from_beta("1111", heads=2)
    err = finite_diff_check(
        lambda: attention_forward(x, x, params, config, offsets=offsets),
        params.parameters() + [x])
    assert err <= 1e-4


def check_run_determinism():
    """identical run configs reproduce the metric bit for bit"""
    cfg = RunConfig(task="permuted-copy", beta="1010", steps=3,
                    task_options={"eval_size": 16})
    a = train(cfg)
    b = train(cfg)
    assert a.error is None and b.error is None
    assert a.accuracy == b.accuracy and a.macs == b.macs


def check_zero_init_residual():
    """untrained attended blocks score the backbone-only baseline"""
    accs = {train(RunConfig(task="salient-detection", beta=beta, steps=0,
                            task_options={"eval_size": 24})).accuracy
            for beta in ("0000", "1111")}
    assert len(accs) == 1


ALL_CHECKS = [
    check_softmax_rows,
    check_attention_normalized,
    check_uniform_switch,
    check_deformable_degenerates,
    check_bilinear_partition,
    check_dynamic_kernel_rows,
    check_count_exactness,
    check_gradients,
    check_run_determinism,
    check_zero_init_residual,
]


def run_checks(names=None):
    """Run the battery; returns [(name, error-or-None), ...]."""
    results = []
    for fn in ALL_CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        if names and name not in names:
            continue
        try:
            fn()
            results.append((name, None))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
