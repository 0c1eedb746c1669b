import csv
import io
import itertools

import numpy as np
import pytest

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    key_only_energy,
    offset_map,
    offset_map_1d,
    offset_map_2d,
    pos_only_energy,
    query_key_energy,
    query_pos_energy,
)
from attnlab.conv import ConvParams, deformable_conv1d, deformable_conv2d, regular_conv1d, regular_conv2d
from attnlab.dynconv import DynamicConvParams, dynamic_conv1d, dynamic_conv2d
from attnlab.errors import ContractViolation
from attnlab.flops import (
    MECHANISM_FLAGS,
    TABLE_COLUMNS,
    TERM_FLAGS,
    TERMS,
    count_attention,
    count_deformable,
    count_dynamic,
    count_mechanism,
    count_regular,
    count_term,
    count_term_parts,
    count_terms_combined,
    emit_table,
    loglog_slope,
    shared_savings,
    table_rows,
)
from attnlab.tensor import GATHER_DOT_ROWS, Rng, Tensor, counting

ALL_BETAS = ["".join(bits) for bits in itertools.product("01", repeat=4)]


def setup_attention(n_s=7, channels=8, heads=2, seed=0):
    rng = Rng(seed)
    params = AttentionParams(channels, heads, enc_dim=channels, rng=rng.child(0))
    x = Tensor(rng.child(1).uniform(-1, 1, (n_s, channels)))
    offsets = offset_map_1d(n_s, n_s, enc_dim=channels)
    return params, x, offsets


def test_term_ops_match_closed_forms_exactly():
    n_s, c, m = 7, 8, 2
    params, x, offsets = setup_attention(n_s, c, m)
    z = x
    cases = {
        "query_key": lambda: query_key_energy(z, x, params),
        "query_pos": lambda: query_pos_energy(z, offsets, params),
        "key_only": lambda: key_only_energy(x, params),
        "pos_only": lambda: pos_only_energy(offsets, params),
    }
    for term, run in cases.items():
        with counting() as got:
            run()
        assert got.macs == count_term(term, n_s, c, m), term


def test_term_parts_decompose():
    parts = count_term_parts("query_key", 16, 8, 2)
    assert parts["embed"] == 2 * 16 * 64
    assert parts["pairwise"] == 16 * 16 * 8
    assert parts["total"] == parts["embed"] + parts["pairwise"] + parts["probe"]
    assert count_term_parts("key_only", 16, 8, 2)["probe"] == 16 * 8
    with pytest.raises(ContractViolation):
        count_term("q", 16, 8, 2)
    with pytest.raises(ContractViolation):
        count_term("query_key", 16, 9, 2)


def test_attention_layer_matches_closed_form_for_all_configs():
    n_s, c, m = 6, 8, 2
    params, x, offsets = setup_attention(n_s, c, m, seed=3)
    for beta in ALL_BETAS:
        config = AttentionConfig.from_beta(beta, heads=m)
        with counting() as got:
            attention_forward(x, x, params, config, offsets, mode="self")
        macs, exps, divs = count_attention(config.gates, n_s, n_s, c, m)
        assert (got.macs, got.exps, got.divs) == (macs, exps, divs), beta


@pytest.mark.parametrize("shape", [(7, 7), (40,)], ids=["7x7", "seq40"])
def test_attention_layer_counts_are_exact_over_several_query_tiles(shape):
    """49 and 40 query rows walk a full tile of GATHER_DOT_ROWS and a partial
    one; key_only, which has no query axis, is charged once per head."""
    n_s, c, m = int(np.prod(shape)), 8, 2
    assert GATHER_DOT_ROWS < n_s and n_s % GATHER_DOT_ROWS
    rng = Rng(4)
    params = AttentionParams(c, m, enc_dim=c, rng=rng.child(0))
    x = Tensor(rng.child(1).uniform(-1, 1, (n_s, c)))
    offsets = offset_map(shape, shape, enc_dim=c)
    for beta in ALL_BETAS:
        config = AttentionConfig.from_beta(beta, heads=m)
        with counting() as got:
            attention_forward(x, x, params, config, offsets, mode="self")
        want = count_attention(config.gates, n_s, n_s, c, m, n_offsets=offsets.n_offsets)
        assert (got.macs, got.exps, got.divs) == want, beta


def test_attention_layer_cross_shape_and_residual():
    rng = Rng(5)
    c, m = 8, 2
    params = AttentionParams(c, m, enc_dim=c, rng=rng.child(0))
    z = Tensor(rng.child(1).uniform(-1, 1, (5, c)))
    x = Tensor(rng.child(2).uniform(-1, 1, (6, c)))
    offsets = offset_map_1d(5, 6, enc_dim=c)
    config = AttentionConfig.from_beta("1111", heads=m)
    with counting() as got:
        attention_forward(z, x, params, config, offsets, mode="cross")
    want = count_attention(config.gates, 5, 6, c, m, n_offsets=offsets.n_offsets)
    assert (got.macs, got.exps, got.divs) == want

    z2 = Tensor(rng.child(3).uniform(-1, 1, (6, c)))
    off2 = offset_map_1d(6, 6, enc_dim=c)
    with counting() as got2:
        attention_forward(z2, z2, params, config, off2, mode="self", residual=True)
    macs, exps, divs = count_attention(config.gates, 6, 6, c, m, residual=True)
    assert (got2.macs, got2.exps, got2.divs) == (macs, exps, divs)


def test_attention_layer_2d_offsets_exact():
    rng = Rng(7)
    c, m, h, w = 8, 2, 3, 4
    params = AttentionParams(c, m, enc_dim=c, rng=rng.child(0))
    x = Tensor(rng.child(1).uniform(-1, 1, (h * w, c)))
    offsets = offset_map_2d(h, w, enc_dim=c)
    config = AttentionConfig.from_beta("0101", heads=m)
    with counting() as got:
        attention_forward(x, x, params, config, offsets, mode="self")
    want = count_attention(config.gates, h * w, h * w, c, m, n_offsets=offsets.n_offsets)[0]
    assert got.macs == want


def test_regular_conv_counts_exact():
    rng = Rng(9)
    params = ConvParams(3, 5, 3, ndim=2, rng=rng.child(0))
    x = Tensor(rng.child(1).uniform(-1, 1, (20, 3)))
    with counting() as got:
        regular_conv2d(x, params, (4, 5))
    assert got.macs == count_regular(20, 9, 3, 5)
    assert got.exps == 0 and got.divs == 0

    params1 = ConvParams(4, 4, 3, ndim=1, rng=rng.child(2))
    xs = Tensor(rng.child(3).uniform(-1, 1, (11, 4)))
    with counting() as got1:
        regular_conv1d(xs, params1)
    assert got1.macs == count_regular(11, 3, 4, 4)


def test_deformable_counts_exact():
    rng = Rng(11)
    params = ConvParams(3, 5, 3, ndim=2, rng=rng.child(0), deformable=True)
    params.offset_w.data[:] = rng.child(1).uniform(-0.3, 0.3, params.offset_w.shape)
    x = Tensor(rng.child(2).uniform(-1, 1, (12, 3)))
    with counting() as got:
        deformable_conv2d(x, params, (3, 4))
    assert got.macs == count_deformable(12, 9, 3, 5, ndim=2)

    params1 = ConvParams(4, 2, 5, ndim=1, rng=rng.child(3), deformable=True)
    xs = Tensor(rng.child(4).uniform(-1, 1, (9, 4)))
    with counting() as got1:
        deformable_conv1d(xs, params1)
    assert got1.macs == count_deformable(9, 5, 4, 2, ndim=1)


def test_dynamic_counts_exact():
    rng = Rng(13)
    params = DynamicConvParams(8, 6, 3, n_groups=4, rng=rng.child(0))
    x = Tensor(rng.child(1).uniform(-1, 1, (10, 8)))
    with counting() as got:
        dynamic_conv1d(x, params)
    macs, exps, divs = count_dynamic(10, 3, 8, 4, 6)
    assert (got.macs, got.exps, got.divs) == (macs, exps, divs)

    params2 = DynamicConvParams(8, 8, 3, n_groups=2, rng=rng.child(2), ndim=2)
    x2 = Tensor(rng.child(3).uniform(-1, 1, (12, 8)))
    with counting() as got2:
        dynamic_conv2d(x2, params2, (3, 4))
    macs2 = count_dynamic(12, 9, 8, 2)[0]
    assert got2.macs == macs2


def test_doubling_groups_moves_only_the_predictor_block():
    base = count_dynamic(64, 3, 32, 16)[0]
    doubled = count_dynamic(64, 3, 32, 32)[0]
    assert doubled - base == 64 * 32 * 16 * 3


def test_loglog_slopes_match_table_asymptotics():
    ns = [64, 128, 256, 512]
    for term in ("query_key", "query_pos", "pos_only"):
        pairwise = [count_term_parts(term, n, 16, 2)["pairwise"] for n in ns]
        assert abs(loglog_slope(ns, pairwise) - 2.0) <= 0.05, term
    linear_counts = {
        "key_only": [count_term("key_only", n, 16, 2) for n in ns],
        "regular": [count_regular(n, 9, 16) for n in ns],
        "deformable": [count_deformable(n, 9, 16, ndim=2) for n in ns],
        "dynamic": [count_dynamic(n, 3, 16, 16)[0] for n in ns],
    }
    for name, counts in linear_counts.items():
        assert abs(loglog_slope(ns, counts) - 1.0) <= 0.05, name


def test_loglog_slope_is_the_least_squares_fit():
    assert loglog_slope([1, 2, 4], [3, 12, 48]) == pytest.approx(2.0, abs=1e-12)
    xs, ys = np.log([1, 2, 4, 8]), np.log([1, 3, 4, 20])
    want = ((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum()
    assert loglog_slope([1, 2, 4, 8], [1, 3, 4, 20]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("ns, counts", [
    ([1, 2, 4], [1, 4]),
    ([1, 2], [1, 4, 16]),
    ([4], [16]),
    ([2, 2, 2], [4, 4, 8]),
    ([], []),
    ([0, 2], [1, 4]),
    ([-1, 2], [1, 4]),
    ([1, 2], [0, 4]),
], ids=["short-counts", "short-sizes", "one-size", "repeated-size", "empty", "zero-size",
        "negative-size", "zero-count"])
def test_loglog_slope_rejects_a_fit_it_cannot_make(ns, counts):
    with pytest.raises(ContractViolation, match="a slope needs"):
        loglog_slope(ns, counts)


def test_shared_projection_savings():
    n_s, c, m = 16, 8, 2
    # query projection shared between the two query-driven terms
    assert shared_savings((True, True, False, False), n_s, c, m) == n_s * c * c
    # full config also shares the key projection and the offset table
    n_r = 2 * n_s - 1
    assert shared_savings((True, True, True, True), n_s, c, m) == 2 * n_s * c * c + n_r * c * c
    assert shared_savings((True, False, False, False), n_s, c, m) == 0
    combined = count_terms_combined((True, True, True, True), n_s, c, m)
    standalone = sum(count_term(t, n_s, c, m) for t in TERMS)
    assert combined < standalone


def test_full_config_cost_dominates_proper_subsets():
    n_s, c, m = 24, 16, 2
    full = count_attention((True,) * 4, n_s, n_s, c, m)[0]
    for beta in ALL_BETAS:
        if beta == "1111":
            continue
        gates = tuple(ch == "1" for ch in beta)
        assert count_attention(gates, n_s, n_s, c, m)[0] < full, beta


def test_cost_ordering_at_harness_shapes():
    # mirrors the model compositions the grid runner builds: on grids the
    # switched attention sits on a regular-conv backbone and the deformable
    # row swaps that backbone out; on sequences the deformable unit is an
    # extra insert before a bare attention layer
    m = 2
    c = 16
    for n_s, n_k, n_offsets in [(36, 9, 11 * 11), (100, 9, 19 * 19)]:
        def attn(beta):
            gates = tuple(ch == "1" for ch in beta)
            return count_attention(gates, n_s, n_s, c, m, n_offsets=n_offsets)[0]
        backbone = count_regular(n_s, n_k, c)
        assert attn("1111") > attn("0011") > attn("0010")
        deform = count_deformable(n_s, n_k, c, ndim=2)
        assert attn("0010") + deform < attn("1111") + backbone

    n_s, n_k, n_offsets = 24, 3, 47
    def attn(beta):
        gates = tuple(ch == "1" for ch in beta)
        return count_attention(gates, n_s, n_s, c, m, n_offsets=n_offsets)[0]
    assert attn("1111") > attn("0011") > attn("0010")
    assert attn("0010") + count_deformable(n_s, n_k, c, ndim=1) < attn("1111")


def test_count_mechanism_dispatch():
    assert count_mechanism("transformer", 32, 16, m=2, beta="1010") == \
        count_attention((True, False, True, False), 32, 32, 16, 2)[0]
    assert count_mechanism("regular", 32, 16, n_k=9) == count_regular(32, 9, 16)
    assert count_mechanism("deformable", 32, 16, n_k=9) == count_deformable(32, 9, 16, ndim=2)
    assert count_mechanism("dynamic", 32, 16, n_k=3, n_g=4) == count_dynamic(32, 3, 16, 4)[0]
    with pytest.raises(ContractViolation):
        count_mechanism("transformer", 32, 16)
    with pytest.raises(ContractViolation):
        count_mechanism("involution", 32, 16)


def test_table_flags_match_expected_pattern():
    assert TERM_FLAGS["query_key"] == {"query": True, "key": True, "relpos": False}
    assert TERM_FLAGS["query_pos"] == {"query": True, "key": False, "relpos": True}
    assert TERM_FLAGS["key_only"] == {"query": False, "key": True, "relpos": False}
    assert TERM_FLAGS["pos_only"] == {"query": False, "key": False, "relpos": True}
    assert MECHANISM_FLAGS["regular"]["spatial"] == "sparse,local"
    assert MECHANISM_FLAGS["deformable"]["spatial"] == "sparse,global"
    assert MECHANISM_FLAGS["dynamic"]["spatial"] == "sparse,local"
    assert MECHANISM_FLAGS["deformable"]["query"] and MECHANISM_FLAGS["deformable"]["relpos"]
    assert not MECHANISM_FLAGS["regular"]["query"]


def test_emit_table_csv_shape_and_values():
    text = emit_table([64, 128], c=16, n_k=9, n_g=16, m=8)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0].keys()) == TABLE_COLUMNS
    assert len(rows) == 2 * (4 + 3)
    by_key = {(r["mechanism"], r["term"], r["N_s"]): r for r in rows}
    e2 = by_key[("transformer", "query_pos", "64")]
    assert int(e2["macs"]) == count_term("query_pos", 64, 16, 8)
    assert e2["flags"] == "query=1,key=0,relpos=1;dense,global"
    deform = by_key[("deformable", "", "128")]
    assert int(deform["macs"]) == count_deformable(128, 9, 16, ndim=2)
    assert deform["flags"] == "query=1,key=0,relpos=1;sparse,global"
    dyn = by_key[("dynamic", "", "64")]
    assert dyn["N_g"] == "16"

    sink = io.StringIO()
    emit_table([64], 16, 9, 16, 8, out=sink)
    assert sink.getvalue() == emit_table([64], 16, 9, 16, 8)


def test_emit_table_writes_file(tmp_path):
    path = tmp_path / "table.csv"
    text = emit_table([64], 16, 9, 16, 8, out=str(path))
    assert path.read_text(encoding="utf-8") == text
    assert len(table_rows([64], 16, 9, 16, 8)) == 7


def test_cross_shape_default_offset_table_matches_forward():
    # one query over six keys: offset_map_1d(1, 6) has 1 + 6 - 1 rows
    rng = Rng(11)
    c, m = 16, 2
    params = AttentionParams(c, m, enc_dim=c, rng=rng.child(0))
    z = Tensor(rng.child(1).uniform(-1, 1, (1, c)))
    x = Tensor(rng.child(2).uniform(-1, 1, (6, c)))
    config = AttentionConfig.from_beta("0101", heads=m)
    with counting() as got:
        attention_forward(z, x, params, config, offset_map_1d(1, 6, enc_dim=c), mode="cross")
    assert got.macs == 3872
    assert count_attention((False, True, False, True), 1, 6, c, m)[0] == 3872
