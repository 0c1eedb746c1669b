"""Property tests: the closed-form counts equal the metered forward pass
for random gates, shapes, head counts and residual settings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    key_only_energy,
    offset_map_1d,
    offset_map_2d,
    pos_only_energy,
    query_key_energy,
    query_pos_energy,
)
from attnlab.flops import TERMS, count_attention, count_term_parts
from attnlab.tensor import Rng, Tensor, counting


@st.composite
def heads_and_channels(draw):
    """Head count m, channels c with m dividing c, and an encoding width."""
    m = draw(st.integers(1, 3))
    c = m * draw(st.integers(1, 3))
    enc_dim = draw(st.sampled_from([4, 8]))
    return m, c, enc_dim


@st.composite
def layer_cases(draw):
    """Random gates on a 1-d cross shape (n_q != n_k) or a 2-d self shape."""
    m, c, enc_dim = draw(heads_and_channels())
    beta = "".join(draw(st.lists(st.sampled_from("01"), min_size=4, max_size=4)))
    if draw(st.booleans()):
        n_q = draw(st.integers(1, 7))
        n_k = draw(st.integers(1, 7).filter(lambda n: n != n_q))
        shape = ("cross", n_q, n_k)
    else:
        shape = ("self", draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return beta, m, c, enc_dim, shape, draw(st.booleans()), Rng(draw(st.integers(0, 2**16)))


@settings(max_examples=80, deadline=None)
@given(layer_cases())
def test_count_attention_equals_metered_forward(case):
    beta, m, c, enc_dim, (mode, a, b), residual, rng = case
    params = AttentionParams(c, m, enc_dim=enc_dim, rng=rng.child(0))
    config = AttentionConfig.from_beta(beta, heads=m)
    if mode == "cross":
        n_q, n_k = a, b
        offsets = offset_map_1d(n_q, n_k, enc_dim=enc_dim)
        z, x = Tensor(rng.normal((n_q, c))), Tensor(rng.normal((n_k, c)))
        n_offsets = None  # the default must be offset_map_1d's table size
    else:
        n_q = n_k = a * b
        offsets = offset_map_2d(a, b, enc_dim=enc_dim)
        z = x = Tensor(rng.normal((n_q, c)))
        n_offsets = offsets.n_offsets
    with counting() as got:
        attention_forward(z, x, params, config, offsets, mode=mode, residual=residual)
    want = count_attention(config.gates, n_q, n_k, c, m, enc_dim=enc_dim,
                           n_offsets=n_offsets, residual=residual)
    assert (got.macs, got.exps, got.divs) == want


@settings(max_examples=40, deadline=None)
@given(heads_and_channels(), st.integers(1, 8), st.sampled_from(TERMS),
       st.integers(0, 2**16))
def test_term_parts_equal_standalone_energy_counts(geometry, n_s, term, seed):
    m, c, enc_dim = geometry
    rng = Rng(seed)
    params = AttentionParams(c, m, enc_dim=enc_dim, rng=rng.child(0))
    x = Tensor(rng.normal((n_s, c)))
    offsets = offset_map_1d(n_s, n_s, enc_dim=enc_dim)
    run = {
        "query_key": lambda: query_key_energy(x, x, params),
        "query_pos": lambda: query_pos_energy(x, offsets, params),
        "key_only": lambda: key_only_energy(x, params),
        "pos_only": lambda: pos_only_energy(offsets, params),
    }[term]
    with counting() as got:
        run()
    assert got.macs == count_term_parts(term, n_s, c, m, enc_dim=enc_dim)["total"]
    assert got.exps == got.divs == 0
