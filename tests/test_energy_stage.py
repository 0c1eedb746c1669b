"""The energy stage: ``softmax_sum`` over a head's terms, the layer's one
call to it per head, and the inputs the stage rejects."""

import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import attnlab.attention as attention
from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    _head_energies,
    attention_forward,
    attention_weights,
    offset_map_1d,
    offset_map_2d,
)
from attnlab.errors import ContractViolation, ShapeMismatch
from attnlab.relpos import encode_1d, encode_2d
from attnlab.tensor import Rng, Tensor, counting, finite_diff_check, softmax_sum

ALL_BETAS = [format(i, "04b") for i in range(16)]


def _add_chain_softmax(datas, shape, mask):
    """The energy stage as a chain of adds: a zero grid first only when
    the terms' sum lacks an axis of ``shape``, adds left to right, the
    mask by ``np.where``, then a fresh ``x - top``."""
    full = bool(datas) and np.broadcast_shapes(*(d.shape for d in datas)) == shape
    x = reduce(add, ([] if full else [np.zeros(shape)]) + datas)
    if mask is not None:
        x = np.where(np.broadcast_to(mask, shape), x, -np.inf)
    data = x - x.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)
    return data


@st.composite
def term_cases(draw):
    """A subset, in order, of the term shapes (B, n_q, n_k) twice,
    (B, 1, n_k) and (n_q, n_k); an optional (n_q, n_k) mask that leaves
    every row a valid entry; and a seed."""
    b, n_q, n_k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    pick = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    shapes = [s for s, on in zip([(b, n_q, n_k), (b, n_q, n_k), (b, 1, n_k), (n_q, n_k)], pick)
              if on]
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n_q * n_k,
                                      max_size=n_q * n_k))).reshape(n_q, n_k)
        mask[np.arange(n_q), draw(st.integers(0, n_k - 1))] = True
    return (b, n_q, n_k), shapes, mask, Rng(draw(st.integers(0, 2**16)))


@settings(max_examples=200, deadline=None)
@given(term_cases())
def test_softmax_sum_is_the_add_chain_softmax_as_one_node(case):
    shape, shapes, mask, rng = case
    terms = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
    with counting() as got:
        out = softmax_sum(terms, shape, mask=mask)
    assert np.array_equal(out.data, _add_chain_softmax([t.data for t in terms], shape, mask))
    assert (got.macs, got.exps, got.divs) == (0, out.size, out.size)
    assert len(out._parents) == len(terms)
    assert all(p is t for p, t in zip(out._parents, terms))
    assert out.data.flags.c_contiguous
    probe = rng.uniform(0.5, 1.5, shape)
    (out * Tensor(probe)).sum().backward()
    # central differences lose their relative accuracy near zero; a zero
    # gradient (masked entries, one-entry slices) is exactly zero both ways
    for t in terms:
        assert t.grad.shape == t.shape
        assume(((t.grad == 0.0) | (np.abs(t.grad) > 1e-3)).all())
    assert finite_diff_check(lambda: softmax_sum(terms, shape, mask=mask) * Tensor(probe),
                             terms) <= 1e-6


def test_softmax_sum_names_a_term_that_does_not_fit():
    with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 2, 4\)"):
        softmax_sum([Tensor(np.ones((2, 2, 4))), Tensor(np.ones((2, 3)))], (2, 2, 4))
    with pytest.raises(ShapeMismatch, match=r"\(1, 2, 2, 4\)"):
        softmax_sum([Tensor(np.ones((1, 2, 2, 4)))], (2, 2, 4))


@pytest.mark.parametrize("beta", ALL_BETAS)
@pytest.mark.parametrize("masked", [False, True])
def test_each_head_is_one_softmax_sum_over_its_active_terms(beta, masked, monkeypatch):
    batch, n_q, n_k, c, heads = 2, 3, 4, 8, 2
    rng = Rng(5)
    params = AttentionParams(c, heads, enc_dim=c, rng=rng)
    config = AttentionConfig.from_beta(beta, heads=heads)
    offsets = offset_map_1d(n_q, n_k, enc_dim=c)
    z = Tensor(rng.uniform(-1, 1, (batch * n_q, c)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (batch * n_k, c)), requires_grad=True)
    mask = (np.abs(offsets.delta) <= 1) if masked else None
    calls = []

    def recorded(terms, shape, **kw):
        calls.append((terms, shape, softmax_sum(terms, shape, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(attention, "softmax_sum", recorded)
    weights = attention_weights(z, x, params, config, offsets, mask, batch=batch)
    assert len(calls) == len(weights) == heads
    for m, (w, (terms, shape, out)) in enumerate(zip(weights, calls)):
        assert shape == (batch, n_q, n_k)
        assert np.shares_memory(w.data, out.data)
        assert len(out._parents) == len(terms) == beta.count("1")
        assert all(p is t for p, t in zip(out._parents, terms))
        expected = _head_energies(z, x, params, m, config.gates, offsets, batch)
        assert all(np.array_equal(t.data, e.data) for t, e in zip(terms, expected))


# the bounds sit below what a chain of tape adds needs: it keeps up to three
# summed (2, 576, 576) grids of 5.3 MB per head on the tape, for a
# forward+backward peak of 81.9 MB at 1111 and 44.1 MB at 0010
@pytest.mark.parametrize("beta, bound_mb", [("1111", 66.0), ("0010", 34.0)])
def test_one_layer_peak_memory_has_no_add_chain(beta, bound_mb):
    rng = Rng(7)
    params = AttentionParams(16, 2, enc_dim=16, rng=rng)
    config = AttentionConfig.from_beta(beta, heads=2)
    offsets = offset_map_2d(24, 24, 16)
    x = Tensor(rng.uniform(-1, 1, (2 * 576, 16)), requires_grad=True)
    tracemalloc.start()
    try:
        attention_forward(x, x, params, config, offsets, residual=True,
                          batch=2).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6
    assert x.grad.shape == x.shape


# -- inputs the energy stage rejects ------------------------------------------------------


@pytest.mark.parametrize("beta", [b for b in ALL_BETAS if b[1] == "1" or b[3] == "1"])
def test_offset_map_for_other_extents_names_both_pair_shapes(beta):
    params = AttentionParams(4, 2, enc_dim=4, rng=Rng(0))
    config = AttentionConfig.from_beta(beta, heads=2)
    x = Tensor(Rng(1).uniform(-1, 1, (4, 4)))
    with pytest.raises(ShapeMismatch, match=r"\(3, 3\).*\(4, 4\)"):
        attention_weights(x, x, params, config, offset_map_1d(3, 3, enc_dim=4))


@pytest.mark.parametrize("encode", [
    lambda dim: encode_1d([1, 2], dim),
    lambda dim: encode_2d([[1, 2]], dim),
    lambda dim: offset_map_1d(3, 3, enc_dim=dim),
    lambda dim: offset_map_2d(2, 2, enc_dim=dim),
], ids=["encode_1d", "encode_2d", "offset_map_1d", "offset_map_2d"])
@pytest.mark.parametrize("dim", [0, -2, -4, 4.0, True, np.float64(8)])
def test_encoding_width_that_is_not_a_positive_int_is_rejected(encode, dim):
    with pytest.raises(ContractViolation, match="channels"):
        encode(dim)
