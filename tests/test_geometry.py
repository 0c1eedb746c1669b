"""Property tests of the offset geometry: one builder for sequences and
grids, checked against the closed forms of the old 1-d and 2-d builders,
and typed errors for extents it cannot build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab.attention import local_mask, offset_map, offset_map_1d, offset_map_2d
from attnlab.errors import ContractViolation
from attnlab.relpos import cells, encode, encode_1d, encode_2d, flat_index

CLIPS = st.one_of(st.none(), st.integers(1, 4))


def _check_table(offsets, enc_dim, clip):
    """Every pair's table row is the encoding of the pair's offset."""
    delta = offsets.delta.reshape(*offsets.index.shape, -1)
    want = encode(delta, enc_dim, clip=clip)
    np.testing.assert_array_equal(offsets.table[offsets.index], want)


@settings(max_examples=60, deadline=None)
@given(n_q=st.integers(1, 9), n_k=st.integers(1, 9), clip=CLIPS,
       enc_dim=st.sampled_from([2, 4, 8]))
def test_sequence_map_matches_closed_forms(n_q, n_k, clip, enc_dim):
    offsets = offset_map_1d(n_q, n_k, enc_dim=enc_dim, clip=clip)
    q, k = np.meshgrid(np.arange(n_q), np.arange(n_k), indexing="ij")
    assert offsets.ndim == 1
    assert offsets.n_offsets == n_q + n_k - 1
    assert offsets.table.shape == (n_q + n_k - 1, enc_dim)
    assert offsets.delta.shape == offsets.index.shape == (n_q, n_k)
    assert offsets.index.dtype == offsets.delta.dtype == np.int64
    np.testing.assert_array_equal(offsets.delta, k - q)
    np.testing.assert_array_equal(offsets.index, k - q + n_q - 1)
    np.testing.assert_array_equal(
        offsets.table, encode_1d(np.arange(1 - n_q, n_k), enc_dim, clip=clip))
    _check_table(offsets, enc_dim, clip)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), clip=CLIPS,
       enc_dim=st.sampled_from([4, 8]))
def test_grid_map_matches_closed_forms(h, w, clip, enc_dim):
    offsets = offset_map_2d(h, w, enc_dim=enc_dim, clip=clip)
    ys, xs = np.arange(h * w) // w, np.arange(h * w) % w
    dy, dx = ys[None, :] - ys[:, None], xs[None, :] - xs[:, None]
    assert offsets.ndim == 2
    assert offsets.n_offsets == (2 * h - 1) * (2 * w - 1)
    assert offsets.delta.shape == (h * w, h * w, 2)
    assert offsets.index.dtype == offsets.delta.dtype == np.int64
    np.testing.assert_array_equal(offsets.delta, np.stack([dy, dx], axis=2))
    np.testing.assert_array_equal(offsets.index, (dy + h - 1) * (2 * w - 1) + dx + w - 1)
    _check_table(offsets, enc_dim, clip)
    for row, (oy, ox) in zip(offsets.table, cells((2 * h - 1, 2 * w - 1)).T):
        np.testing.assert_array_equal(row, encode_2d([oy - h + 1, ox - w + 1], enc_dim,
                                                     clip=clip))


@settings(max_examples=40, deadline=None)
@given(q=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       k=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_cross_grid_map_covers_the_realized_box(q, k):
    offsets = offset_map(q, k, enc_dim=8)
    assert offsets.n_offsets == (q[0] + k[0] - 1) * (q[1] + k[1] - 1)
    delta = cells(k).T[None, :, :] - cells(q).T[:, None, :]
    np.testing.assert_array_equal(offsets.delta, delta)
    _check_table(offsets, 8, None)


def test_flat_index_is_row_major_and_marks_outside_cells():
    extent = (3, 4)
    np.testing.assert_array_equal(flat_index(cells(extent), extent), np.arange(12))
    coords = np.array([[1, -1, 3], [2, 0, 0]])
    assert flat_index(coords, extent, first=10).tolist() == [16, -1, -1]


def test_local_mask_is_a_chebyshev_window_at_any_rank():
    grid = offset_map_2d(4, 5, enc_dim=8)
    dy, dx = np.moveaxis(grid.delta, -1, 0)
    np.testing.assert_array_equal(local_mask(grid, 3), np.maximum(abs(dy), abs(dx)) <= 1)
    seq = offset_map_1d(4, 7, enc_dim=8)
    np.testing.assert_array_equal(local_mask(seq, 5), np.abs(seq.delta) <= 2)


@pytest.mark.parametrize("build, args", [
    (offset_map_2d, (0, 3)),
    (offset_map_2d, (3, -1)),
    (offset_map_1d, (3, 0)),
    (offset_map_1d, (0, 3)),
    (offset_map_1d, (2.5, 3)),
    (offset_map_1d, (True, 3)),
    (offset_map, ((2, 3), (4,))),
    (offset_map, ((), ())),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_empty_or_mismatched_extents_raise(build, args):
    with pytest.raises(ContractViolation, match="extents"):
        build(*args, enc_dim=8)


def test_encodings_keep_their_shapes_and_reject_bad_widths():
    assert encode_1d(3, 8).shape == (8,)
    assert encode_1d([1, 2, 3], 8).shape == (3, 8)
    assert encode_2d([1, 2], 8).shape == (8,)
    assert encode_2d([[1, 2]], 8).shape == (1, 8)
    for bad in (lambda: encode_2d([1, 2, 3, 4], 8), lambda: encode_2d(1, 8),
                lambda: encode(np.zeros((2, 3)), 8)):
        with pytest.raises(ContractViolation):
            bad()
