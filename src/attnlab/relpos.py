"""Row-major extents and sinusoidal encodings of relative positions.

A sequence or a grid is a row-major extent; ``cells`` lists its cell
coordinates and ``flat_index`` maps coordinates back to rows.

Offsets are embedded with interleaved sine/cosine channels across a
geometric frequency ladder, the usual fixed encoding. Entry 2i holds
sin(d / base^(2i/dim)), base = ``DEFAULT_BASE``, and entry 2i+1 the
matching cosine. Offsets are
clipped to a maximum magnitude first, so far-apart pairs share the
encoding of the clip boundary. An offset of rank r concatenates one
encoding per axis, so its dimension must be divisible by 2r.
"""

import numpy as np

from .errors import ContractViolation, at_least, positive_int

DEFAULT_BASE = 10000.0


def cells(extent):
    """(ndim, n) coordinates of a row-major extent's cells, one row per axis."""
    return np.indices(extent).reshape(len(extent), -1)


def flat_index(coords, extent, first=0):
    """Row of per-axis integer coordinates in a row-major grid whose
    cell (0, ...) sits at row ``first``; -1 where any axis falls outside
    the extent."""
    flat = 0
    inside = True
    for coord, size in zip(coords, extent):
        inside = inside & (coord >= 0) & (coord < size)
        flat = flat * size + coord
    return np.where(inside, flat + first, -1)


def encode(offsets, dim, clip=None, ndim=None):
    """Encode (..., r) integer offsets as (..., dim) sinusoid features,
    dim // r channels per axis; ``ndim``, if given, is the r required.
    ``clip``, if given, is a finite magnitude of at least zero."""
    if not (clip is None or at_least(clip, 0)):
        raise ContractViolation(f"clip must be a finite number >= 0, got {clip!r}")
    d = np.asarray(offsets, dtype=np.float64)
    rank = d.shape[-1] if d.ndim else 0
    if not positive_int(dim) or rank < 1 or ndim not in (None, rank) or dim % (2 * rank):
        raise ContractViolation(f"cannot encode offsets of shape {d.shape} in {dim!r} channels: "
                                f"need {ndim or 'r > 0'} components and a dim > 0 divisible by 2r")
    if clip is not None:
        d = np.clip(d, -clip, clip)
    per_axis = dim // rank
    angles = d[..., None] / DEFAULT_BASE ** (np.arange(0, per_axis, 2) / per_axis)
    return np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(d.shape[:-1] + (dim,))


def encode_1d(offsets, dim, clip=None):
    """Encode integer offsets as (n, dim) sinusoid features."""
    return encode(np.expand_dims(offsets, -1), dim, clip)


def encode_2d(offsets, dim, clip=None):
    """Encode (dy, dx) offsets; each axis gets half the channels."""
    return encode(offsets, dim, clip, ndim=2)
