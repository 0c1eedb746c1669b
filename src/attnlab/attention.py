"""Multi-head attention factored into four switchable energy terms.

A weight on query q and key k is softmax-normalized from a sum of up to
four energies: query-key content match, query content against relative
position, key saliency alone, and a pure relative-position bias. Each
term can be toggled independently, which is the knob the ablation
harness turns. With every term off the weights are uniform over the
unmasked region.

Per head, the query projection is shared between the two query-driven
terms and the key projection between the two key-driven terms, so a
layer with several terms active is cheaper than the sum of standalone
terms. Encoded relative offsets are projected once per layer from a
precomputed table covering every realizable offset; the two positional
terms then dot a per-query (or shared) vector with the table row of each
query-key pair through the fused ``gather_dot`` op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, ShapeMismatch, positive_int
from .relpos import cells, encode, flat_index
from .tensor import Rng, Tensor, gather_dot, rows_per_sample, softmax_sum


@dataclass(frozen=True)
class AttentionConfig:
    """Which energy terms are active, and how many heads."""

    gates: tuple
    heads: int = 8
    allow_uniform: bool = False

    def __post_init__(self):
        if len(self.gates) != 4 or not all(isinstance(g, bool) for g in self.gates):
            raise ContractViolation("gates must be four booleans")
        if not positive_int(self.heads):
            raise ContractViolation(f"head count must be a positive int, got {self.heads!r}")
        if not any(self.gates) and not self.allow_uniform:
            raise ContractViolation(
                "no energy term active; pass allow_uniform=True to run uniform attention"
            )

    @classmethod
    def from_beta(cls, beta, heads=8):
        """Parse a switch string like "0110" (term order: query_key,
        query_pos, key_only, pos_only)."""
        if not isinstance(beta, str) or len(beta) != 4 or any(ch not in "01" for ch in beta):
            raise ContractViolation(f"switch string must be four 0/1 chars, got {beta!r}")
        gates = tuple(ch == "1" for ch in beta)
        return cls(gates=gates, heads=heads, allow_uniform=not any(gates))

    @property
    def beta(self):
        return "".join("1" if g else "0" for g in self.gates)


class AttentionParams:
    """Per-head projections for the four-term attention.

    query_embed and key_embed_ are the shared content projections,
    pos_embed maps encoded offsets into head space, content_bias and
    position_bias are the learned probe vectors of the two
    query-independent terms, and value_proj/out_proj do the usual
    low-rank value aggregation. res_scale is the residual gain,
    initialized to zero so a freshly inserted layer is the identity.
    """

    def __init__(self, channels, heads, enc_dim, rng: Rng):
        if not positive_int(heads):
            raise ContractViolation(f"head count must be a positive int, got {heads!r}")
        if not (positive_int(channels) and positive_int(enc_dim)):
            raise ContractViolation(f"channels ({channels!r}) and enc_dim ({enc_dim!r}) "
                                    f"must be positive ints")
        if channels % heads != 0:
            raise ShapeMismatch(f"heads ({heads}) must divide channels ({channels})")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        d, c, p = self.head_dim, channels, enc_dim
        self.query_embed = [rng.param((d, c), fan_in=c) for _ in range(heads)]
        self.key_embed_ = [rng.param((d, c), fan_in=c) for _ in range(heads)]
        self.pos_embed = [rng.param((d, p), fan_in=p) for _ in range(heads)]
        self.content_bias = [rng.param((d, 1), fan_in=d) for _ in range(heads)]
        self.position_bias = [rng.param((d, 1), fan_in=d) for _ in range(heads)]
        self.value_proj = [rng.param((d, c), fan_in=c) for _ in range(heads)]
        self.out_proj = [rng.param((d, c), fan_in=d) for _ in range(heads)]
        self.res_scale = Tensor(0.0, requires_grad=True)

    def parameters(self):
        out = []
        for group in (
            self.query_embed,
            self.key_embed_,
            self.pos_embed,
            self.content_bias,
            self.position_bias,
            self.value_proj,
            self.out_proj,
        ):
            out.extend(group)
        out.append(self.res_scale)
        return out


@dataclass
class OffsetMap:
    """Precomputed relative-position geometry for one layer.

    ``table`` holds the sinusoid encoding of every realizable offset,
    ``index`` maps a (query, key) pair to its table row, and ``delta``
    keeps the raw integer offsets for building region masks: (n_q, n_k)
    for sequences, else (n_q, n_k, ndim).
    """

    table: np.ndarray
    index: np.ndarray
    delta: np.ndarray

    @property
    def ndim(self):
        """Rank of the extents, read from the shape of ``delta``."""
        return 1 if self.delta.ndim == 2 else self.delta.shape[-1]

    @property
    def n_offsets(self):
        return self.table.shape[0]


def offset_map(q_extent, k_extent, enc_dim, clip=None):
    """Offsets k - q from each cell of a row-major query extent to each
    cell of a key extent of the same rank (an int extent is a sequence).
    The table encodes every offset in the box the pairs realize, row-major,
    and ``index`` flattens each pair's offset in that box."""
    q_extent, k_extent = (tuple(np.atleast_1d(e).tolist()) for e in (q_extent, k_extent))
    sizes = q_extent + k_extent
    if not q_extent or len(q_extent) != len(k_extent) or not all(map(positive_int, sizes)):
        raise ContractViolation(f"extents {q_extent}, {k_extent} are not positive ints of one rank")
    axes = [kc[None, :] - qc[:, None] for qc, kc in zip(cells(q_extent), cells(k_extent))]
    # along each axis the pairs realize every offset from 1 - n_q to n_k - 1
    box = tuple(n_q + n_k - 1 for n_q, n_k in zip(q_extent, k_extent))
    table = encode((cells(box) + 1 - np.array(q_extent)[:, None]).T, enc_dim, clip)
    index = flat_index([a + n_q - 1 for a, n_q in zip(axes, q_extent)], box)
    return OffsetMap(table=table, index=index,
                     delta=np.stack(axes, axis=-1) if len(box) > 1 else axes[0])


def offset_map_1d(n_q, n_k, enc_dim, clip=None):
    """Offsets k - q for aligned sequence positions."""
    return offset_map(n_q, n_k, enc_dim, clip)


def offset_map_2d(height, width, enc_dim, clip=None):
    """Offsets (dy, dx) between all cell pairs of a height x width grid."""
    return offset_map((height, width), (height, width), enc_dim, clip)


def local_mask(offsets: OffsetMap, window):
    """Keep pairs within a centered window of odd extent ``window``."""
    if not positive_int(window) or window % 2 != 1:
        raise ContractViolation(f"window must be an odd positive int, got {window!r}")
    return np.abs(offsets.delta).reshape(*offsets.index.shape, -1).max(axis=-1) <= window // 2


def causal_mask(offsets: OffsetMap):
    """Keep keys at or before the query (sequences only)."""
    if offsets.ndim != 1:
        raise ContractViolation("causal regions are defined for sequences only")
    return offsets.delta <= 0


# -- the energy stage ----------------------------------------------------------


def _head_energies(z, x, params, m, gates, offsets=None, batch=1):
    """Head m's active energy terms in term order, each in its own shape:
    query_key and query_pos (batch, n_q, n_k), key_only one (batch, 1, n_k)
    row per sample and pos_only one (n_q, n_k) grid for the whole batch.
    """
    g_qk, g_qp, g_ko, g_po = gates
    d = params.head_dim
    if g_qk or g_qp:
        qe = (z @ params.query_embed[m].T).reshape(batch, -1, d)
    if g_qk or g_ko:
        ke = x @ params.key_embed_[m].T
    if g_qp or g_po:
        tbl = Tensor(offsets.table) @ params.pos_embed[m].T
    terms = []
    if g_qk:
        terms.append(qe @ ke.reshape(batch, -1, d).T)
    if g_qp:
        terms.append(gather_dot(qe, tbl, offsets.index))
    if g_ko:
        terms.append((ke @ params.content_bias[m]).reshape(batch, 1, -1))
    if g_po:
        terms.append(gather_dot(params.position_bias[m].reshape(1, d), tbl, offsets.index))
    return terms


def _one_term(term, params, z=None, x=None, offsets=None):
    """One term alone, per head, as (n_q, n_k) or key_only's (1, n_k)."""
    gates = tuple(i == term for i in range(4))
    heads = (_head_energies(z, x, params, m, gates, offsets)[0] for m in range(params.heads))
    return [e.reshape(e.shape[-2:]) for e in heads]


def query_key_energy(z, x, params):
    """Content match: projected query dotted with projected key."""
    return _one_term(0, params, z=z, x=x)


def query_pos_energy(z, offsets, params):
    """Projected query content dotted with the pair's offset embedding."""
    return _one_term(1, params, z=z, offsets=offsets)


def key_only_energy(x, params):
    """Key saliency, one value per key, identical for every query."""
    return _one_term(2, params, x=x)


def pos_only_energy(offsets, params):
    """Pure positional bias, materialized and charged per query-key pair as
    the cost model counts it; ``pos_only_profile`` gives it per offset."""
    return _one_term(3, params, offsets=offsets)


def pos_only_profile(offsets, params):
    """Positional bias per table offset: list of (n_offsets,) tensors."""
    each_row = replace(offsets, index=np.arange(offsets.n_offsets)[None, :])
    return [e.reshape(offsets.n_offsets) for e in pos_only_energy(each_row, params)]


# -- the layer ----------------------------------------------------------------


def attention_weights(z, x, params, config, offsets=None, mask=None, *, batch=1):
    """Per-head attention weight matrices, shape (batch * n_q, n_k) each.

    ``z`` and ``x`` stack ``batch`` samples along their rows; the rows of
    each sample attend only to the keys of the same sample. One
    ``softmax_sum`` op per head adds its active terms from
    ``_head_energies``, each broadcast from its own shape, into one
    (batch, n_q, n_k) buffer, so no zero grid is needed, and normalizes
    it there. Positional terms need ``offsets`` for one sample's pairs.
    """
    positional = config.gates[1] or config.gates[3]
    if config.heads != params.heads:
        raise ShapeMismatch(f"config has {config.heads} heads, params {params.heads}")
    if positional and offsets is None:
        raise ContractViolation("positional terms need an OffsetMap")
    n_q = rows_per_sample(z, batch, "z")
    n_k = rows_per_sample(x, batch, "x")
    if positional and offsets.index.shape != (n_q, n_k):
        raise ShapeMismatch(f"offset map covers {offsets.index.shape} query-key pairs, "
                            f"the inputs {(n_q, n_k)}")
    return [softmax_sum(_head_energies(z, x, params, m, config.gates, offsets, batch),
                        (batch, n_q, n_k), mask=mask).reshape(batch * n_q, n_k)
            for m in range(params.heads)]


def attention_forward(z, x, params, config, offsets=None, mask=None, mode="self",
                      residual=False, *, batch=1):
    """Full layer: switched attention weights, low-rank value aggregation,
    per-head output projection, optional gated residual.

    In "self" mode ``z`` and ``x`` must be the same tensor; "cross" mode
    attends from one set onto another. Both stack ``batch`` samples along
    their rows. With ``residual=True`` the output is ``z + res_scale * y``
    and ``res_scale`` starts at zero, so an untrained layer passes its
    input through untouched.
    """
    if mode == "self":
        if z is not x:
            raise ContractViolation("self mode requires z and x to be the same tensor")
    elif mode != "cross":
        raise ContractViolation(f"mode must be 'self' or 'cross', got {mode!r}")
    if z.shape[1] != params.channels or x.shape[1] != params.channels:
        raise ShapeMismatch(
            f"inputs have {z.shape[1]}/{x.shape[1]} channels, params expect {params.channels}"
        )
    weights = attention_weights(z, x, params, config, offsets, mask, batch=batch)
    n_q = rows_per_sample(z, batch, "z")
    n_k = rows_per_sample(x, batch, "x")
    y = None
    for m in range(params.heads):
        vm = (x @ params.value_proj[m].T).reshape(batch, n_k, params.head_dim)
        head = (weights[m].reshape(batch, n_q, n_k) @ vm).reshape(batch * n_q, params.head_dim)
        contrib = head @ params.out_proj[m]
        y = contrib if y is None else y + contrib
    if residual:
        return z + y * params.res_scale
    return y
