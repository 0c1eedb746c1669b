"""Multi-head attention factored into four switchable energy terms.

A weight on query q and key k is softmax-normalized from a sum of up to
four energies: query-key content match, query content against relative
position, key saliency alone, and a pure relative-position bias. Each
term can be toggled independently, which is the knob the ablation
harness turns. With every term off the weights are uniform over the
unmasked region. Per head, the two query-driven terms share the query
projection and the two key-driven terms the key projection; the two
positional terms dot a vector with the projected table row of each
query-key pair (``tensor.gather_dot``).

Heads are an axis: each weight kind is one (heads, d, ·) tensor whose row
m is head m. The terms are computed in one place, ``_head_terms``, in
numpy through the bodies of ``tensor`` (``_matmul``, ``_gather_dot``),
each with its vector-Jacobian product (VJP); each projection runs once for
all heads. ``attention_forward`` is one tape op over it: the grid-sized
work (terms, the masked in-place ``_softmax_sum``, the values) runs one
head at a time over the whole batch, and its backward is the hand-written
VJP into the packed weights, ``z`` and ``x``. ``attention_weights`` and
the one-term views (``query_key_energy``, ...) are tape views over the
same terms: one tape node per term, one ``softmax_sum`` node per head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, ShapeMismatch, positive_int
from .relpos import cells, encode, flat_index
from .tensor import (Rng, Tensor, _gather_dot, _matmul, _softmax_sum, rows_per_sample,
                     softmax_sum, vjp_op)


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
    """Weights of the four-term attention, one (heads, head_dim, ·) tensor
    per kind whose row m is head m, so ``parameters()`` is eight tensors.

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
        self.enc_dim = enc_dim
        self.head_dim = channels // heads
        d, c, p = self.head_dim, channels, enc_dim
        self.query_embed = rng.param((heads, d, c), fan_in=c)
        self.key_embed_ = rng.param((heads, d, c), fan_in=c)
        self.pos_embed = rng.param((heads, d, p), fan_in=p)
        self.content_bias = rng.param((heads, d, 1), fan_in=d)
        self.position_bias = rng.param((heads, d, 1), fan_in=d)
        self.value_proj = rng.param((heads, d, c), fan_in=c)
        self.out_proj = rng.param((heads, d, c), fan_in=d)
        self.res_scale = Tensor(0.0, requires_grad=True)

    def parameters(self):
        return [self.query_embed, self.key_embed_, self.pos_embed, self.content_bias,
                self.position_bias, self.value_proj, self.out_proj, self.res_scale]


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


# per term in term order, its numpy body and the two head operands it reads:
# the projected queries "q" (batch, n_q, d) and keys "kt" (batch, d, n_k),
# the projected offset table "tbl" and the probe vectors "cb" and "pb" (1, d)
_TERMS = ((_matmul, "q", "kt"), (_gather_dot, "q", "tbl"),
          (_matmul, "cb", "kt"), (_gather_dot, "pb", "tbl"))


def _head_terms(z, x, wq, wk, wp, cb, pb, *, gates, offsets, batch):
    """The active energy terms in numpy, the one place they are computed:
    per head, query_key and query_pos (batch, n_q, n_k), key_only one
    (batch, 1, n_k) row per sample and pos_only one (n_q, n_k) grid for the
    whole batch. Each projection runs once for all heads and terms. Returns
    ``terms(m)``, head m's term values and per term a VJP to (name, gradient)
    pairs of the operands it reads, and ``project``, from one list of pairs
    per head to the packed gradients of (z, x, wq, wk, wp, cb, pb)."""
    active = [term for term, on in zip(_TERMS, gates) if on]
    need = {name for _, *names in active for name in names}
    (heads, d), ops = wq.shape[:2], {"cb": cb.swapaxes(1, 2), "pb": pb.swapaxes(1, 2)}
    if "q" in need:
        q, qf = _matmul(z, wq.swapaxes(1, 2))
        ops["q"] = q.reshape(heads, batch, -1, d)
    if "kt" in need:
        k, kf = _matmul(x, wk.swapaxes(1, 2))
        ops["kt"] = k.reshape(heads, batch, -1, d).swapaxes(2, 3)
    if "tbl" in need:
        ops["tbl"] = _matmul(offsets.table, wp.swapaxes(1, 2))[0]

    def terms(m):
        values, vjps = [], []
        for body, a, b in active:
            value, f = body(ops[a][m], ops[b][m], *([offsets.index] if body is _gather_dot else []))
            values.append(value)
            vjps.append(lambda g, f=f, names=(a, b): list(zip(names, f(g))))
        return values, vjps

    def project(per_head):
        grads = {name: np.zeros(ops[name].shape) for pairs in per_head for name, _ in pairs}
        for m, pairs in enumerate(per_head):
            for name, g in pairs:
                grads[name][m] += g
        gz = gx = gwq = gwk = gwp = None
        if "q" in grads:
            gz, gwq = qf(grads["q"].reshape(heads, -1, d))
        if "kt" in grads:
            gx, gwk = kf(grads["kt"].swapaxes(2, 3).reshape(heads, -1, d))
        if "tbl" in grads:
            # the table is constant: only the projection's weight gradient
            gwp = offsets.table.T @ grads["tbl"]
        return (gz, gx, *(None if g is None else g.swapaxes(1, 2) for g in (gwq, gwk, gwp)),
                *(grads[n].swapaxes(1, 2) if n in grads else None for n in ("cb", "pb")))

    return terms, project


def _head_energies(z, x, params, m, gates, offsets=None, batch=1):
    """Head m's energy terms from ``_head_terms``, one tape node each, over z, x
    and row m of each energy weight (``take_rows``: the gradient lands in row m)."""
    inputs = (z, x, *(w.take_rows([m]) for w in params.parameters()[:5]))
    terms, project = _head_terms(*(None if t is None else t.data for t in inputs),
                                 gates=gates, offsets=offsets, batch=batch)
    return [vjp_op(v, lambda g, f=f: project([f(g)]), inputs) for v, f in zip(*terms(0))]


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


def _layer_rows(z, x, params, config, offsets, batch):
    """Per-sample (n_q, n_k), after the checks both layer entry points share."""
    for t, what in ((z, "z"), (x, "x")):
        if not (isinstance(t, Tensor) and t.ndim == 2):
            raise ShapeMismatch(f"{what} must be a 2-D Tensor, got shape {np.shape(t)}")
    if config.heads != params.heads:
        raise ShapeMismatch(f"config has {config.heads} heads, params {params.heads}")
    if z.shape[1] != params.channels or x.shape[1] != params.channels:
        raise ShapeMismatch(f"inputs have {z.shape[1]}/{x.shape[1]} channels, "
                            f"params expect {params.channels}")
    positional = config.gates[1] or config.gates[3]
    if positional and offsets is None:
        raise ContractViolation("positional terms need an OffsetMap")
    n_q = rows_per_sample(z, batch, "z")
    n_k = rows_per_sample(x, batch, "x")
    if positional and offsets.index.shape != (n_q, n_k):
        raise ShapeMismatch(f"offset map covers {offsets.index.shape} query-key pairs, "
                            f"the inputs {(n_q, n_k)}")
    if positional and offsets.table.shape[1:] != (params.enc_dim,):
        raise ShapeMismatch(f"offset table of shape {offsets.table.shape} is not "
                            f"enc_dim {params.enc_dim} wide")
    return n_q, n_k


def attention_weights(z, x, params, config, offsets=None, mask=None, *, batch=1):
    """Per-head attention weight matrices, shape (batch * n_q, n_k) each:
    one ``softmax_sum`` node per head over its ``_head_energies`` terms.

    ``z`` and ``x`` stack ``batch`` samples along their rows; the rows of
    each sample attend only to the keys of the same sample. Positional
    terms need ``offsets`` for one sample's pairs.
    """
    n_q, n_k = _layer_rows(z, x, params, config, offsets, batch)
    return [softmax_sum(_head_energies(z, x, params, m, config.gates, offsets, batch),
                        (batch, n_q, n_k), mask=mask).reshape(batch * n_q, n_k)
            for m in range(params.heads)]


def _layer(z, x, wq, wk, wp, cb, pb, wv, wo, *, gates, offsets, mask, batch):
    """The layer in numpy: its output and its VJP into z, x and the packed
    weights. ``head`` does one head's grid-sized work, so that each head's
    temporaries are freed before the next head's are made."""
    (heads, d), shape = wq.shape[:2], (batch, len(z) // batch, len(x) // batch)
    terms, project = _head_terms(z, x, wq, wk, wp, cb, pb, gates=gates, offsets=offsets,
                                 batch=batch)
    v, vf = _matmul(x, wv.swapaxes(1, 2))

    def head(m):
        values, vjps = terms(m)
        p, sf = _softmax_sum(*values, shape=shape, mask=mask)
        h, hf = _matmul(p, v.reshape(heads, batch, -1, d)[m])

        def vjp(gh):
            gp, gv = hf(gh.reshape(batch, -1, d))
            return [pair for f, g in zip(vjps, sf(gp)) for pair in f(g)], gv

        return h, vjp

    hs, vjps = zip(*map(head, range(heads)))
    out, of = _matmul(np.stack(hs).reshape(heads, -1, d), wo)

    def vjp(gy):
        gh, gwo = of(np.broadcast_to(gy, out.shape))
        pairs, gv = zip(*(f(g) for f, g in zip(vjps, gh)))
        gz, gx, *gw = project(pairs)
        gxv, gwv = vf(np.stack(gv).reshape(v.shape))
        return gz, gxv if gx is None else gx + gxv, *gw, gwv.swapaxes(1, 2), gwo

    return out.sum(axis=0), vjp


def attention_forward(z, x, params, config, offsets=None, mask=None, mode="self",
                      residual=False, *, batch=1):
    """Full layer, one tape op up to the optional gated residual: switched
    attention weights, low-rank value aggregation, per-head output projection.

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
    _layer_rows(z, x, params, config, offsets, batch)
    inputs = (z, x, *params.parameters()[:-1])
    y = vjp_op(*_layer(*(t.data for t in inputs), gates=config.gates, offsets=offsets,
                       mask=mask, batch=batch), inputs)
    if residual:
        return z + y * params.res_scale
    return y
