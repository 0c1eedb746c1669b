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

The energy terms are computed in one place, ``_head_terms``, in numpy:
a head's projections, each run once for the terms that read it, and its
active terms through the numpy bodies of ``tensor`` (``_matmul``,
``_gather_dot``), each with its vector-Jacobian product (VJP).
``attention_forward`` is one tape op over it: its forward runs one head
at a time over the whole batch through the terms, the masked in-place
softmax (``_softmax_sum``), the values and the output projection, keeps
each head's (batch, n_q, n_k) weights and small projections, and its
backward is the hand-written VJP into the per-head parameters, ``z`` and
``x``. ``attention_weights`` and the one-term views
(``query_key_energy``, ...) are tape views over the same terms: one tape
node per term, one ``softmax_sum`` node per head.
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
        self.enc_dim = enc_dim
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
        return [*self.query_embed, *self.key_embed_, *self.pos_embed, *self.content_bias,
                *self.position_bias, *self.value_proj, *self.out_proj, self.res_scale]


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
    """Head's active energy terms in numpy, the one place they are computed:
    query_key and query_pos (batch, n_q, n_k), key_only one (batch, 1, n_k)
    row per sample and pos_only one (n_q, n_k) grid for the whole batch.

    Returns the term values, one VJP per term from its gradient to those of
    the operands it reads (a dict by name), and ``project``, which takes the
    summed operand gradients to those of (z, x, wq, wk, wp, cb, pb). Each
    projection runs once for all the terms that read it.
    """
    active = [term for term, on in zip(_TERMS, gates) if on]
    need = {name for _, *names in active for name in names}
    ops, d = {"cb": cb.T, "pb": pb.T}, len(wq)
    if "q" in need:
        q, qf = _matmul(z, wq.T)
        ops["q"] = q.reshape(batch, -1, d)
    if "kt" in need:
        k, kf = _matmul(x, wk.T)
        ops["kt"] = k.reshape(batch, -1, d).swapaxes(1, 2)
    if "tbl" in need:
        ops["tbl"], tf = _matmul(offsets.table, wp.T)
    values, vjps = [], []
    for body, a, b in active:
        value, f = body(ops[a], ops[b], **({"index": offsets.index} if body is _gather_dot else {}))
        values.append(value)
        vjps.append(lambda g, f=f, names=(a, b): dict(zip(names, f(g))))

    def project(grads):
        gz = gx = gwq = gwk = gwp = None
        if "q" in grads:
            gz, gwq = qf(grads["q"].reshape(-1, d))
        if "kt" in grads:
            gx, gwk = kf(grads["kt"].swapaxes(1, 2).reshape(-1, d))
        if "tbl" in grads:
            gwp = tf(grads["tbl"])[1]
        return (gz, gx, *(None if g is None else g.T for g in (gwq, gwk, gwp)),
                *(grads[n].T if n in grads else None for n in ("cb", "pb")))

    return values, vjps, project


def _head_energies(z, x, params, m, gates, offsets=None, batch=1):
    """Head m's active energy terms as tape nodes over z, x and the head's
    energy weights, one per term, from ``_head_terms``."""
    inputs = (z, x, params.query_embed[m], params.key_embed_[m], params.pos_embed[m],
              params.content_bias[m], params.position_bias[m])
    values, vjps, project = _head_terms(*(None if t is None else t.data for t in inputs),
                                        gates=gates, offsets=offsets, batch=batch)
    return [vjp_op(v, lambda g, f=f: project(f(g)), inputs) for v, f in zip(values, vjps)]


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


def _head(z, x, wq, wk, wp, cb, pb, wv, wo, *, gates, offsets, mask, shape):
    """One head of the layer in numpy over the whole batch: its output and
    its VJP into z, x and the head's seven weights (None where unread)."""
    (batch, n_q, n_k), d = shape, len(wq)
    values, vjps, project = _head_terms(z, x, wq, wk, wp, cb, pb, gates=gates,
                                        offsets=offsets, batch=batch)
    p, sf = _softmax_sum(*values, shape=shape, mask=mask)
    v, vf = _matmul(x, wv.T)
    h, hf = _matmul(p, v.reshape(batch, n_k, d))
    out, of = _matmul(h.reshape(-1, d), wo)

    def vjp(gy):
        gh, gwo = of(gy)
        gp, gv = hf(gh.reshape(batch, n_q, d))
        gxv, gwv = vf(gv.reshape(-1, d))
        grads = {}
        for f, g in zip(vjps, sf(gp)):
            for name, gn in f(g).items():
                grads[name] = grads[name] + gn if name in grads else gn
        gz, gx, *gw = project(grads)
        return gz, gxv if gx is None else gx + gxv, *gw, gwv.T, gwo

    return out, vjp


def _layer(z, x, *weights, gates, offsets, mask, batch):
    """The layer in numpy, head by head: its output and its VJP into z, x and
    ``weights``, the order of ``AttentionParams.parameters()`` less res_scale."""
    heads = len(weights) // 7
    shape = (batch, len(z) // batch, len(x) // batch)
    outs, vjps = zip(*(_head(z, x, *weights[m::heads], gates=gates, offsets=offsets,
                             mask=mask, shape=shape) for m in range(heads)))

    def vjp(gy):
        gz, gx, *gw = zip(*(f(gy) for f in vjps))
        return None if gz[0] is None else sum(gz), sum(gx), *(g for kind in gw for g in kind)

    return sum(outs), vjp


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
