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
all heads, and so does key_only. ``attention_forward`` is one tape op
over it: the grid-sized work (terms, the masked in-place
``_softmax_sum``, the values) runs one head at a time over the whole
batch in tiles of ``GATHER_DOT_ROWS`` query rows, and its backward is
the hand-written VJP into the packed weights, ``z`` and ``x``, over the
same tiles. ``attention_weights`` and the one-term views
(``query_key_energy``, ...) are tape views over the same terms, as one
tile of all rows: one tape node per term, one ``softmax_sum`` node per
head.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ContractViolation, ShapeMismatch, positive_int
from .relpos import cells, encode, flat_index
from .tensor import (GATHER_DOT_ROWS, Rng, Tensor, _gather_dot, _matmul, _softmax_sum,
                     bool_mask, records, rows_per_sample, softmax_sum, vjp_op)


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

    ``table`` holds the sinusoid encoding of every realizable offset and
    ``index``, one int64 (n_q, n_k) array, maps a (query, key) pair to its
    table row; ``q_extent`` and ``k_extent`` are the row-major extents the
    pairs run over. Only these are held: ``delta``, the raw integer
    offsets the region masks read, is derived from the extents on every
    read, (n_q, n_k) for sequences, else (n_q, n_k, ndim).
    """

    table: np.ndarray
    index: np.ndarray
    q_extent: tuple
    k_extent: tuple

    @property
    def ndim(self):
        """Rank of the extents."""
        return len(self.q_extent)

    @property
    def delta(self):
        """Offsets k - q of every pair, int64, derived from the extents."""
        axes = [kc - qc[:, None] for qc, kc in zip(cells(self.q_extent), cells(self.k_extent))]
        return axes[0] if self.ndim == 1 else np.stack(axes, axis=-1)

    @property
    def n_offsets(self):
        return self.table.shape[0]


def offset_map(q_extent, k_extent, enc_dim, clip=None):
    """Offsets k - q from each cell of a row-major query extent to each
    cell of a key extent of the same rank (an int extent is a sequence).
    The table encodes every offset in the box the pairs realize, row-major.
    Row-major flattening is linear in the coordinates, so a pair's flat
    offset k - q + n_q - 1 in that box is a query part, ``n_q - 1 - q``
    flattened, plus a key part, ``k`` flattened: ``index`` is their outer
    sum, the one (n_q, n_k) array the build makes."""
    q_extent, k_extent = (tuple(np.atleast_1d(e).tolist()) for e in (q_extent, k_extent))
    sizes = q_extent + k_extent
    if not q_extent or len(q_extent) != len(k_extent) or not all(map(positive_int, sizes)):
        raise ContractViolation(f"extents {q_extent}, {k_extent} are not positive ints of one rank")
    # along each axis the pairs realize every offset from 1 - n_q to n_k - 1
    low = np.array(q_extent)[:, None] - 1
    box = tuple(n_q + n_k - 1 for n_q, n_k in zip(q_extent, k_extent))
    table = encode((cells(box) - low).T, enc_dim, clip)
    index = np.add.outer(flat_index(low - cells(q_extent), box), flat_index(cells(k_extent), box))
    return OffsetMap(table, index, q_extent, k_extent)


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


# per term in term order, its numpy body and the head operands it reads:
# the projected queries "q" (batch, n_q, d) and keys "kt" (batch, d, n_k),
# the projected offset table "tbl" and the probe vector "pb" (1, d).
# key_only has no query axis, so it has no body here: its (batch, 1, n_k)
# row "ko" is made once per head with the projections and read whole
_TERMS = ((_matmul, "q", "kt"), (_gather_dot, "q", "tbl"), (None, "ko"),
          (_gather_dot, "pb", "tbl"))


def _head_terms(z, x, wq, wk, wp, cb, pb, *, gates, offsets, batch):
    """The active energy terms in numpy, the one place they are computed:
    per head, query_key and query_pos (batch, n_q, n_k), key_only one
    (batch, 1, n_k) row per sample and pos_only one (n_q, n_k) grid for the
    whole batch. Each projection, and key_only, runs once for all heads.
    Returns ``terms(m, rows)``, head m's term values over the query slice
    ``rows`` (all by default) and ``add(i, g, grads)``, which adds term i's
    gradient g into the dict of its operands' gradients, and ``project``,
    from that dict to the packed gradients of (z, x, wq, wk, wp, cb, pb)."""
    active = [term for term, on in zip(_TERMS, gates) if on]
    need = {name for _, *names in active for name in names}
    (heads, d), ops = wq.shape[:2], {"pb": pb.swapaxes(1, 2)}
    if "q" in need:
        q, qf = _matmul(z, wq.swapaxes(1, 2))
        ops["q"] = q.reshape(heads, batch, -1, d)
    if need & {"kt", "ko"}:
        k, kf = _matmul(x, wk.swapaxes(1, 2))
        ops["kt"] = k.reshape(heads, batch, -1, d).swapaxes(2, 3)
    if "ko" in need:
        ops["ko"], kof = _matmul(cb.swapaxes(1, 2)[:, None], ops["kt"])
    if "tbl" in need:
        ops["tbl"] = _matmul(offsets.table, wp.swapaxes(1, 2))[0]

    def terms(m, rows=slice(None)):
        at = {name: (m, slice(None), rows) if name == "q" else m for name in need}
        values, fs = [], []
        for body, *names in active:
            args = [ops[n][at[n]] for n in names]
            if body is _gather_dot:
                args.append(offsets.index[rows])
            value, f = body(*args) if body else (args[0], None)
            values.append(value)
            fs.append(f)

        def add(i, g, grads):
            for n, gn in zip(active[i][1:], (g,) if fs[i] is None else fs[i](g)):
                if n not in grads:
                    grads[n] = np.zeros(ops[n].shape)
                grads[n][at[n]] += gn
            return grads

        return values, add

    def project(grads):
        gz = gx = gwq = gwk = gwp = gcb = None
        if "ko" in grads:
            gcb, gkt = kof(grads["ko"])
            gcb = gcb.reshape(heads, 1, d)
            grads["kt"] = gkt + grads["kt"] if "kt" in grads else gkt
        if "q" in grads:
            gz, gwq = qf(grads["q"].reshape(heads, -1, d))
        if "kt" in grads:
            gx, gwk = kf(grads["kt"].swapaxes(2, 3).reshape(heads, -1, d))
        if "tbl" in grads:
            # the table is constant: only the projection's weight gradient
            gwp = offsets.table.T @ grads["tbl"]
        return gz, gx, *(None if g is None else g.swapaxes(1, 2)
                         for g in (gwq, gwk, gwp, gcb, grads.get("pb")))

    return terms, project


def _head_energies(z, x, params, m, gates, offsets=None, batch=1):
    """Head m's energy terms from ``_head_terms``, one tape node each, over z, x
    and row m of each energy weight (``take_rows``: the gradient lands in row m)."""
    inputs = (z, x, *(w.take_rows([m]) for w in params.parameters()[:5]))
    terms, project = _head_terms(*(None if t is None else t.data for t in inputs),
                                 gates=gates, offsets=offsets, batch=batch)
    values, add = terms(0)
    return [vjp_op(v, lambda g, i=i: project(add(i, g, {})), inputs) for i, v in enumerate(values)]


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
    """Positional bias per table offset: list of (n_offsets,) tensors, the
    pos_only term over one row of pairs that reads each table row once.
    The terms read only ``table`` and ``index``, so that row is given as
    those two, not as an OffsetMap whose extents it would contradict."""
    each_row = SimpleNamespace(table=offsets.table, index=np.arange(offsets.n_offsets)[None, :])
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


def _layer(z, x, wq, wk, wp, cb, pb, wv, wo, *, gates, offsets, mask, batch, keep):
    """The layer in numpy: its output and its VJP into z, x and the packed
    weights. Each head walks the query axis in tiles of GATHER_DOT_ROWS
    rows; ``tile`` builds a tile's terms, their masked softmax into its
    rows of the head's weights and its rows of P @ V. With ``keep`` (a tape
    records the layer) each head's weights are one (batch, n_q, n_k) array
    allocated once per call, and each tile keeps its VJP, which walks the
    same tiles and sums each operand's gradient over them before
    ``project`` runs once; so those arrays are the only grid-sized ones.
    Without ``keep`` no tile keeps anything, and every tile writes its
    weights into one tile-sized array."""
    (heads, d), n_q, n_k = wq.shape[:2], len(z) // batch, len(x) // batch
    terms, project = _head_terms(z, x, wq, wk, wp, cb, pb, gates=gates, offsets=offsets,
                                 batch=batch)
    v, vf = _matmul(x, wv.swapaxes(1, 2))
    v = v.reshape(heads, batch, n_k, d)
    if mask is not None:
        mask = bool_mask(mask, (batch, n_q, n_k))
    h = np.empty((heads, batch, n_q, d))

    def tile(m, rows, p):
        values, add = terms(m, rows)
        _, sf = _softmax_sum(*values, shape=p.shape, out=p,
                             mask=None if mask is None else mask[:, rows])
        h[m, :, rows], hf = _matmul(p, v[m])

        def vjp(gh, gv, grads):
            gp, gv_m = hf(gh[m, :, rows])
            gv[m] += gv_m
            for i, g in enumerate(sf(gp)):
                add(i, g, grads)

        return vjp if keep else None

    scratch = None if keep else np.empty((batch, min(n_q, GATHER_DOT_ROWS), n_k))
    walk = []
    for m in range(heads):
        p = np.empty((batch, n_q, n_k)) if keep else scratch
        for lo in range(0, n_q, GATHER_DOT_ROWS):
            rows = slice(lo, min(lo + GATHER_DOT_ROWS, n_q))
            walk.append(tile(m, rows, p[:, rows] if keep else p[:, :rows.stop - lo]))
    out, of = _matmul(h.reshape(heads, -1, d), wo)
    shape = out.shape

    def vjp(gy):
        gh, gwo = of(np.broadcast_to(gy, shape))
        gh, gv, grads = gh.reshape(h.shape), np.zeros(v.shape), {}
        for f in walk:
            f(gh, gv, grads)
        gz, gx, *gw = project(grads)
        gxv, gwv = vf(gv.reshape(heads, -1, d))
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
                       mask=mask, batch=batch, keep=records(inputs)), inputs)
    if residual:
        return z + y * params.res_scale
    return y
