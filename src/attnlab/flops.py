"""Closed-form MAC counts for every mechanism, plus the report table.

Counting unit: one scalar multiply (with its ride-along accumulate) is
one MAC. Additions on their own are free. Exponentials and divisions,
softmax normalization above all, are tallied separately and excluded
from conformance against the closed forms. Counts cover the forward
pass only. Building the sinusoid offset table is a one-time setup cost
and is excluded; projecting it is counted where it happens.

Every closed form here follows the cost model's factorization (embed
once, then per-pair work), the instrumented ops emit exactly these
counts, and the tests require the two to match with no tolerance. The
two positional terms are charged ``n_q * n_k * d`` per query-key pair,
although ``tensor.gather_dot`` computes them from a per-offset profile
(``n_q * n_offsets * d`` multiplies for query_pos, ``n_offsets * d`` for
pos_only) and then reads it per pair: the pair grid is still traversed,
and the charge keeps the quadratic portion of the cost model visible.
"""

from __future__ import annotations

import csv
import io
import math

from .attention import AttentionConfig
from .errors import ContractViolation, check_sizes, positive_int

TERMS = ("query_key", "query_pos", "key_only", "pos_only")

# factor dependence and spatial pattern per term / mechanism
TERM_FLAGS = {
    "query_key": {"query": True, "key": True, "relpos": False},
    "query_pos": {"query": True, "key": False, "relpos": True},
    "key_only": {"query": False, "key": True, "relpos": False},
    "pos_only": {"query": False, "key": False, "relpos": True},
}
MECHANISM_FLAGS = {
    "regular": {"query": False, "key": False, "relpos": True, "spatial": "sparse,local"},
    "deformable": {"query": True, "key": False, "relpos": True, "spatial": "sparse,global"},
    "dynamic": {"query": True, "key": False, "relpos": True, "spatial": "sparse,local"},
}


def _energy_parts(gates, n_q, n_k, c, m, enc_dim=None, n_offsets=None):
    """Energy-stage MACs of the active terms, each shared projection once.

    "embed" covers the content/offset projections, "pairwise" the work
    proportional to the query-key pair count, "probe" the per-key dot
    with a learned vector. Head count m cancels in every product
    (m * head_dim = c). The offset table defaults to the n_q + n_k - 1
    rows of ``offset_map_1d(n_q, n_k)``.
    """
    check_sizes(n_q=n_q, n_k=n_k, C=c, M=m)
    enc_dim = c if enc_dim is None else enc_dim
    n_offsets = n_q + n_k - 1 if n_offsets is None else n_offsets
    check_sizes(enc_dim=enc_dim, n_offsets=n_offsets)
    if c % m != 0:
        raise ContractViolation(f"heads ({m!r}) must divide channels ({c!r})")
    g_qk, g_qp, g_ko, g_po = AttentionConfig(tuple(gates), allow_uniform=True).gates
    embed = ((g_qk or g_qp) * n_q * c * c + (g_qk or g_ko) * n_k * c * c
             + (g_qp or g_po) * n_offsets * enc_dim * c)
    pairwise = sum((g_qk, g_qp, g_po)) * n_q * n_k * c
    probe = g_ko * n_k * c
    return {"embed": embed, "pairwise": pairwise, "probe": probe,
            "total": embed + pairwise + probe}


def count_term_parts(term, n_s, c, m, enc_dim=None, n_offsets=None):
    """Cost breakdown of one standalone energy term at n_q = n_k = n_s."""
    if term not in TERMS:
        raise ContractViolation(f"unknown term {term!r}")
    gates = tuple(t == term for t in TERMS)
    return _energy_parts(gates, n_s, n_s, c, m, enc_dim, n_offsets)


def count_term(term, n_s, c, m, enc_dim=None, n_offsets=None):
    return count_term_parts(term, n_s, c, m, enc_dim, n_offsets)["total"]


def count_attention(gates, n_q, n_k, c, m, enc_dim=None, n_offsets=None, residual=False):
    """MACs of one switched attention layer, sharing projections.

    Returns (macs, exps, divs); exps/divs come from the softmax alone.
    """
    macs = _energy_parts(gates, n_q, n_k, c, m, enc_dim, n_offsets)["total"]
    macs += n_k * c * c + n_q * n_k * c + n_q * c * c  # values, mix, output
    if residual:
        macs += n_q * c
    exps = divs = m * n_q * n_k
    return macs, exps, divs


def count_terms_combined(gates, n_s, c, m, enc_dim=None, n_offsets=None):
    """Energy-stage cost with shared projections (no aggregation)."""
    return _energy_parts(gates, n_s, n_s, c, m, enc_dim, n_offsets)["total"]


def shared_savings(gates, n_s, c, m, enc_dim=None, n_offsets=None):
    """MACs saved by sharing projections across active terms."""
    standalone = sum(
        count_term(t, n_s, c, m, enc_dim, n_offsets)
        for t, g in zip(TERMS, gates)
        if g
    )
    return standalone - count_terms_combined(gates, n_s, c, m, enc_dim, n_offsets)


def count_regular(n_s, n_k, c_in, c_out=None):
    """Regular convolution through the attention path: pure aggregation."""
    c_out = c_in if c_out is None else c_out
    check_sizes(N_s=n_s, N_k=n_k, c_in=c_in, c_out=c_out)
    return n_s * n_k * c_in * c_out


def count_deformable(n_s, n_k, c_in, c_out=None, ndim=2):
    """Offset prediction, interpolation, then per-point aggregation.

    Each point reads 2**ndim neighbors; their weights are products of
    ndim per-axis kernels (ndim - 1 multiplies each) and every read is
    scaled channel by channel.
    """
    if not (positive_int(ndim) and ndim <= 2):
        raise ContractViolation(f"ndim must be 1 or 2, got {ndim!r}")
    c_out = c_in if c_out is None else c_out
    check_sizes(N_s=n_s, N_k=n_k, c_in=c_in, c_out=c_out)
    corners = 2 ** ndim
    predict = n_s * c_in * ndim * n_k
    interp = corners * (ndim - 1) * n_s * n_k + corners * n_s * n_k * c_in
    agg = n_s * n_k * c_in * c_out
    return predict + interp + agg


def count_dynamic(n_s, n_k, c_in, n_g, c_out=None):
    """GLU, grouped kernel prediction, depthwise mix, pointwise output.

    Returns (macs, exps, divs). Only the n_s*c*n_g*n_k predictor block
    scales with the group count.
    """
    c_out = c_in if c_out is None else c_out
    check_sizes(N_s=n_s, N_k=n_k, c_in=c_in, N_g=n_g, c_out=c_out)
    if c_in % n_g != 0:
        raise ContractViolation(f"groups ({n_g!r}) must divide channels ({c_in!r})")
    glu = 2 * n_s * c_in * c_in + n_s * c_in
    predict = n_s * c_in * n_g * n_k
    mix = n_s * n_k * c_in
    point = n_s * c_in * c_out
    exps = n_s * c_in + n_s * n_g * n_k  # sigmoid gate + kernel softmax
    return glu + predict + mix + point, exps, exps


def count_mechanism(mechanism, n_s, c, n_k=None, n_g=None, m=None, beta=None):
    """Closed-form MACs for a whole mechanism at self-attention shape."""
    if mechanism == "transformer":
        if beta is None or m is None:
            raise ContractViolation("transformer counts need beta and m")
        return count_attention(AttentionConfig.from_beta(beta).gates, n_s, n_s, c, m)[0]
    if mechanism == "regular":
        return count_regular(n_s, n_k, c)
    if mechanism == "deformable":
        return count_deformable(n_s, n_k, c)
    if mechanism == "dynamic":
        return count_dynamic(n_s, n_k, c, n_g)[0]
    raise ContractViolation(f"unknown mechanism {mechanism!r}")


def loglog_slope(ns, counts):
    """Least-squares slope of log(count) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(c) for c in counts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _flag_string(flags, spatial):
    bits = ",".join(f"{k}={int(flags[k])}" for k in ("query", "key", "relpos"))
    return f"{bits};{spatial}"


def table_rows(ns_list, c, n_k, n_g, m):
    """Rows mirroring the mechanism comparison table.

    Four attention-term rows (dense, global) and the three convolution
    mechanisms, one block per sequence length.
    """
    rows = []
    for n_s in ns_list:
        for term in TERMS:
            rows.append({
                "mechanism": "transformer",
                "term": term,
                "N_s": n_s, "C": c, "N_k": "", "N_g": "", "M": m,
                "macs": count_term(term, n_s, c, m),
                "flags": _flag_string(TERM_FLAGS[term], "dense,global"),
            })
        for mechanism, flags in MECHANISM_FLAGS.items():
            rows.append({
                "mechanism": mechanism, "term": "",
                "N_s": n_s, "C": c, "N_k": n_k, "M": "",
                "N_g": n_g if mechanism == "dynamic" else "",
                "macs": count_mechanism(mechanism, n_s, c, n_k=n_k, n_g=n_g),
                "flags": _flag_string(flags, flags["spatial"]),
            })
    return rows

TABLE_COLUMNS = ["mechanism", "term", "N_s", "C", "N_k", "N_g", "M", "macs", "flags"]


def emit_table(ns_list, c, n_k, n_g, m, out=None):
    """Write the comparison table as CSV; returns the text."""
    rows = table_rows(ns_list, c, n_k, n_g, m)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    return text
