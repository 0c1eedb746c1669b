"""Minimal dense tensor with reverse-mode autodiff on numpy.

Everything is float64 and row-major. Each operation returns a fresh
tensor and records a backward closure, so the tape is rebuilt on every
forward pass; ``backward`` walks it once in reverse topological order.
Inside a ``no_grad()`` block nothing is recorded.

Multiply-accumulate counting: while a ``counting()`` context is active,
every forward operation reports its scalar multiplies as MACs (additions
ride along for free), and exponentials / divisions are tallied in
separate buckets. Backward passes emit nothing.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager

import numpy as np

from .errors import ContractViolation, DegenerateRegion, NumericFault, ShapeMismatch, positive_int


class MacCounter:
    """Tally of forward-pass arithmetic, split by kind."""

    __slots__ = ("macs", "exps", "divs")

    def __init__(self):
        self.macs = 0
        self.exps = 0
        self.divs = 0

    def __repr__(self):
        return f"MacCounter(macs={self.macs}, exps={self.exps}, divs={self.divs})"


_counters: list[MacCounter] = []


@contextmanager
def counting():
    """Collect MAC/exp/div counts for ops run inside the block."""
    c = MacCounter()
    _counters.append(c)
    try:
        yield c
    finally:
        _counters.remove(c)


def _emit(macs=0, exps=0, divs=0):
    for c in _counters:
        c.macs += macs
        c.exps += exps
        c.divs += divs


# one entry per open no_grad() block; while any is open no op is recorded
_paused: list[bool] = []


@contextmanager
def no_grad():
    """Run forward ops inside the block without recording the tape."""
    _paused.append(True)
    try:
        yield
    finally:
        _paused.pop()


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _row_index(indices, n, in_range=True):
    """``indices`` as int64 rows of an n-row operand; a non-integer dtype
    is rejected, and so is a row outside 0..n-1 when ``in_range``."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractViolation(f"row indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if in_range and idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractViolation(f"index out of range for {n} rows")
    return idx


def rows_per_sample(t, batch, what):
    """Rows of one sample in a batch of ``batch`` samples stacked along the
    rows of ``t``; the one batch-row check of the layers."""
    if not positive_int(batch) or t.shape[0] % batch:
        raise ShapeMismatch(f"{what} has {t.shape[0]} rows, not a batch of {batch!r} samples")
    return t.shape[0] // batch


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backward.

    ``requires_grad=True`` marks a trainable leaf. ``lr_scale`` is a
    per-parameter learning-rate multiplier honored by the optimizer
    (1.0 for everything except deformable offset predictors).
    """

    __slots__ = ("data", "requires_grad", "grad", "lr_scale", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, lr_scale=1.0):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.lr_scale = lr_scale
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        out = Tensor(data)
        if _paused:
            return out
        tracked = tuple(p for p in parents if p.requires_grad or p._parents)
        if tracked:
            out._parents = tracked
            out._backward = backward
        return out

    def _unary(self, data, grad):
        """A single-input op with value ``data``; ``grad(g)`` is its
        vector-Jacobian product, the gradient it passes back to self."""
        return Tensor._from_op(data, (self,), lambda g: self._accum(grad(g)))

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        data = self.data + other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(g, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._unary(-self.data, lambda g: -g)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        data = self.data * other.data
        _emit(macs=data.size)

        def backward(g):
            self._accum(_unbroadcast(g * other.data, self.shape))
            other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise ContractViolation("division is supported by scalars only")
        s = float(scalar)
        data = self.data / s
        _emit(divs=data.size)
        return self._unary(data, lambda g: g / s)

    def __matmul__(self, other):
        """Matrix product over the last two axes; leading axes broadcast
        as in ``np.matmul``. Charged ``out.size * k`` MACs."""
        other = _as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeMismatch(f"matmul needs operands of 2 or more dims, got "
                                f"{self.shape} @ {other.shape}")
        if self.shape[-1] != other.shape[-2]:
            raise ShapeMismatch(f"matmul inner dims differ: {self.shape} @ {other.shape}")
        try:
            data = self.data @ other.data
        except ValueError as exc:
            raise ShapeMismatch(f"matmul leading dims do not broadcast: "
                                f"{self.shape} @ {other.shape}") from exc
        _emit(macs=data.size * self.shape[-1])

        def backward(g):
            self._accum(_unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape))
            other._accum(_unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    # -- shape ops ------------------------------------------------------------

    @property
    def T(self):
        """The last two axes swapped: the transpose of each matrix."""
        if self.ndim < 2:
            raise ShapeMismatch(f"transpose expects 2 or more dims, got shape {self.shape}")
        return self._unary(np.swapaxes(self.data, -1, -2).copy(), lambda g: np.swapaxes(g, -1, -2))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(self.shape))

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        return self._unary(data, lambda g: np.broadcast_to(
            g if keepdims or axis is None else np.expand_dims(g, axis), self.shape).copy())

    def mean(self, axis=None):
        data = self.data.mean(axis=axis)
        _emit(divs=data.size)
        n = self.size // data.size
        return self._unary(data, lambda g: np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), self.shape) / n)

    # -- pointwise nonlinearities ----------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        _emit(exps=data.size)
        return self._unary(data, lambda g: g * data)

    def log(self):
        data = np.log(self.data)
        _emit(exps=data.size)
        return self._unary(data, lambda g: g / self.data)

    def sigmoid(self):
        data = 1.0 / (1.0 + np.exp(-self.data))
        _emit(exps=data.size, divs=data.size)
        return self._unary(data, lambda g: g * data * (1.0 - data))

    def relu(self):
        return self._unary(np.maximum(self.data, 0.0), lambda g: g * (self.data > 0))

    def abs(self):
        return self._unary(np.abs(self.data), lambda g: g * np.sign(self.data))

    # -- softmax ----------------------------------------------------------------

    def softmax(self, axis=-1, mask=None):
        """Normalize along ``axis`` after subtracting the slice max.

        ``mask`` marks valid entries; invalid ones get an additive -inf
        before the max subtraction and come out exactly zero. A slice
        with nothing valid raises DegenerateRegion rather than NaN.
        """
        x = self.data
        if mask is not None:
            m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
            try:
                m = np.broadcast_to(m.astype(bool), x.shape)
            except ValueError as exc:
                raise ShapeMismatch(f"mask of shape {m.shape} does not broadcast to "
                                    f"energies of shape {x.shape}") from exc
            x = np.where(m, x, -np.inf)
        top = x.max(axis=axis, keepdims=True)
        # a slice has a valid entry exactly when its max is not -inf
        if np.isneginf(top).any():
            raise DegenerateRegion("softmax slice is fully masked")
        # x - top is a fresh array, so exp and the division run in place
        data = x - top
        np.exp(data, out=data)
        data /= data.sum(axis=axis, keepdims=True)
        _emit(exps=data.size, divs=data.size)
        return self._unary(data, lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True)))

    def reciprocal(self):
        data = 1.0 / self.data
        _emit(divs=data.size)
        return self._unary(data, lambda g: -g * data * data)

    # -- gathers ------------------------------------------------------------------

    def take_rows(self, indices, oob_zero=False):
        """Index axis 0 with an integer array of any shape.

        Result shape is ``indices.shape + self.shape[1:]``. With
        ``oob_zero`` out-of-range rows read as zeros and receive no
        gradient, which is the boundary convention for spatial sampling.
        The backward sums the gradient per (row, entry) pair with one
        bincount; off-edge reads land in a spare row n that is dropped.
        """
        n = self.shape[0]
        idx = _row_index(indices, n, in_range=not oob_zero)
        if oob_zero:
            ok = (idx >= 0) & (idx < n)
            data = np.take(self.data, np.where(ok, idx, 0), axis=0)
            data[~ok] = 0.0
            idx = np.where(ok, idx, n)
        else:
            data = np.take(self.data, idx, axis=0)

        def scatter(g):
            width = math.prod(self.shape[1:])
            pairs = idx.reshape(-1, 1) * width + np.arange(width)
            gt = np.bincount(pairs.ravel(), weights=g.ravel(), minlength=(n + 1) * width)
            return gt[:n * width].reshape(self.shape)

        return self._unary(data, scatter)

    # -- autodiff ----------------------------------------------------------------

    def _accum(self, g):
        if not (self.requires_grad or self._parents):
            return
        if g.shape != self.data.shape:
            raise ShapeMismatch(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        # a leaf keeps a private copy, added to in place, because g may be
        # shared with another parent or be a view and clip_gradients scales
        # p.grad in place. An op output borrows its first g and adds later
        # ones out of place; that is safe while no backward closure writes
        # into its g and backward frees every intermediate gradient after use
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64) if self.requires_grad else g
        elif self.requires_grad:
            self.grad += g
        else:
            self.grad = self.grad + g

    def backward(self):
        """Reverse-sweep from a scalar loss, accumulating leaf grads."""
        if self.size != 1:
            raise ContractViolation(f"backward needs a scalar loss, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones(self.shape)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # every consumer of a node runs before it, so an intermediate
            # grad is complete here and needed no longer; keep leaf grads
            if node._parents:
                node.grad = None


# query rows whose (rows, n_offsets) profile gather_dot holds at once,
# in the forward and in the backward's per-offset sums
GATHER_DOT_ROWS = 32


def gather_dot(a, table, index):
    """``e[..., q, k] = a[..., q] . table[index[q, k]]`` as one tape op.

    ``a`` is (..., n_q, d), or (..., 1, d) with one row shared by every
    query; leading axes are a batch that shares ``table`` and ``index``.
    ``table`` is (n_offsets, d) and ``index`` an (n_q, n_k) array of
    table rows.

    Both passes walk the same blocks: GATHER_DOT_ROWS rows of ``a`` at a
    time, or the shared row as one block of one row. The forward projects
    each block onto every offset, a (rows, n_offsets) profile
    ``a_block @ table.T``, and picks pair (q, k) at flat position
    ``row * n_offsets + index[q, k]``. The backward sums each batch
    entry's output gradient into those same positions with one bincount
    per block, giving S, and finishes the block with ``S @ table`` and
    ``S.T @ a_block``. So neither pass holds an (n_q, n_k, d) gather or
    a whole (n_q, n_offsets) profile.

    The op is charged ``n_q * n_k * d`` MACs per batch entry, one per
    pair and channel, as the cost model counts it. That is the per-pair
    count, not the profile's arithmetic, which is ``n_q * n_offsets * d``
    multiplies for per-query rows and ``n_offsets * d`` for a shared row.
    """
    if a.ndim < 2 or table.ndim != 2 or a.shape[-1] != table.shape[1]:
        raise ShapeMismatch(f"gather_dot needs (..., n, d) and (n_offsets, d) operands, "
                            f"got {a.shape} and {table.shape}")
    n_off, d = table.shape
    idx = _row_index(index, n_off)
    if idx.ndim != 2:
        raise ContractViolation(f"gather_dot needs an (n_q, n_k) index, got shape {idx.shape}")
    n_q, n_k = idx.shape
    rows = a.shape[-2]
    if rows not in (1, n_q):
        raise ShapeMismatch(f"gather_dot: {rows} rows of a for {n_q} queries")
    a2 = a.data.reshape(-1, rows, d)
    step = n_q if rows == 1 else GATHER_DOT_ROWS

    def blocks():
        """Each block's query slice, its rows of a2, and its pairs' flat
        positions in the block's (rows, n_offsets) profile."""
        for lo in range(0, n_q, step):
            qs = slice(lo, lo + step)
            ab = a2[:, qs]
            flat = idx[qs] if rows == 1 else idx[qs] + np.arange(ab.shape[1])[:, None] * n_off
            yield qs, ab, flat

    data = np.empty((len(a2), n_q, n_k))
    for qs, ab, flat in blocks():
        profile = ab @ table.data.T
        # every position is in range; "clip" lets take write into out directly
        np.take(profile.reshape(len(ab), -1), flat, axis=1, out=data[:, qs], mode="clip")
    data = data.reshape(a.shape[:-2] + (n_q, n_k))
    _emit(macs=data.size * d)

    def backward(g):
        g2 = g.reshape(-1, n_q, n_k)
        ga = np.empty(a2.shape)
        gt = np.zeros(table.shape)
        for qs, ab, flat in blocks():
            for b in range(len(ab)):
                s = np.bincount(flat.ravel(), weights=g2[b, qs].ravel(),
                                minlength=ab.shape[1] * n_off).reshape(-1, n_off)
                ga[b, qs] = s @ table.data
                gt += s.T @ ab[b]
        a._accum(ga.reshape(a.shape))
        table._accum(gt)

    return Tensor._from_op(data, (a, table), backward)


class Rng:
    """Deterministic random stream (numpy PCG64 keyed by a seed tuple).

    ``child(k)`` derives an independent stream, so components can split
    randomness without coordinating draw order.
    """

    def __init__(self, *key):
        bad = [k for k in key
               if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0]
        if bad or not key:
            raise ContractViolation(f"Rng needs one or more non-negative int keys, got {key!r}")
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.key)))

    def child(self, *branch):
        return Rng(*self.key, *branch)

    def uniform(self, low, high, shape=None):
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None, scale=1.0):
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def choice(self, n, size, replace=False):
        return self._gen.choice(n, size=size, replace=replace)

    def param(self, shape, fan_in):
        """Fresh trainable parameter, uniform in +-sqrt(1/fan_in)."""
        bound = float(np.sqrt(1.0 / fan_in))
        return Tensor(self._gen.uniform(-bound, bound, shape), requires_grad=True)


def zeros(shape, requires_grad=False, lr_scale=1.0):
    return Tensor(np.zeros(shape), requires_grad=requires_grad, lr_scale=lr_scale)


def finite_diff_check(f, params):
    """Compare tape gradients of ``sum(f())`` against 1e-5 central differences.

    ``f`` rebuilds its forward pass from the current ``params`` data on
    every call. Returns the max over parameter entries of
    ``|analytic - numeric| / (|numeric| + 1e-8)``.
    """
    for p in params:
        p.grad = None
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericFault("objective produced non-finite values")
    scalar = out if out.size == 1 else out.sum()
    scalar.backward()

    step = 1e-5
    worst = 0.0
    for p in params:
        analytic = np.zeros(p.shape) if p.grad is None else p.grad.copy()
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(f().data.sum())
            flat[i] = keep - step
            lo = float(f().data.sum())
            flat[i] = keep
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericFault("objective produced non-finite values during probing")
            numeric = (hi - lo) / (2.0 * step)
            rel = abs(aflat[i] - numeric) / (abs(numeric) + 1e-8)
            worst = max(worst, rel)
    return worst
