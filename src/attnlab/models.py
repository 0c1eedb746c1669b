"""Small models wiring the mechanisms to the synthetic tasks.

``FAMILIES`` maps each task kind to its model family; a family lists the
stacks it takes in ``stacks``, default first. The stacks come in two
kinds, matched to the task geometry:

attended-block (grids)
    regular 3x3 conv backbone, then a gated-attention residual with a
    zero-initialized scale, then mean pooling into a linear classifier.
    "+deformable" swaps the backbone for the deformable conv;
    "+dynamic" swaps the attention residual for a dynamic conv one.
    The backbone and classifier stay linear on purpose: with balanced
    payloads this keeps every input-independent weighting provably at
    chance, so any lift must come from the attention term under test.

transformer (sequences)
    For permuted-copy: one cross-attention read from the query token
    over the source, straight into a linear classifier. There is no
    residual path around the attention, so the logits see the source
    only through the attention output. "+deformable" inserts a
    deformable unit (zero-initialized residual) on the source first.
    For windowed-denoise: a self-attention residual per position;
    "+dynamic" replaces the attention with a dynamic conv.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    local_mask,
    offset_map,
)
from .conv import ConvParams, deformable_conv, regular_conv
from .dynconv import DynamicConvParams, dynamic_conv
from .errors import ContractViolation, NumericFault, ShapeMismatch
from .tensor import Rng, Tensor, counting, no_grad, zeros


def cross_entropy(logits, labels):
    """Mean negative log likelihood of integer labels under row softmax.

    Computed as shifted log-sum-exp rather than log(softmax) so extreme
    logits cannot underflow the picked probability to zero. Shifting by
    the detached row max is exact: the derivative of log-sum-exp is the
    softmax either way.
    """
    labels = np.atleast_1d(np.asarray(labels))
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractViolation(f"labels must be integers, got dtype {labels.dtype}")
    if logits.ndim != 2:
        raise ShapeMismatch(f"logits must be (n, classes), got shape {logits.shape}")
    n, v = logits.shape
    if labels.shape != (n,):
        raise ContractViolation(f"expected {n} labels, got shape {labels.shape}")
    outside = labels[(labels < 0) | (labels >= v)]
    if outside.size:
        raise ContractViolation(f"label {outside[0]} is not one of the {v} classes [0, {v})")
    centered = logits - Tensor(logits.data.max(axis=-1, keepdims=True))
    log_probs = centered - centered.exp().sum(axis=-1, keepdims=True).log()
    picked = log_probs.reshape(n * v, 1).take_rows(labels.astype(np.int64) + np.arange(n) * v)
    return -(picked.mean())


def _labels(samples):
    """The label rows of samples stacked along the rows, one array."""
    return np.concatenate([np.atleast_1d(s["label"]) for s in samples])


def _stacked(samples, key):
    """One tensor of the samples' ``key`` arrays stacked along the rows."""
    return Tensor(np.concatenate([s[key] for s in samples]))


def switchless(stack):
    """Whether a stack (or its "+" suffix) takes no switch string: its
    dynamic conv stands in for the switched attention."""
    return isinstance(stack, str) and stack.rpartition("+")[2] == "dynamic"


class _Model:
    """Scaffold of the model families: classifier head, loss, prediction,
    accuracy and parameter list. A family defines ``batch_logits``, one
    forward of a list of samples stacked along the rows; its ``__init__``
    lists the trainable tensors in ``self.parts``, in a fixed order, since
    gradient clipping sums squared norms in parameter order. The
    per-sample methods are the batch of one. A family also names its
    ``stacks`` and is built as ``(task, beta, seed, extra, heads, window,
    n_groups)``, where ``extra`` is the stack's "+" suffix ("" if none)."""

    def __init__(self, task, seed):
        c = task.channels
        self.task = task
        # model init draws from rng branches 50+; task sampling owns the low ones
        self.rng = Rng(seed)
        self.head_w = self.rng.child(53).param((c, task.vocab), fan_in=c)
        self.head_b = zeros((1, task.vocab), requires_grad=True)

    def _classify(self, h):
        return h @ self.head_w + self.head_b

    def logits(self, sample):
        return self.batch_logits([sample])

    def loss(self, sample):
        return self.batch_loss([sample])

    def batch_loss(self, samples):
        """Mean cross-entropy over every label row of the samples; every
        sample of a task has as many rows, so this is the mean of the
        per-sample losses."""
        return cross_entropy(self.batch_logits(samples), _labels(samples))

    def predict(self, sample):
        """The argmax class: an int for a one-label sample, else an array
        with one class per logits row."""
        logits = self.logits(sample).data
        if isinstance(sample["label"], np.ndarray):
            return np.argmax(logits, axis=-1)
        return int(np.argmax(logits))

    def accuracy(self, sample):
        return float(self.batch_accuracy([sample])[0])

    def batch_accuracy(self, samples):
        """Per sample, the share of its label rows predicted right, from
        one forward of the whole list; non-finite logits raise NumericFault
        rather than score as their argmax."""
        logits = self.batch_logits(samples).data
        if not np.isfinite(logits).all():
            raise NumericFault("logits are non-finite: the forward pass overflowed")
        hits = np.argmax(logits, axis=-1) == _labels(samples)
        return hits.reshape(len(samples), -1).mean(axis=1)

    def parameters(self):
        return list(self.parts)

    def _attention(self, beta, heads, window, q_extent, k_extent):
        """Set up the switched attention read from a query extent over a
        key extent; its trainable tensors."""
        c = self.task.channels
        self.config = AttentionConfig.from_beta(beta, heads=heads)
        self.attn = AttentionParams(c, heads, enc_dim=c, rng=self.rng.child(50))
        self.offsets = offset_map(q_extent, k_extent, enc_dim=c)
        self.mask = None if window is None else local_mask(self.offsets, window)
        return self.attn.parameters()

    def _core(self, extra, beta, heads, window, n_groups):
        """Set up a residual self-attention, or for the "dynamic" stack a
        zero-gated dynamic conv, over ``self.extent``; its trainable tensors."""
        self.dyn = None
        if not switchless(extra):
            return self._attention(beta, heads, window, self.extent, self.extent)
        c = self.task.channels
        self.dyn = DynamicConvParams(c, c, kernel=3, n_groups=n_groups,
                                     rng=self.rng.child(52), ndim=len(self.extent))
        self.dyn_scale = zeros((), requires_grad=True)
        return self.dyn.parameters() + [self.dyn_scale]

    def _apply_core(self, h, batch):
        if self.dyn is None:
            return attention_forward(h, h, self.attn, self.config,
                                     offsets=self.offsets, mask=self.mask,
                                     residual=True, batch=batch)
        return h + dynamic_conv(h, self.dyn, self.extent, batch=batch) * self.dyn_scale

    def _deform_unit(self, extra):
        """Set up a zero-gated deformable residual on the input sequence
        for the "deformable" stack; its trainable tensors."""
        self.deform = None
        if extra != "deformable":
            return []
        c = self.task.channels
        self.deform = ConvParams(c, c, kernel=3, ndim=1, rng=self.rng.child(51),
                                 deformable=True)
        self.deform_scale = zeros((), requires_grad=True)
        return self.deform.parameters() + [self.deform_scale]

    def _deformed(self, x, batch):
        if self.deform is None:
            return x
        return x + deformable_conv(x, self.deform, batch=batch) * self.deform_scale


class RetrievalModel(_Model):
    """Permuted-copy: one cross-attention read, then classify the result.

    Dynamic conv is a local self-mechanism, so it cannot take the
    cross-attention read; this family has no "+dynamic" stack."""

    stacks = ("transformer", "transformer+deformable")

    def __init__(self, task, beta, seed, extra, heads, window, n_groups):
        super().__init__(task, seed)
        self.parts = (self._attention(beta, heads, window, 1, task.extent)
                      + [self.head_w, self.head_b] + self._deform_unit(extra))

    def batch_logits(self, samples):
        batch = len(samples)
        x = self._deformed(_stacked(samples, "inputs"), batch)
        y = attention_forward(_stacked(samples, "query"), x, self.attn, self.config,
                              offsets=self.offsets, mask=self.mask, mode="cross",
                              batch=batch)
        return self._classify(y)


class GridClassifier(_Model):
    """Salient-detection: conv backbone, attention residual, pooled read-out."""

    stacks = ("attended-block", "attended-block+deformable", "attended-block+dynamic")

    def __init__(self, task, beta, seed, extra, heads, window, n_groups):
        super().__init__(task, seed)
        c = task.channels
        self.extent = tuple(task.extent)
        self.backbone = ConvParams(c, c, kernel=3, ndim=2, rng=self.rng.child(51),
                                   deformable=(extra == "deformable"))
        self.parts = (self.backbone.parameters() + [self.head_w, self.head_b]
                      + self._core(extra, beta, heads, window, n_groups))

    def batch_logits(self, samples):
        batch = len(samples)
        conv = regular_conv if self.backbone.offset_w is None else deformable_conv
        x = _stacked(samples, "inputs")
        h = self._apply_core(conv(x, self.backbone, self.extent, batch=batch), batch)
        n = h.shape[0] // batch
        pooled = h.reshape(batch, n, h.shape[1]).sum(axis=1) / float(n)
        return self._classify(pooled)


class DenoiseModel(_Model):
    """Windowed-denoise: per-position residual attention or dynamic conv."""

    stacks = ("transformer", "transformer+deformable", "transformer+dynamic")

    def __init__(self, task, beta, seed, extra, heads, window, n_groups):
        super().__init__(task, seed)
        self.extent = (task.extent,)
        self.parts = ([self.head_w, self.head_b] + self._deform_unit(extra)
                      + self._core(extra, beta, heads, window, n_groups))

    def batch_logits(self, samples):
        batch = len(samples)
        x = self._deformed(_stacked(samples, "inputs"), batch)
        return self._classify(self._apply_core(x, batch))


FAMILIES = {
    "salient-detection": GridClassifier,
    "windowed-denoise": DenoiseModel,
    "permuted-copy": RetrievalModel,
}
STACKS = tuple(dict.fromkeys(s for f in FAMILIES.values() for s in f.stacks))


def count_forward(model, sample):
    """MAC record of one un-batched forward pass up to the logits, untaped."""
    with counting() as counter, no_grad():
        model.logits(sample)
    return counter


def build_model(task, stack, beta, seed, heads=2, window=None, n_groups=4):
    """Assemble the model for one (task, stack) cell of the ablation grid:
    the task kind's family, built with the stack's "+" suffix."""
    family = FAMILIES.get(task.kind)
    if family is None:
        raise ContractViolation(f"no model family for task kind {task.kind!r}")
    if stack not in family.stacks:
        raise ContractViolation(f"{task.kind} takes the stacks {', '.join(family.stacks)}; "
                                f"got {stack!r}")
    return family(task, beta, seed, stack.partition("+")[2], heads, window, n_groups)
