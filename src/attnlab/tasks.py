"""Synthetic tasks sized for quick ablation runs on a CPU.

Three kinds, each built so a specific attention ingredient is either
necessary or sufficient by construction:

permuted-copy
    The source is a random arrangement of distinct tokens and the model
    must return the one matching the query token. The matching position
    is uniform per sample, so no positional rule helps: reading any
    fixed position is right only when the match happens to sit there.
    Content matching solves it outright.

salient-detection
    A grid where a few cells carry a marker flag and the payload of the
    marked cells encodes the class. Payloads over the whole grid are
    class-balanced per sample (every class occupies the same number of
    cells), so any fixed weighting of cells, pooled, carries no label
    information; only reading where the marker sits does. Key saliency
    alone suffices.

windowed-denoise
    Per-position labels are the majority token of a three-wide window
    (ties keep the center), so a local mechanism with a content-driven
    kernel can solve it. Used for the local-window comparisons.

Generators are deterministic in the task seed, and the training stream
is kept disjoint from the held-out eval set by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, at_least, check_sizes, positive_int
from .tensor import Rng


def _orthonormal_rows(n, dim, rng: Rng):
    if n > dim:
        raise ContractViolation(f"cannot fit {n} orthonormal rows in {dim} dims")
    q, _ = np.linalg.qr(rng.normal((dim, dim)))
    return q[:n].copy()


@dataclass
class ToyTask:
    """One synthetic task instance, its maker's sampler and its sampling
    state. ``draw(task, rng, n)`` returns n sample dicts from one draw per
    batch: one ``rng`` call per numpy primitive, each sample's arrays row
    views of the stacked (n, ...) arrays, and its ``key`` the bytes of an
    int64 row that tells samples apart."""

    kind: str
    vocab: int
    extent: object  # sequence length or (height, width)
    channels: int
    seed: int
    eval_size: int
    embed: np.ndarray = field(repr=False)
    draw: object = field(repr=False)
    n_marked: int = 0
    flip: float = 0.0

    def __post_init__(self):
        if not positive_int(self.eval_size):
            raise ContractViolation(f"eval_size must be a positive int, got {self.eval_size!r}")
        self._rng = Rng(self.seed)
        self._eval = None
        self._eval_keys = None

    # -- sampling ------------------------------------------------------------

    def eval_set(self):
        """The held-out samples; built once, bit-stable thereafter."""
        if self._eval is None:
            self._eval = self.draw(self, self._rng.child(0), self.eval_size)
            self._eval_keys = {s["key"] for s in self._eval}
        return self._eval

    def train_batch(self, step, batch_size):
        """Training samples for one step, disjoint from the eval set: each
        draw fills the shortfall, less the samples the eval set holds."""
        self.eval_set()
        rng = self._rng.child(1, step)
        out = []
        while len(out) < batch_size:
            out += [s for s in self.draw(self, rng, batch_size - len(out))
                    if s["key"] not in self._eval_keys]
        return out

    @property
    def chance(self):
        return 1.0 / self.vocab


def _permutations(rng, n, size):
    """n independent random permutations of range(size), one per row."""
    return np.argsort(rng.uniform(0.0, 1.0, (n, size)), axis=1)


def _keys(*parts):
    """Per row, the bytes of the (int64) row of ``parts`` side by side."""
    return [row.tobytes() for row in np.concatenate(parts, axis=1)]


def _draw_permuted_copy(task, rng, n):
    tokens = _permutations(rng, n, task.vocab)[:, :task.extent]
    pos = rng.integers(0, task.extent, n)
    labels = tokens[np.arange(n), pos]
    inputs, queries = task.embed[tokens], task.embed[labels][:, None, :]
    return [{"tokens": t, "inputs": x, "query": q, "label": int(y), "key": k}
            for t, x, q, y, k in zip(tokens, inputs, queries, labels,
                                     _keys(tokens, pos[:, None]))]


def _draw_salient(task, rng, n):
    h, w = task.extent
    cells = h * w
    per_class = cells // task.vocab
    # a permutation of the balanced class sequence: cell i of it is class i // per_class
    assignment = _permutations(rng, n, cells) // per_class
    labels = rng.integers(0, task.vocab, n)
    own = np.nonzero(assignment == labels[:, None])[1].reshape(n, per_class)
    picks = np.sort(_permutations(rng, n, per_class)[:, :task.n_marked], axis=1)
    marked = np.take_along_axis(own, picks, axis=1)
    # channel 0 is the marker, the rest the payload
    x = np.concatenate((np.zeros((task.vocab, 1)), task.embed), axis=1)[assignment]
    x[np.arange(n)[:, None], marked, 0] = 1.0
    return [{"inputs": xi, "label": int(y), "marked": m, "assignment": a, "key": k}
            for xi, y, m, a, k in zip(x, labels, marked, assignment,
                                      _keys(assignment, marked))]


def window_majority(observed):
    """Per-position majority over a 3-wide window along the last axis,
    ties keep the center.

    This is the labeling rule of windowed-denoise; windows are truncated
    at the sequence edges, so an edge keeps its value. An interior
    position takes its left neighbour when both neighbours agree, and
    otherwise keeps its value.
    """
    labels = np.array(observed, dtype=np.int64)
    left, right = labels[..., :-2], labels[..., 2:]
    labels[..., 1:-1] = np.where(left == right, left, labels[..., 1:-1])
    return labels


def _draw_denoise(task, rng, n):
    shape = (n, task.extent)
    signal = rng.integers(0, task.vocab, shape)
    flips = rng.uniform(0.0, 1.0, shape) < task.flip
    observed = np.where(flips, rng.integers(0, task.vocab, shape), signal)
    return [{"tokens": t, "inputs": x, "label": y, "key": k}
            for t, x, y, k in zip(observed, task.embed[observed],
                                  window_majority(observed), _keys(observed))]


# -- constructors ---------------------------------------------------------------


def make_permuted_copy_task(seed, vocab=8, length=6, channels=16,
                            eval_size=300):
    check_sizes(vocab=vocab, length=length, channels=channels)
    if vocab < 4 or length < 4:
        raise ContractViolation("permuted-copy needs vocab >= 4 and length >= 4")
    if length > vocab:
        raise ContractViolation("length cannot exceed vocab (tokens are distinct)")
    embed = _orthonormal_rows(vocab, channels, Rng(seed).child(9))
    return ToyTask(
        kind="permuted-copy", vocab=vocab, extent=length, channels=channels,
        seed=seed, eval_size=eval_size, embed=embed, draw=_draw_permuted_copy,
    )


def make_salient_detection_task(seed, extent=(6, 6), classes=4, channels=16,
                                n_marked=3, eval_size=300):
    if not isinstance(extent, (tuple, list)) or len(extent) != 2:
        raise ContractViolation(f"extent must be (height, width), got {extent!r}")
    h, w = extent
    check_sizes(height=h, width=w, classes=classes, channels=channels,
                 n_marked=n_marked)
    if (h * w) % classes != 0:
        raise ContractViolation("class count must divide the cell count")
    if n_marked > (h * w) // classes:
        raise ContractViolation("cannot mark more cells than one class owns")
    embed = _orthonormal_rows(classes, channels - 1, Rng(seed).child(9))
    return ToyTask(
        kind="salient-detection", vocab=classes, extent=(h, w), channels=channels,
        seed=seed, eval_size=eval_size, embed=embed, draw=_draw_salient,
        n_marked=n_marked,
    )


def make_windowed_denoise_task(seed, length=16, vocab=5, channels=16,
                               flip=0.2, eval_size=200):
    check_sizes(length=length, vocab=vocab, channels=channels)
    if not (at_least(flip, 0) and flip <= 1.0):
        raise ContractViolation(f"flip must be a probability, got {flip!r}")
    embed = _orthonormal_rows(vocab, channels, Rng(seed).child(9))
    task = ToyTask(
        kind="windowed-denoise", vocab=vocab, extent=length, channels=channels,
        seed=seed, eval_size=eval_size, embed=embed, draw=_draw_denoise,
        flip=flip,
    )
    # the eval set can hold all vocab ** length sequences only if there are
    # at most eval_size of them (vocab >= 2 gives at least 2 ** length);
    # then training would resample forever
    few = vocab == 1 or length < int(eval_size).bit_length()
    if few and vocab ** length <= eval_size:
        if len({s["key"] for s in task.eval_set()}) == vocab ** length:
            raise ContractViolation(
                f"windowed-denoise eval_size={eval_size} holds all {vocab ** length} "
                f"sequences of vocab={vocab}, length={length}; none is left to train on")
    return task


TASK_MAKERS = {
    "permuted-copy": make_permuted_copy_task,
    "salient-detection": make_salient_detection_task,
    "windowed-denoise": make_windowed_denoise_task,
}


def make_task(kind, seed, **kw):
    if kind not in TASK_MAKERS:
        raise ContractViolation(f"unknown task kind {kind!r}")
    return TASK_MAKERS[kind](seed, **kw)


# -- oracles ----------------------------------------------------------------------


def content_match_oracle(sample):
    """Permuted-copy solved by exact content matching."""
    tokens = sample["tokens"]
    query = sample["query"][0]
    scores = sample["inputs"] @ query
    return int(tokens[int(np.argmax(scores))])


def fixed_position_bound(samples):
    """Best accuracy any single fixed read-out position achieves."""
    length = len(samples[0]["tokens"])
    best = 0.0
    for pos in range(length):
        hits = sum(int(s["tokens"][pos]) == s["label"] for s in samples)
        best = max(best, hits / len(samples))
    return best


def masked_average_oracle(task, sample):
    """Salient-detection solved by averaging the marked cells' payload."""
    payload = sample["inputs"][sample["marked"], 1:]
    mean = payload.mean(axis=0)
    return int(np.argmax(task.embed @ mean))
