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
    """One synthetic task instance, its maker's sampler ``draw(task, rng)``
    and its sampling state."""

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
            rng = self._rng.child(0)
            self._eval = [self.draw(self, rng) for _ in range(self.eval_size)]
            self._eval_keys = {s["key"] for s in self._eval}
        return self._eval

    def train_batch(self, step, batch_size):
        """Training samples for one step, disjoint from the eval set."""
        self.eval_set()
        rng = self._rng.child(1, step)
        out = []
        while len(out) < batch_size:
            s = self.draw(self, rng)
            if s["key"] not in self._eval_keys:
                out.append(s)
        return out

    @property
    def chance(self):
        return 1.0 / self.vocab


def _draw_permuted_copy(task, rng):
    length = task.extent
    tokens = rng.choice(task.vocab, size=length, replace=False)
    pos = int(rng.integers(0, length))
    label = int(tokens[pos])
    return {
        "tokens": tokens,
        "inputs": task.embed[tokens],
        "query": task.embed[label][None, :],
        "label": label,
        "key": (tuple(tokens), pos),
    }


def _draw_salient(task, rng):
    h, w = task.extent
    cells = h * w
    per_class = cells // task.vocab
    assignment = np.repeat(np.arange(task.vocab), per_class)[rng.permutation(cells)]
    label = int(rng.integers(0, task.vocab))
    own = np.flatnonzero(assignment == label)
    marked = own[rng.choice(per_class, size=task.n_marked, replace=False)]
    x = np.zeros((cells, task.channels))
    x[:, 1:] = task.embed[assignment]
    x[marked, 0] = 1.0
    return {
        "inputs": x,
        "label": label,
        "marked": marked,
        "assignment": assignment,
        "key": (tuple(assignment), tuple(sorted(marked))),
    }


def window_majority(observed):
    """Per-position majority over a 3-wide window, ties keep the center.

    This is the labeling rule of windowed-denoise; windows are truncated
    at the sequence edges, so an edge keeps its value. An interior
    position takes its left neighbour when both neighbours agree, and
    otherwise keeps its value.
    """
    labels = np.array(observed, dtype=np.int64)
    left, right = labels[:-2], labels[2:]
    labels[1:-1] = np.where(left == right, left, labels[1:-1])
    return labels


def _draw_denoise(task, rng):
    length = task.extent
    signal = rng.integers(0, task.vocab, length)
    flips = rng.uniform(0.0, 1.0, length) < task.flip
    noise = rng.integers(0, task.vocab, length)
    observed = np.where(flips, noise, signal)
    return {
        "tokens": observed,
        "inputs": task.embed[observed],
        "label": window_majority(observed),
        "key": tuple(observed),
    }


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
