"""The batched samplers: ``draw(task, rng, n)`` and the train batches built
from it keep every per-sample invariant of the eval set, at any n."""

import numpy as np
import pytest

from attnlab.tasks import make_task, window_majority
from attnlab.tensor import Rng

from oracles import window_majority_loop


def _check_copy(task, s):
    tokens = s["tokens"]
    assert len(set(tokens.tolist())) == len(tokens) == task.extent
    assert s["label"] in tokens.tolist()
    np.testing.assert_array_equal(s["inputs"], task.embed[tokens])
    np.testing.assert_array_equal(s["query"], task.embed[[s["label"]]])


def _check_salient(task, s):
    h, w = task.extent
    counts = np.bincount(s["assignment"], minlength=task.vocab)
    assert (counts == h * w // task.vocab).all()
    marked = s["marked"]
    assert len(set(marked.tolist())) == len(marked) == task.n_marked
    assert (np.diff(marked) > 0).all()
    assert (s["assignment"][marked] == s["label"]).all()
    marker = s["inputs"][:, 0]
    assert set(np.flatnonzero(marker == 1.0)) == set(marked.tolist())
    assert (marker[marker != 1.0] == 0.0).all()
    np.testing.assert_array_equal(s["inputs"][:, 1:], task.embed[s["assignment"]])


def _check_denoise(task, s):
    assert s["tokens"].shape == (task.extent,)
    np.testing.assert_array_equal(s["label"], window_majority_loop(s["tokens"]))
    np.testing.assert_array_equal(s["inputs"], task.embed[s["tokens"]])


CHECKS = {
    "permuted-copy": _check_copy,
    "salient-detection": _check_salient,
    "windowed-denoise": _check_denoise,
}

TASKS = [
    ("permuted-copy", {}),
    ("salient-detection", {}),
    ("salient-detection", {"extent": (4, 4), "classes": 2, "n_marked": 8}),
    ("windowed-denoise", {}),
    ("windowed-denoise", {"vocab": 2, "length": 7}),
]


class CountingRng:
    """An Rng that counts the calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kw):
            self.calls += 1
            return method(*args, **kw)
        return counted


@pytest.mark.parametrize("kind,options", TASKS)
@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_train_batches_keep_the_per_sample_invariants(kind, options, batch_size):
    task = make_task(kind, seed=5, **options)
    eval_keys = {s["key"] for s in task.eval_set()}
    eval_rows = {s["inputs"].tobytes() for s in task.eval_set()}
    for step in range(4):
        batch = task.train_batch(step, batch_size)
        assert len(batch) == batch_size
        for s in batch:
            CHECKS[kind](task, s)
            assert s["key"] not in eval_keys
            if kind == "windowed-denoise":
                # the observed tokens are the whole sample: disjoint by content too
                assert s["inputs"].tobytes() not in eval_rows


# 4 * 3 * 2 * 1 token orders times 4 query positions: 96 samples, so 300
# draws repeat some and share token orders between others
SMALL_COPY = ("permuted-copy", {"vocab": 4, "length": 4, "eval_size": 2})


@pytest.mark.parametrize("kind,options", TASKS + [SMALL_COPY])
def test_draw_samples_differ_and_keys_tell_them_apart(kind, options):
    task = make_task(kind, seed=6, **options)
    samples = task.draw(task, Rng(7), 300)
    for s in samples:
        CHECKS[kind](task, s)
        assert isinstance(s["key"], bytes)
    # equal keys exactly when the samples are equal
    content = [b"".join(np.asarray(s[name]).tobytes() for name in ("inputs", "query", "label")
                        if name in s) for s in samples]
    keys = [s["key"] for s in samples]
    assert 1 < len(set(keys)) == len(set(content)) == len(set(zip(keys, content)))


@pytest.mark.parametrize("kind,options", TASKS)
def test_each_draw_makes_the_same_rng_calls_whatever_n(kind, options):
    task = make_task(kind, seed=8, **options)
    counts = set()
    for n in (1, 2, 17, 300):
        rng = CountingRng(Rng(9))
        assert len(task.draw(task, rng, n)) == n
        counts.add(rng.calls)
    assert len(counts) == 1


def test_a_step_without_eval_collision_draws_once(monkeypatch):
    task = make_task("salient-detection", seed=10)
    task.eval_set()
    asked = []
    draw = task.draw

    def counted(t, rng, n):
        asked.append(n)
        return draw(t, rng, n)
    monkeypatch.setattr(task, "draw", counted)
    for step in range(5):
        del asked[:]
        task.train_batch(step, 16)
        assert asked == [16]


def test_refill_draws_only_the_shortfall(monkeypatch):
    # 2 ** 7 = 128 sequences against 200 eval draws: most draws collide
    task = make_task("windowed-denoise", seed=0, vocab=2, length=7)
    eval_keys = {s["key"] for s in task.eval_set()}
    asked, kept = [], []
    draw = task.draw

    def counted(t, rng, n):
        samples = draw(t, rng, n)
        asked.append(n)
        kept.append(sum(s["key"] not in eval_keys for s in samples))
        return samples
    monkeypatch.setattr(task, "draw", counted)
    batch = task.train_batch(0, 8)
    assert len(batch) == 8
    assert len(asked) > 1
    assert asked[0] == 8
    for i in range(1, len(asked)):
        assert asked[i] == 8 - sum(kept[:i])
    assert all(s["key"] not in eval_keys for s in batch)


def test_window_majority_runs_along_the_last_axis():
    rng = np.random.default_rng(0)
    for shape in [(5, 1), (5, 2), (7, 16), (3, 4, 9)]:
        observed = rng.integers(0, 3, shape)
        rows = observed.reshape(-1, shape[-1])
        expect = np.stack([window_majority_loop(row) for row in rows])
        np.testing.assert_array_equal(window_majority(observed).reshape(rows.shape), expect)
