import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab.errors import ContractViolation
from attnlab.tasks import (
    content_match_oracle,
    fixed_position_bound,
    make_permuted_copy_task,
    make_salient_detection_task,
    make_task,
    make_windowed_denoise_task,
    masked_average_oracle,
    window_majority,
)

from oracles import window_majority_loop


# -- permuted-copy ------------------------------------------------------------


def test_permuted_copy_tokens_distinct_and_label_consistent():
    task = make_permuted_copy_task(seed=3)
    for s in task.eval_set():
        tokens = s["tokens"]
        assert len(set(tokens.tolist())) == len(tokens)
        # label is the token at the drawn position, query embeds that token
        assert s["label"] in tokens.tolist()
        np.testing.assert_array_equal(s["query"][0], task.embed[s["label"]])
        np.testing.assert_array_equal(s["inputs"], task.embed[tokens])


def test_content_match_oracle_is_exact():
    task = make_permuted_copy_task(seed=4)
    hits = [content_match_oracle(s) == s["label"] for s in task.eval_set()]
    assert all(hits)


def test_fixed_position_bound_near_uniform():
    # the match position is uniform, so no fixed position beats ~1/length
    task = make_permuted_copy_task(seed=5, eval_size=600)
    bound = fixed_position_bound(task.eval_set())
    assert 1.0 / task.extent - 0.08 < bound < 1.0 / task.extent + 0.12


def test_permuted_copy_validation():
    with pytest.raises(ContractViolation):
        make_permuted_copy_task(seed=0, vocab=4, length=6)
    with pytest.raises(ContractViolation):
        make_permuted_copy_task(seed=0, vocab=3, length=3)


# -- salient-detection ---------------------------------------------------------


def test_salient_payload_is_class_balanced():
    task = make_salient_detection_task(seed=7)
    h, w = task.extent
    per_class = h * w // task.vocab
    pooled = None
    for s in task.eval_set():
        counts = np.bincount(s["assignment"], minlength=task.vocab)
        assert (counts == per_class).all()
        # balanced occupancy means the pooled payload is sample-independent
        total = s["inputs"][:, 1:].sum(axis=0)
        if pooled is None:
            pooled = total
        np.testing.assert_allclose(total, pooled, atol=1e-12)


def test_salient_marks_sit_on_label_class():
    task = make_salient_detection_task(seed=8)
    for s in task.eval_set():
        assert len(s["marked"]) == task.n_marked
        assert (s["assignment"][s["marked"]] == s["label"]).all()
        marker = s["inputs"][:, 0]
        assert set(np.flatnonzero(marker == 1.0)) == set(s["marked"])
        assert (marker[marker != 1.0] == 0.0).all()


def test_masked_average_oracle_is_exact():
    task = make_salient_detection_task(seed=9)
    hits = [masked_average_oracle(task, s) == s["label"] for s in task.eval_set()]
    assert all(hits)


def test_salient_label_invariant_to_unmarked_shuffle():
    # only the marked cells determine the label; rearranging the rest of
    # the grid must not move the oracle's answer
    task = make_salient_detection_task(seed=10)
    rng = np.random.default_rng(0)
    for s in task.eval_set()[:50]:
        cells = s["inputs"].shape[0]
        unmarked = np.setdiff1d(np.arange(cells), s["marked"])
        perm = np.arange(cells)
        perm[unmarked] = unmarked[rng.permutation(len(unmarked))]
        shuffled = dict(s, inputs=s["inputs"][perm])
        assert masked_average_oracle(task, shuffled) == s["label"]


def test_salient_validation():
    with pytest.raises(ContractViolation):
        make_salient_detection_task(seed=0, extent=(5, 5), classes=4)
    with pytest.raises(ContractViolation):
        make_salient_detection_task(seed=0, extent=(4, 4), classes=4, n_marked=5)


# -- windowed-denoise -----------------------------------------------------------


def test_window_majority_hand_case():
    obs = np.array([1, 1, 2, 1, 3])
    # edges truncate; interior ties keep the center token
    np.testing.assert_array_equal(window_majority(obs), [1, 1, 1, 1, 3])


def test_denoise_labels_follow_rule():
    task = make_windowed_denoise_task(seed=11)
    for s in task.eval_set():
        np.testing.assert_array_equal(s["label"], window_majority(s["tokens"]))
        np.testing.assert_array_equal(s["inputs"], task.embed[s["tokens"]])


def test_denoise_flip_rate_sane():
    task = make_windowed_denoise_task(seed=12, flip=0.2, eval_size=400)
    # labels and observations disagree only where noise changed the majority
    disagree = np.mean([
        (s["label"] != s["tokens"]).mean() for s in task.eval_set()
    ])
    assert 0.0 < disagree < 0.25


# -- shared behaviour --------------------------------------------------------------


def test_eval_set_deterministic_and_cached():
    a = make_task("permuted-copy", seed=21)
    b = make_task("permuted-copy", seed=21)
    for sa, sb in zip(a.eval_set(), b.eval_set()):
        np.testing.assert_array_equal(sa["inputs"], sb["inputs"])
        assert sa["label"] == sb["label"]
    assert a.eval_set() is a.eval_set()
    c = make_task("permuted-copy", seed=22)
    keys_a = {s["key"] for s in a.eval_set()}
    keys_c = {s["key"] for s in c.eval_set()}
    assert keys_a != keys_c


def test_train_batches_disjoint_from_eval_and_deterministic():
    for kind in ("permuted-copy", "salient-detection", "windowed-denoise"):
        task = make_task(kind, seed=31)
        eval_keys = {s["key"] for s in task.eval_set()}
        again = make_task(kind, seed=31)
        for step in range(3):
            batch = task.train_batch(step, 8)
            batch2 = again.train_batch(step, 8)
            for s, s2 in zip(batch, batch2):
                assert s["key"] not in eval_keys
                assert s["key"] == s2["key"]


def test_embeddings_orthonormal():
    task = make_permuted_copy_task(seed=41)
    gram = task.embed @ task.embed.T
    np.testing.assert_allclose(gram, np.eye(task.vocab), atol=1e-12)


def test_make_task_rejects_unknown_kind():
    with pytest.raises(ContractViolation):
        make_task("sorting", seed=0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda vocab: st.lists(st.integers(0, vocab - 1), min_size=1, max_size=40)))
def test_window_majority_matches_counting_loop(observed):
    observed = np.array(observed)
    np.testing.assert_array_equal(window_majority(observed), window_majority_loop(observed))
