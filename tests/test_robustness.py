"""Malformed configs become failed rows, errors reach the CSV, tape
gradients must match their tensor's shape, and predictions keep their
per-family type."""

import csv
import io
import math
import signal

import numpy as np
import pytest

from attnlab.attention import AttentionConfig, AttentionParams
from attnlab.errors import ContractViolation, ShapeMismatch
from attnlab.harness import RESULT_COLUMNS, RunConfig, emit_results, run_grid, train
from attnlab.models import build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor

FAST = {"steps": 2, "batch_size": 2}


@pytest.mark.parametrize("field, value, named", [
    ("task_options", {"bogus": 1}, "bogus"),
    ("task_options", {"seed": 3}, "task_options"),
    ("task_options", {"eval_size": 0}, "eval_size"),
    ("beta", 1010, "beta=1010"),
    ("batch_size", 0, "batch_size=0"),
    ("steps", -3, "steps=-3"),
    ("lr", math.nan, "lr=nan"),
    ("clip", -1.0, "clip=-1.0"),
    ("seed", -1, "seed=-1"),
    ("heads", 0, "heads=0"),
    ("n_groups", 0, "n_groups=0"),
])
def test_malformed_config_is_a_failed_row(field, value, named):
    overrides = dict(FAST, task_options={"eval_size": 4})
    overrides[field] = value
    rec = train(RunConfig(task="windowed-denoise", **overrides))
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert named in rec.error
    assert math.isnan(rec.accuracy) and rec.macs == 0


def test_resolved_raises_contract_violation():
    with pytest.raises(ContractViolation, match="batch_size=0"):
        RunConfig(task="permuted-copy", batch_size=0).resolved()


def test_grid_of_malformed_configs_still_emits():
    records = run_grid("permuted-copy", [
        RunConfig(task="permuted-copy", beta=1010, seed="x"),
        RunConfig(task="permuted-copy", stack=5, steps=0,
                  task_options={"eval_size": 4}),
        RunConfig(task="permuted-copy", beta="1000", steps=0,
                  task_options={"eval_size": 4}),
    ])
    assert [r.failed for r in records] == [True, True, False]
    assert len(emit_results(records).strip().split("\n")) == 4


def test_error_survives_csv_round_trip():
    rec = train(RunConfig(task="permuted-copy", beta=1010, batch_size=0))
    assert "," in rec.error
    rows = list(csv.reader(io.StringIO(emit_results([rec]))))
    assert rows[0] == RESULT_COLUMNS and RESULT_COLUMNS[-1] == "error"
    assert rows[1][RESULT_COLUMNS.index("error")] == rec.error


def test_successful_row_has_empty_error():
    rec = train(RunConfig(task="permuted-copy", steps=0,
                          task_options={"eval_size": 4}))
    rows = list(csv.reader(io.StringIO(emit_results([rec]))))
    assert rows[1][-1] == ""



@pytest.mark.parametrize("options", [{"vocab": 1}, {"length": 2}])
def test_denoise_eval_set_holding_every_sequence_is_a_failed_row(options):
    def hang(signum, frame):
        raise TimeoutError("train() did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        rec = train(RunConfig(task="windowed-denoise", steps=1, task_options=options))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert "eval_size=200" in rec.error


def test_denoise_eval_set_missing_a_sequence_still_trains():
    # 2 ** 7 = 128 sequences, fewer than the 200 eval draws, but not all drawn
    task = make_task("windowed-denoise", seed=0, vocab=2, length=7)
    assert len({s["key"] for s in task.eval_set()}) < 128
    assert len(task.train_batch(0, 4)) == 4

def test_task_rejects_empty_eval_set():
    with pytest.raises(ContractViolation):
        make_task("salient-detection", seed=0, eval_size=0)


def test_wrong_shaped_gradient_is_rejected():
    w = Tensor(np.zeros((3, 3)), requires_grad=True)
    out = Tensor._from_op(w.data.copy(), (w,), lambda g: w._accum(g[0]))
    with pytest.raises(ShapeMismatch):
        out.sum().backward()


@pytest.mark.parametrize("kind, stack", [
    ("permuted-copy", "transformer"),
    ("salient-detection", "attended-block"),
    ("windowed-denoise", "transformer"),
])
def test_predict_returns_int_or_one_class_per_position(kind, stack):
    task = make_task(kind, seed=0)
    model = build_model(task, stack, "1010", seed=0)
    sample = task.eval_set()[0]
    pred = model.predict(sample)
    if np.ndim(sample["label"]) == 0:
        assert type(pred) is int and 0 <= pred < task.vocab
    else:
        assert pred.shape == np.shape(sample["label"])
    assert 0.0 <= model.accuracy(sample) <= 1.0


@pytest.mark.parametrize("task, options, named", [
    ("windowed-denoise", {"vocab": 0}, "vocab=0"),
    ("windowed-denoise", {"length": 0}, "length=0"),
    ("windowed-denoise", {"channels": -2}, "channels=-2"),
    ("windowed-denoise", {"flip": 1.5}, "flip"),
    ("permuted-copy", {"vocab": 0}, "vocab=0"),
    ("permuted-copy", {"length": -1}, "length=-1"),
    ("permuted-copy", {"channels": 0}, "channels=0"),
    ("salient-detection", {"extent": (0, 4)}, "height=0"),
    ("salient-detection", {"extent": (4, -4)}, "width=-4"),
    ("salient-detection", {"extent": 6}, "extent"),
    ("salient-detection", {"classes": 0}, "classes=0"),
    ("salient-detection", {"channels": 0}, "channels=0"),
    ("salient-detection", {"n_marked": 0}, "n_marked=0"),
])
def test_non_positive_task_size_is_a_failed_row(task, options, named):
    rec = train(RunConfig(task=task, steps=1, batch_size=1,
                          task_options=dict(options, eval_size=2)))
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert named in rec.error


def test_window_zero_is_rejected_not_ignored():
    task = make_task("windowed-denoise", seed=0)
    with pytest.raises(ContractViolation, match="window"):
        build_model(task, "transformer", "0100", seed=0, window=0)
    assert build_model(task, "transformer", "0100", seed=0).mask is None


@pytest.mark.parametrize("heads", [0, -2, 2.5, True, "2", None])
def test_head_count_that_is_not_a_positive_int_is_rejected(heads):
    with pytest.raises(ContractViolation, match="head count"):
        AttentionParams(10, heads, enc_dim=8, rng=Rng(0))
    with pytest.raises(ContractViolation, match="head count"):
        AttentionConfig(gates=(True, False, False, False), heads=heads)


def test_numpy_int_head_count_is_accepted():
    params = AttentionParams(10, np.int64(2), enc_dim=8, rng=Rng(0))
    assert len(params.parameters()) == 7 * 2 + 1
    assert AttentionConfig(gates=(True, False, False, False), heads=np.int64(2)).heads == 2


def test_bool_eval_size_is_a_failed_row():
    rec = train(RunConfig(task="permuted-copy", steps=1, batch_size=1,
                          task_options={"eval_size": True}))
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert "eval_size" in rec.error
