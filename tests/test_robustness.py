"""Malformed configs become failed rows, errors reach the CSV, tape
gradients must match their tensor's shape, and predictions keep their
per-family type."""

import csv
import io
import math
import signal

import numpy as np
import pytest

from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    attention_weights,
    local_mask,
    offset_map_1d,
)
from attnlab.conv import ConvParams, deformable_conv, regular_conv
from attnlab.dynconv import DynamicConvParams, dynamic_conv
from attnlab.errors import ContractViolation, NumericFault, ShapeMismatch
from attnlab.flops import count_attention, count_dynamic
from attnlab.harness import RESULT_COLUMNS, RunConfig, emit_results, run_grid, train
from attnlab.models import build_model
from attnlab.tasks import make_task
from attnlab.tensor import Rng, Tensor, gather_dot
from attnlab.train import train_model

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
    assert len(params.parameters()) == 8
    assert all(w.shape[0] == 2 for w in params.parameters()[:-1])
    assert AttentionConfig(gates=(True, False, False, False), heads=np.int64(2)).heads == 2


def test_bool_eval_size_is_a_failed_row():
    rec = train(RunConfig(task="permuted-copy", steps=1, batch_size=1,
                          task_options={"eval_size": True}))
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert "eval_size" in rec.error


@pytest.mark.parametrize("build", [
    lambda: AttentionParams(8, 2, enc_dim=0, rng=Rng(0)),
    lambda: AttentionParams(0, 1, enc_dim=8, rng=Rng(0)),
    lambda: AttentionParams(-4, 2, enc_dim=8, rng=Rng(0)),
    lambda: AttentionParams(8.0, 2, enc_dim=8, rng=Rng(0)),
    lambda: ConvParams(0, 4, kernel=3, ndim=2, rng=Rng(0)),
    lambda: ConvParams(4, -1, kernel=3, ndim=1, rng=Rng(0)),
    lambda: ConvParams(4, 4, kernel=True, ndim=1, rng=Rng(0)),
    lambda: DynamicConvParams(8, 8, 3, 0, rng=Rng(0)),
    lambda: DynamicConvParams(0, 8, 3, 2, rng=Rng(0)),
    lambda: count_attention((True, False, False, False), 4, 4, 8, 0),
    lambda: count_dynamic(4, 3, 8, 0),
], ids=["attn-enc-0", "attn-channels-0", "attn-channels-neg", "attn-channels-float",
        "conv-cin-0", "conv-cout-neg", "conv-kernel-bool", "dyn-groups-0", "dyn-cin-0",
        "count-attention-m-0", "count-dynamic-ng-0"])
def test_non_positive_size_is_rejected_at_the_constructor(build):
    with pytest.raises(ContractViolation):
        build()


def _conv_input(rows, c=4):
    return Tensor(Rng(1).uniform(-1, 1, (rows, c)))


@pytest.mark.parametrize("conv, extent, rows", [
    (regular_conv, (2.5, 2), 5),
    (regular_conv, (0, 3), 0),
    (deformable_conv, (0, 3), 0),
    (regular_conv, (-2, -3), 6),
    (dynamic_conv, (0,), 0),
    (dynamic_conv, None, 0),
])
def test_conv_extent_that_is_not_positive_ints_is_rejected(conv, extent, rows):
    ndim = 1 if extent is None else len(extent)
    if conv is dynamic_conv:
        params = DynamicConvParams(4, 4, 3, 2, rng=Rng(0), ndim=ndim)
    else:
        params = ConvParams(4, 4, 3, ndim=ndim, rng=Rng(0), deformable=True)
    with pytest.raises(ContractViolation, match="extent"):
        conv(_conv_input(rows), params, extent)


@pytest.mark.parametrize("window", [True, 3.0])
def test_window_that_is_not_an_odd_positive_int_is_rejected(window):
    with pytest.raises(ContractViolation, match="window"):
        local_mask(offset_map_1d(5, 5, enc_dim=4), window)


@pytest.mark.parametrize("indices", [np.array([0.5]), np.array([True, False]), [1.0]])
def test_row_indices_must_have_an_integer_dtype(indices):
    t = Tensor(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ContractViolation, match="integer"):
        t.take_rows(indices)
    with pytest.raises(ContractViolation, match="integer"):
        t.take_rows(indices, oob_zero=True)
    a = Tensor(np.ones((1, 2)))
    with pytest.raises(ContractViolation, match="integer"):
        gather_dot(a, t, np.reshape(indices, (1, -1)))


def _layer(channels=4, heads=2):
    params = AttentionParams(channels, heads, enc_dim=4, rng=Rng(0))
    return params, AttentionConfig.from_beta("1111", heads=heads)


def test_mask_that_does_not_fit_the_energies_names_both_shapes():
    params, config = _layer()
    x = Tensor(Rng(2).uniform(-1, 1, (4, 4)))
    offsets = offset_map_1d(4, 4, enc_dim=4)
    with pytest.raises(ShapeMismatch, match=r"\(4, 3\).*\(1, 4, 4\)"):
        attention_weights(x, x, params, config, offsets, mask=np.ones((4, 3), bool))
    with pytest.raises(ShapeMismatch, match=r"\(2, 5\).*\(3, 4\)"):
        Tensor(np.ones((3, 4))).softmax(mask=np.ones((2, 5), bool))


@pytest.mark.parametrize("batch", [2.0, True, np.float64(2)])
def test_batch_that_is_not_a_positive_int_is_a_shape_mismatch(batch):
    params, config = _layer()
    x = Tensor(Rng(3).uniform(-1, 1, (4, 4)))
    offsets = offset_map_1d(2, 2, enc_dim=4)
    with pytest.raises(ShapeMismatch, match="batch"):
        attention_weights(x, x, params, config, offsets, batch=batch)
    with pytest.raises(ShapeMismatch, match="batch"):
        attention_forward(x, x, params, config, offsets, batch=batch)
    conv_params = ConvParams(4, 4, 3, ndim=1, rng=Rng(0))
    with pytest.raises(ShapeMismatch, match="batch"):
        regular_conv(x, conv_params, batch=batch)


def test_overflowing_last_update_is_a_failed_row():
    # one step at this rate leaves parameters near 1e298: still finite, but
    # the eval forward overflows them into NaN logits
    with np.errstate(all="ignore"):
        rec = train(RunConfig(task="salient-detection", steps=1, lr=1e300))
    assert rec.failed and rec.error.startswith("NumericFault")
    assert math.isnan(rec.accuracy)


class _OverflowingModel:
    """One parameter with a gradient of 1e10: a finite loss whose update
    at a rate of 1e300 overflows to -inf."""

    def __init__(self):
        self.w = Tensor(np.ones(1), requires_grad=True)

    def parameters(self):
        return [self.w]

    def batch_loss(self, batch):
        return (self.w * 1e10).sum()


class _EmptyBatches:
    def train_batch(self, step, batch_size):
        return []


def test_parameters_left_non_finite_by_the_last_step_raise():
    with np.errstate(all="ignore"), pytest.raises(NumericFault, match="non-finite at step 0"):
        train_model(_OverflowingModel(), _EmptyBatches(), steps=1, lr=1e300)


def test_a_fractional_task_seed_is_rejected_not_truncated():
    with pytest.raises(ContractViolation, match="0.5"):
        make_task("permuted-copy", seed=0.5)
