"""The typed errors and CLI paths that the rest of the suite never takes."""

import math

import numpy as np
import pytest

from attnlab import harness
from attnlab.attention import (
    AttentionConfig,
    AttentionParams,
    attention_forward,
    attention_weights,
)
from attnlab.cli import main
from attnlab.errors import ContractViolation, NumericFault, ShapeMismatch
from attnlab.flops import emit_table
from attnlab.harness import ALL_BETAS, ResultRecord, RunConfig, train
from attnlab.models import build_model
from attnlab.tasks import (
    make_permuted_copy_task,
    make_salient_detection_task,
    make_task,
    make_windowed_denoise_task,
)
from attnlab.tensor import Rng, Tensor, finite_diff_check


def _layer(heads=2):
    params = AttentionParams(8, heads, enc_dim=8, rng=Rng(0))
    return params, Tensor(Rng(1).normal((4, 8)))


def test_attention_weights_rejects_a_head_count_mismatch():
    params, x = _layer(heads=2)
    with pytest.raises(ShapeMismatch, match="config has 4 heads, params 2"):
        attention_weights(x, x, params, AttentionConfig.from_beta("1000", heads=4))


@pytest.mark.parametrize("beta", ["0100", "0001", "1111"])
def test_positional_terms_need_an_offset_map(beta):
    params, x = _layer()
    with pytest.raises(ContractViolation, match="OffsetMap"):
        attention_forward(x, x, params, AttentionConfig.from_beta(beta, heads=2))


def test_attention_forward_rejects_an_unknown_mode():
    params, x = _layer()
    with pytest.raises(ContractViolation, match="'both'"):
        attention_forward(x, x, params, AttentionConfig.from_beta("1000", heads=2),
                          mode="both")


def test_a_run_config_needs_a_task():
    with pytest.raises(ContractViolation, match="needs a task"):
        RunConfig.from_dict({"beta": "1111"})


def test_build_model_rejects_an_unknown_task_kind():
    task = make_task("permuted-copy", seed=0, eval_size=2)
    task.kind = "sorting"
    with pytest.raises(ContractViolation, match="'sorting'"):
        build_model(task, "transformer", "1111", seed=0)


@pytest.mark.parametrize("make, options, message", [
    (make_permuted_copy_task, {"vocab": 20}, "20 orthonormal rows in 16 dims"),
    (make_salient_detection_task, {"channels": 4}, "4 orthonormal rows in 3 dims"),
    (make_windowed_denoise_task, {"vocab": 17}, "17 orthonormal rows in 16 dims"),
])
def test_a_task_needs_a_channel_per_class(make, options, message):
    with pytest.raises(ContractViolation, match=message):
        make(0, eval_size=4, **options)


def test_too_few_channels_is_a_failed_row():
    rec = train(RunConfig(task="permuted-copy", steps=1,
                          task_options={"vocab": 20, "eval_size": 4}))
    assert rec.failed and rec.error.startswith("ContractViolation")
    assert "orthonormal" in rec.error
    assert math.isnan(rec.accuracy) and rec.macs == 0


def test_a_tensor_divides_by_scalars_only():
    with pytest.raises(ContractViolation, match="scalars only"):
        Tensor([1.0, 2.0]) / Tensor([2.0, 4.0])


@pytest.mark.parametrize("divisor", ["2", True, np.bool_(True), np.array([2.0]), np.array(2.0),
                                     None], ids=["str", "bool", "np-bool", "array", "0-d-array",
                                                 "none"])
def test_a_tensor_rejects_a_divisor_that_is_not_a_real_number(divisor):
    with pytest.raises(ContractViolation, match="scalars only"):
        Tensor([1.0, 2.0]) / divisor


@pytest.mark.parametrize("divisor", [2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0)])
def test_a_tensor_divides_by_a_real_number(divisor):
    np.testing.assert_array_equal((Tensor([1.0, 2.0]) / divisor).data, [0.5, 1.0])


def test_finite_diff_check_rejects_a_non_finite_probe():
    p = Tensor(np.array([[0.5]]), requires_grad=True)

    def f():
        # finite at the point itself, infinite a step away from it
        return p * 1.0 if p.data[0, 0] == 0.5 else Tensor(np.array([[np.inf]]))

    with pytest.raises(NumericFault, match="during probing"):
        finite_diff_check(f, [p])


def test_grid_betas_all_runs_every_switch_string(monkeypatch, capsys):
    ran = []

    def fake_train(config):
        ran.append(config)
        return ResultRecord(task=config.task, stack="transformer", beta=config.beta,
                            accuracy=0.5, macs=1, wall_ms=0.0, seed=config.seed)

    monkeypatch.setattr(harness, "train", fake_train)
    assert main(["grid", "--task", "permuted-copy", "--betas", "all"]) == 0
    assert [c.beta for c in ran] == list(ALL_BETAS)
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 16


def test_flops_prints_to_stdout(capsys):
    code = main(["flops", "--ns", "8,16", "--c", "8", "--nk", "3", "--ng", "2", "--m", "2"])
    assert code == 0
    assert capsys.readouterr().out == emit_table([8, 16], 8, 3, 2, 2)
