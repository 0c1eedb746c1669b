"""Malformed arguments at public entry points raise typed errors."""

import pytest

from attnlab import cli
from attnlab.conv import ConvParams, deformable_conv
from attnlab.errors import ContractViolation
from attnlab.flops import count_attention, count_mechanism, count_terms_combined, shared_savings
from attnlab.harness import default_grid
from attnlab.tensor import Rng, Tensor


@pytest.mark.parametrize("beta", ["2222", "11", "10101", "", 1111])
def test_count_mechanism_rejects_a_malformed_switch_string(beta):
    with pytest.raises(ContractViolation, match="switch string"):
        count_mechanism("transformer", 16, 8, m=2, beta=beta)


@pytest.mark.parametrize("gates", [
    (True, True), ("a", "", "x", 0), (True, False, False, False, True), (1, 0, 0, 0),
])
@pytest.mark.parametrize("count", [
    lambda gates: count_attention(gates, 4, 4, 8, 2),
    lambda gates: count_terms_combined(gates, 4, 8, 2),
    lambda gates: shared_savings(gates, 4, 8, 2),
], ids=["count_attention", "count_terms_combined", "shared_savings"])
def test_count_formulas_reject_malformed_gates(count, gates):
    with pytest.raises(ContractViolation, match="gates must be four booleans"):
        count(gates)


def test_grid_with_an_unwritable_out_exits_2_before_any_cell(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_grid", lambda *args: calls.append(args) or [])
    out = tmp_path / "missing" / "x.csv"
    code = cli.main(["grid", "--task", "permuted-copy", "--betas", "1000",
                     "--steps", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith(f"grid: {out}: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("task", ["nope", "", None, 7])
def test_default_grid_rejects_an_unknown_task(task):
    with pytest.raises(ContractViolation, match=repr(task)):
        default_grid(task)


def test_deformable_conv_needs_an_offset_predictor():
    params = ConvParams(2, 2, 3, ndim=1, rng=Rng(0))
    with pytest.raises(ContractViolation, match="offset predictor"):
        deformable_conv(Tensor(Rng(1).normal((5, 2))), params)
