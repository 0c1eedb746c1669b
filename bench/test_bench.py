"""Tests of the benchmark itself: span arithmetic, metric names, a hang
recorded as a failure, and a minimal-length smoke run of each workload.

    python -m pytest bench
"""

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import attnlab  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    forward_mac_split,
    layer_metrics,
    metric_units,
    self_values,
)
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, index, parent, start, end, macs):
    span = Span(name, index, parent, "cell", start)
    span.end, span.macs = end, macs
    return span


def test_self_time_and_macs_subtract_direct_children_only():
    spans = [
        _span("root", 0, None, 0.0, 10.0, 100),
        _span("a", 1, 0, 1.0, 4.0, 60),
        _span("b", 2, 1, 2.0, 3.0, 25),
        _span("c", 3, 0, 5.0, 9.0, 30),
    ]
    self_s, self_macs = self_values(spans)
    assert self_s == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert self_macs == [10, 35, 25, 30]


def test_layer_metrics_sum_self_values_per_name():
    spans = [
        _span("attention.attention_forward", 0, None, 0.0, 0.5, 400),
        _span("attention.attention_weights", 1, 0, 0.1, 0.4, 300),
        _span("attention.attention_forward", 2, None, 1.0, 1.5, 400),
        _span("attention.attention_weights", 3, 2, 1.1, 1.4, 300),
    ]
    m = layer_metrics(spans)
    assert m["attention.attention_forward.ms"] == pytest.approx(400.0)
    assert m["attention.attention_forward.calls"] == 2
    assert m["attention.attention_forward.macs"] == 200
    assert m["attention.attention_forward.mac_per_s"] == pytest.approx(500.0)
    assert m["attention.attention_weights.ms"] == pytest.approx(600.0)
    assert m["conv.deformable_conv2d.calls"] == 0


def test_instrumented_forward_splits_its_macs_exactly():
    task = attnlab.make_task("salient-detection", seed=0, eval_size=2)
    model = attnlab.build_model(task, "attended-block+deformable", "1111", seed=0)
    original = attnlab.models.count_forward
    recorder = Recorder()
    recorder.cell = "cell"
    with recorder.instrument():
        counter = attnlab.harness.count_forward(model, task.eval_set()[0])
    assert attnlab.models.count_forward is original
    assert attnlab.harness.count_forward is original
    by_name = {s.name: s for s in recorder.spans}
    assert {"models.count_forward", "models.logits", "conv.deformable_conv2d",
            "attention.attention_forward",
            "attention.attention_weights"} <= set(by_name)
    forward = by_name["attention.attention_forward"]
    weights = by_name["attention.attention_weights"]
    assert weights.parent == forward.index
    assert weights.peak - weights.base > 0
    assert forward.peak >= weights.peak
    layer, rest = forward_mac_split(recorder.spans)["cell"]
    assert layer > 0 and rest > 0
    assert layer + rest == counter.macs


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_hung_cell_is_recorded_as_a_failure(monkeypatch, capsys):
    # every key of this task lands in its eval set, so train_batch never
    # finds a training sample
    hang = Workload(name="hang", task="permuted-copy",
                    cells=(("transformer", "1000"),), why="",
                    task_options={"vocab": 4, "length": 4, "eval_size": 2000})
    monkeypatch.setattr(worker, "CELL_LIMIT_S", 0.5)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        _, records = worker.run_pass(attnlab, hang, hang.configs(seed=0),
                                     {"transformer/1000": 0}, None, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    cell, summary = lines
    assert not cell["ok"] and cell["reason"].startswith("CellTimeout")
    assert summary["cells"] == 1 and summary["failed"] == 1
    assert records == {"transformer/1000": None}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, trace):
    done = _bench("--workload", name, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= len(WORKLOADS[name].cells)
    want = metric_units() if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        assert result["metrics"]["tensor.backward.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "copy-grid", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
