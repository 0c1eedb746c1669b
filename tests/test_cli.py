import json

import pytest

from attnlab import harness
from attnlab.cli import main
from attnlab.harness import RESULT_COLUMNS, ResultRecord


def test_grid_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["grid", "--task", "permuted-copy", "--betas", "1000,0010",
                 "--steps", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 3
    assert {row.split(",")[2] for row in lines[1:]} == {"1000", "0010"}


def test_grid_subcommand_stdout_and_failure_exit(capsys):
    code = main(["grid", "--task", "permuted-copy", "--betas", "1000,zzzz",
                 "--steps", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith(",".join(RESULT_COLUMNS))
    assert "zzzz" in captured.err


def test_grid_subcommand_from_config_file(tmp_path, capsys):
    cfg = {"task": "windowed-denoise", "beta": "0100", "steps": 0,
           "task_options": {"eval_size": 8}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps([cfg, dict(cfg, beta="0000")]),
                    encoding="utf-8")
    code = main(["grid", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.strip().split("\n")) == 3


def test_flops_subcommand(tmp_path):
    out = tmp_path / "flops.csv"
    code = main(["flops", "--ns", "8,16", "--c", "8", "--nk", "3",
                 "--ng", "2", "--m", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("mechanism,term,N_s")
    # 4 term rows + 3 mechanism rows per size
    assert len(lines) == 1 + 2 * 7


def test_check_subcommand_subset(capsys):
    code = main(["check", "--only", "softmax-rows", "uniform-switch"])
    captured = capsys.readouterr()
    assert code == 0
    assert "2/2 checks passed" in captured.out


def test_unknown_task_rejected():
    with pytest.raises(SystemExit):
        main(["grid", "--task", "sorting"])


def test_grid_with_a_fixed_stack_runs_the_beta_rows_on_it(monkeypatch, capsys):
    ran = []

    def fake_train(config):
        ran.append(config)
        return ResultRecord(task=config.task, stack=config.stack, beta=config.beta,
                            accuracy=0.5, macs=1, wall_ms=0.0, seed=config.seed)

    monkeypatch.setattr(harness, "train", fake_train)
    code = main(["grid", "--task", "salient-detection",
                 "--stack", "attended-block+deformable", "--steps", "0"])
    assert code == 0
    assert [c.beta for c in ran] == list(harness.ALL_BETAS)
    assert {c.stack for c in ran} == {"attended-block+deformable"}
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 16



def test_grid_betas_on_a_switchless_stack_run_one_row(capsys):
    code = main(["grid", "--task", "salient-detection", "--stack", "attended-block+dynamic",
                 "--betas", "1000,0100", "--steps", "0"])
    assert code == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[:3] == ["salient-detection", "attended-block+dynamic", "----"]

def test_grid_with_an_empty_config_list_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    code = main(["grid", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no run configs" in captured.err


@pytest.mark.parametrize("text,message", [
    (json.dumps([{"task": "permuted-copy", "steps": 0},
                 {"task": "windowed-denoise", "steps": 0}]), "more than one task"),
    (json.dumps({"task": "permuted-copy", "stepz": 0}), "stepz"),
    ("7", "run config"),
    ('{"task": "permuted-copy",', "Expecting"),
])
def test_grid_with_a_bad_config_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code = main(["grid", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--m", "0"), ("--ng", "0"), ("--m", "3"), ("--ng", "3"),
    ("--ns", "x"), ("--ns", "0"), ("--c", "-16"),
])
def test_flops_bad_argument_exits_2_with_one_line(flag, value, capsys):
    code = main(["flops", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("flops: ") and captured.err.count("\n") == 1


def test_flops_bad_argument_writes_no_file(tmp_path, capsys):
    out = tmp_path / "flops.csv"
    assert main(["flops", "--m", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["flops", "--out", str(tmp_path / "missing" / "flops.csv")]) == 2
    assert capsys.readouterr().err.startswith("flops: ")
