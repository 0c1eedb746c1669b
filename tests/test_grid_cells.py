"""A grid cell is one run down one path: a switchless stack is a single
cell of its task's grid, a run takes the same training path at any step
count, and the metering forward records no tape."""

import pytest

from attnlab import harness
from attnlab.cli import main
from attnlab.errors import ContractViolation
from attnlab.harness import NO_BETA, RunConfig, default_grid, run_grid, train
from attnlab.models import FAMILIES, build_model, count_forward
from attnlab.tasks import make_task
from attnlab.train import train_model

SWITCHLESS = [("salient-detection", "attended-block+dynamic"),
              ("windowed-denoise", "transformer+dynamic")]


@pytest.mark.parametrize("task, stack",
                         [(t, s) for t, family in FAMILIES.items() for s in family.stacks])
def test_a_stack_override_names_each_cell_once(task, stack):
    records = run_grid(task, default_grid(task, stack=stack, steps=0,
                                          task_options={"eval_size": 2}))
    assert all(r.error is None for r in records)
    assert {r.stack for r in records} == {stack}
    cells = [(r.task, r.stack, r.beta, r.seed) for r in records]
    assert len(set(cells)) == len(cells)


@pytest.mark.parametrize("task, stack", SWITCHLESS)
def test_a_switchless_override_is_the_default_grids_row_for_it(task, stack):
    [only] = default_grid(task, seed=3, stack=stack)
    assert only.beta == "0000"
    assert only in default_grid(task, seed=3)


def test_the_dynamic_stack_grid_prints_one_row(capsys):
    code = main(["grid", "--task", "salient-detection",
                 "--stack", "attended-block+dynamic", "--steps", "0"])
    assert code == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 1
    assert rows[0].startswith(f"salient-detection,attended-block+dynamic,{NO_BETA},")


def test_zero_steps_run_the_training_path(monkeypatch):
    steps = []

    def spy(*args, **kwargs):
        steps.append(kwargs["steps"])
        return train_model(*args, **kwargs)

    monkeypatch.setattr(harness, "train_model", spy)
    rec = train(RunConfig(task="permuted-copy", steps=0, task_options={"eval_size": 4}))
    assert rec.error is None and steps == [0]


def test_zero_steps_draw_no_batch(monkeypatch):
    task = make_task("permuted-copy", seed=0, eval_size=4)
    model = build_model(task, "transformer", "1000", seed=0)
    before = [p.data.copy() for p in model.parameters()]

    def no_batch(step, batch_size):
        raise AssertionError("a run of zero steps drew a training batch")

    monkeypatch.setattr(task, "train_batch", no_batch)
    assert train_model(model, task, steps=0) is None
    assert all((p.data == b).all() for p, b in zip(model.parameters(), before))


def test_a_config_naming_momentum_is_rejected():
    with pytest.raises(ContractViolation, match="momentum"):
        RunConfig.from_dict({"task": "permuted-copy", "momentum": 0.9})


@pytest.mark.parametrize("task, stack", [("permuted-copy", "transformer+deformable"),
                                         ("salient-detection", "attended-block+dynamic")])
def test_the_metering_forward_records_no_tape(task, stack):
    model = build_model(make_task(task, seed=0, eval_size=2), stack, "1111", seed=0)
    outputs = []
    forward = model.logits
    model.logits = lambda sample: outputs.append(forward(sample)) or outputs[-1]
    record = count_forward(model, model.task.eval_set()[0])
    assert record.macs > 0
    assert outputs[0]._parents == () and outputs[0]._backward is None
