"""Ablation harness: run (task, stack, beta) cells and collect a table.

Every run is isolated: a failure (divergence, bad configuration) is
recorded in its row and the rest of the grid proceeds. Accuracy and MAC
counts are bit-reproducible for a given config; wall time of course is
not, and is reported for orientation only.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

from .errors import (
    ContractViolation,
    DegenerateRegion,
    NumericFault,
    ShapeMismatch,
    positive_int,
)
from .models import FAMILIES, build_model, count_forward
from .tasks import TASK_MAKERS, make_task
from .train import evaluate, train_model

RESULT_COLUMNS = ["task", "stack", "beta", "accuracy", "macs", "wall_ms", "seed",
                  "error"]

# per-task training recipes; pilots showed these reach the documented
# accuracies well inside a laptop-minute
TRAINING_DEFAULTS = {
    "permuted-copy": {"steps": 300, "batch_size": 16, "lr": 0.1},
    "salient-detection": {"steps": 1500, "batch_size": 8, "lr": 0.15},
    "windowed-denoise": {"steps": 300, "batch_size": 8, "lr": 0.1},
}

DEFAULT_STACK = {kind: f.stacks[0] for kind, f in FAMILIES.items()}

ALL_BETAS = tuple(format(i, "04b") for i in range(16))

# beta column entry for rows whose mechanism has no gate switches
NO_BETA = "----"


def _at_least(value, low, kind=numbers.Real):
    """A finite number of the given kind, bools excluded, no less than low."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and low <= value < math.inf)


@dataclass
class RunConfig:
    """One grid cell. None fields fall back to the task's defaults."""

    task: str
    beta: str = "1111"
    stack: str = None
    seed: int = 0
    steps: int = None
    batch_size: int = None
    lr: float = None
    momentum: float = 0.9
    clip: float = 1.0
    heads: int = 2
    window: int = None
    n_groups: int = 4
    task_options: dict = field(default_factory=dict)

    def resolved(self):
        """A copy with the task's defaults filled in; raises
        ContractViolation naming every field of the wrong type or range."""
        if not isinstance(self.task, str) or self.task not in TRAINING_DEFAULTS:
            raise ContractViolation(f"unknown task {self.task!r}")
        base = TRAINING_DEFAULTS[self.task]
        out = RunConfig(**asdict(self))
        out.stack = self.stack or DEFAULT_STACK[self.task]
        out.steps = base["steps"] if self.steps is None else self.steps
        out.batch_size = (base["batch_size"] if self.batch_size is None
                          else self.batch_size)
        out.lr = base["lr"] if self.lr is None else self.lr
        options = set(inspect.signature(TASK_MAKERS[self.task]).parameters)
        valid = {
            "stack": isinstance(out.stack, str),
            "beta": isinstance(out.beta, str) and len(out.beta) == 4
                    and set(out.beta) <= {"0", "1"},
            "seed": _at_least(out.seed, 0, numbers.Integral),
            "steps": _at_least(out.steps, 0, numbers.Integral),
            "batch_size": positive_int(out.batch_size),
            "lr": _at_least(out.lr, 0) and out.lr > 0,
            "momentum": _at_least(out.momentum, 0) and out.momentum < 1,
            "clip": out.clip is None or (_at_least(out.clip, 0) and out.clip > 0),
            "heads": positive_int(out.heads),
            "window": out.window is None or positive_int(out.window),
            "n_groups": positive_int(out.n_groups),
            "task_options": isinstance(out.task_options, dict)
                            and set(out.task_options) <= options - {"seed"},
        }
        bad = [f"{name}={getattr(out, name)!r}" for name, ok in valid.items() if not ok]
        if bad:
            raise ContractViolation(f"invalid config: {', '.join(bad)}")
        return out

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ContractViolation(f"a run config is a JSON object, got {d!r}")
        if "task" not in d:
            raise ContractViolation("a run config needs a task")
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ContractViolation(f"unknown config fields {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass
class ResultRecord:
    task: str
    stack: str
    beta: str
    accuracy: float
    macs: int
    wall_ms: float
    seed: int
    error: str = None

    @property
    def failed(self):
        return self.error is not None


def train(config: RunConfig) -> ResultRecord:
    """Run one grid cell end to end: build, fit, evaluate, meter."""
    start = time.perf_counter()
    accuracy, macs, error = math.nan, 0, None
    cfg = config
    try:
        cfg = config.resolved()
        task = make_task(cfg.task, seed=cfg.seed, **cfg.task_options)
        model = build_model(task, cfg.stack, cfg.beta, seed=cfg.seed,
                            heads=cfg.heads, window=cfg.window,
                            n_groups=cfg.n_groups)
        if cfg.steps > 0:
            train_model(model, task, steps=cfg.steps,
                        batch_size=cfg.batch_size, lr=cfg.lr,
                        momentum=cfg.momentum, clip=cfg.clip)
        accuracy = evaluate(model, task)
        macs = count_forward(model, task.eval_set()[0]).macs
    except (ContractViolation, DegenerateRegion, NumericFault,
            ShapeMismatch) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - start) * 1000.0
    # str() and the seed fallback keep a malformed config's row sortable
    stack = str(cfg.stack or DEFAULT_STACK.get(str(cfg.task), ""))
    beta = NO_BETA if "dynamic" in stack else str(cfg.beta)
    seed = cfg.seed if isinstance(cfg.seed, numbers.Integral) else -1
    return ResultRecord(task=str(cfg.task), stack=stack, beta=beta,
                        accuracy=accuracy, macs=macs, wall_ms=wall_ms,
                        seed=seed, error=error)


def run_grid(task, configs) -> list:
    """Run every cell of a task's grid; failures become rows, never aborts."""
    for c in configs:
        if c.task != task:
            raise ContractViolation(
                f"config for task {c.task!r} in the {task!r} grid")
    return [train(c) for c in configs]


def default_grid(task, seed=0, **overrides):
    """The standard row set for one task.

    All beta switch settings on the base stack; for self-attention tasks
    (those whose family takes dynamic conv) also the deformable rows at
    the two betas the cost story compares, plus the dynamic-conv row. A
    ``stack`` override gives only the beta rows, on that stack.
    """
    if not isinstance(task, str) or task not in DEFAULT_STACK:
        raise ContractViolation(f"no default grid for task {task!r}")
    base = DEFAULT_STACK[task]
    configs = [RunConfig(task=task, beta=b, seed=seed, **overrides) for b in ALL_BETAS]
    if base + "+dynamic" in FAMILIES[task].stacks and overrides.get("stack") is None:
        for b in ("0010", "1111"):
            configs.append(RunConfig(task=task, beta=b, seed=seed,
                                     stack=base + "+deformable", **overrides))
        configs.append(RunConfig(task=task, beta="0000", seed=seed,
                                 stack=base + "+dynamic", **overrides))
    return configs


def emit_results(records, path=None):
    """Write the result table as CSV; returns the text when path is None.

    Rows are sorted by (task, stack, beta, seed) so concurrent or
    reordered grids emit identical files.
    """
    ordered = sorted(records, key=lambda r: (r.task, r.stack, r.beta, r.seed))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in ordered:
        writer.writerow([r.task, r.stack, r.beta, repr(r.accuracy), r.macs,
                         f"{r.wall_ms:.3f}", r.seed, r.error or ""])
    text = buf.getvalue()
    if path is None:
        return text
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return None
