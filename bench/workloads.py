"""The benchmark's workloads: which grid cells each runs, with what recipe.

A workload is a list of grid cells run one after another in one process
(a closed loop with one client), each through ``attnlab.harness.train``
as ``attnlab grid`` runs it. The seed given to the benchmark becomes
``RunConfig.seed`` of every cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_MACS = Path(__file__).with_name("expected_macs.json")

# recipe of the minimal-length smoke run; it skips the accuracy gates
SMOKE_RECIPE = {"steps": 2, "batch_size": 2}
SMOKE_EVAL_SIZE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    cells: tuple  # (stack, beta) pairs
    why: str
    recipe: dict = field(default_factory=dict)  # RunConfig overrides
    task_options: dict = field(default_factory=dict)
    # criterion-07 gates apply when the cells run the task's full recipe
    gated: bool = False

    def cell_ids(self):
        return [f"{stack}/{beta}" for stack, beta in self.cells]

    def configs(self, seed, smoke=False):
        """RunConfig keyword dicts, one per cell."""
        recipe = SMOKE_RECIPE if smoke else self.recipe
        options = dict(self.task_options)
        if smoke:
            options["eval_size"] = SMOKE_EVAL_SIZE
        return [dict(task=self.task, stack=stack, beta=beta, seed=seed,
                     task_options=options, **recipe)
                for stack, beta in self.cells]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="copy-grid",
            task="permuted-copy",
            cells=tuple(("transformer", b) for b in
                        ["1000"] + [format(i, "04b") for i in range(8)]),
            gated=True,
            why="criterion-07 grid at its full recipe: n_q=1, n_k=6 "
                "cross-attention, bound by per-node tape overhead, "
                "per-sample forwards, sampler and optimizer; no conv",
        ),
        Workload(
            name="salient-576",
            task="salient-detection",
            cells=(("attended-block", "1111"), ("attended-block", "1000")),
            # batch 2 keeps the (n_q, n_k, d) tapes of 1111 near 0.8 GB; a
            # pass of about 3 s gives a run's median some ten passes
            recipe={"steps": 3, "batch_size": 2},
            task_options={"extent": (24, 24), "eval_size": 4},
            why="24x24 grid (N_s=576): the (n_q, n_k, d) positional gather "
                "and its np.add.at backward dominate time and memory",
        ),
        Workload(
            name="salient-conv",
            task="salient-detection",
            cells=(("attended-block+deformable", "0010"),
                   ("attended-block+deformable", "1111"),
                   ("attended-block+dynamic", "0000")),
            recipe={"steps": 12},  # a pass of about 2.5 s
            task_options={"eval_size": 40},
            why="6x6 conv rows of the salient grid: the deformable conv's "
                "Python-loop gathers and the dynamic conv, absent elsewhere",
        ),
    )
}


def expected_macs():
    """Per workload and cell, the forward MACs count_forward must report."""
    with open(EXPECTED_MACS, encoding="utf-8") as fh:
        return json.load(fh)
