"""Workload process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py --mode setup|run|trace --workload NAME
        --seed N [--seconds S] [--smoke]

It needs the checkout's ``src`` on PYTHONPATH and runs from the checkout
root. It writes one JSON object per line to stdout: ``setup`` (setup
mode), ``cell`` for each grid cell run, ``pass`` for each pass over the
workload's cells, ``trace`` with the per-layer metrics (trace mode) and
a final ``end`` with the peak RSS of the process and its environment.

setup  times the import of attnlab plus task, eval-set and model
       construction for every cell.
run    runs passes over the cells until the next one would end after
       ``--seconds``; at least one.
trace  runs one untraced pass, then one pass with every span recorded,
       and writes the spans to ``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

from spans import Recorder, forward_mac_split, layer_metrics
from workloads import WORKLOADS, expected_macs

OUT = Path(__file__).resolve().parent / "out"
# a cell still running after this long counts as hung and fails
CELL_LIMIT_S = 60.0
ACCURACY_SOLVED = 0.95  # criterion 07: the '1000' cell
ACCURACY_BOUND_GAP = 0.10  # criterion 07: other cells vs the fixed-position bound


class CellTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CellTimeout(f"cell ran longer than {CELL_LIMIT_S:.0f} s")


def emit(kind, **fields):
    print(json.dumps({"type": kind, **fields}), flush=True)


def setup_seconds(workload, seed, smoke):
    start = time.perf_counter()
    import attnlab  # imported here: the import is part of set-up time

    for kw in workload.configs(seed, smoke):
        cfg = attnlab.RunConfig(**kw).resolved()
        task = attnlab.make_task(cfg.task, seed=cfg.seed, **cfg.task_options)
        task.eval_set()
        attnlab.build_model(task, cfg.stack, cfg.beta, seed=cfg.seed,
                            heads=cfg.heads, window=cfg.window,
                            n_groups=cfg.n_groups)
    return time.perf_counter() - start


class CellMeter:
    """Times train_model and evaluate under the names harness.train calls."""

    def __init__(self, harness):
        self.harness = harness
        self.reset()

    def reset(self):
        self.train_s = self.eval_s = 0.0
        self.train_samples = self.eval_samples = 0
        self.loss = None

    def __enter__(self):
        self._saved = (self.harness.train_model, self.harness.evaluate)
        train_model, evaluate = self._saved
        signature = inspect.signature(train_model)

        def timed_train(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            start = time.perf_counter()
            self.loss = train_model(*args, **kwargs)
            self.train_s += time.perf_counter() - start
            self.train_samples += bound.arguments["steps"] * bound.arguments["batch_size"]
            return self.loss

        def timed_evaluate(model, task):
            start = time.perf_counter()
            accuracy = evaluate(model, task)
            self.eval_s += time.perf_counter() - start
            self.eval_samples += len(task.eval_set())
            return accuracy

        self.harness.train_model = timed_train
        self.harness.evaluate = timed_evaluate
        return self

    def __exit__(self, *exc):
        self.harness.train_model, self.harness.evaluate = self._saved


def cell_failure(record, meter, want_macs, gate):
    """Why a finished cell failed, or None."""
    if record.error is not None:
        return record.error
    if meter.loss is None or not math.isfinite(meter.loss):
        return f"final training loss {meter.loss} is not finite"
    if record.macs != want_macs:
        return f"forward MACs {record.macs} differ from the recorded {want_macs}"
    if gate is not None:
        return gate(record)
    return None


def copy_gate(bound):
    """The criterion-07 accuracy gates at this seed's fixed-position bound."""

    def gate(record):
        if record.beta == "1000":
            if record.accuracy < ACCURACY_SOLVED:
                return f"accuracy {record.accuracy:.3f} < {ACCURACY_SOLVED}"
        elif abs(record.accuracy - bound) > ACCURACY_BOUND_GAP:
            return (f"accuracy {record.accuracy:.3f} is more than "
                    f"{ACCURACY_BOUND_GAP} from the bound {bound:.3f}")
        return None

    return gate


def run_pass(attnlab, workload, configs, want, gate, index, recorder=None):
    """Run every cell once; emit a line per cell and one for the pass."""
    harness = sys.modules["attnlab.harness"]
    totals = {"train_s": 0.0, "eval_s": 0.0, "train_samples": 0,
              "eval_samples": 0, "forward_macs": 0, "cells": 0, "failed": 0}
    records = {}
    start = time.perf_counter()
    with CellMeter(harness) as meter:
        for cell_id, kw in zip(workload.cell_ids(), configs):
            meter.reset()
            if recorder is not None:
                recorder.cell = cell_id
            signal.setitimer(signal.ITIMER_REAL, CELL_LIMIT_S)
            try:
                record = harness.train(attnlab.RunConfig(**kw))
                reason = cell_failure(record, meter, want[cell_id], gate)
            except Exception as exc:  # a cell that raises is a failed cell
                record, reason = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            records[cell_id] = record
            totals["cells"] += 1
            totals["failed"] += reason is not None
            for key in ("train_s", "eval_s", "train_samples", "eval_samples"):
                totals[key] += getattr(meter, key)
            if record is not None:
                totals["forward_macs"] += record.macs
            emit("cell", cell=cell_id, ok=reason is None, reason=reason,
                 accuracy=None if record is None else record.accuracy,
                 macs=None if record is None else record.macs,
                 train_s=meter.train_s, eval_s=meter.eval_s, passno=index)
    emit("pass", index=index, wall_s=time.perf_counter() - start, **totals)
    return time.perf_counter() - start, records


def environment(seed, cpus):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(cpus), "pinned_cpu": cpus[-1],
            "machine": platform.machine()}


def trace_metrics(recorder, records, untraced_s, traced_s):
    """Per-layer metrics plus the check that forward MACs add up."""
    metrics = layer_metrics(recorder.spans)
    split = forward_mac_split(recorder.spans)
    mismatches = []
    for cell_id, record in records.items():
        layer, rest = split.get(cell_id, (0, 0))
        if record is None or layer + rest != record.macs:
            mismatches.append(
                f"{cell_id}: layer MACs {layer} + un-spanned {rest} != "
                f"count_forward {None if record is None else record.macs}")
    metrics["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    metrics["trace.unspanned_macs"] = sum(rest for _, rest in split.values())
    metrics["trace.spans"] = len(recorder.spans)
    return metrics, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # one fixed core: moved between cores, a run's speed follows whichever
    # core other processes are loading at the time
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    if args.mode == "setup":
        emit("setup", seconds=setup_seconds(workload, args.seed, args.smoke))
        return 0

    # a warm-up: imports, lazy numpy paths and the task generators
    setup_seconds(workload, args.seed, args.smoke)
    import attnlab

    src = (Path.cwd() / "src").resolve()
    if src not in Path(attnlab.__file__).resolve().parents:
        print(f"attnlab was imported from {attnlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    configs = workload.configs(args.seed, args.smoke)
    want = expected_macs()[workload.name]
    gate = None
    if workload.gated and not args.smoke:
        eval_set = attnlab.make_task(workload.task, seed=args.seed,
                                     **workload.task_options).eval_set()
        gate = copy_gate(attnlab.fixed_position_bound(eval_set))

    if args.mode == "run":
        start = time.perf_counter()
        index = 0
        while True:
            wall_s, _ = run_pass(attnlab, workload, configs, want, gate, index)
            index += 1
            if time.perf_counter() - start + wall_s > args.seconds:
                break
    else:
        untraced_s, _ = run_pass(attnlab, workload, configs, want, gate, 0)
        recorder = Recorder()
        with recorder.instrument():
            traced_s, records = run_pass(attnlab, workload, configs, want,
                                         gate, 1, recorder)
        metrics, mismatches = trace_metrics(recorder, records, untraced_s,
                                            traced_s)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"{workload.name}.spans.jsonl")
        emit("trace", metrics=metrics, mac_mismatches=mismatches)
    emit("end", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         env=environment(args.seed, cpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
