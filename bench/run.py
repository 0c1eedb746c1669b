"""attnlab benchmark: grid workloads timed end to end, layers traced apart.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports attnlab from ``src``. NAME
is a workload of ``bench/workloads.py`` or ``all``. Each workload runs in
its own process (``bench/worker.py``) with the BLAS thread count fixed,
under a wall-clock limit; a cell that hangs or fails is counted, never
fatal.

--trace 0  prints the end-to-end metrics: set-up time (median of
           SETUP_REPEATS fresh processes), then passes over the grid
           cells for S seconds, reported as medians over passes.
--trace 1  prints the per-layer metrics of one traced pass, with the
           tracing overhead over an untraced pass of the same cells.
--smoke    runs every cell for two steps only, for the tests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run's environment, cell
results and metrics are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "forward_macs": "MAC",
}

SETUP_REPEATS = 9
# one workload's run, set-up probes included, ends within this
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in BLAS_VARS})
    return env


def run_worker(mode, args, deadline):
    """Run the worker to completion or the deadline; its lines, and
    whether it ended cleanly."""
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env())
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"{mode} process killed at the {RUN_LIMIT_S:.0f} s limit",
              file=sys.stderr)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return lines, proc.returncode == 0


def of_type(lines, kind):
    return [line for line in lines if line["type"] == kind]


def measure(args):
    """One workload's result: verdict, counts, metrics and the record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    attempted = failed = 0
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            lines, ok = run_worker("setup", args, deadline)
            found = of_type(lines, "setup")
            if ok and found:
                setups.append(found[0]["seconds"])
            else:
                attempted, failed = attempted + 1, failed + 1
    lines, ok = run_worker("trace" if args.trace else "run", args, deadline)
    cells, passes = of_type(lines, "cell"), of_type(lines, "pass")
    end = of_type(lines, "end")
    attempted += len(cells)
    failed += sum(not c["ok"] for c in cells)
    if not (ok and end):
        # the process died or was killed inside a cell
        attempted, failed = attempted + 1, failed + 1
    mismatches = []
    if args.trace:
        trace = of_type(lines, "trace")
        mismatches = trace[0]["mac_mismatches"] if trace else ["no trace"]
        values = trace[0]["metrics"] if trace else {}
        units = metric_units()
    else:
        values = end_to_end(setups, passes, end)
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    return {
        "correct": failed == 0 and not mismatches,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "failures": [f"{c['cell']}: {c['reason']}" for c in cells if not c["ok"]]
        + mismatches,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "env": end[0]["env"] if end else None,
    }


def end_to_end(setups, passes, end):
    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": median(setups),
        "grid_s": median([p["wall_s"] for p in passes]),
        "train_samples_per_s": median([p["train_samples"] / p["train_s"]
                                       for p in passes if p["train_s"] > 0]),
        "eval_samples_per_s": median([p["eval_samples"] / p["eval_s"]
                                      for p in passes if p["eval_s"] > 0]),
        "peak_rss_mb": end[0]["peak_rss_mb"] if end else 0.0,
        "forward_macs": passes[0]["forward_macs"] if passes else 0,
    }


def report(workload, args, result):
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"workload {workload}  seed {args.seed}  trace {int(args.trace)}  "
          f"passes {result['passes']}  cells attempted {result['attempted']}  "
          f"failed {result['failed']}  verdict {verdict}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for line in result["failures"]:
        print(f"  failure: {line}")
    print(f"  env: {json.dumps(result['env'])}")
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    with open(OUT / f"{workload}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": args.seed,
                   "seconds": args.seconds, **result}, fh, indent=2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not Path("src/attnlab/__init__.py").is_file():
        print("no src/attnlab here: run from the root of an attnlab checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        results[name] = measure(args)
        report(name, args, results[name])
    if len(names) == 1:
        metrics = results[name]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
