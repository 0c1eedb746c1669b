"""Command line front end: `grid`, `flops`, and `check`."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .checks import run_checks
from .errors import ContractViolation
from .flops import emit_table
from .harness import (
    ALL_BETAS,
    TRAINING_DEFAULTS,
    RunConfig,
    default_grid,
    emit_results,
    run_grid,
)
from .models import switchless


def _parse_betas(text):
    if text == "all":
        return list(ALL_BETAS)
    return [b.strip() for b in text.split(",") if b.strip()]


def _grid_configs(args):
    """The run configs of the flags or of the --config file; raises
    ContractViolation, OSError or ValueError on a bad file."""
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, list):
            loaded = [loaded]
        configs = [RunConfig.from_dict(d) for d in loaded]
        if any(c.task != configs[0].task for c in configs):
            raise ContractViolation("--config lists runs of more than one task; "
                                    "a grid runs one task")
        return configs
    overrides = {name: getattr(args, name) for name in ("steps", "lr", "window", "stack")
                 if getattr(args, name) is not None}
    if args.betas is None:
        return default_grid(args.task, seed=args.seed, **overrides)
    betas = ("0000",) if switchless(args.stack) else _parse_betas(args.betas)
    return [RunConfig(task=args.task, beta=b, seed=args.seed, **overrides) for b in betas]


def _cmd_grid(args):
    try:
        configs = _grid_configs(args)
    except (OSError, ValueError) as exc:  # ContractViolation is a ValueError
        print(f"grid: {args.config}: {exc}", file=sys.stderr)
        return 2
    if not configs:
        print("grid: no run configs to run", file=sys.stderr)
        return 2
    # open --out first: an unwritable path must not cost a whole grid
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"grid: {args.out}: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        records = run_grid(configs[0].task, configs)
        emit_results(records, path=fh)
    failures = [r for r in records if r.failed]
    for r in failures:
        print(f"failed: {r.task} {r.stack} {r.beta}: {r.error}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_flops(args):
    try:
        ns = [int(v) for v in args.ns.split(",")]
        text = emit_table(ns, args.c, args.nk, args.ng, args.m, out=args.out or None)
    except (OSError, ValueError) as exc:  # ContractViolation is a ValueError
        print(f"flops: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_check(args):
    results = run_checks(names=args.only)
    width = max(len(name) for name, _ in results)
    failed = 0
    for name, err in results:
        if err is None:
            print(f"ok    {name}")
        else:
            failed += 1
            print(f"FAIL  {name:<{width}}  {err}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnlab",
        description="switched spatial attention: ablation grids, an exact "
                    "mac meter, and an invariant checker")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="run an ablation grid, emit CSV")
    grid.add_argument("--task", choices=tuple(TRAINING_DEFAULTS), default="permuted-copy")
    grid.add_argument("--stack", default=None,
                      help="e.g. attended-block+deformable (default: the "
                           "task's base stack)")
    grid.add_argument("--betas", default=None,
                      help="comma-separated switch strings, or 'all' "
                           "(default: the task's standard row set)")
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--steps", type=int, default=None)
    grid.add_argument("--lr", type=float, default=None)
    grid.add_argument("--window", type=int, default=None)
    grid.add_argument("--config", default=None,
                      help="JSON file with one run config or a list of them; "
                           "overrides the flags above")
    grid.add_argument("--out", default=None, help="CSV path (default stdout)")
    grid.set_defaults(fn=_cmd_grid)

    flops = sub.add_parser("flops", help="emit the complexity-meter CSV")
    flops.add_argument("--ns", default="64,128,256,512",
                       help="comma-separated spatial sizes")
    flops.add_argument("--c", type=int, default=16)
    flops.add_argument("--nk", type=int, default=9)
    flops.add_argument("--ng", type=int, default=4)
    flops.add_argument("--m", type=int, default=2)
    flops.add_argument("--out", default=None, help="CSV path (default stdout)")
    flops.set_defaults(fn=_cmd_flops)

    check = sub.add_parser("check", help="run the invariant suite")
    check.add_argument("--only", nargs="*", default=None,
                       help="subset of check names")
    check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
