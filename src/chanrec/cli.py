"""Command-line front end.

Subcommands: ``assign`` (run a heuristic scheme), ``eval`` (recovery capacity
and feasibility of a given assignment), ``oracle`` (exact branch-and-bound),
``study`` (batch experiments to CSV plus a JSON summary).

Exit codes: 0 on success, 2 on usage or input format errors and on inputs
too large to allocate, 3 when an exact solve exhausts its leaf budget and
--strict was given.

All report output uses fixed 9-decimal floats so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from .assign import edge_color, greedy_assign, ifa_assign, random_assign, serialize_edge_coloring
from .experiments import (
    DEFAULT_MASTER_SEED,
    DEFAULT_STUDY_BUDGET,
    _csv_text,
    run_gap_study,
    run_scaling_study,
    run_traffic_study,
)
from .metrics import evaluate
from .netmodel import parse_assignment, parse_network, serialize_assignment
from .oracles import (
    DEFAULT_LEAF_BUDGET,
    solve_feasi_exact,
    solve_whiterec_exact,
    solve_whiterecinf_exact,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _render(obj, indent: int = 0) -> str:
    """JSON with insertion-order keys and fixed-precision floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(f"{pad}  {_render(v, indent + 2)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".9f")
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_network(path: str):
    with open(path) as fh:
        return parse_network(fh.read())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _cmd_assign(args: argparse.Namespace) -> int:
    net = _load_network(args.net)
    if args.alg == "greedy":
        y = greedy_assign(net)
    elif args.alg == "ifa":
        y = ifa_assign(net)
        if args.colors_out:
            _write_out(serialize_edge_coloring(edge_color(net)), args.colors_out)
    else:
        y = random_assign(net, args.seed)
    _write_out(serialize_assignment(y, net), args.out)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    net = _load_network(args.net)
    with open(args.assignment) as fh:
        y = parse_assignment(fh.read(), net)
    rec, feas = evaluate(net, y, args.k, mode=args.mode)
    report = rec.to_json_dict()
    report.update(feas.to_json_dict())
    _write_out(_render(report) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    net = _load_network(args.net)
    if args.problem == "whiterec":
        result = solve_whiterec_exact(net, args.k, limit=args.budget)
    elif args.problem == "whiterecinf":
        result = solve_whiterecinf_exact(net, args.k, limit=args.budget)
    else:
        result = solve_feasi_exact(net, limit=args.budget)
    _write_out(_render(result.to_json_dict(net)) + "\n", args.out)
    if args.strict and not result.proven_optimal:
        print("budget exhausted before optimality was proven", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    overrides = {}
    if args.degree_cap is not None:
        overrides["degree_cap"] = args.degree_cap
    if args.edge_prob is not None:
        overrides["edge_prob"] = args.edge_prob
    if args.capacity_range is not None:
        overrides["capacity_range"] = tuple(args.capacity_range)
    if args.demand_range is not None:
        overrides["demand_range"] = tuple(args.demand_range)
    common = dict(
        sizes=args.sizes,
        channel_counts=args.channels,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        spec_overrides=overrides or None,
    )
    if args.kind == "scaling":
        records, summary = run_scaling_study(k=args.k, **common)
    elif args.kind == "gap":
        records, summary = run_gap_study(
            k_values=args.k_values, budget=args.budget, **common
        )
    else:
        records, summary = run_traffic_study(budget=args.budget, **common)
    if args.out:
        _write_out(_csv_text(records), args.out)
    if args.summary or not args.out:
        _write_out(_render(summary) + "\n", args.summary)
    return EXIT_OK


# flags that apply to some values of a subcommand's selector only: per
# subcommand, the selector and, per flag, those values and the default
_SCOPED_FLAGS = {
    "assign": ("alg", {
        "seed": (("random",), DEFAULT_MASTER_SEED),
        "colors_out": (("ifa",), None),
    }),
    "oracle": ("problem", {"k": (("whiterec", "whiterecinf"), 1)}),
    "study": ("kind", {
        "k": (("scaling",), 2),
        "k_values": (("gap",), [1]),
        "budget": (("gap", "traffic"), DEFAULT_STUDY_BUDGET),
    }),
}


def _scope_flags(args: argparse.Namespace) -> None:
    """Give each scoped flag left out its default; refuse one given where it
    does not apply."""
    selector, flags = _SCOPED_FLAGS.get(args.command, ("", {}))
    for name, (values, default) in flags.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif getattr(args, selector) not in values:
            flag = "--" + name.replace("_", "-")
            raise ValueError(
                f"{flag} does not apply to --{selector} {getattr(args, selector)}"
            )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="chanrec",
        description="White-channel assignment and preemption recovery analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assign = sub.add_parser("assign", help="run an assignment scheme")
    p_assign.add_argument("--net", required=True, help="network JSON file")
    p_assign.add_argument(
        "--alg", required=True, choices=("greedy", "ifa", "random")
    )
    p_assign.add_argument(
        "--seed", type=int, help=f"random only (default {DEFAULT_MASTER_SEED})"
    )
    p_assign.add_argument("--out", default=None, help="output file (default stdout)")
    p_assign.add_argument(
        "--colors-out",
        default=None,
        help="with --alg ifa, also write the edge coloring here",
    )
    p_assign.set_defaults(fn=_cmd_assign)

    p_eval = sub.add_parser("eval", help="evaluate an assignment")
    p_eval.add_argument("--net", required=True)
    p_eval.add_argument("--assignment", required=True)
    p_eval.add_argument("--k", type=_positive_int, default=1)
    p_eval.add_argument("--mode", choices=("auto", "exact", "bracket"), default="auto")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(fn=_cmd_eval)

    p_oracle = sub.add_parser("oracle", help="exact solve by branch and bound")
    p_oracle.add_argument("--net", required=True)
    p_oracle.add_argument(
        "--problem", required=True, choices=("whiterec", "whiterecinf", "feasi")
    )
    p_oracle.add_argument(
        "--k", type=_positive_int, help="whiterec and whiterecinf only (default 1)"
    )
    p_oracle.add_argument("--budget", type=_positive_int, default=DEFAULT_LEAF_BUDGET)
    p_oracle.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if the budget runs out before optimality is proven",
    )
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_study = sub.add_parser("study", help="batch experiments")
    p_study.add_argument("--kind", required=True, choices=("scaling", "gap", "traffic"))
    p_study.add_argument("--sizes", type=_int_list, required=True)
    p_study.add_argument("--channels", type=_int_list, required=True)
    p_study.add_argument("--k", type=_positive_int, help="scaling only (default 2)")
    p_study.add_argument("--k-values", type=_int_list, help="gap only (default 1)")
    p_study.add_argument("--trials", type=_positive_int, default=10)
    p_study.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_study.add_argument(
        "--budget",
        type=_positive_int,
        help=f"gap and traffic only (default {DEFAULT_STUDY_BUDGET})",
    )
    p_study.add_argument("--jobs", type=_positive_int, default=1)
    p_study.add_argument("--degree-cap", type=int, default=None)
    p_study.add_argument("--edge-prob", type=float, default=None)
    p_study.add_argument("--capacity-range", type=float, nargs=2, default=None)
    p_study.add_argument("--demand-range", type=float, nargs=2, default=None)
    p_study.add_argument("--out", default=None, help="CSV output path (- for stdout)")
    p_study.add_argument("--summary", default=None, help="JSON summary path")
    p_study.set_defaults(fn=_cmd_study)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _scope_flags(args)
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError is an input too large for the host, such as bracket
        # mode's n x n edge-id table at a million nodes
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
