"""Command-line interface.

Verbs:
  run <scenario>...   execute scenarios and write CSV/JSON artifacts
  sweep <scenario>    execute one convergence-sweep scenario
  validate <scenario>...  parse and validate without running
  catalogue           list the bundled scenario files

Exit codes: 0 all Pass, 1 any Fail, 2 usage or parse error, 3 Flagged only.
"""

from __future__ import annotations

import argparse
import sys
from importlib.resources import files

from .errors import ScenarioError, ValidationError
from .runner import TOLERANCE_PROFILES, RunSummary, Status, run_many, run_scenarios
from .scenario import ScenarioKind, parse_scenario


def _add_run_flags(sp: argparse.ArgumentParser):
    sp.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="report root directory (default: the scenario's outputs.directory)",
    )
    sp.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default=None,
        help="artifact format(s); default: the scenario's outputs.formats",
    )
    sp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N scenarios in parallel worker processes",
    )
    sp.add_argument(
        "--tolerance-profile",
        choices=sorted(TOLERANCE_PROFILES),
        default="default",
        dest="profile",
        help="named tolerance preset applied on top of scenario tolerances",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reclock",
        description="Clock-reparametrization covariance experiments "
        "(matched quantum/classical evolutions in two clocks).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", help="execute scenario files and write reports")
    run_p.add_argument("files", nargs="+", metavar="scenario")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="execute one convergence-sweep scenario")
    sweep_p.add_argument("file", metavar="scenario")
    _add_run_flags(sweep_p)

    val_p = sub.add_parser("validate", help="parse and validate scenario files")
    val_p.add_argument("files", nargs="+", metavar="scenario")

    sub.add_parser("catalogue", help="list bundled scenarios")
    return parser


def _resolve_formats(arg: str | None):
    if arg is None:
        return None
    if arg == "both":
        return ("csv", "json")
    return (arg,)


def _print_summary(summary: RunSummary):
    parts = [f"{summary.status.value:<7}", summary.name]
    parts.extend(f"{key}={value:.6e}" for key, value in summary.metrics.items())
    parts.append(f"({summary.wall_time_s:.2f}s)")
    print("  ".join(parts))
    if summary.detail:
        print(f"         {summary.detail}")


def _aggregate_exit(summaries) -> int:
    statuses = [s.status for s in summaries]
    if any(s is Status.FAIL for s in statuses):
        return 1
    if any(s is Status.FLAGGED for s in statuses):
        return 3
    return 0


def _cmd_run(args, run, items) -> int:
    """Execute ``items`` with ``run`` (run_many on paths, run_scenarios on scenarios)."""
    summaries = run(
        items,
        out_root=args.out,
        formats=_resolve_formats(args.format),
        profile=args.profile,
        jobs=args.jobs,
    )
    for summary in summaries:
        _print_summary(summary)
    return _aggregate_exit(summaries)


def _cmd_sweep(args) -> int:
    scenario = parse_scenario(args.file)
    if scenario.kind is not ScenarioKind.CONVERGENCE_SWEEP:
        print(
            f"error: {args.file}: sweep requires kind = convergence_sweep, "
            f"got {scenario.kind.value}",
            file=sys.stderr,
        )
        return 2
    return _cmd_run(args, run_scenarios, [scenario])


def _cmd_validate(paths) -> int:
    bad = 0
    for path in paths:
        try:
            scenario = parse_scenario(path)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            bad += 1
        else:
            print(f"ok: {scenario.name} ({scenario.kind.value})")
    return 2 if bad else 0


def catalogue_paths():
    """The bundled scenario files, sorted by file name."""
    root = files("reclock").joinpath("catalogue")
    return sorted(
        (entry for entry in root.iterdir() if entry.name.endswith(".scenario")),
        key=lambda entry: entry.name,
    )


def _cmd_catalogue() -> int:
    for entry in catalogue_paths():
        scenario = parse_scenario(str(entry))
        print(f"{scenario.name}\t{scenario.kind.value}\t{entry}")
    return 0


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, run_many, args.files)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args.files)
        return _cmd_catalogue()
    except ValidationError as exc:
        # Includes ScenarioError: a bad file exits 2 before any run starts.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
