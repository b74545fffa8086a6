"""Command-line interface.

Verbs:
  run <scenario>...       execute scenarios of any kind, convergence sweeps
                          included, and write CSV/JSON artifacts
  validate <scenario>...  parse and validate without running
  catalogue               list the bundled scenario files

Exit codes: 0 all Pass, 1 any Fail, 2 usage or parse error, 3 Flagged only.
"""

from __future__ import annotations

import argparse
import sys
from importlib.resources import files

from .errors import ScenarioError, ValidationError
from .scenario import parse_scenario, require_distinct_names

# Each --format choice and the artifact formats it writes.
_FORMATS = {"csv": ("csv",), "json": ("json",), "both": ("csv", "json")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reclock",
        description="Clock-reparametrization covariance experiments "
        "(matched quantum/classical evolutions in two clocks).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", help="execute scenario files and write reports")
    run_p.add_argument("files", nargs="+", metavar="scenario")
    run_p.add_argument(
        "--out",
        default="reports",
        metavar="DIR",
        help="report root directory (default: reports)",
    )
    run_p.add_argument(
        "--format",
        choices=_FORMATS,
        default="csv",
        help="artifact format(s) (default: csv)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N scenarios in parallel worker processes",
    )

    val_p = sub.add_parser("validate", help="parse and validate scenario files")
    val_p.add_argument("files", nargs="+", metavar="scenario")

    sub.add_parser("catalogue", help="list bundled scenarios")
    return parser


def _print_summary(summary):
    parts = [f"{summary.status.value:<7}", summary.name]
    parts.extend(f"{key}={value:.6e}" for key, value in summary.metrics.items())
    parts.append(f"({summary.wall_time_s:.2f}s)")
    print("  ".join(parts))
    if summary.detail:
        print(f"         {summary.detail}")


def _cmd_run(args) -> int:
    # Imported here: validate and catalogue load only the parser.
    from .runner import Status, run_many

    formats = _FORMATS[args.format]
    summaries = run_many(args.files, out_root=args.out, formats=formats, jobs=args.jobs)
    for summary in summaries:
        _print_summary(summary)
    statuses = {s.status for s in summaries}
    if Status.FAIL in statuses:
        return 1
    if Status.FLAGGED in statuses:
        return 3
    return 0


def _cmd_validate(paths) -> int:
    parsed = []
    for path in paths:
        try:
            scenario = parse_scenario(path)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"ok: {scenario.name} ({scenario.kind.value})")
            parsed.append((path, scenario))
    require_distinct_names(parsed)
    return 2 if len(parsed) < len(paths) else 0


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
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args.files)
        return _cmd_catalogue()
    except ValidationError as exc:
        # Includes ScenarioError: a bad file exits 2 before any run starts.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
