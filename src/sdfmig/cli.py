"""Command-line front end.

Four commands: ``check`` (validate and dry-run a scenario), ``throughput``
(baseline frames per second), ``migrate`` (one task to hardware, before/after
report), ``explore`` (every software task in turn, ranked by gain).

Exit codes: 0 success, 1 scenario validation failure, 2 analysis error
(deadlock, inconsistency, state budget), 3 usage error (including
``--speedup``, ``--freq`` or ``--state-budget`` not positive and a negative
``--prefetch``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .analysis import DEFAULT_STATE_BUDGET, self_timed_throughput, to_frames_per_second
from .errors import (
    ScenarioParseError,
    ScenarioValidationError,
    SdfmigError,
    UnknownActorError,
)
from .graph import disable_auto_concurrency
from .migration import MigrationSpec, explore_single_migrations, migration_candidate
from .rational import parse_plain_integer, parse_rational
from .scenario import (
    ExplorationReport,
    Scenario,
    bundled_scenario_path,
    emit_report,
    list_bundled_scenarios,
    load_scenario,
)
from .transforms import build_bound_graph

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ANALYSIS = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _flag_type(parse, accepts, rule: str):
    """An argparse type: the flag's text read by ``parse`` (whose
    ``ValueError`` is the message), refused as ``{rule}, got '<text>'`` when
    ``accepts`` rejects the value."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return convert


_positive_rational = _flag_type(parse_rational, lambda v: v > 0, "must be positive")
_positive_int = _flag_type(parse_plain_integer, lambda v: v > 0, "must be positive")
_non_negative_int = _flag_type(parse_plain_integer, lambda v: v >= 0,
                               "must not be negative")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and the bundled scenarios it lists are package data."""
    parser = _Parser(prog="sdfmig",
                     description="Dataflow throughput analysis and "
                                 "software-to-hardware migration what-ifs.")
    commands = parser.add_subparsers(dest="command", required=True)
    scenario_help = ("scenario file path or bundled scenario name "
                     f"({', '.join(list_bundled_scenarios())})")

    def add_common(sub):
        sub.add_argument("scenario", help=scenario_help)
        sub.add_argument("--freq", type=_positive_rational, default=None,
                         help="clock frequency in Hz (default: scenario value, "
                              "usually 100e6)")
        sub.add_argument("--state-budget", type=_positive_int,
                         default=DEFAULT_STATE_BUDGET,
                         help="max distinct execution states to explore")

    check = commands.add_parser("check", help="validate a scenario and dry-run "
                                              "its analysis")
    add_common(check)

    throughput = commands.add_parser("throughput", help="baseline throughput")
    add_common(throughput)

    migrate = commands.add_parser("migrate", help="migrate one task to hardware")
    add_common(migrate)
    migrate.add_argument("--task", required=True, help="actor to migrate")
    explore = commands.add_parser("explore", help="rank all single-task migrations")
    add_common(explore)
    for sub in (migrate, explore):
        sub.add_argument("--speedup", type=_positive_rational,
                         help="hardware speedup factor (default: the scenario's "
                              "<defaults>, else 2)")
        sub.add_argument("--prefetch", type=_non_negative_int,
                         help="prefetch issue time in cycles (default: the "
                              "scenario's <defaults>, else 10000)")
        sub.add_argument("--format", choices=("text", "csv"), default="text")

    return parser


def _resolve_scenario(argument: str) -> Path:
    path = Path(argument)
    if path.exists():
        return path
    try:
        return bundled_scenario_path(argument)
    except FileNotFoundError:
        raise _UsageError(f"no such scenario file or bundled scenario: {argument}")


def _bound(scenario: Scenario):
    if scenario.platform is not None and scenario.mapping is not None:
        return build_bound_graph(scenario.graph, scenario.platform, scenario.mapping)
    return disable_auto_concurrency(scenario.graph)


def _spec_from_args(scenario: Scenario, args) -> MigrationSpec:
    """The scenario's defaults with the fields given on the command line."""
    given = {"speedup": args.speedup, "prefetch_time": args.prefetch}
    return replace(scenario.defaults,
                   **{name: value for name, value in given.items() if value is not None})


def run(args, out) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    clock = args.freq if args.freq is not None else scenario.clock_hz

    if args.command in ("check", "throughput"):
        result = self_timed_throughput(_bound(scenario),
                                       state_budget=args.state_budget)
        out.write(f"scenario: {scenario.name}\n")
        if args.command == "check":
            out.write("validation: ok\n")
            out.write(f"periodic phase: {result.period_cycles} cycles, "
                      f"{result.reference_firings_per_period} firing(s) of "
                      f"{result.reference_actor}\n")
        else:
            out.write(f"throughput: {to_frames_per_second(result, clock)} f/s\n")
        return EXIT_OK

    if scenario.platform is None or scenario.mapping is None:
        question = "migration" if args.command == "migrate" else "exploration"
        raise ScenarioValidationError(
            f"{question} needs a scenario with a platform and a mapping")
    mapped = (scenario.graph, scenario.platform, scenario.mapping)
    spec = _spec_from_args(scenario, args)
    if args.command == "migrate":
        baseline = self_timed_throughput(build_bound_graph(*mapped),
                                         state_budget=args.state_budget)
        candidates = [migration_candidate(*mapped, replace(spec, actor=args.task),
                                          baseline, clock, args.state_budget)]
    else:
        baseline, candidates = explore_single_migrations(
            *mapped, spec, clock_hz=clock, state_budget=args.state_budget)
    report = ExplorationReport(scenario=scenario.name, clock_hz=clock,
                               baseline=baseline, candidates=tuple(candidates))
    out.write(emit_report(report, format=args.format).decode())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args, sys.stdout)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnknownActorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SdfmigError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
