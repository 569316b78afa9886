"""Span recording at the library's layer boundaries, from outside the library.

``Tracer.install`` swaps a span-recording wrapper into every ``sdfmig``
module attribute that holds one of the functions in ``WRAPPED``, which is
where the library looks them up when one module calls another (for example
``sdfmig.migration.build_bound_graph``). ``Tracer.remove`` puts the
originals back. Untraced runs never install anything.

A span is ``[name, start, end, parent, outermost, error]``; spans stay in
memory and are written once when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter

LAYERS = ("cli", "migration", "analysis", "transforms", "mpsoc", "graph", "scenario")
BENCH = "bench"  # root span of one job; its self time is the benchmark's own

# (module, function, span name); the layer is the span name's prefix.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("migration", "explore_single_migrations", "migration.explore"),
    ("migration", "migrate_task", "migration.migrate"),
    ("analysis", "self_timed_throughput", "analysis.self_timed"),
    ("analysis", "mcm_throughput", "analysis.mcm"),
    ("transforms", "build_bound_graph", "transforms.bind"),
    ("mpsoc", "validate_mapping", "mpsoc.validate_mapping"),
    ("mpsoc", "compute_etam", "mpsoc.etam"),
    ("mpsoc", "tdma_wait", "mpsoc.tdma_wait"),
    ("graph", "compute_repetition_vector", "graph.repetition"),
    ("graph", "validate", "graph.validate"),
    ("graph", "disable_auto_concurrency", "graph.auto_concurrency"),
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "save_scenario", "scenario.save"),
    ("scenario", "scenario_to_text", "scenario.save"),
    ("scenario", "emit_report", "scenario.emit"),
)

# Inclusive time of the outermost spans of one name, in ms per round.
INCLUSIVE_MS = ("analysis.self_timed", "analysis.mcm", "transforms.bind",
                "scenario.load", "scenario.save", "scenario.emit",
                "graph.repetition", "graph.validate", "mpsoc.validate_mapping",
                "mpsoc.etam", "migration.migrate")

NAME, START, END, PARENT, OUTERMOST, ERROR = range(6)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple] = []
        # Per round: (graph, result) of every self_timed_throughput call and
        # (actors, channels) of every bound graph.
        self.simulations: list[tuple] = []
        self.bound_sizes: list[tuple[int, int]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, depth == 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()
        self._depth[span[NAME]] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        except self.lib.errors.SdfmigError as exc:
            # Count an error only at the boundary it first crosses.
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                span[ERROR] = True
            raise
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name == "analysis.self_timed":
                self.simulations.append((args[0] if args else kwargs["graph"], result))
            elif name == "transforms.bind":
                self.bound_sizes.append((len(result.actors), len(result.channels)))
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.lib, m) for m in LAYERS] + [self.lib.sdfmig]
        for module_name, function, name in WRAPPED:
            original = getattr(getattr(self.lib, module_name), function)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        """Start a new round; the caller keeps what it needs of the old one."""
        self.spans = []
        self.simulations = []
        self.bound_sizes = []


def round_profile(spans: list[list], factors: list[float]) -> dict[str, float]:
    """Per-layer self time (s), calls and errors, inclusive times (ms), the
    self time of the exploration loop and the round's wall_s, for the spans of
    one round. The durations under the i-th job span are multiplied by
    ``factors[i]``, the job's host-speed scale factor."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    profile = {"wall_s": 0.0}
    for layer in LAYERS + (BENCH,):
        profile.update({f"{layer}.self_s": 0.0, f"{layer}.calls": 0, f"{layer}.errors": 0})
    profile.update({f"{name}_ms": 0.0 for name in INCLUSIVE_MS})
    profile["migration.explore_self_ms"] = 0.0
    jobs = iter(factors)
    for span, children in zip(spans, child_time):
        if span[PARENT] < 0:
            factor = next(jobs)
            profile["wall_s"] += (span[END] - span[START]) * factor
        layer = span[NAME].split(".", 1)[0]
        duration = (span[END] - span[START]) * factor
        children *= factor
        profile[f"{layer}.self_s"] += duration - children
        profile[f"{layer}.calls"] += 1
        profile[f"{layer}.errors"] += span[ERROR]
        if span[OUTERMOST] and span[NAME] in INCLUSIVE_MS:
            profile[f"{span[NAME]}_ms"] += duration * 1e3
        if span[NAME] == "migration.explore":
            profile["migration.explore_self_ms"] += (duration - children) * 1e3
    return profile


def count_events(lib, simulations) -> tuple[int, int]:
    """Stable states up to transient + period, counted with
    ``iterate_states``, and the simulated cycles transient + period, summed
    over the simulations of one round. Identical graphs are counted once and
    reused."""
    events = cycles = 0
    cache: dict = {}
    for graph, result in simulations:
        horizon = result.transient_cycles + result.period_cycles
        key = (tuple(sorted(graph.actors, key=lambda a: a.id)),
               tuple(sorted(graph.channels, key=lambda c: c.id)),
               graph.reference_actor)
        if key not in cache:
            states = lib.analysis.iterate_states(graph, max_states=10**9)
            cache[key] = sum(1 for _ in itertools.takewhile(
                lambda s: s.time <= horizon, states))
        events += cache[key]
        cycles += horizon
    return events, cycles
