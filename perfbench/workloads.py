"""The four benchmark workloads: their job lists and the reference each
answer is checked against.

A workload is built from the imported library (``lib``), a seeded
``random.Random`` and a scratch directory. It exposes ``jobs`` (the fixed
job list of one round, in canonical order), ``warmup`` (the untimed job run
during set-up) and ``final_check()`` (checks run once, untimed, after the
timed loop). A job's ``run`` calls the library through module attributes at
call time, so the tracing wrappers see every call.

Which ROADMAP optimisation each workload exercises, and which one it
bypasses, so that a change shows on one workload and stays flat on another:

    optimisation             exercised by       bypassed by
    worklist settle          explore_mjpeg      mcm_homogeneous
    recurrence keys          long_transient     scenario_bind
    Howard policy iteration  mcm_homogeneous    explore_mjpeg
    binding representation   scenario_bind      mcm_homogeneous

BENCHMARK.json gives the reason each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generators as gen

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    # Returns None when the answer matches its reference, else a message.
    check: Callable[[object], str | None]


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Job
    final_check: Callable[[], list[str]] = field(default=lambda: [])


def _load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


# --- explore_mjpeg ---------------------------------------------------------

EXPLORE_SPEEDUPS = ("2", "4")
EXPLORE_PREFETCH = ("5000", "10000", "20000")
EXPLORE_FORMATS = ("text", "csv")
DEFAULT_POINT = ("2", "10000")

# The acceptance numbers of the case study: baseline 13.91 f/s, IZZ 28.42
# (+14.51), IQ 18.02 (+4.11), IDCT 17.40 (+3.49), VLD 14.33 (+0.42), CC and
# RE +0.00.
ACCEPTANCE = {
    "text": "scenario: mjpeg_base\n"
            "throughput without migration (f/s): 13.91\n"
            "\n"
            "actor  with migration (f/s)  gain (f/s)\n"
            "IZZ                   28.42       14.51\n"
            "IQ                    18.02        4.11\n"
            "IDCT                  17.40        3.49\n"
            "VLD                   14.33        0.42\n"
            "CC                    13.91        0.00\n"
            "RE                    13.91        0.00\n",
    "csv": "actor,fps_before,fps_after,gain_fps\n"
           "IZZ,13.91,28.42,14.51\n"
           "IQ,13.91,18.02,4.11\n"
           "IDCT,13.91,17.40,3.49\n"
           "VLD,13.91,14.33,0.42\n"
           "CC,13.91,13.91,0.00\n"
           "RE,13.91,13.91,0.00\n",
}


def explore_grid():
    return [(s, p, f) for s in EXPLORE_SPEEDUPS for p in EXPLORE_PREFETCH
            for f in EXPLORE_FORMATS]


def explore_key(speedup: str, prefetch: str, fmt: str) -> str:
    return f"{speedup} {prefetch} {fmt}"


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def explore_mjpeg(lib, rng, workdir: Path) -> Workload:
    golden = _load_golden("explore_mjpeg")
    jobs = []
    for speedup, prefetch, fmt in explore_grid():
        argv = ["explore", "mjpeg_base", "--speedup", speedup,
                "--prefetch", prefetch, "--format", fmt]
        expected = golden[explore_key(speedup, prefetch, fmt)]
        if (speedup, prefetch) == DEFAULT_POINT and expected != ACCEPTANCE[fmt]:
            raise RuntimeError("golden default explore report differs from "
                               "the acceptance numbers")

        def check(answer, expected=expected):
            code, text = answer
            if code != 0:
                return f"exit code {code}"
            return None if text == expected else "report differs from golden"

        jobs.append(Job(" ".join(argv[2:]), lambda argv=argv: run_cli(lib, argv), check))
    default = next(j for j in jobs if j.label == "--speedup 2 --prefetch 10000 --format text")
    return Workload(jobs=jobs, warmup=default)


# --- long_transient --------------------------------------------------------

def pair_key(t: int, eps: int) -> str:
    return f"pair {t} {eps}"


def triangle_key(a: int, b: int, c: int, scale: int) -> str:
    return f"triangle {a} {b} {c} {scale}"


def long_transient(lib, rng, workdir: Path) -> Workload:
    golden = _load_golden("long_transient")
    cases = []  # (key, graph, closed-form throughput)
    for t, eps in gen.near_tie_params(rng):
        cases.append((pair_key(t, eps), gen.near_tie_pair(lib, t, eps), Fraction(1, t)))
    for a, b, c, scale in gen.triangle_params(rng):
        ex, ey, ez = gen.triangle_times(a, b, c, scale)
        cases.append((triangle_key(a, b, c, scale), gen.triangle(lib, a, b, c, scale),
                      Fraction(1, max(a * ex, b * ey, c * ez))))
    jobs = []
    for key, graph, closed_form in cases:
        transient, period = golden[key]

        def check(result, closed_form=closed_form, transient=transient, period=period):
            if result.iterations_per_cycle != closed_form:
                return f"throughput {result.iterations_per_cycle} != {closed_form}"
            if (result.transient_cycles, result.period_cycles) != (transient, period):
                return (f"transient/period {result.transient_cycles}/"
                        f"{result.period_cycles} != golden {transient}/{period}")
            return None

        jobs.append(Job(key, lambda g=graph: lib.analysis.self_timed_throughput(g), check))
    return Workload(jobs=jobs, warmup=jobs[0])


# --- mcm_homogeneous -------------------------------------------------------

def planted_value(graph) -> Fraction:
    """Throughput of a ``planted_graph``: one over its total execution time."""
    return Fraction(1, sum(a.exec_time for a in graph.actors))


def mcm_homogeneous(lib, rng, workdir: Path) -> Workload:
    cases = [(f"ring {n}", gen.planted_graph(lib, rng, n, chords=False))
             for n in gen.MCM_RING_SIZES]
    cases += [(f"graph {n}", gen.planted_graph(lib, rng, n, chords=True))
              for n in gen.MCM_GRAPH_SIZES]
    jobs = []
    for label, graph in cases:
        planted = planted_value(graph)

        def check(value, planted=planted):
            return None if value == planted else f"mcm {value} != planted {planted}"

        jobs.append(Job(label, lambda g=graph: lib.analysis.mcm_throughput(g), check))

    def final_check() -> list[str]:
        # The simulator is the reference route; run it once per graph after
        # the timed loop so it never counts in the timings.
        # Every timed answer already equals the planted value.
        failures = []
        for label, graph in cases:
            simulated = lib.analysis.self_timed_throughput(graph).iterations_per_cycle
            if simulated != planted_value(graph):
                failures.append(f"{label}: simulated {simulated} != mcm "
                                f"{planted_value(graph)}")
        return failures

    return Workload(jobs=jobs, warmup=jobs[0], final_check=final_check)


# --- scenario_bind ---------------------------------------------------------

def bind_job(lib, path: Path):
    scenario = lib.scenario.load_scenario(path)
    bound = lib.transforms.build_bound_graph(scenario.graph, scenario.platform,
                                             scenario.mapping)
    lib.graph.compute_repetition_vector(bound)
    diagnostics = lib.graph.validate(bound)
    return diagnostics, lib.scenario.scenario_to_text(scenario)


def scenario_bind(lib, rng, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i in range(gen.SCENARIO_COUNT):
        name = f"bind{i:02d}"
        text = gen.random_scenario_xml(rng, name, *gen.scenario_shape(i))
        path = workdir / f"{name}.xml"
        path.write_text(text, encoding="utf-8")

        def check(answer, text=text):
            diagnostics, saved = answer
            if diagnostics:
                return f"bound graph has diagnostics: {diagnostics[0]}"
            return None if saved == text else "save after load is not byte-identical"

        jobs.append(Job(name, lambda p=path: bind_job(lib, p), check))
    return Workload(jobs=jobs, warmup=jobs[0])


WORKLOADS = {
    "explore_mjpeg": explore_mjpeg,
    "long_transient": long_transient,
    "mcm_homogeneous": mcm_homogeneous,
    "scenario_bind": scenario_bind,
}
