"""sdfmig benchmark: time to answer a designer's question, end to end and
layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: a single caller issues the next job
when the previous one returns. A round is the workload's fixed job list,
built from the seed and run in a seeded order; rounds repeat until
``--seconds`` have passed. Every answer is checked against its reference.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of one
round, that is of the whole job list), ``job_p50_ms``, ``job_tail_ms`` (the
11th-slowest job: the highest percentile with ten jobs beyond it),
``setup_s`` (median over several set-ups of import, input generation and one
untimed warm-up job) and ``peak_rss_mb``. ``fail_ratio`` is printed and
carried by ``attempted``/``failed``. Times are host times scaled to a
reference host speed, see ``hostspeed.py``; the raw figures are printed too.

``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced rounds (per round), with the tracing overhead; see
``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every answer matched its reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
TAIL_BEYOND = 10


def load_library() -> SimpleNamespace:
    """Import sdfmig afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "sdfmig" or m.startswith("sdfmig.")]:
        del sys.modules[name]
    lib = SimpleNamespace(sdfmig=importlib.import_module("sdfmig"))
    for name in ("errors", "graph", "analysis", "mpsoc", "transforms",
                 "migration", "scenario", "cli"):
        setattr(lib, name, importlib.import_module(f"sdfmig.{name}"))
    return lib


class Run:
    """Counts attempts and failures; reports the first failure in full."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        if not self.failures:
            print(f"FAILED: {message}", file=sys.stderr)
        self.failures.append(message)

    def job(self, job, call=None) -> float:
        """Run one job (through ``call`` when tracing), check its answer and
        return its host time in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            answer = call(job.run) if call else job.run()
        except Exception:  # a failed job is counted, and the loop goes on
            elapsed = perf_counter() - start
            self.fail(f"{job.label}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = perf_counter() - start
        problem = job.check(answer)
        if problem:
            self.fail(f"{job.label}: {problem}")
        return elapsed


def set_up(name: str, seed: int, workdir: Path, run: Run, clock):
    """Import, generate the inputs and run the warm-up job SETUP_REPS times;
    return the last set-up and the (raw seconds, scale factor) of each."""
    import workloads

    timed = []
    for rep in range(SETUP_REPS):
        mark = clock.mark()
        start = perf_counter()
        lib = load_library()
        rng = random.Random(seed)
        workload = workloads.WORKLOADS[name](lib, rng, workdir / f"setup{rep}")
        rng.shuffle(workload.jobs)
        run.job(workload.warmup)
        timed.append((perf_counter() - start, mark))
    clock.calibrate()
    return lib, workload, [(raw, clock.factor(mark)) for raw, mark in timed]


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND jobs beyond it: the value of
    the (TAIL_BEYOND + 1)-th slowest job, and its percentile rank."""
    if len(times) <= TAIL_BEYOND:
        return None
    ordered = sorted(times, reverse=True)
    return ordered[TAIL_BEYOND], 100.0 * (len(times) - TAIL_BEYOND) / len(times)


def run_round(jobs, run: Run, clock, call=None) -> list[tuple[float, float]]:
    """Run the job list once; return each job's raw seconds and scale factor."""
    timed = []
    for job in jobs:
        mark = clock.mark()
        timed.append((run.job(job, call), mark))
    clock.calibrate()
    return [(raw, clock.factor(mark)) for raw, mark in timed]


def timed_rounds(jobs, seconds: float, run: Run, clock, traced_round=None):
    """Run whole rounds for about ``seconds``. With ``traced_round``,
    alternate untraced rounds with calls of ``traced_round()``."""
    rounds, laps = [], []
    start = perf_counter()
    while True:
        lap = perf_counter()
        rounds.append(run_round(jobs, run, clock))
        if traced_round is not None:
            traced_round()
        laps.append(perf_counter() - lap)
        # Stop where the run ends closest to ``seconds``.
        if perf_counter() - start + statistics.median(laps) / 2 >= seconds:
            return rounds


def scaled_walls(rounds) -> list[float]:
    return [sum(raw * factor for raw, factor in r) for r in rounds]


def measure_untraced(workload, seconds, run, clock, setups):
    rounds = timed_rounds(workload.jobs, seconds, run, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = scaled_walls(rounds)
    job_times = [raw * factor for r in rounds for raw, factor in r]
    metrics = {"wall_s": statistics.median(walls),
               "job_p50_ms": statistics.median(job_times) * 1e3,
               "setup_s": statistics.median(raw * factor for raw, factor in setups),
               "peak_rss_mb": peak_rss_mb}
    found = tail(job_times)
    if found is None:
        print(f"job_tail_ms: no value, only {len(job_times)} jobs")
    else:
        metrics["job_tail_ms"] = found[0] * 1e3
        print(f"job_tail_ms is p{found[1]:.2f} of {len(job_times)} jobs "
              f"({TAIL_BEYOND} beyond it)")
    raw_walls = [sum(raw for raw, _ in r) for r in rounds]
    print(f"{len(rounds)} rounds of {len(workload.jobs)} jobs; scaled round wall_s "
          f"min {min(walls):.4f}, median {statistics.median(walls):.4f}, "
          f"max {max(walls):.4f}")
    print(f"raw host time: wall_s {statistics.median(raw_walls):.4f} s, setup_s "
          f"{statistics.median(raw for raw, _ in setups):.4f} s; calibration kernel "
          f"median {clock.median_kernel_s() * 1e3:.3f} ms against "
          f"{hostspeed.REFERENCE_S * 1e3:g} ms")
    return metrics


def measure_traced(lib, workload, seconds, run, clock, label):
    import tracing

    tracer = tracing.Tracer(lib)
    profiles, walls, counts, first = [], [], [], None

    def traced_round():
        nonlocal first
        tracer.reset()
        tracer.install()
        try:
            timed = run_round(workload.jobs, run, clock,
                              call=lambda fn: tracer.span(tracing.BENCH + ".job", fn))
        finally:
            tracer.remove()
        factors = [factor for _, factor in timed]
        profiles.append(tracing.round_profile(tracer.spans, factors))
        walls.append(profiles[-1]["wall_s"])
        calls = {k: v for k, v in profiles[-1].items() if k.endswith((".calls", ".errors"))}
        counts.append((calls, list(tracer.bound_sizes),
                       [r for _, r in tracer.simulations]))
        if first is None:
            first = (tracer.spans, tracer.simulations, tracer.bound_sizes)

    untraced_walls = scaled_walls(timed_rounds(workload.jobs, seconds, run, clock,
                                               traced_round))
    if any(c != counts[0] for c in counts[1:]):
        run.fail("per-round counts differ between traced rounds")

    spans, simulations, bound_sizes = first
    metrics = {k: statistics.fmean(p[k] for p in profiles) for k in profiles[0]}
    metrics.update(counts[0][0])
    events, cycles = tracing.count_events(lib, simulations)
    metrics["analysis.events"] = events
    metrics["analysis.sim_cycles"] = cycles
    metrics["analysis.us_per_event"] = (metrics["analysis.self_timed_ms"] * 1e3 / events
                                        if events else 0.0)
    metrics["transforms.bound_actors"] = sum(a for a, _ in bound_sizes)
    metrics["transforms.bound_channels"] = sum(c for _, c in bound_sizes)
    metrics["cli.self_ms"] = metrics["cli.self_s"] * 1e3
    metrics["trace.wall_s"] = statistics.fmean(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(untraced_walls)
    accounted = sum(metrics[f"{layer}.self_s"]
                    for layer in tracing.LAYERS + (tracing.BENCH,))
    print(f"{len(walls)} traced and {len(untraced_walls)} untraced rounds; "
          f"layer self times plus bench.self_s = {accounted:.6f} s, "
          f"traced wall_s = {metrics['trace.wall_s']:.6f} s")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{label}.json"
    span_file.write_text(json.dumps([s[:4] + [s[tracing.ERROR]] for s in spans]))
    print(f"raw spans of the first traced round (name, start, end, parent, error): "
          f"{span_file}")
    return metrics


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def baseline_for(name: str, trace: bool) -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    return workloads.get(name, {}).get("trace" if trace else "end_to_end", {})


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdfmig" / "__init__.py").is_file():
        print(f"error: no sdfmig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    label = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = OUT_DIR / label
    run = Run()
    clock = hostspeed.ScaledClock()
    try:
        lib, workload, setups = set_up(args.workload, args.seed, workdir, run, clock)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"closed loop, 1 caller, {args.seconds:g} s")
        if args.trace:
            measured = measure_traced(lib, workload, args.seconds, run, clock, label)
        else:
            measured = measure_untraced(workload, args.seconds, run, clock, setups)
        for problem in workload.final_check():
            run.fail(problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    baseline = baseline_for(args.workload, bool(args.trace))
    for spec in declared_metrics(bool(args.trace)):
        name, unit = spec["name"], spec["unit"]
        if name not in measured:
            continue
        metrics[name] = {"value": measured[name], "unit": unit}
        note = f"  (seed-commit median {baseline[name]:g})" if name in baseline else ""
        print(f"{name} = {measured[name]:.6g} {unit}{note}")
    failed = len(run.failures)
    print(f"fail_ratio = {failed / run.attempted:.6g} ({failed} of {run.attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
