"""Write the golden answers that the benchmark checks against.

Run once, from the root of a checkout of the commit that defines the
benchmark:

    python3 perfbench/capture_golden.py

It records every explore report of the explore_mjpeg grid, and the
transient and period of every graph the long_transient generators can
produce for any seed. Re-running it on a later commit would hide a changed
answer, so it is not part of a benchmark run.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, load_library

import generators as gen
import workloads


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    lib = load_library()
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)

    explore = {}
    for point in workloads.explore_grid():
        argv = ["explore", "mjpeg_base", "--speedup", point[0],
                "--prefetch", point[1], "--format", point[2]]
        code, text = workloads.run_cli(lib, argv)
        if code != 0:
            raise SystemExit(f"explore {point} exited with {code}")
        explore[workloads.explore_key(*point)] = text

    transient = {}
    for t, eps in gen.NEAR_TIE_BASES:
        for offset in range(gen.NEAR_TIE_OFFSETS):
            result = lib.analysis.self_timed_throughput(
                gen.near_tie_pair(lib, t + offset, eps))
            transient[workloads.pair_key(t + offset, eps)] = [
                result.transient_cycles, result.period_cycles]
    for a, b, c in gen.TRIANGLES:
        for scale in gen.TRIANGLE_SCALES:
            result = lib.analysis.self_timed_throughput(gen.triangle(lib, a, b, c, scale))
            transient[workloads.triangle_key(a, b, c, scale)] = [
                result.transient_cycles, result.period_cycles]

    for name, table in (("explore_mjpeg", explore), ("long_transient", transient)):
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(table)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
