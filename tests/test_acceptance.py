"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

from helpers import (
    oracle_throughput,
    random_consistent_graph,
    random_homogeneous_graph,
    random_scenario,
    with_exec_times,
)
from sdfmig.analysis import (
    mcm_throughput,
    self_timed_throughput,
    to_frames_per_second,
)
from sdfmig.graph import ActorKind, validate
from sdfmig.migration import MigrationSpec, migrate_task
from sdfmig.mpsoc import compute_etam
from sdfmig.scenario import (
    Scenario,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
    save_scenario,
)
from sdfmig.transforms import build_bound_graph, connection_actor_time

CLOCK = Fraction(100_000_000)


def _verdict(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def mjpeg():
    return load_scenario(bundled_scenario_path("mjpeg_base"))


def test_criterion_1_etam_reproduction():
    s = mjpeg()
    start = time.perf_counter()
    etam = compute_etam(s.graph, s.platform, s.mapping)
    elapsed = time.perf_counter() - start
    expected = {"VLD": 2132463, "IZZ": 74791, "IQ": 139582, "IDCT": 109165,
                "CC": 154374, "RE": 912484}
    _verdict(1, "after-mapping execution times match the case study exactly",
             etam == expected and elapsed < 0.001,
             f"{elapsed * 1e6:.0f}us")


def test_criterion_2_connection_actor_time():
    s = mjpeg()
    start = time.perf_counter()
    first = connection_actor_time(1024, s.platform.connection("n1"))
    second = connection_actor_time(512, s.platform.connection("n2"))
    elapsed = time.perf_counter() - start
    _verdict(2, "connection send times are 252047 for both chains",
             first == 252047 and second == 252047 and elapsed < 0.001,
             f"{first}/{second}, {elapsed * 1e6:.0f}us")


def test_criterion_3_migration_arithmetic():
    s = mjpeg()
    vld = migrate_task(s.graph, s.platform, s.mapping, MigrationSpec(actor="VLD"))
    idct = migrate_task(s.graph, s.platform, s.mapping, MigrationSpec(actor="IDCT"))
    vld_times = {a.id: a.exec_time for a in vld.graph.actors}
    idct_times = {a.id: a.exec_time for a in idct.graph.actors}
    checks = {
        "VLD hardware time": vld_times["VLD"] == 1041231,
        "IDCT hardware time": idct_times["IDCT"] == 49582,
        "memory actor time": vld_times["IZZ_m1"] == 262047
                             and idct_times["CC_m1"] == 262047,
        "post-migration waits": idct_times["as_izz_iq"] == 0
                                and idct_times["as_iq_idct"] == 0,
    }
    detail = ", ".join(k for k, ok in checks.items() if not ok)
    _verdict(3, "migration arithmetic is exact", all(checks.values()), detail)


def test_criterion_4_case_study_throughputs():
    s = mjpeg()
    targets = {"baseline": Decimal("13.6"), "vld_migrated": Decimal("15.58"),
               "idct_migrated": Decimal("17.23")}
    computed = {}
    runtimes = {}

    start = time.perf_counter()
    base = self_timed_throughput(build_bound_graph(s.graph, s.platform, s.mapping))
    runtimes["baseline"] = time.perf_counter() - start
    computed["baseline"] = to_frames_per_second(base, CLOCK)
    for label, task in (("vld_migrated", "VLD"), ("idct_migrated", "IDCT")):
        start = time.perf_counter()
        migrated = migrate_task(s.graph, s.platform, s.mapping,
                                MigrationSpec(actor=task))
        result = self_timed_throughput(migrated.graph)
        runtimes[label] = time.perf_counter() - start
        computed[label] = to_frames_per_second(result, CLOCK)

    tolerance_ok = {}
    for label, target in targets.items():
        within = abs(computed[label] - target) <= Decimal("0.5")
        documented = f"divergence: {label}" in s.description
        tolerance_ok[label] = within or documented
    ordering = (computed["idct_migrated"] > computed["vld_migrated"]
                > computed["baseline"])
    fast_enough = all(t < 30 for t in runtimes.values())
    detail = ", ".join(f"{label}={computed[label]}" for label in targets)
    _verdict(4, "case-study throughputs within 0.5 f/s or documented, "
                "gain ordering strict",
             all(tolerance_ok.values()) and ordering and fast_enough, detail)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(1005)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        graph = random_homogeneous_graph(rng)
        simulated = self_timed_throughput(graph).iterations_per_cycle
        analytical = mcm_throughput(graph)
        assert simulated == analytical == oracle_throughput(graph)
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(5, "simulation equals 1/MCM exactly on 200 random graphs",
             checked == 200 and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_6_monotonicity_and_scaling():
    rng = random.Random(1006)
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        graph = random_consistent_graph(rng, max_actors=5)
        base = self_timed_throughput(graph).iterations_per_cycle
        victim = rng.choice(graph.actors)
        if victim.exec_time > 0:
            reduced = with_exec_times(
                graph, {victim.id: rng.randrange(victim.exec_time)})
            assert self_timed_throughput(reduced).iterations_per_cycle >= base
        for k in (2, 3, 5):
            scaled = with_exec_times(
                graph, {a.id: a.exec_time * k for a in graph.actors})
            assert self_timed_throughput(scaled).iterations_per_cycle == base / k
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(6, "execution-time monotonicity and exact scaling on 100 graphs",
             checked == 100, f"{elapsed:.1f}s")


def test_criterion_7_structural_invariants():
    rng = random.Random(1007)
    locality_checked = consistency_checked = 0
    while consistency_checked < 30:
        graph, platform, mapping = random_scenario(rng)
        candidates = [a for a in graph.actors
                      if a.kind == ActorKind.SOFTWARE and mapping.tdma_slice.get(a.id)]
        if not candidates:
            continue
        victim = rng.choice(candidates)
        result = migrate_task(graph, platform, mapping,
                              MigrationSpec(actor=victim.id))
        assert validate(result.graph) == []
        consistency_checked += 1
        slice_ = mapping.tdma_slice[victim.id]
        tile = mapping.actor_tile.get(victim.id)
        before = compute_etam(graph, platform, mapping)
        after = compute_etam(result.app_graph, result.platform, result.mapping)
        for actor in graph.actors:
            if actor.id == victim.id:
                continue
            expected = before[actor.id] - (
                slice_ if mapping.actor_tile.get(actor.id) == tile else 0)
            assert after[actor.id] == expected
        locality_checked += 1

    # HH1: all peers already hardware across the NoC, so migrating adds no
    # infrastructure actors to the bound graph.
    from test_migration import hh1_scenario
    graph, platform, mapping = hh1_scenario()
    baseline_count = len(build_bound_graph(graph, platform, mapping).actors)
    migrated = migrate_task(graph, platform, mapping, MigrationSpec(actor="SW"))
    hh1_ok = len(migrated.graph.actors) == baseline_count
    _verdict(7, "migration preserves consistency, slice locality and HH1 "
                "actor count",
             consistency_checked == 30 and locality_checked == 30 and hh1_ok)


def test_criterion_8_round_trip(tmp_path):
    checked = 0
    for name in list_bundled_scenarios():
        original = load_scenario(bundled_scenario_path(name))
        target = tmp_path / f"{name}.xml"
        save_scenario(original, target)
        assert load_scenario(target) == original
        checked += 1
    rng = random.Random(1008)
    for i in range(50):
        graph, platform, mapping = random_scenario(rng)
        scenario = Scenario(name=f"rt{i}", graph=graph, platform=platform,
                            mapping=mapping)
        target = tmp_path / "rt.xml"
        save_scenario(scenario, target)
        assert load_scenario(target) == scenario
        checked += 1
    _verdict(8, "load/save round trip is structurally exact",
             checked == len(list_bundled_scenarios()) + 50)
