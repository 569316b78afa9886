import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    build_graph,
    mjpeg_application,
    mjpeg_mapping,
    mjpeg_platform,
    random_scenario,
)
from sdfmig.analysis import self_timed_throughput, to_frames_per_second
from sdfmig.errors import (
    AlreadyHardwareError,
    InvalidMigrationSpecError,
    SdfmigError,
    UnknownActorError,
    UnknownConnectionError,
    UnmappedActorError,
)
from sdfmig.graph import Actor, ActorKind, Channel, SDFG, validate
from sdfmig.migration import (
    MigrationSpec,
    explore_single_migrations,
    migrate_task,
    migration_candidate,
)
from sdfmig.mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
    compute_etam,
)
from sdfmig.scenario import bundled_scenario_path, load_scenario
from sdfmig.transforms import build_bound_graph

CLOCK = Fraction(100_000_000)


def test_migrate_vld_case_study_times():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    res = migrate_task(g, p, m, MigrationSpec(actor="VLD"))
    times = {a.id: a.exec_time for a in res.graph.actors}
    assert times["VLD"] == 1041231          # floor(2082463 / 2)
    assert times["IZZ2"] == 24791           # slice of VLD reclaimed
    assert times["IZZ1"] == 10000           # prefetch issue
    assert times["IZZ_m1"] == 262047        # 10000 + 252047 transfer
    assert times["IZZ_ri"] == 1 and times["IZZ_ro"] == 1
    assert times["as_izz_iq"] == 90000      # IQ still shares T2 with IDCT
    assert times["as_idct_cc"] == 80000
    assert res.graph.actor_map["VLD"].kind == ActorKind.HARDWARE
    assert res.mapping.actor_tile.get("VLD") == res.hw_tile
    assert "VLD" not in res.mapping.tdma_slice
    assert validate(res.graph) == []


def test_migrate_idct_case_study_times():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    res = migrate_task(g, p, m, MigrationSpec(actor="IDCT"))
    times = {a.id: a.exec_time for a in res.graph.actors}
    assert times["IDCT"] == 49582           # floor(99165 / 2)
    assert times["IQ"] == 49582             # IDCT's 90000 slice reclaimed
    assert times["CC2"] == 154374           # CC still pays RE's slice
    assert times["CC1"] == 10000
    assert times["CC_m1"] == 262047
    assert times["as_izz_iq"] == 0          # IQ now alone on T2
    assert times["as_iq_idct"] == 0         # hardware consumer never waits
    assert times["ac_iq_idct"] == 252047
    assert times["a_iq_idct"] == 100000
    assert validate(res.graph) == []


def test_migrate_unknown_and_hardware_actor():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    with pytest.raises(UnknownActorError):
        migrate_task(g, p, m, MigrationSpec(actor="nope"))
    hw = replace(g, actors=[
        a if a.id != "VLD" else Actor("VLD", a.exec_time, kind=ActorKind.HARDWARE)
        for a in g.actors])
    with pytest.raises(AlreadyHardwareError):
        migrate_task(hw, p, m, MigrationSpec(actor="VLD"))


def test_migrate_unmapped_actor():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    unmapped = PlatformMapping(
        actor_tile={a: t for a, t in m.actor_tile.items() if a != "VLD"},
        tdma_slice={a: s for a, s in m.tdma_slice.items() if a != "VLD"},
        channel_binding=m.channel_binding)
    with pytest.raises(UnmappedActorError):
        migrate_task(g, p, unmapped, MigrationSpec(actor="VLD"))


def test_migrate_speedup_is_configurable():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    res = migrate_task(g, p, m, MigrationSpec(actor="IDCT", speedup=Fraction(3)))
    assert res.graph.actor_map["IDCT"].exec_time == 33055  # floor(99165 / 3)


@pytest.mark.parametrize("field, value", [
    ("speedup", Fraction(0)), ("speedup", Fraction(-2)), ("speedup", Fraction(-1, 2)),
    ("prefetch_time", -5), ("hw_buffer_tokens", -1),
    ("alpha_src", 0), ("alpha_dst", -2),
], ids=str)
def test_migrate_rejects_out_of_range_spec(field, value):
    # IZZ has a software producer (new chain, alphas) and a software
    # consumer (prefetch), so every field is read.
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    with pytest.raises(InvalidMigrationSpecError, match=field):
        migrate_task(g, p, m, MigrationSpec(actor="IZZ", **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("speedup", "3"), ("speedup", 2.5), ("speedup", True),
    ("prefetch_time", 2.5), ("prefetch_time", True), ("hw_buffer_tokens", 4.0),
    ("alpha_src", 1.5), ("alpha_dst", False),
], ids=repr)
def test_migrate_rejects_badly_typed_spec(field, value):
    # The string speedup used to end in a TypeError; the rest were accepted.
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    with pytest.raises(InvalidMigrationSpecError, match=f"{field} must be an int"):
        migrate_task(g, p, m, MigrationSpec(actor="IZZ", **{field: value}))


def test_spec_types_are_checked_before_ranges():
    # A spec is refused where it is built, naming the field and its rule.
    for fields, field, rule in [
            ({"speedup": "-3"}, "speedup", "must be an int or a Fraction, got '-3'"),
            ({"alpha_dst": -1.5}, "alpha_dst", "must be an int, got -1.5"),
            ({"speedup": 0, "alpha_src": True}, "alpha_src", "must be an int, got True")]:
        with pytest.raises(InvalidMigrationSpecError) as raised:
            MigrationSpec(**fields)
        assert (raised.value.field, raised.value.rule) == (field, rule)
        assert str(raised.value) == f"{field} {rule}"
    assert MigrationSpec(speedup=3, hw_buffer_tokens=0).speedup == 3


def test_hw_connection_wins_over_previous_connection():
    # izz_iq was bound to n1, so its new link used to copy n1 and ignore
    # hw_connection, against the MigrationSpec docstring.
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    n2 = p.connection("n2")
    res = migrate_task(g, p, m, MigrationSpec(actor="IZZ", hw_connection="n2"))
    for link in ("noc_izz_iq", "noc_vld_izz"):
        copied = res.platform.connection(link)
        assert (copied.latency, copied.bandwidth) == (n2.latency, n2.bandwidth)
    default = migrate_task(g, p, m, MigrationSpec(actor="IZZ"))
    assert default.platform.connection("noc_izz_iq").bandwidth == p.connection("n1").bandwidth


def hh1_scenario():
    """Software actor SW whose only peer is a hardware block across the NoC."""
    g = SDFG(
        actors=[Actor("SW", 50), Actor("HW", 20, kind=ActorKind.HARDWARE)],
        channels=[Channel("fwd", "SW", "HW", 1, 1, 0, token_size=64),
                  Channel("rev", "HW", "SW", 1, 1, 2, token_size=64)],
    )
    platform = Platform(
        tiles=[Tile("T1", tdma_wheel=1000),
               Tile("TH", kind=TileKind.HARDWARE_BLOCK)],
        connections=[NocConnection("up", "T1", "TH", latency=2, bandwidth=Fraction(4)),
                     NocConnection("down", "TH", "T1", latency=2, bandwidth=Fraction(4))],
    )
    mapping = PlatformMapping(
        actor_tile={"SW": "T1", "HW": "TH"},
        tdma_slice={"SW": 100},
        channel_binding={
            "fwd": ChannelBinding(BindingKind.REMOTE, "up", alpha_src=2, alpha_dst=2,
                                  latency_bound=5),
            "rev": ChannelBinding(BindingKind.REMOTE, "down", alpha_src=2, alpha_dst=2,
                                  latency_bound=5),
        },
    )
    return g, platform, mapping


def test_hh1_migration_adds_no_actors():
    g, platform, mapping = hh1_scenario()
    baseline = build_bound_graph(g, platform, mapping)
    res = migrate_task(g, platform, mapping, MigrationSpec(actor="SW"))
    assert len(res.graph.actors) == len(baseline.actors)
    assert res.graph.actor_map["SW"].kind == ActorKind.HARDWARE
    # Exploration moves only software actors, so HW gets no row.
    _, candidates = explore_single_migrations(g, platform, mapping)
    assert [c.actor for c in candidates] == ["SW"]


def test_hh1_migration_with_unit_speedup_keeps_throughput():
    # Zero TDMA slice, already-remote channels, speedup 1: nothing changes.
    g, platform, mapping = hh1_scenario()
    mapping = PlatformMapping(actor_tile=mapping.actor_tile,
                              tdma_slice={"SW": 0},
                              channel_binding=mapping.channel_binding)
    before = self_timed_throughput(build_bound_graph(g, platform, mapping))
    res = migrate_task(g, platform, mapping, MigrationSpec(actor="SW", speedup=1))
    after = self_timed_throughput(res.graph)
    assert after.iterations_per_cycle == before.iterations_per_cycle


def test_migration_beside_an_unplaced_hardware_actor_is_a_typed_error():
    # A(10) -> H -> A with H hardware and on no tile, as hardware may stay.
    # Migrating A used to build noc_ah from hw_A to None: the result analysed
    # (1/15 -> 1/12 iterations per cycle), but saving it failed. Later the
    # connection refused it as "dst_tile must be a str, got None", which
    # named neither H nor the channel.
    g = SDFG([Actor("A", 10), Actor("H", 5, ActorKind.HARDWARE)],
             [Channel("ah", "A", "H"), Channel("ha", "H", "A", initial_tokens=1)])
    platform = Platform([Tile("T1", tdma_wheel=10)],
                        [NocConnection("n", "T1", "T1", latency=1)])
    mapping = PlatformMapping({"A": "T1"}, {"A": 3}, {})
    message = "actor 'H' has no tile, so channel 'ah' cannot move onto a connection"
    with pytest.raises(UnmappedActorError) as raised:
        migrate_task(g, platform, mapping, MigrationSpec(actor="A"))
    assert str(raised.value) == message
    _, candidates = explore_single_migrations(g, platform, mapping)
    assert [(c.actor, c.result, c.error) for c in candidates] == [("A", None, message)]


def test_migration_ids_skip_taken_tile_and_connection_ids():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    p = Platform(tiles=list(p.tiles) + [Tile("hw_IZZ", kind=TileKind.HARDWARE_BLOCK)],
                 connections=list(p.connections)
                 + [NocConnection("noc_izz_iq", "T1", "T2", latency=3)])
    res = migrate_task(g, p, m, MigrationSpec(actor="IZZ"))
    assert res.hw_tile == "hw_IZZ_2"
    assert res.mapping.channel_binding["vld_izz"].connection == "noc_vld_izz"
    assert res.mapping.channel_binding["izz_iq"].connection == "noc_izz_iq_2"


def test_migration_gain_examples():
    # A row's gain is its rounded f/s after the move less the baseline's.
    s = load_scenario(bundled_scenario_path("mjpeg_base"))
    base = self_timed_throughput(build_bound_graph(s.graph, s.platform, s.mapping))
    assert to_frames_per_second(base, s.clock_hz) == Decimal("13.91")
    for actor, fps_after, gain in [("IDCT", "17.40", "3.49"), ("CC", "13.91", "0.00")]:
        row = migration_candidate(s.graph, s.platform, s.mapping,
                                  replace(s.defaults, actor=actor), base, s.clock_hz)
        assert (row.fps_after, row.gain_fps) == (Decimal(fps_after), Decimal(gain))


def test_migrated_graph_stays_consistent_on_random_scenarios():
    rng = random.Random(21)
    done = 0
    while done < 25:
        g, platform, mapping = random_scenario(rng)
        victim = rng.choice([a for a in g.actors if a.kind == ActorKind.SOFTWARE])
        res = migrate_task(g, platform, mapping, MigrationSpec(actor=victim.id))
        assert validate(res.graph) == []
        # Each touched channel, self-loops aside, gets one new connection; it
        # prefetches exactly when its consumer is software. Nothing else moves.
        touched = [c for c in g.channels
                   if victim.id in (c.src, c.dst) and c.src != c.dst]
        new_links = {c.id for c in res.platform.connections} - {
            c.id for c in platform.connections}
        assert sorted(res.mapping.channel_binding[c.id].connection for c in touched) \
            == sorted(new_links)
        assert all(link.startswith("noc_") for link in new_links)
        for c in touched:
            prefetch = res.mapping.channel_binding[c.id].kind == BindingKind.PREFETCH
            assert prefetch == (res.app_graph.actor_map[c.dst].kind == ActorKind.SOFTWARE)
        assert {k: b for k, b in res.mapping.channel_binding.items()
                if k not in {c.id for c in touched}} \
            == {k: b for k, b in mapping.channel_binding.items()
                if k not in {c.id for c in touched}}
        done += 1


def test_impact2_locality_on_random_scenarios():
    rng = random.Random(22)
    done = 0
    while done < 25:
        g, platform, mapping = random_scenario(rng)
        victims = [a for a in g.actors if mapping.tdma_slice.get(a.id)]
        if not victims:
            continue
        victim = rng.choice(victims)
        slice_ = mapping.tdma_slice[victim.id]
        tile = mapping.actor_tile.get(victim.id)
        before = compute_etam(g, platform, mapping)
        res = migrate_task(g, platform, mapping, MigrationSpec(actor=victim.id))
        after = compute_etam(res.app_graph, res.platform, res.mapping)
        for actor in g.actors:
            if actor.id == victim.id:
                continue
            if mapping.actor_tile.get(actor.id) == tile:
                assert after[actor.id] == before[actor.id] - slice_
            else:
                assert after[actor.id] == before[actor.id]
        done += 1


def test_explore_ranks_by_gain():
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    baseline, candidates = explore_single_migrations(
        g, p, m, MigrationSpec(), clock_hz=CLOCK, state_budget=400_000)
    assert len(candidates) == 6  # one entry per software actor
    assert all(c.error is None for c in candidates)
    gains = [c.gain_fps for c in candidates]
    assert gains == sorted(gains, reverse=True)
    by_actor = {c.actor: c for c in candidates}
    assert by_actor["IDCT"].gain_fps > by_actor["VLD"].gain_fps > 0


def test_explore_single_actor_graph():
    g = SDFG(actors=[Actor("A", 10)],
             channels=[Channel("loop", "A", "A", 1, 1, 1)])
    platform = Platform(tiles=[Tile("T1", tdma_wheel=100)],
                        connections=[NocConnection("n", "T1", "T1", latency=1,
                                                   bandwidth=Fraction(1))])
    mapping = PlatformMapping(actor_tile={"A": "T1"}, tdma_slice={"A": 10},
                              channel_binding={})
    baseline, candidates = explore_single_migrations(g, platform, mapping)
    assert len(candidates) == 1
    assert candidates[0].actor == "A"


def test_explore_captures_failures_as_entries():
    # Migrating A needs a connection to model the hardware link and the
    # platform has none, so A's entry carries the error; the channel-free
    # actor C still migrates and ranks first.
    g = SDFG(actors=[Actor("A", 5), Actor("B", 7), Actor("C", 3)],
             channels=[Channel("ab", "A", "B")])
    platform = Platform(tiles=[Tile("T1", tdma_wheel=100)])
    mapping = PlatformMapping(
        actor_tile={"A": "T1", "B": "T1", "C": "T1"},
        tdma_slice={"A": 10, "B": 10, "C": 10},
        channel_binding={"ab": ChannelBinding(buffer_tokens=2)})
    baseline, candidates = explore_single_migrations(g, platform, mapping)
    by_actor = {c.actor: c for c in candidates}
    assert len(candidates) == 3
    assert by_actor["A"].error is not None and by_actor["A"].result is None
    assert by_actor["C"].error is None
    assert candidates[-1].actor in ("A", "B")  # failures sink to the bottom


@pytest.mark.parametrize("actor", ["VLD", "IZZ", "IQ", "IDCT", "CC", "RE"])
def test_migrate_rejects_unknown_hw_connection(actor):
    # Every actor has a channel whose new link copies hw_connection; 'nope'
    # used to end in a bare KeyError.
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    with pytest.raises(UnknownConnectionError, match="'nope'"):
        migrate_task(g, p, m, MigrationSpec(actor=actor, hw_connection="nope"))


def far_connection_scenario(connections):
    """A(10) -> B(20) over ``c`` and B -> A over ``r``, both local on T1; the
    platform's ``connections`` join only T2 and T3, so none touches T1."""
    g = SDFG(actors=[Actor("A", 10), Actor("B", 20)],
             channels=[Channel("c", "A", "B", token_size=8),
                       Channel("r", "B", "A", initial_tokens=2)])
    platform = Platform(tiles=[Tile("T1", tdma_wheel=20), Tile("T2", tdma_wheel=20),
                               Tile("T3", tdma_wheel=20)],
                        connections=connections)
    mapping = PlatformMapping(actor_tile={"A": "T1", "B": "T1"},
                              tdma_slice={"A": 5, "B": 5},
                              channel_binding={"c": ChannelBinding(buffer_tokens=4),
                                               "r": ChannelBinding()})
    return g, platform, mapping


def test_new_link_copies_first_connection_when_none_touches_vacated_tile():
    z = NocConnection("z", "T2", "T3", latency=1, bandwidth=Fraction(2))
    g, platform, mapping = far_connection_scenario([z])
    baseline, candidates = explore_single_migrations(g, platform, mapping)
    assert to_frames_per_second(baseline, CLOCK) == Decimal("4000000.00")
    assert [(c.actor, c.fps_after) for c in candidates] == [
        ("B", Decimal("4999.75")), ("A", Decimal("4998.75"))]
    migrated = migrate_task(g, platform, mapping, MigrationSpec(actor="B"))
    for link in ("noc_c", "noc_r"):
        copied = migrated.platform.connection(link)
        assert (copied.latency, copied.bandwidth) == (z.latency, z.bandwidth)
    # migrate and explore build the row in one function.
    assert migration_candidate(g, platform, mapping, MigrationSpec(actor="B"),
                               baseline, CLOCK) == candidates[0]


def test_every_row_fails_when_the_platform_has_no_connection():
    g, platform, mapping = far_connection_scenario([])
    _, candidates = explore_single_migrations(g, platform, mapping)
    message = "platform has no connection to model the hardware link for 'c'"
    assert [(c.actor, c.result, c.error) for c in candidates] == [
        ("A", None, message), ("B", None, message)]
    with pytest.raises(SdfmigError, match=message):
        migration_candidate(g, platform, mapping, MigrationSpec(actor="A"),
                            self_timed_throughput(build_bound_graph(g, platform, mapping)),
                            CLOCK)
