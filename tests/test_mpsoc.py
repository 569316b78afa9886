import random

import pytest

from helpers import mjpeg_application, mjpeg_mapping, mjpeg_platform, random_scenario
from sdfmig.errors import SliceOverflowError, UnmappedActorError
from sdfmig.graph import Actor, ActorKind, Channel, SDFG
from sdfmig.migration import MigrationSpec, migrate_task
from sdfmig.mpsoc import (
    BindingKind,
    ChannelBinding,
    PlatformMapping,
    Tile,
    TileKind,
    compute_etam,
    resolve_latency_bound,
    tdma_wait,
    validate_mapping,
)

CASE_STUDY_ETAM = {"VLD": 2132463, "IZZ": 74791, "IQ": 139582, "IDCT": 109165,
               "CC": 154374, "RE": 912484}


def test_compute_etam_reproduces_case_study():
    etam = compute_etam(mjpeg_application(), mjpeg_platform(), mjpeg_mapping())
    assert etam == CASE_STUDY_ETAM


def test_compute_etam_sole_actor_on_tile():
    g = SDFG(actors=[Actor("A", 1000)])
    platform = mjpeg_platform()
    mapping = PlatformMapping(actor_tile={"A": "T1"}, tdma_slice={"A": 40000},
                              channel_binding={})
    assert compute_etam(g, platform, mapping) == {"A": 1000}


def test_compute_etam_hardware_actor_unchanged():
    g = SDFG(actors=[Actor("A", 1000), Actor("H", 500, kind=ActorKind.HARDWARE)])
    platform = mjpeg_platform()
    mapping = PlatformMapping(actor_tile={"A": "T1"}, tdma_slice={"A": 10000},
                              channel_binding={})
    assert compute_etam(g, platform, mapping) == {"A": 1000, "H": 500}


def test_compute_etam_unmapped_software_actor():
    g = SDFG(actors=[Actor("A", 1000)])
    mapping = PlatformMapping(actor_tile={}, tdma_slice={}, channel_binding={})
    with pytest.raises(UnmappedActorError):
        compute_etam(g, mjpeg_platform(), mapping)


def test_compute_etam_slice_overflow():
    g = SDFG(actors=[Actor("A", 1), Actor("B", 1)])
    mapping = PlatformMapping(actor_tile={"A": "T1", "B": "T1"},
                              tdma_slice={"A": 60000, "B": 50000},
                              channel_binding={})
    with pytest.raises(SliceOverflowError):
        compute_etam(g, mjpeg_platform(), mapping)


def test_tdma_wait_values():
    platform, mapping = mjpeg_platform(), mjpeg_mapping()
    assert tdma_wait("IQ", platform, mapping) == 90000
    assert tdma_wait("CC", platform, mapping) == 80000
    assert tdma_wait("RE", platform, mapping) == 20000


def test_tdma_wait_drops_to_zero_when_tile_mate_leaves():
    platform = mjpeg_platform()
    mapping = mjpeg_mapping()
    alone = PlatformMapping(
        actor_tile={a: t for a, t in mapping.actor_tile.items() if a != "IDCT"},
        tdma_slice={a: s for a, s in mapping.tdma_slice.items() if a != "IDCT"},
        channel_binding=mapping.channel_binding,
    )
    assert tdma_wait("IQ", platform, alone) == 0


def test_tdma_wait_hardware_tile_is_zero():
    platform = mjpeg_platform()
    hw = Tile("HW", kind=TileKind.HARDWARE_BLOCK)
    from sdfmig.mpsoc import Platform
    platform = Platform(tiles=list(platform.tiles) + [hw],
                        connections=platform.connections)
    mapping = PlatformMapping(actor_tile={"X": "HW"}, tdma_slice={},
                              channel_binding={})
    assert tdma_wait("X", platform, mapping) == 0


def brute_force_wait(actor_id, platform, mapping):
    """The sum of the other co-mapped actors' slices, by a scan of every
    placement."""
    tile = platform.tile(mapping.actor_tile[actor_id])
    if tile.kind != TileKind.PROCESSOR:
        return 0
    return sum(mapping.tdma_slice.get(other, 0)
               for other, tile_id in mapping.actor_tile.items()
               if tile_id == tile.id and other != actor_id)


def test_tdma_wait_matches_brute_force_sum():
    rng = random.Random(23)
    for _ in range(40):
        graph, platform, mapping = random_scenario(rng)
        cases = [(platform, mapping)]
        for actor in graph.actors:
            migrated = migrate_task(graph, platform, mapping, MigrationSpec(actor=actor.id))
            cases.append((migrated.platform, migrated.mapping))
        for case_platform, case_mapping in cases:
            for actor_id in case_mapping.actor_tile:
                assert (tdma_wait(actor_id, case_platform, case_mapping)
                        == brute_force_wait(actor_id, case_platform, case_mapping))


def test_tdma_wait_unmapped_actor():
    mapping = PlatformMapping(actor_tile={}, tdma_slice={}, channel_binding={})
    with pytest.raises(UnmappedActorError):
        tdma_wait("A", mjpeg_platform(), mapping)


def test_etam_equals_etbm_plus_wait():
    graph, platform, mapping = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    etam = compute_etam(graph, platform, mapping)
    for actor in graph.actors:
        assert etam[actor.id] - actor.exec_time == tdma_wait(actor.id, platform, mapping)


def test_removing_actor_never_raises_etam():
    graph, platform, mapping = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    base = compute_etam(graph, platform, mapping)
    for removed in mapping.actor_tile:
        lighter = PlatformMapping(
            actor_tile={a: t for a, t in mapping.actor_tile.items() if a != removed},
            tdma_slice={a: s for a, s in mapping.tdma_slice.items() if a != removed},
            channel_binding={},
        )
        for actor in graph.actors:
            if actor.id == removed or actor.kind != ActorKind.SOFTWARE:
                continue
            etam = compute_etam(
                SDFG(actors=[a for a in graph.actors if a.id != removed]),
                platform, lighter)
            assert etam[actor.id] <= base[actor.id]


def test_validate_mapping_clean():
    assert validate_mapping(mjpeg_application(), mjpeg_platform(), mjpeg_mapping()) == []


def test_validate_mapping_slice_overflow_diagnostic():
    g = SDFG(actors=[Actor("A", 1), Actor("B", 1)])
    mapping = PlatformMapping(actor_tile={"A": "T1", "B": "T1"},
                              tdma_slice={"A": 60000, "B": 50000},
                              channel_binding={})
    codes = [d.code for d in validate_mapping(g, mjpeg_platform(), mapping)]
    assert codes == ["SliceOverflow"]


def test_validate_mapping_binding_mismatch():
    g = SDFG(actors=[Actor("A", 1), Actor("B", 1)],
             channels=[Channel("c", "A", "B")])
    mapping = PlatformMapping(actor_tile={"A": "T2", "B": "T3"},
                              tdma_slice={"A": 1, "B": 1},
                              channel_binding={"c": ChannelBinding(BindingKind.REMOTE, "n1")})
    codes = [d.code for d in validate_mapping(g, mjpeg_platform(), mapping)]
    assert "BindingMismatch" in codes


def test_validate_mapping_local_binding_across_tiles():
    g = SDFG(actors=[Actor("A", 1), Actor("B", 1)],
             channels=[Channel("c", "A", "B")])
    mapping = PlatformMapping(actor_tile={"A": "T1", "B": "T2"},
                              tdma_slice={"A": 1, "B": 1},
                              channel_binding={"c": ChannelBinding()})
    codes = [d.code for d in validate_mapping(g, mjpeg_platform(), mapping)]
    assert "BindingMismatch" in codes


def test_resolve_latency_bound_defaults_to_consumer_wheel():
    graph, platform = mjpeg_application(), mjpeg_platform()
    mapping = mjpeg_mapping()
    bare = PlatformMapping(actor_tile=mapping.actor_tile,
                           tdma_slice=mapping.tdma_slice, channel_binding={})
    assert resolve_latency_bound("izz_iq", graph, platform, bare) == 100000
    assert resolve_latency_bound("izz_iq", graph, platform, mapping) == 100000
