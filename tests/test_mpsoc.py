import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import mjpeg_application, mjpeg_mapping, mjpeg_platform, random_scenario
from sdfmig.analysis import self_timed_throughput
from sdfmig.errors import (
    BufferTooSmallError,
    DuplicateIdError,
    InvalidBandwidthError,
    InvalidBindingError,
    InvalidFieldError,
    InvalidMigrationSpecError,
    MalformedGraphError,
    SameTileError,
    ScenarioValidationError,
    SdfmigError,
    SliceOverflowError,
    UnknownActorError,
    UnknownChannelError,
    UnknownConnectionError,
    UnmappedActorError,
)
from sdfmig.graph import Actor, ActorKind, Channel, SDFG
from sdfmig.migration import MigrationSpec, explore_single_migrations, migrate_task
from sdfmig.mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
    check_mapping,
    compute_etam,
    resolve_latency_bound,
    tdma_wait,
    validate_mapping,
)
from sdfmig.transforms import build_bound_graph

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
    tile = platform.tile_map[mapping.actor_tile[actor_id]]
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


def test_negative_slice_is_refused_by_tdma_wait_and_compute_etam():
    # IZZ's slice at -50000 used to give VLD a wait of -50000 and an
    # after-mapping time of 2032463. The mapping is now refused where it is
    # built, so neither tdma_wait nor compute_etam can be handed it.
    graph, platform, mapping = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    with pytest.raises(SliceOverflowError) as raised:
        replace(mapping, tdma_slice={**mapping.tdma_slice, "IZZ": -50000})
    assert str(raised.value) == "actor 'IZZ': tdma slice must be at least 0, got -50000"
    # The least slice that is built, 0, leaves VLD no wait; T2 and T3 keep theirs.
    mapping = replace(mapping, tdma_slice={**mapping.tdma_slice, "IZZ": 0})
    assert tdma_wait("VLD", platform, mapping) == 0
    etam = compute_etam(graph, platform, mapping)
    assert etam["VLD"] == graph.actor_map["VLD"].exec_time
    for actor_id in ("IQ", "IDCT", "CC", "RE"):
        assert etam[actor_id] == CASE_STUDY_ETAM[actor_id]


@pytest.mark.parametrize("value", ["50000", 50000.0, True], ids=["str", "float", "bool"])
def test_slice_of_the_wrong_type_is_refused_on_every_route(value):
    # IZZ's slice as "50000" used to end in a bare TypeError from validation
    # and binding, 50000.0 to validate clean and fail binding with a
    # MalformedGraphError naming VLD, and True to analyse at 1/7137125
    # iterations per cycle. Every route takes a built mapping, and the
    # mapping is refused where it is built.
    mapping = mjpeg_mapping()
    message = f"actor 'IZZ': tdma slice must be an int, got {value!r}"
    with pytest.raises(SliceOverflowError) as raised:
        replace(mapping, tdma_slice={**mapping.tdma_slice, "IZZ": value})
    assert str(raised.value) == message
    # The types of all slices are checked before any sign: VLD's negative
    # slice, listed before IZZ's, does not hide the wrong type.
    with pytest.raises(SliceOverflowError) as raised:
        replace(mapping, tdma_slice={**mapping.tdma_slice, "VLD": -1, "IZZ": value})
    assert str(raised.value) == message


def test_slice_of_an_unplaced_actor_fails_where_it_is_built():
    mapping = mjpeg_mapping()
    actor_tile = {a: t for a, t in mapping.actor_tile.items() if a != "VLD"}
    with pytest.raises(SliceOverflowError) as raised:
        replace(mapping, actor_tile=actor_tile)
    assert str(raised.value) == "a tdma slice needs a tile, but actor 'VLD' has none"


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
    # With neither endpoint on a processor there is no wheel to wait for.
    blocks = Platform([Tile("H", kind=TileKind.HARDWARE_BLOCK)])
    unwheeled = PlatformMapping(actor_tile={"IZZ": "H", "IQ": "H"}, tdma_slice={},
                                channel_binding={})
    assert resolve_latency_bound("izz_iq", graph, blocks, unwheeled) == 0


def _rebind(mapping, channel_id, binding):
    return replace(mapping, channel_binding={**mapping.channel_binding,
                                             channel_id: binding})


def connection_joining_wrong_tiles():
    # n2 joins T2->T3; izz_iq runs T1->T2. This used to analyse at 10.00 f/s.
    binding = ChannelBinding(BindingKind.REMOTE, "n2", alpha_src=2, alpha_dst=1,
                             latency_bound=100000)
    return (mjpeg_application(), mjpeg_platform(),
            _rebind(mjpeg_mapping(), "izz_iq", binding), InvalidBindingError, "izz_iq")


def binding_on_unknown_channel():
    # Binding used to ignore it without a word.
    return (mjpeg_application(), mjpeg_platform(),
            _rebind(mjpeg_mapping(), "nope", ChannelBinding(buffer_tokens=3)),
            UnknownChannelError, "nope")


def local_binding_with_unplaced_endpoint():
    # VLD made hardware and left unplaced, with vld_izz still local: this used
    # to load clean and fail only at binding.
    graph = mjpeg_application()
    graph = replace(graph, actors=[
        replace(a, kind=ActorKind.HARDWARE) if a.id == "VLD" else a for a in graph.actors])
    mapping = mjpeg_mapping()
    mapping = replace(mapping,
                      actor_tile={a: t for a, t in mapping.actor_tile.items() if a != "VLD"},
                      tdma_slice={a: s for a, s in mapping.tdma_slice.items() if a != "VLD"})
    return graph, mjpeg_platform(), mapping, SameTileError, "vld_izz"


def remote_binding_inside_one_tile():
    platform = mjpeg_platform()
    loop = NocConnection("loop", "T1", "T1", latency=3)
    platform = Platform(platform.tiles, [*platform.connections, loop])
    return (mjpeg_application(), platform,
            _rebind(mjpeg_mapping(), "vld_izz", ChannelBinding(BindingKind.REMOTE, "loop")),
            SameTileError, "vld_izz")


def negative_tdma_slice():
    # The reader refuses tdma-slice="-1" at load; built through the API, this
    # mapping used to validate clean and analyse at 14.11 f/s. Building it
    # now fails, so no route is ever handed it.
    mapping = mjpeg_mapping()
    replace(mapping, tdma_slice={**mapping.tdma_slice, "IZZ": -50000})


def repeated_tile():
    # The second T1 used to replace the first in tile_map without a word;
    # mjpeg_base still gave 13.91 f/s.
    platform = mjpeg_platform()
    platform = Platform([*platform.tiles, Tile("T1", tdma_wheel=200000)],
                        platform.connections)
    return mjpeg_application(), platform, mjpeg_mapping(), DuplicateIdError, "T1"


def repeated_connection():
    # The second n1 used to replace the first: mjpeg_base fell to 0.08 f/s.
    platform = mjpeg_platform()
    slow = NocConnection("n1", "T1", "T2", latency=900000, bandwidth=Fraction(1, 100000))
    platform = Platform(platform.tiles, [*platform.connections, slow])
    return mjpeg_application(), platform, mjpeg_mapping(), DuplicateIdError, "n1"


def second_prefetch_into_one_consumer():
    # The first prefetch splits IQ, so the second used to end in "no actor
    # 'IQ' in graph", an UnknownActorError.
    graph = mjpeg_application()
    graph = replace(graph, channels=[*graph.channels,
                                     replace(graph.channel_map["izz_iq"], id="izz_iq2")])
    prefetch = ChannelBinding(BindingKind.PREFETCH, "n1", prefetch_time=10000)
    mapping = _rebind(_rebind(mjpeg_mapping(), "izz_iq", prefetch), "izz_iq2", prefetch)
    return graph, mjpeg_platform(), mapping, InvalidBindingError, "izz_iq2"


def buffer_below_initial_tokens():
    # iq_idct with 3 initial tokens in its buffer of 2 used to load clean and
    # fail only when bound, as an analysis error.
    graph = mjpeg_application()
    graph = replace(graph, channels=[replace(c, initial_tokens=3) if c.id == "iq_idct" else c
                                     for c in graph.channels])
    return graph, mjpeg_platform(), mjpeg_mapping(), BufferTooSmallError, "iq_idct"


FAULTY_MAPPINGS = [connection_joining_wrong_tiles, binding_on_unknown_channel,
                   local_binding_with_unplaced_endpoint, remote_binding_inside_one_tile,
                   negative_tdma_slice, repeated_tile, repeated_connection,
                   second_prefetch_into_one_consumer, buffer_below_initial_tokens]
CODE_OF_ERROR = {UnknownChannelError: "UnknownChannel", DuplicateIdError: "DuplicateId",
                 BufferTooSmallError: "BufferTooSmall"}
REFUSED_WHERE_BUILT = {negative_tdma_slice: (
    SliceOverflowError, "actor 'IZZ': tdma slice must be at least 0, got -50000")}


@pytest.mark.parametrize("case", FAULTY_MAPPINGS, ids=lambda case: case.__name__)
def test_faulty_mapping_fails_on_every_route(case):
    if case in REFUSED_WHERE_BUILT:
        error, message = REFUSED_WHERE_BUILT[case]
        with pytest.raises(error) as raised:
            case()
        assert str(raised.value) == message
        return
    graph, platform, mapping, error, subject = case()
    diagnostics = validate_mapping(graph, platform, mapping)
    assert [(d.code, d.subject) for d in diagnostics] == [
        (CODE_OF_ERROR.get(error, "BindingMismatch"), subject)]
    routes = [
        lambda: check_mapping(graph, platform, mapping),
        lambda: build_bound_graph(graph, platform, mapping),
        lambda: migrate_task(graph, platform, mapping, MigrationSpec(actor="IDCT")),
        lambda: explore_single_migrations(graph, platform, mapping),
    ]
    for route in routes:
        with pytest.raises(error) as raised:
            route()
        assert str(raised.value).endswith(diagnostics[0].message)


IZZ_IQ = mjpeg_mapping().channel_binding["izz_iq"]


@pytest.mark.parametrize("binding, field, value, minimum", [
    # On izz_iq these three used to end in a DeadlockError at t=2132463, a
    # MalformedGraphError naming izz_iq__dstbuf and a NegativeExecutionTimeError
    # naming a_izz_iq.
    pytest.param(IZZ_IQ, "alpha_src", 0, 1, id="alpha-src"),
    pytest.param(IZZ_IQ, "alpha_dst", -1, 1, id="alpha-dst"),
    pytest.param(IZZ_IQ, "latency_bound", -100000, 0, id="latency-bound"),
    pytest.param(ChannelBinding(buffer_tokens=13), "buffer_tokens", -1, 0,
                 id="buffer-tokens"),
    pytest.param(ChannelBinding(BindingKind.PREFETCH, "n1", prefetch_time=20),
                 "prefetch_time", -1, 0, id="prefetch-time"),
])
def test_binding_below_its_minimum_fails_where_it_is_built(binding, field, value, minimum):
    with pytest.raises(InvalidBindingError) as err:
        replace(binding, **{field: value})
    assert (err.value.field, err.value.rule) == (
        field, f"must be at least {minimum}, got {value}")


BINDING_OF_FIELD = {"buffer_tokens": ChannelBinding(buffer_tokens=13),
                    "alpha_src": IZZ_IQ, "alpha_dst": IZZ_IQ, "latency_bound": IZZ_IQ,
                    "prefetch_time": ChannelBinding(BindingKind.PREFETCH, "n1",
                                                    prefetch_time=20)}


@pytest.mark.parametrize("value", ["13", 13.0, True], ids=["str", "float", "bool"])
@pytest.mark.parametrize("field", list(BINDING_OF_FIELD))
def test_binding_count_of_the_wrong_type_fails_where_it_is_built(field, value):
    # On vld_izz, buffer_tokens="13" used to raise a bare TypeError, 13.0 to
    # end in a MalformedGraphError naming vld_izz__buf, and True to deadlock
    # at t=0; alpha_src=2.0 and alpha_src=True were accepted.
    with pytest.raises(InvalidBindingError) as err:
        replace(BINDING_OF_FIELD[field], **{field: value})
    assert (err.value.field, err.value.rule) == (field, f"must be an int, got {value!r}")


def test_binding_types_are_checked_before_ranges():
    with pytest.raises(InvalidBindingError) as err:
        replace(IZZ_IQ, alpha_src=0, latency_bound="5")
    assert (err.value.field, err.value.rule) == ("latency_bound", "must be an int, got '5'")


@pytest.mark.parametrize("model, fields", [
    pytest.param(mjpeg_application(), ("actors", "channels"), id="graph"),
    pytest.param(mjpeg_platform(), ("tiles", "connections"), id="platform"),
])
def test_model_compares_by_content_in_any_order(model, fields):
    assert replace(model, **{f: getattr(model, f)[::-1] for f in fields}) == model
    # Nothing of another type equals a graph or a platform.
    assert model != getattr(model, fields[0]) and model != object()


T1 = mjpeg_platform().tile_map["T1"]
N1 = mjpeg_platform().connection("n1")
PLATFORM_VALUE_OF_FIELD = {"tdma_wheel": T1, "latency": N1}


@pytest.mark.parametrize("value", ["13", 13.0, True, None],
                         ids=["str", "float", "bool", "none"])
@pytest.mark.parametrize("field", list(PLATFORM_VALUE_OF_FIELD))
def test_platform_count_of_the_wrong_type_fails_where_it_is_built(field, value):
    # On mjpeg_base, a tdma_wheel of "x" or None and a latency of "5" used
    # to end in a bare TypeError from validate_mapping and build_bound_graph.
    with pytest.raises(InvalidFieldError) as err:
        replace(PLATFORM_VALUE_OF_FIELD[field], **{field: value})
    assert (err.value.field, err.value.rule) == (field, f"must be an int, got {value!r}")


@pytest.mark.parametrize("field", list(PLATFORM_VALUE_OF_FIELD))
def test_platform_count_below_zero_fails_where_it_is_built(field):
    with pytest.raises(InvalidFieldError) as err:
        replace(PLATFORM_VALUE_OF_FIELD[field], **{field: -1})
    assert (err.value.field, err.value.rule) == (field, "must be at least 0, got -1")


@pytest.mark.parametrize("value", [True, "processor", None], ids=repr)
def test_tile_kind_of_the_wrong_type_fails_where_it_is_built(value):
    # T1 with kind=True counted as no processor, so its actors waited for
    # no slice: mjpeg_base analysed at 14.21 f/s instead of 13.91.
    with pytest.raises(InvalidFieldError) as err:
        replace(T1, kind=value)
    assert (err.value.field, err.value.rule) == ("kind", f"must be a TileKind, got {value!r}")


@pytest.mark.parametrize("value", ["1", 0.5, True], ids=repr)
def test_bandwidth_of_the_wrong_type_fails_where_it_is_built(value):
    # A bandwidth of "1" used to end in a bare TypeError, and 0.5 in an
    # AttributeError ('float' object has no attribute 'denominator').
    with pytest.raises(InvalidBandwidthError) as err:
        replace(N1, bandwidth=value)
    assert str(err.value) == (
        f"connection 'n1': bandwidth must be an int or a Fraction, got {value!r}")


def test_platform_types_are_checked_before_ranges():
    with pytest.raises(InvalidBandwidthError, match="must be an int or a Fraction"):
        replace(N1, latency=-1, bandwidth=0.5)
    with pytest.raises(InvalidFieldError) as err:
        replace(T1, kind="memory", tdma_wheel=-1)
    assert err.value.field == "kind"
    with pytest.raises(InvalidFieldError) as err:
        replace(N1, dst_tile=None, latency=-1)
    assert err.value.field == "dst_tile"
    # An int bandwidth is exact too.
    assert replace(N1, bandwidth=2).bandwidth == 2


def _mjpeg_with(actor_tile=None, binding=None, tile=None):
    """Bind mjpeg_base with IQ placed on ``actor_tile``, izz_iq bound to
    connection ``binding``, or ``tile`` added to the platform."""
    g, p, m = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    if actor_tile is not None:
        m = replace(m, actor_tile={**m.actor_tile, "IQ": actor_tile})
    if binding is not None:
        m = replace(m, channel_binding={**m.channel_binding,
                                        "izz_iq": replace(IZZ_IQ, connection=binding)})
    if tile is not None:
        p = Platform(tiles=[*p.tiles, tile], connections=p.connections)
    return build_bound_graph(g, p, m)


def _scenario_with(defaults=MigrationSpec(), graph=None):
    from sdfmig.scenario import Scenario
    return Scenario("s", graph or mjpeg_application(), mjpeg_platform(), mjpeg_mapping(),
                    defaults=defaults)


LIST_ID_GRAPH = replace(mjpeg_application(), actors=[*mjpeg_application().actors,
                                                     Actor(["X"], 1)])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: self_timed_throughput(SDFG([Actor(["A"], 1)])),
                 MalformedGraphError, "actor id ['A'] must be a str", id="actor-id"),
    pytest.param(lambda: self_timed_throughput(SDFG(
                     [Actor("A", 1)], [Channel("c", ["A"], "A", initial_tokens=1)])),
                 MalformedGraphError,
                 "channel 'c' from ['A'] to 'A': its id and endpoints must be str",
                 id="channel-src"),
    pytest.param(lambda: _mjpeg_with(actor_tile=["T2"]), InvalidFieldError,
                 "actor_tile ids must be str, got ['T2']", id="placed-on-list"),
    pytest.param(lambda: _mjpeg_with(binding=["n1"]), InvalidBindingError,
                 "connection must be a str or None, got ['n1']", id="bound-to-list"),
    pytest.param(lambda: _mjpeg_with(tile=Tile(["X"])), InvalidFieldError,
                 "id must be a str, got ['X']", id="tile-id"),
    pytest.param(lambda: replace(N1, src_tile=["T1"]), InvalidFieldError,
                 "src_tile must be a str, got ['T1']", id="connection-src-tile"),
    pytest.param(lambda: replace(N1, dst_tile=None), InvalidFieldError,
                 "dst_tile must be a str, got None", id="connection-dst-tile"),
    pytest.param(lambda: _scenario_with(replace(MigrationSpec(), hw_connection=["n1"])),
                 InvalidMigrationSpecError, "hw_connection must be a str or None, got ['n1']",
                 id="defaults-hw-connection"),
    pytest.param(lambda: migrate_task(mjpeg_application(), mjpeg_platform(), mjpeg_mapping(),
                                      MigrationSpec(actor=["IQ"])),
                 InvalidMigrationSpecError, "actor must be a str, got ['IQ']",
                 id="migrate-actor"),
    # A mapped graph holding such an id is refused before the mapping rules
    # look its ids up.
    pytest.param(lambda: _scenario_with(graph=LIST_ID_GRAPH), ScenarioValidationError,
                 "[BadId] ['X']: actor id ['X'] must be a str", id="scenario-graph"),
    pytest.param(lambda: migrate_task(LIST_ID_GRAPH, mjpeg_platform(), mjpeg_mapping(),
                                      MigrationSpec(actor="IQ")),
                 MalformedGraphError, "actor id ['X'] must be a str", id="migrate-graph"),
])
def test_an_id_that_is_not_a_str_ends_in_a_typed_error(call, error, message):
    # Each of these used to end in a bare TypeError: unhashable type: 'list',
    # except a connection's tile, which was accepted. Types are checked
    # before any id is looked up.
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


# The error each diagnostic code stands for; BindingMismatch is a tile rule
# (SameTileError), or a connection joining other tiles or a second prefetch
# into one consumer (InvalidBindingError).
ERROR_OF_CODE = {
    "DuplicateId": DuplicateIdError,
    "UnknownActor": UnknownActorError,
    "UnknownTile": UnmappedActorError,
    "UnmappedActor": UnmappedActorError,
    "SliceOverflow": SliceOverflowError,
    "UnknownChannel": UnknownChannelError,
    "BindingMismatch": (SameTileError, InvalidBindingError),
    "UnknownConnection": UnknownConnectionError,
}


def mutate_mapping(rng, graph, platform, mapping):
    """One random edit of a mapping: swap a connection, drop a placement
    (with its slice), bind an unknown channel, or move an actor to another
    (or an unknown) tile."""
    edit = rng.choice(["swap", "drop", "unknown channel", "move"])
    if edit == "swap" and mapping.channel_binding:
        channel_id = rng.choice(sorted(mapping.channel_binding))
        connection = rng.choice([c.id for c in platform.connections] + ["nope"])
        return _rebind(mapping, channel_id, ChannelBinding(BindingKind.REMOTE, connection))
    if edit == "unknown channel":
        return _rebind(mapping, "nope", ChannelBinding())
    actor_id = rng.choice(sorted(mapping.actor_tile))
    actor_tile = dict(mapping.actor_tile)
    if edit == "move":
        actor_tile[actor_id] = rng.choice([t.id for t in platform.tiles] + ["T9"])
        return replace(mapping, actor_tile=actor_tile)
    del actor_tile[actor_id]
    tdma_slice = {a: s for a, s in mapping.tdma_slice.items() if a != actor_id}
    return replace(mapping, actor_tile=actor_tile, tdma_slice=tdma_slice)


def test_validate_and_check_mapping_agree_on_mutated_mappings():
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        graph, platform, mapping = random_scenario(rng)
        mapping = mutate_mapping(rng, graph, platform, mapping)
        diagnostics = validate_mapping(graph, platform, mapping)
        if not diagnostics:
            check_mapping(graph, platform, mapping)
            seen.add(None)
            continue
        first = diagnostics[0]
        for route in (check_mapping, build_bound_graph):
            with pytest.raises(SdfmigError) as raised:
                route(graph, platform, mapping)
            assert isinstance(raised.value, ERROR_OF_CODE[first.code])
            assert str(raised.value).endswith(first.message)
        seen.add(first.code)
    # Every edit kind shows, valid results included.
    assert {None, "UnknownTile", "UnmappedActor", "UnknownChannel", "BindingMismatch",
            "UnknownConnection"} <= seen
