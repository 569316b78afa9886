import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (
    build_graph,
    mjpeg_application,
    mjpeg_mapping,
    mjpeg_platform,
    random_scenario,
    reference_bound_graph,
    with_rewrite_stems,
)
from sdfmig import migration
from sdfmig.analysis import iterate_states, mcm_throughput, self_timed_throughput
from sdfmig.errors import (
    BufferTooSmallError,
    DuplicateIdError,
    InvalidBandwidthError,
    SameTileError,
    SdfmigError,
    UnknownConnectionError,
)
from sdfmig.graph import (
    Actor,
    ActorKind,
    Channel,
    SDFG,
    compute_repetition_vector,
    disable_auto_concurrency,
    validate,
)
from sdfmig.migration import MigrationSpec, migrate_task
from sdfmig.mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
)
from sdfmig.scenario import bundled_scenario_path, list_bundled_scenarios, load_scenario
from sdfmig.transforms import build_bound_graph, connection_actor_time


def test_connection_actor_time_case_study_values():
    n1 = NocConnection("n1", "T1", "T2", latency=3, bandwidth=Fraction("0.00406278"))
    n2 = NocConnection("n2", "T2", "T3", latency=3, bandwidth=Fraction("0.00203139"))
    assert connection_actor_time(1024, n1) == 252047
    assert connection_actor_time(512, n2) == 252047


def test_connection_actor_time_zero_size_is_latency():
    c = NocConnection("c", "A", "B", latency=7, bandwidth=Fraction(1, 3))
    assert connection_actor_time(0, c) == 7


def test_connection_actor_time_truncates():
    c = NocConnection("c", "A", "B", latency=0, bandwidth=Fraction(3))
    assert connection_actor_time(10, c) == 3  # 10/3 rounds down


@pytest.mark.parametrize("bandwidth", [Fraction(0), Fraction(-1, 2)], ids=str)
def test_connection_actor_time_rejects_non_positive_bandwidth(bandwidth):
    # This used to be a ValueError, outside the package's error hierarchy.
    # The connection is refused where it is built, so no such connection
    # reaches connection_actor_time.
    with pytest.raises(InvalidBandwidthError, match="'c'") as raised:
        connection_actor_time(8, NocConnection("c", "A", "B", latency=7,
                                               bandwidth=bandwidth))
    assert str(raised.value) == f"connection 'c': bandwidth must be positive, got {bandwidth}"


BUNDLED_BANDWIDTHS = sorted({c.bandwidth
                             for name in list_bundled_scenarios()
                             for c in load_scenario(bundled_scenario_path(name))
                             .platform.connections})


@pytest.mark.parametrize("bandwidth", BUNDLED_BANDWIDTHS + [
    Fraction(1), Fraction(3), Fraction(1, 3), Fraction(7, 2), Fraction(10**12 + 1, 7)])
def test_connection_actor_time_matches_fraction_quotient(bandwidth):
    # Truncation toward zero, as int() of the exact quotient gives, also for
    # negative sizes (the scenario reader rejects those, the API does not).
    c = NocConnection("c", "A", "B", latency=5, bandwidth=bandwidth)
    for size in (0, 1, 2, 3, 511, 512, 1024, 10**30 + 7,
                 -1, -2, -3, -1024, -1025, -(10**30 + 7)):
        assert connection_actor_time(size, c) == 5 + int(Fraction(size) / bandwidth)


# --- each binding kind's rewrite, through build_bound_graph ----------------

N1 = NocConnection("n1", "T1", "T2", latency=3, bandwidth=Fraction("0.00406278"))


def bind(graph, tiles, bindings, connections=(), slices=None):
    """``build_bound_graph`` of ``graph`` with each actor on the tile
    ``tiles`` names: a tile whose id starts with H is a hardware block, any
    other a processor with a wheel of 10**6. Slices default to none, so
    mapping adds no wait and every actor keeps its execution time."""
    platform = Platform([Tile(t, TileKind.HARDWARE_BLOCK) if t.startswith("H")
                         else Tile(t, tdma_wheel=10**6) for t in sorted(set(tiles.values()))],
                        connections)
    mapping = PlatformMapping(actor_tile=tiles, tdma_slice=slices or {},
                              channel_binding=bindings)
    return build_bound_graph(graph, platform, mapping)


def bind_local(graph, buffer_tokens):
    """``graph`` on one tile, its channel c0 bound locally."""
    return bind(graph, dict.fromkeys(graph.actor_map, "T1"),
                {"c0": ChannelBinding(buffer_tokens=buffer_tokens)})


def bind_remote(graph, connection=N1, hardware=(), slices=None, **binding):
    """``graph`` with the producer of c0 on T1 and every other actor on T2,
    or on the hardware block H2 when named in ``hardware``, c0 bound over
    ``connection``: by default alpha 2 on both sides and a latency bound of
    100000."""
    source = graph.channel_map["c0"].src
    tiles = {a.id: "T1" if a.id == source else "H2" if a.id in hardware else "T2"
             for a in graph.actors}
    fields = {"alpha_src": 2, "alpha_dst": 2, "latency_bound": 100000, **binding}
    return bind(graph, tiles, {"c0": ChannelBinding(BindingKind.REMOTE, connection.id,
                                                    **fields)},
                [connection], slices)


def prefetched(graph, latency=3, prefetch_time=None):
    """``graph`` with the producer of c0 on the hardware block H1 and every
    other actor on T2, c0 prefetched over a connection H1 -> T2 of n1's
    bandwidth."""
    source = graph.channel_map["c0"].src
    tiles = {a.id: "H1" if a.id == source else "T2" for a in graph.actors}
    link = NocConnection("h", "H1", "T2", latency=latency, bandwidth=N1.bandwidth)
    return bind(graph, tiles, {"c0": ChannelBinding(BindingKind.PREFETCH, "h",
                                                    prefetch_time=prefetch_time)},
                [link])


def with_token_size(graph, size):
    """``graph`` with ``size`` bytes per token on c0."""
    return replace(graph, channels=[replace(c, token_size=size) if c.id == "c0" else c
                                for c in graph.channels])


def test_bind_local_adds_reversed_buffer_edge():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 3, 2)])
    bound = bind_local(g, buffer_tokens=6)
    back = bound.channel_map["c0__buf"]
    assert (back.src, back.dst) == ("B", "A")
    assert (back.prod_rate, back.cons_rate) == (2, 3)
    assert back.initial_tokens == 6


def test_bind_local_buffer_minus_initial_tokens():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 1, 1, 2)])
    bound = bind_local(g, buffer_tokens=2)
    assert bound.channel_map["c0__buf"].initial_tokens == 0


def test_bind_local_buffer_too_small():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 1, 1, 3)])
    with pytest.raises(BufferTooSmallError):
        bind_local(g, buffer_tokens=2)


def test_bind_local_token_sum_invariant():
    # Tokens are consumed at firing start, so a running producer holds buffer
    # slots it has not filled yet and a running consumer holds slots it has
    # not released yet; with those in flight the buffer total is conserved.
    g = build_graph({"A": 3, "B": 5}, [("A", "B", 1, 1, 1)])
    bound = bind_local(g, buffer_tokens=4)
    for state in iterate_states(bound, max_states=100):
        in_flight = sum(1 for actor, _ in state.active_firings if actor in ("A", "B"))
        assert state.channel_tokens["c0"] + state.channel_tokens["c0__buf"] \
            + in_flight == 4


def test_bind_local_throughput_monotone_in_buffer():
    g = build_graph({"A": 4, "B": 6}, [("A", "B")])
    last = Fraction(0)
    for buffer_tokens in range(1, 6):
        rate = self_timed_throughput(bind_local(g, buffer_tokens)).iterations_per_cycle
        assert rate >= last
        last = rate
    assert last == Fraction(1, 6)


def test_bind_remote_chain_execution_times():
    # IQ shares T2 with X, whose slice is IQ's worst-case TDMA wait.
    g = build_graph({"IZZ": 74791, "IQ": 139582, "X": 1}, [("IZZ", "IQ"), ("IQ", "X")])
    bound = bind_remote(with_token_size(g, 1024), slices={"IQ": 10000, "X": 90000})
    assert bound.actor_map["ac_c0"].exec_time == 252047
    assert bound.actor_map["a_c0"].exec_time == 100000
    assert bound.actor_map["as_c0"].exec_time == 90000


def test_bind_remote_chain_topology():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 3, 2, 5)])
    bound = bind_remote(g)
    assert "c0" not in bound.channel_map
    send = bound.channel_map["c0__send"]
    recv = bound.channel_map["c0__recv"]
    assert (send.src, send.dst, send.prod_rate, send.cons_rate) == ("A", "ac_c0", 3, 1)
    assert (recv.src, recv.dst, recv.prod_rate, recv.cons_rate) == ("as_c0", "B", 1, 2)
    assert recv.initial_tokens == 5  # original tokens carry to the last hop
    srcbuf = bound.channel_map["c0__srcbuf"]
    dstbuf = bound.channel_map["c0__dstbuf"]
    assert (srcbuf.src, srcbuf.dst, srcbuf.cons_rate, srcbuf.initial_tokens) == \
        ("ac_c0", "A", 3, 2)
    assert (dstbuf.src, dstbuf.dst, dstbuf.prod_rate, dstbuf.initial_tokens) == \
        ("B", "ac_c0", 2, 2)
    for inserted in ("ac_c0", "a_c0", "as_c0"):
        assert any(c.src == inserted == c.dst for c in bound.channels)


def test_bind_remote_missing_alpha_is_one():
    g = build_graph({"A": 1, "B": 1}, [("A", "B")])
    bound = bind_remote(g, alpha_src=None, alpha_dst=None)
    assert bound.channel_map["c0__srcbuf"].initial_tokens == 1
    assert bound.channel_map["c0__dstbuf"].initial_tokens == 1


def test_bind_remote_hardware_destination_wait_zero():
    g = build_graph({"A": 1, "B": 1}, [("A", "B")], kinds={"B": ActorKind.HARDWARE})
    link = NocConnection("n", "T1", "H2", latency=3, bandwidth=Fraction(1))
    bound = bind_remote(g, link, hardware={"B"})
    assert bound.actor_map["as_c0"].exec_time == 0


def test_bind_remote_preserves_other_elements():
    g = build_graph({"A": 1, "B": 1, "C": 9}, [("A", "B"), ("B", "C", 2, 3, 4)])
    bound = bind_remote(g)
    assert bound.channel_map["c1"] == g.channel_map["c1"]
    assert bound.actor_map["C"] == g.actor_map["C"]


def test_bind_remote_keeps_consistency():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 3, 2)])
    q = compute_repetition_vector(bind_remote(g))
    assert q["A"] == 2 and q["B"] == 3 and q["ac_c0"] == 6


def test_bind_remote_transparent_when_costs_vanish():
    # Zero latency, huge bandwidth, zero wait and wide buffers: the chain
    # actors cost nothing, so throughput matches the unbound graph.
    g = build_graph({"A": 5, "B": 3}, [("A", "B"), ("B", "A", 1, 1, 2)])
    free = NocConnection("n", "T1", "T2", latency=0, bandwidth=Fraction(10**9))
    bound = bind_remote(g, free, alpha_src=50, alpha_dst=50, latency_bound=0)
    assert mcm_throughput(bound) == mcm_throughput(disable_auto_concurrency(g))


def test_memory_aware_case_study_izz():
    g = build_graph({"VLD": 1041231, "IZZ": 24791, "IQ": 139582},
                    [("VLD", "IZZ", 12, 1), ("IZZ", "IQ")])
    out = prefetched(with_token_size(g, 1024), prefetch_time=10000)
    assert out.actor_map["IZZ1"].exec_time == 10000
    assert out.actor_map["IZZ2"].exec_time == 24791
    assert out.actor_map["IZZ_m1"].exec_time == 262047
    assert out.actor_map["IZZ_ri"].exec_time == 1
    assert out.actor_map["IZZ_ro"].exec_time == 1
    assert "IZZ" not in out.actor_map
    assert "IZZ_m2" not in out.actor_map  # one token per firing: no fetch path
    # input rerouted to the gate at batch rate, output leaves the executor
    assert out.channel_map["c0"].dst == "IZZ_ri" and out.channel_map["c0"].cons_rate == 12
    assert out.channel_map["c1"].src == "IZZ2"


def test_memory_aware_case_study_cc():
    g = build_graph({"IDCT": 49582, "CC": 154374, "RE": 912484},
                    [("IDCT", "CC"), ("CC", "RE", 1, 12)])
    out = prefetched(with_token_size(g, 1024), prefetch_time=10000)
    assert out.actor_map["CC1"].exec_time == 10000
    assert out.actor_map["CC2"].exec_time == 154374
    assert out.actor_map["CC_m1"].exec_time == 262047
    assert out.channel_map["c0"].cons_rate == 1  # a batch of one firing


def test_memory_aware_fetch_path():
    g = build_graph({"A": 1, "B": 7}, [("A", "B", 2, 2)])
    out = prefetched(g, latency=11, prefetch_time=5)
    assert out.actor_map["B_m2"].exec_time == 11  # the transfer time
    fetch = out.channel_map["B__fetch"]
    ret = out.channel_map["B__fetch_ret"]
    assert (fetch.src, fetch.dst) == ("B2", "B_m2")
    assert (ret.src, ret.dst, ret.initial_tokens) == ("B_m2", "B2", 1)


def test_memory_aware_keeps_consistency():
    g = build_graph({"A": 2, "B": 3, "C": 4},
                    [("A", "B", 6, 1), ("B", "C", 1, 6), ("C", "A", 1, 1, 2)])
    out = prefetched(g, latency=2, prefetch_time=1)
    q = compute_repetition_vector(out)
    assert q["B2"] == 6 and q["B_ri"] == 1 and q["B_ro"] == 1 and q["B1"] == 6


def test_memory_aware_free_costs_keep_throughput():
    # A batch of one with zero prefetch and transfer times adds only zero- and
    # unit-time actors off the limiting cycle of a pipeline, so throughput is
    # unchanged.
    g = build_graph({"A": 40, "B": 30, "C": 50},
                    [("A", "B"), ("B", "C"), ("B", "A", 1, 1, 2), ("C", "B", 1, 1, 2)])
    base = self_timed_throughput(disable_auto_concurrency(g))
    transformed = self_timed_throughput(prefetched(g, latency=0))
    assert transformed.iterations_per_cycle == base.iterations_per_cycle


def test_memory_aware_moves_reference_actor():
    g = build_graph({"A": 1, "B": 2}, [("A", "B"), ("B", "A", 1, 1, 1)],
                    reference="B")
    assert prefetched(g).reference_actor == "B2"


def test_memory_aware_preserves_unrelated_elements():
    g = build_graph({"A": 1, "B": 2, "C": 9, "D": 4},
                    [("A", "B"), ("B", "C"), ("C", "D", 2, 2, 2)])
    out = prefetched(g)
    assert out.actor_map["A"] == g.actor_map["A"]
    assert out.actor_map["D"] == g.actor_map["D"]
    assert out.channel_map["c2"] == g.channel_map["c2"]


def test_build_bound_graph_mjpeg_structure():
    graph, platform, mapping = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    bound = build_bound_graph(graph, platform, mapping)
    assert validate(bound) == []
    # 6 application actors + two chains of 3 infrastructure actors
    assert len(bound.actors) == 12
    assert bound.actor_map["VLD"].exec_time == 2132463   # after-mapping time
    assert bound.actor_map["ac_izz_iq"].exec_time == 252047
    assert bound.actor_map["a_izz_iq"].exec_time == 100000
    assert bound.actor_map["as_izz_iq"].exec_time == 90000
    assert bound.actor_map["as_idct_cc"].exec_time == 80000
    assert all(any(c.src == a.id == c.dst for c in bound.channels) for a in bound.actors)


@pytest.mark.parametrize("actors, channels, message", [
    (["A", "B", "A"], [("c", "A", "B")], "actor id 'A'"),
    (["A", "B"], [("c", "A", "B"), ("d", "B", "A"), ("c", "B", "A")], "channel id 'c'"),
])
def test_rewrites_reject_repeated_ids(actors, channels, message):
    # One dict entry per id would silently drop the repeated element.
    g = SDFG([Actor(a, 1) for a in actors], [Channel(*row) for row in channels])
    mapping = PlatformMapping(actor_tile={"A": "T1", "B": "T1"},
                              tdma_slice={"A": 1, "B": 1}, channel_binding={})
    with pytest.raises(DuplicateIdError, match=message):
        build_bound_graph(g, Platform([Tile("T1", tdma_wheel=10)]), mapping)


def test_build_bound_graph_rejects_misplaced_local_binding():
    graph, platform = mjpeg_application(), mjpeg_platform()
    mapping = mjpeg_mapping()
    bad = PlatformMapping(
        actor_tile=mapping.actor_tile, tdma_slice=mapping.tdma_slice,
        channel_binding={"izz_iq": ChannelBinding(buffer_tokens=4)},
    )
    with pytest.raises(SameTileError):
        build_bound_graph(graph, platform, bad)


def test_build_bound_graph_rejects_remote_binding_on_shared_tile():
    graph, platform = mjpeg_application(), mjpeg_platform()
    mapping = mjpeg_mapping()
    bad = PlatformMapping(
        actor_tile=mapping.actor_tile, tdma_slice=mapping.tdma_slice,
        channel_binding={"vld_izz": ChannelBinding(BindingKind.REMOTE, "n1")},
    )
    with pytest.raises(SameTileError):
        build_bound_graph(graph, platform, bad)


# --- one-pass binder against the step-by-step composition -----------------

def assert_binds_like_reference(graph, platform, mapping):
    """build_bound_graph gives the reference composition's graph, tuple for
    tuple in the same order, or fails with the same error."""
    try:
        expected = reference_bound_graph(graph, platform, mapping)
    except SdfmigError as exc:
        with pytest.raises(type(exc)) as raised:
            build_bound_graph(graph, platform, mapping)
        assert str(raised.value) == str(exc)
        return None
    bound = build_bound_graph(graph, platform, mapping)
    assert bound.actors == expected.actors
    assert bound.channels == expected.channels
    assert bound.reference_actor == expected.reference_actor
    return bound


def migration_bind_inputs(monkeypatch, graph, platform, mapping, defaults):
    """The (graph, platform, mapping) that migrate_task hands to the binder for
    each single-task migration of a software actor, failed ones included."""
    seen = []

    def recording(*args):
        seen.append(args)
        return build_bound_graph(*args)

    monkeypatch.setattr(migration, "build_bound_graph", recording)
    for actor in graph.actors:
        if actor.kind == ActorKind.SOFTWARE:
            try:
                migrate_task(graph, platform, mapping, replace(defaults, actor=actor.id))
            except SdfmigError:
                pass
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", list_bundled_scenarios())
def test_binder_matches_reference_on_bundled_scenarios(monkeypatch, name):
    s = load_scenario(bundled_scenario_path(name))
    assert assert_binds_like_reference(s.graph, s.platform, s.mapping) is not None
    software = sum(a.kind == ActorKind.SOFTWARE for a in s.graph.actors)
    for speedup in (2, 4):
        inputs = migration_bind_inputs(monkeypatch, s.graph, s.platform, s.mapping,
                                       replace(s.defaults, speedup=Fraction(speedup)))
        assert len(inputs) == software
        for args in inputs:
            assert assert_binds_like_reference(*args) is not None


def test_binder_matches_reference_on_random_scenarios(monkeypatch):
    rng = random.Random(4242)
    bound = prefetched = 0
    for _ in range(40):
        graph, platform, mapping = random_scenario(rng)
        assert_binds_like_reference(graph, platform, mapping)
        for args in migration_bind_inputs(monkeypatch, graph, platform, mapping,
                                          MigrationSpec()):
            bound += assert_binds_like_reference(*args) is not None
            prefetched += any(b.kind == BindingKind.PREFETCH
                              for b in args[2].channel_binding.values())
    assert bound > 100 and prefetched > 50


def test_binder_matches_reference_on_renamed_scenarios(monkeypatch):
    # Elements renamed to the ids the rewrites draw, channels included, so a
    # binder that skipped only the taken actor ids would differ here, and a
    # repeated id must fail as the reference does.
    bound = failed = 0
    for seed in range(120):
        rng = random.Random(seed)
        graph, platform, mapping = random_scenario(rng)
        graph, mapping = with_rewrite_stems(rng, graph, mapping)
        if assert_binds_like_reference(graph, platform, mapping) is None:
            failed += 1
        else:
            bound += 1
        for args in migration_bind_inputs(monkeypatch, graph, platform, mapping,
                                          MigrationSpec()):
            assert_binds_like_reference(*args)
    assert bound > 90 and failed > 0


def two_tile_scenario(actors, channels, tiles, remote=(), buffers=None):
    """Graph on tiles T1/T2 joined by n12/n21: ``actors`` maps id -> exec time,
    ``channels`` rows are (id, src, dst, tokens); ids in ``remote`` cross the
    NoC, every other channel is local with ``buffers[id]`` tokens (default 4)."""
    graph = SDFG([Actor(a, t) for a, t in actors.items()],
                 [Channel(cid, src, dst, initial_tokens=tokens)
                  for cid, src, dst, tokens in channels])
    platform = Platform(
        [Tile("T1", tdma_wheel=100), Tile("T2", tdma_wheel=100)],
        [NocConnection("n12", "T1", "T2", latency=2, bandwidth=Fraction(1)),
         NocConnection("n21", "T2", "T1", latency=2, bandwidth=Fraction(1))])
    bindings = {}
    for cid, src, dst, _ in channels:
        if cid in remote:
            bindings[cid] = ChannelBinding(BindingKind.REMOTE,
                                           f"n{tiles[src][1]}{tiles[dst][1]}",
                                           alpha_src=1, alpha_dst=1)
        else:
            bindings[cid] = ChannelBinding(buffer_tokens=(buffers or {}).get(cid, 4))
    mapping = PlatformMapping(actor_tile=tiles, tdma_slice={a: 10 for a in actors},
                              channel_binding=bindings)
    return graph, platform, mapping


def test_binder_skips_ids_the_application_holds():
    # Actor ac_c0 takes the send actor's stem; actor c0 meets channel c0__self.
    graph, platform, mapping = two_tile_scenario(
        {"A": 3, "B": 4, "ac_c0": 5, "c0": 6},
        [("c0", "A", "B", 0), ("c1", "B", "ac_c0", 0), ("c0__self", "c0", "A", 0),
         ("back", "ac_c0", "c0", 1), ("ret", "B", "A", 2)],
        {"A": "T1", "B": "T2", "ac_c0": "T2", "c0": "T1"},
        remote=("c0", "back", "ret"))
    bound = assert_binds_like_reference(graph, platform, mapping)
    assert bound.actor_map["ac_c0"].exec_time == 5 + 10
    assert bound.channel_map["c0__send"].dst == "ac_c0_2"
    assert bound.channel_map["ac_c0_2__self"].src == "ac_c0_2"
    assert bound.channel_map["c0__self_2"].src == "c0"


def test_binder_skips_ids_the_application_holds_in_prefetch(monkeypatch):
    # Migrating P makes X a prefetch consumer; X1 and X_ri are taken. X's
    # own self-loop xx moves to the execute actor X2.
    graph, platform, mapping = two_tile_scenario(
        {"P": 3, "X": 4, "X1": 5},
        [("px", "P", "X", 0), ("X_ri", "X", "X1", 0), ("back", "X1", "P", 2),
         ("xx", "X", "X", 1)],
        {"P": "T1", "X": "T1", "X1": "T1"})
    inputs = migration_bind_inputs(monkeypatch, graph, platform, mapping,
                                   MigrationSpec())
    assert len(inputs) == 3
    bounds = [assert_binds_like_reference(*args) for args in inputs]
    migrated_p = inputs[0][2].channel_binding
    assert migrated_p["px"].kind == BindingKind.PREFETCH
    assert {"X1_2", "X_ri_2", "X2"} <= bounds[0].actor_map.keys()
    assert bounds[0].channel_map["px"].dst == "X_ri_2"
    assert bounds[0].channel_map["X_ri"].src == "X2"
    assert bounds[0].channel_map["xx"].src == bounds[0].channel_map["xx"].dst == "X2"


def test_binder_reuses_ids_a_remote_rewrite_frees():
    # c1__buf and B__self cross the NoC, so their ids are free again when the
    # local binding of c1 and the self-loop of B draw them.
    graph, platform, mapping = two_tile_scenario(
        {"A": 3, "B": 4},
        [("c1__buf", "A", "B", 0), ("B__self", "A", "B", 0), ("c1", "A", "A", 1),
         ("ret", "B", "A", 2)],
        {"A": "T1", "B": "T2"},
        remote=("c1__buf", "B__self", "ret"), buffers={"c1": 3})
    bound = assert_binds_like_reference(graph, platform, mapping)
    back = bound.channel_map["c1__buf"]
    assert (back.src, back.dst, back.initial_tokens) == ("A", "A", 2)
    assert bound.channel_map["B__self"].src == bound.channel_map["B__self"].dst == "B"
    assert "c1__buf_2" not in bound.channel_map


@pytest.mark.parametrize("kind", [BindingKind.REMOTE, BindingKind.PREFETCH])
def test_build_bound_graph_rejects_unknown_connection(kind):
    # Both kinds used to end in a bare KeyError: 'nope'.
    mapping = mjpeg_mapping()
    bad = replace(mapping, channel_binding={**mapping.channel_binding,
                                            "izz_iq": ChannelBinding(kind, "nope")})
    with pytest.raises(UnknownConnectionError, match="'nope'"):
        build_bound_graph(mjpeg_application(), mjpeg_platform(), bad)
