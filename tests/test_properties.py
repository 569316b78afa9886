"""Property tests over generated inputs (Hypothesis).

Hypothesis is a test dependency (the ``test`` extra), imported directly so a
missing install fails collection instead of skipping.
"""

import contextlib
import io
import math
import random
import re
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SDF3_APP,
    build_graph,
    enumerate_cycle_ratios,
    fraction_max_cycle_ratio,
    oracle_throughput,
    random_consistent_graph,
    random_scenario,
    reference_states,
    reference_throughput,
    with_exec_times,
    with_rewrite_stems,
)
from sdfmig.analysis import (
    _max_cycle_ratio,
    iterate_states,
    mcm_throughput,
    self_timed_throughput,
)
from sdfmig.cli import main
from sdfmig.errors import DeadlockError, NotStronglyConnectedError, SdfmigError
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
from sdfmig.mpsoc import Platform, PlatformMapping, Tile, TileKind
from sdfmig.scenario import (
    Scenario,
    bundled_scenario_path,
    load_scenario,
    scenario_to_text,
)
from sdfmig.transforms import build_bound_graph


@st.composite
def live_homogeneous_graphs(draw) -> SDFG:
    """A homogeneous, strongly connected, live graph with positive total time.

    A ring over every actor, in a drawn order, makes it strongly connected.
    Extra edges may repeat an edge or loop on one actor. An edge that does
    not advance along the ring order carries at least one token, so every
    cycle does. Execution times may be zero, but not all of them: a graph
    of zero-time actors only has no finite cycle ratio.
    """
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    position = {node: p for p, node in enumerate(order)}
    times = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    times[order[0]] = draw(st.integers(1, 20))
    node = st.integers(0, n - 1)
    pairs = [(order[p], order[(p + 1) % n]) for p in range(n)]
    pairs += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    channels = [Channel(f"c{i}", f"a{u}", f"a{v}", 1, 1,
                        draw(st.integers(1 if position[v] <= position[u] else 0, 3)))
                for i, (u, v) in enumerate(pairs)]
    graph = SDFG(actors=[Actor(f"a{i}", t) for i, t in enumerate(times)],
                 channels=channels)
    return disable_auto_concurrency(graph) if draw(st.booleans()) else graph


@settings(max_examples=300, deadline=None)
@given(live_homogeneous_graphs())
@example(build_graph(  # a zero-time actor, a parallel edge and a self-loop
    {"A": 4, "B": 0, "C": 7},
    [("A", "B"), ("B", "C"), ("C", "A", 1, 1, 2), ("A", "B", 1, 1, 1),
     ("B", "B", 1, 1, 1), ("C", "B", 1, 1, 1)]))
def test_cycle_ratio_routes_agree(graph):
    analytical = mcm_throughput(graph)
    assert analytical == oracle_throughput(graph)
    assert analytical == self_timed_throughput(graph).iterations_per_cycle


@st.composite
def homogeneous_graphs(draw) -> SDFG:
    """Any homogeneous graph of 1 to 6 actors: edges, tokens and times are
    drawn freely, so some graphs are not strongly connected and some have a
    cycle without tokens. Half of them get a ring over every actor, so many
    are strongly connected."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    tokens = st.integers(0, 2)
    edges = draw(st.lists(st.tuples(node, node, tokens), max_size=2 * n))
    if draw(st.booleans()):
        edges += [(u, (u + 1) % n, draw(tokens)) for u in range(n)]
    times = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return SDFG(actors=[Actor(f"a{i}", t) for i, t in enumerate(times)],
                channels=[Channel(f"c{i}", f"a{u}", f"a{v}", 1, 1, tokens)
                          for i, (u, v, tokens) in enumerate(edges)])


def strongly_connected_by_brute_force(graph: SDFG) -> bool:
    """Every actor reaches every other, by a transitive closure."""
    ids = [a.id for a in graph.actors]
    reach = {(c.src, c.dst) for c in graph.channels} | {(a, a) for a in ids}
    for k in ids:
        reach |= {(i, j) for i in ids for j in ids if (i, k) in reach and (k, j) in reach}
    return all((i, j) in reach for i in ids for j in ids)


@settings(max_examples=300, deadline=None)
@given(homogeneous_graphs())
def test_mcm_pre_checks_match_brute_force(graph):
    if not strongly_connected_by_brute_force(graph):
        with pytest.raises(NotStronglyConnectedError):
            mcm_throughput(graph)
        return
    ratios = enumerate_cycle_ratios(graph)
    if Fraction(-1) in ratios:  # the oracle's token-free-cycle sentinel
        with pytest.raises(DeadlockError):
            mcm_throughput(graph)
    elif not ratios or max(ratios) == 0:
        with pytest.raises(SdfmigError, match="unbounded"):
            mcm_throughput(graph)
    else:
        assert mcm_throughput(graph) == oracle_throughput(graph)


@st.composite
def ratio_edge_lists(draw) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Nodes ``0..n-1`` and edges ``(u, v, w, t)`` that the cycle-ratio core
    accepts: every node has an out-edge and every cycle a positive ``t``.

    Each node draws one out-edge, then extra edges may repeat an edge or
    loop on one node. An edge that does not advance along a drawn order has
    ``t >= 1``, so every cycle does, while an edge that advances may have
    ``t = 0``. Weights may be 0 or at least 2**40, and so may token counts.
    """
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    position = {node: p for p, node in enumerate(order)}
    node = st.integers(0, n - 1)
    pairs = [(u, draw(node)) for u in range(n)]
    pairs += draw(st.lists(st.tuples(node, node), max_size=3 * n))
    weights = st.integers(0, 20) | st.integers(2**40, 2**64)
    edges = []
    for u, v in pairs:
        least = 1 if position[v] <= position[u] else 0
        tokens = draw(st.integers(least, 3) | st.integers(2**40, 2**41))
        edges.append((u, v, draw(weights), tokens))
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(ratio_edge_lists())
@example((3, [  # parallel edges, self-loops, zero weights, a zero-token edge
    (0, 1, 0, 0), (0, 1, 2**40, 1), (1, 2, 5, 1), (2, 0, 0, 2),
    (1, 1, 3, 1), (2, 2, 0, 1), (2, 0, 2**41, 3)]))
def test_max_cycle_ratio_matches_fraction_howard(case):
    n, edges = case
    assert _max_cycle_ratio(n, edges) == fraction_max_cycle_ratio(n, edges)


@st.composite
def consistent_multirate_graphs(draw) -> SDFG:
    """A consistent, live, bounded multirate graph of one or two components.

    Rates come from a drawn repetition vector, so the balance equations
    hold by construction. Each component is a chain plus extra forward
    channels, which may run parallel to others. Every forward channel gets
    a reversed channel holding two iterations of tokens, which keeps the
    graph live and bounded (as in ``random_consistent_graph``). Self-loops
    are drawn per actor. At most one actor takes zero time, and every
    component has two actors or more, so no zero-time cycle can livelock.
    """
    n = draw(st.integers(2, 6))
    # Actors below split form the first component, the rest the second.
    split = draw(st.sampled_from([n] + list(range(2, n - 1))))
    reps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    times = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    zero_time = draw(st.none() | st.integers(0, n - 1))
    if zero_time is not None:
        times[zero_time] = 0
    pairs = [(u, u + 1) for u in range(n - 1) if u + 1 != split]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    pairs += [(u, v) for u, v in extra if u < v and (u < split) == (v < split)]
    channels = []
    for i, (u, v) in enumerate(pairs):
        m, g = draw(st.integers(1, 2)), math.gcd(reps[u], reps[v])
        prod, cons = m * reps[v] // g, m * reps[u] // g
        channels.append(Channel(f"f{i}", f"a{u}", f"a{v}", prod, cons, 0))
        channels.append(Channel(f"b{i}", f"a{v}", f"a{u}", cons, prod, 2 * reps[u] * prod))
    for a in range(n):
        if draw(st.booleans()):
            channels.append(Channel(f"s{a}", f"a{a}", f"a{a}", 1, 1, 1))
    return SDFG(actors=[Actor(f"a{i}", t) for i, t in enumerate(times)],
                channels=channels)


@settings(max_examples=300, deadline=None)
@given(consistent_multirate_graphs())
def test_self_timed_matches_reference_simulator(graph):
    assert self_timed_throughput(graph) == reference_throughput(graph)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.booleans())
def test_sparse_keys_match_reference_simulator(seed, self_loops, zero_time):
    # Only the marker's firing starts are stored, so the period and
    # transient come from the sparse search and replays.
    rng = random.Random(seed)
    graph = random_consistent_graph(rng, self_loops=self_loops)
    if zero_time:
        graph = with_exec_times(graph, {rng.choice(graph.actors).id: 0})
    assert self_timed_throughput(graph) == reference_throughput(graph)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.booleans())
def test_states_match_reference_simulator(seed, self_loops, zero_time):
    # State by state, not only the throughput: the enabling counters must
    # start exactly the firings a scan of every actor would.
    rng = random.Random(seed)
    graph = random_consistent_graph(rng, self_loops=self_loops)
    if zero_time:
        graph = with_exec_times(graph, {rng.choice(graph.actors).id: 0})
    assert list(iterate_states(graph, max_states=300)) == reference_states(graph, 300)


@st.composite
def self_loop_graphs(draw) -> SDFG:
    """A ``random_consistent_graph`` whose actors each get 0-2 self-loops of
    rate ``r`` in {1, 2, 3} holding ``k`` in [0, 3r) tokens, so caps of 0, 1
    and 2 firings in flight, with the channels in a drawn order and maybe
    one zero-time actor. A cap of 0 deadlocks the graph, so it is drawn
    one time in ten."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = random_consistent_graph(rng, self_loops=False)
    channels = list(graph.channels)
    cap = st.integers(0, 9).map(lambda n: 0 if n == 0 else 1 + n % 2)
    for actor in graph.actors:
        for j in range(draw(st.integers(0, 2))):
            rate = draw(st.integers(1, 3))
            tokens = draw(cap) * rate + draw(st.integers(0, rate - 1))
            channels.append(Channel(f"{actor.id}_loop{j}", actor.id, actor.id, rate, rate,
                                    tokens))
    graph = SDFG(graph.actors, draw(st.permutations(channels)))
    if draw(st.booleans()):
        graph = with_exec_times(graph, {draw(st.sampled_from(graph.actors)).id: 0})
    return graph


def throughput_or_error(route, graph):
    try:
        return route(graph)
    except SdfmigError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(self_loop_graphs())
def test_folded_self_loops_match_reference_simulator(graph):
    # Each self-loop is a cap on the actor's firings in flight; the states,
    # results and errors stay those of the scan-all reference.
    assert list(iterate_states(graph, max_states=200)) == reference_states(graph, 200)
    assert (throughput_or_error(self_timed_throughput, graph)
            == throughput_or_error(reference_throughput, graph))


@st.composite
def broken_graphs(draw) -> SDFG:
    """A ``random_consistent_graph`` with one structural rule broken: a time
    or a token count negated, an actor or channel id repeated, a channel
    pointed at a missing actor, or a rate zeroed."""
    graph = random_consistent_graph(random.Random(draw(st.integers(0, 2**32))))
    actors, channels = list(graph.actors), list(graph.channels)
    a = draw(st.integers(0, len(actors) - 1))
    c = draw(st.integers(0, len(channels) - 1))
    mutation = draw(st.sampled_from(["time", "tokens", "actor id", "channel id",
                                     "endpoint", "rate"]))
    if mutation == "time":
        actors[a] = replace(actors[a], exec_time=-actors[a].exec_time)
    elif mutation == "tokens":
        marked = [i for i, ch in enumerate(channels) if ch.initial_tokens]
        c = marked[c % len(marked)]
        channels[c] = replace(channels[c], initial_tokens=-channels[c].initial_tokens)
    elif mutation == "actor id":
        actors.append(replace(actors[a], exec_time=actors[a].exec_time + 1))
    elif mutation == "channel id":
        channels.append(replace(channels[c], initial_tokens=channels[c].initial_tokens + 1))
    elif mutation == "endpoint":
        field = draw(st.sampled_from(["src", "dst"]))
        channels[c] = replace(channels[c], **{field: "ghost"})
    else:
        field = draw(st.sampled_from(["prod_rate", "cons_rate"]))
        channels[c] = replace(channels[c], **{field: 0})
    return SDFG(actors, channels)


def bind_on_one_tile(graph: SDFG) -> SDFG:
    mapping = PlatformMapping(actor_tile={a.id: "T" for a in graph.actors},
                              tdma_slice={}, channel_binding={})
    return build_bound_graph(graph, Platform([Tile("T", tdma_wheel=10)]), mapping)


@settings(max_examples=200, deadline=None)
@given(broken_graphs())
def test_broken_graph_ends_in_sdfmig_error_at_every_entry_point(graph):
    assert validate(graph)
    for entry in (self_timed_throughput, iterate_states, mcm_throughput,
                  bind_on_one_tile, compute_repetition_vector):
        with pytest.raises(SdfmigError):
            entry(graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_bound_and_migrated_graphs_are_well_formed(seed, rename):
    # A rewrite that drew a taken id, or re-pointed a channel at an actor an
    # earlier rewrite removed, would show here as a diagnostic.
    rng = random.Random(seed)
    graph, platform, mapping = random_scenario(rng)
    if rename:
        graph, mapping = with_rewrite_stems(rng, graph, mapping)
    routes = [lambda: build_bound_graph(graph, platform, mapping)]
    routes += [lambda actor=a.id: migrate_task(graph, platform, mapping,
                                               MigrationSpec(actor=actor)).graph
               for a in graph.actors if a.kind == ActorKind.SOFTWARE]
    for route in routes:
        try:
            bound = route()
        except SdfmigError:
            continue
        assert validate(bound) == []


# Scenario files with one attribute value replaced: each either raises a
# typed error at load or survives save -> load -> save byte for byte, and
# ``sdfmig check`` on it returns an exit code with no traceback.

MUTATION_SOURCES = [bundled_scenario_path("mjpeg_base").read_text(encoding="utf-8"),
                    bundled_scenario_path("two_stage_demo").read_text(encoding="utf-8"),
                    SDF3_APP]
ATTRIBUTE_VALUE = re.compile(r'[\w-]+="([^"]*)"')
ODD_VALUES = ["", "0", "-0", "-1", "1", "2", "99999999999999999999", " 3 ", "+5", "1_000",
              "٣", "1.5", "-2/7", "1/0", "0.00406278", "1e3", "inf", "nan", "true", "false",
              "nope", "T1", "T2", "n1", "VLD", "IZZ", "izz_iq", "&amp;", "a&lt;b", "x y"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(MUTATION_SOURCES))), st.integers(0, 10**6),
       st.sampled_from(ODD_VALUES) | st.integers(-10**6, 10**9).map(str)
       | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
def test_mutated_scenario_is_refused_or_round_trips(source, spot, value):
    text = MUTATION_SOURCES[source]
    spots = list(ATTRIBUTE_VALUE.finditer(text))
    match = spots[spot % len(spots)]
    mutated = text[:match.start(1)] + value + text[match.end(1):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.xml"
        path.write_text(mutated, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(path), "--state-budget", "20000"]) in (0, 1, 2, 3)
        try:
            scenario = load_scenario(path)
        except SdfmigError:
            return
        saved = scenario_to_text(scenario)
        path.write_text(saved, encoding="utf-8")
        assert scenario_to_text(load_scenario(path)) == saved


# Scenarios built through the API with one field set to an odd value: each
# is refused where it is built, or binds, analyses and migrates with nothing
# but typed errors and saves text that loads back equal. Only an id or a
# name may still be refused by save, which writes text fields as they are.

FIELD_TARGETS = (
    [("scenario", f) for f in ("name", "clock_hz")] + [("graph", "reference_actor")]
    + [("actor", f) for f in ("id", "exec_time", "kind", "name")]
    + [("channel", f) for f in ("id", "src", "dst", "prod_rate", "cons_rate",
                                "initial_tokens", "token_size")]
    + [("tile", f) for f in ("id", "kind", "tdma_wheel")]
    + [("connection", f) for f in ("id", "src_tile", "dst_tile", "latency", "bandwidth")]
    + [("place", f) for f in ("tile", "tdma_slice")]
    + [("bind", f) for f in ("connection", "buffer_tokens", "alpha_src", "alpha_dst",
                             "latency_bound", "prefetch_time")]
    + [("defaults", f) for f in ("speedup", "prefetch_time", "hw_connection",
                                 "hw_buffer_tokens", "alpha_src", "alpha_dst")])
ODD_FIELD_VALUES = [True, False, None, 0, 1, -1, 2, 2**70, 1.0, 0.5, Fraction(1, 3),
                    Fraction(-3), "", "3", "x y", "a<b&\"c'", "\x01", "\ud800", "\r\n\t",
                    "\ufffe", "T1", "T2", "n1", "link", "VLD", "IZZ", "src", "izz_iq",
                    "software", "hardware", "processor", "memory", ActorKind.HARDWARE,
                    TileKind.MEMORY, TileKind.HARDWARE_BLOCK]
API_SCENARIOS = [load_scenario(bundled_scenario_path(name))
                 for name in ("mjpeg_base", "two_stage_demo")]
ID_AND_NAME_TARGETS = {("scenario", "name"), ("actor", "id"), ("actor", "name"),
                       ("channel", "id"), ("tile", "id"), ("connection", "id")}


def with_odd_value(scenario: Scenario, element: str, field: str, spot: int, value) -> Scenario:
    """``scenario`` with ``field`` of its ``spot``-th ``element`` (by id) set
    to ``value``."""
    graph, platform, mapping = scenario.graph, scenario.platform, scenario.mapping

    def changed(items):
        items = sorted(items, key=lambda item: item.id)
        items[spot % len(items)] = replace(items[spot % len(items)], **{field: value})
        return items

    if element == "scenario":
        return replace(scenario, **{field: value})
    if element == "graph":
        return replace(scenario, graph=SDFG(graph.actors, graph.channels, value))
    if element == "actor":
        graph = SDFG(changed(graph.actors), graph.channels, graph.reference_actor)
    elif element == "channel":
        graph = SDFG(graph.actors, changed(graph.channels), graph.reference_actor)
    elif element == "tile":
        platform = Platform(changed(platform.tiles), platform.connections)
    elif element == "connection":
        platform = Platform(platform.tiles, changed(platform.connections))
    elif element == "place":
        actor = sorted(mapping.actor_tile)[spot % len(mapping.actor_tile)]
        slot = "actor_tile" if field == "tile" else field
        mapping = replace(mapping, **{slot: {**getattr(mapping, slot), actor: value}})
    elif element == "bind":
        channel = sorted(mapping.channel_binding)[spot % len(mapping.channel_binding)]
        binding = replace(mapping.channel_binding[channel], **{field: value})
        mapping = replace(mapping, channel_binding={**mapping.channel_binding,
                                                    channel: binding})
    else:
        return replace(scenario, defaults=replace(scenario.defaults, **{field: value}))
    return replace(scenario, graph=graph, platform=platform, mapping=mapping)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(API_SCENARIOS))), st.sampled_from(FIELD_TARGETS),
       st.integers(0, 100),
       st.sampled_from(ODD_FIELD_VALUES) | st.integers(-10**6, 10**9)
       | st.fractions(max_denominator=7) | st.text(max_size=4))
@example(0, ("defaults", "alpha_src"), 0, True)
@example(0, ("place", "tdma_slice"), 0, "50000")
@example(1, ("scenario", "name"), 0, "\x01")
@example(0, ("tile", "tdma_wheel"), 0, "")
@example(0, ("tile", "kind"), 0, True)
@example(0, ("connection", "bandwidth"), 0, 0.5)
@example(0, ("actor", "exec_time"), 2, True)
def test_api_scenario_save_refuses_or_round_trips(source, target, spot, value):
    try:
        scenario = with_odd_value(API_SCENARIOS[source], *target, spot, value)
    except SdfmigError:
        return  # refused where it is built, as a ChannelBinding refuses a bad count
    graph, platform, mapping = scenario.graph, scenario.platform, scenario.mapping
    software = sorted((a.id for a in graph.actors if a.kind == ActorKind.SOFTWARE), key=str)
    spec = replace(scenario.defaults, actor=software[spot % len(software)])
    with contextlib.suppress(SdfmigError):
        bound = build_bound_graph(graph, platform, mapping)
        self_timed_throughput(bound, state_budget=10_000)
    with contextlib.suppress(SdfmigError):
        migrate_task(graph, platform, mapping, spec)
    try:
        text = scenario_to_text(scenario)
    except SdfmigError:
        assert target in ID_AND_NAME_TARGETS
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "saved.xml"
        path.write_text(text, encoding="utf-8")
        assert load_scenario(path) == scenario
