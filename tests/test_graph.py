import copy
import pickle
import random
from dataclasses import replace

import pytest

from helpers import build_graph, fraction_repetition_vector, random_consistent_graph
from sdfmig import graph as graph_module
from sdfmig.analysis import iterate_states, mcm_throughput, self_timed_throughput
from sdfmig.errors import (
    DuplicateIdError,
    InconsistentGraphError,
    InvalidRateError,
    MalformedGraphError,
    NegativeExecutionTimeError,
    ScenarioValidationError,
    UnknownActorError,
)
from sdfmig.graph import (
    Actor,
    ActorKind,
    Channel,
    SDFG,
    check_graph,
    compute_repetition_vector,
    disable_auto_concurrency,
    validate,
)
from sdfmig.mpsoc import Platform, PlatformMapping, Tile
from sdfmig.scenario import bundled_scenario_path, load_scenario
from sdfmig.transforms import build_bound_graph


def mjpeg_application() -> SDFG:
    return build_graph(
        {"VLD": 2082463, "IZZ": 24791, "IQ": 49582, "IDCT": 99165,
         "CC": 74374, "RE": 892484},
        [("VLD", "IZZ", 12, 1), ("IZZ", "IQ"), ("IQ", "IDCT"),
         ("IDCT", "CC"), ("CC", "RE", 1, 12)],
    )


def test_repetition_vector_two_actor():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 3)])
    q = compute_repetition_vector(g)
    assert q == {"A": 3, "B": 2}


def test_repetition_vector_mjpeg():
    q = compute_repetition_vector(mjpeg_application())
    assert q == {"VLD": 1, "IZZ": 12, "IQ": 12, "IDCT": 12, "CC": 12, "RE": 1}


def test_repetition_vector_inconsistent_cycle():
    # A->B at 2:1 against B->A at 3:1 has no positive solution.
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 1), ("B", "A", 3, 1)])
    with pytest.raises(InconsistentGraphError):
        compute_repetition_vector(g)


def test_repetition_vector_per_component_minimal():
    g = build_graph({"A": 1, "B": 1, "X": 1, "Y": 1},
                    [("A", "B", 2, 4), ("X", "Y", 3, 3)])
    q = compute_repetition_vector(g)
    assert q == {"A": 2, "B": 1, "X": 1, "Y": 1}


def test_repetition_vector_empty_graph():
    assert compute_repetition_vector(SDFG()) == {}


def test_repetition_vector_balances_every_channel():
    rng = random.Random(7)
    for _ in range(50):
        g = random_consistent_graph(rng)
        q = compute_repetition_vector(g)
        for c in g.channels:
            assert q[c.src] * c.prod_rate == q[c.dst] * c.cons_rate


def test_repetition_vector_collectively_coprime():
    import math
    rng = random.Random(8)
    for _ in range(50):
        g = random_consistent_graph(rng)
        q = compute_repetition_vector(g)
        assert math.gcd(*q.values()) == 1


def test_repetition_vector_invariant_under_channel_reversal():
    rng = random.Random(9)
    for _ in range(30):
        g = random_consistent_graph(rng)
        flipped = replace(g, channels=[
            Channel(c.id, c.dst, c.src, c.cons_rate, c.prod_rate, c.initial_tokens)
            for c in g.channels
        ])
        assert compute_repetition_vector(g) == compute_repetition_vector(flipped)


def solved(solver, graph):
    """A solver's entries, or the offending channels it reports."""
    try:
        return dict(solver(graph))
    except InconsistentGraphError as exc:
        return exc.channels


def redraw_rates(rng, graph, share):
    """``graph`` with about ``share`` of its rates replaced by random ones."""
    channels = []
    for c in graph.channels:
        prod = rng.randint(1, 6) if rng.random() < share else c.prod_rate
        cons = rng.randint(1, 6) if rng.random() < share else c.cons_rate
        channels.append(replace(c, prod_rate=prod, cons_rate=cons))
    return replace(graph, channels=channels)


def test_repetition_vector_matches_fraction_oracle():
    rng = random.Random(17)
    redraw = random.Random(71)
    inconsistent = 0
    for i in range(60):
        g = random_consistent_graph(rng, self_loops=i % 2 == 0)
        variants = [g]
        # Scale one or two channels' production rates: every channel lies on
        # a cycle, so this usually breaks the balance equations.
        channels = list(g.channels)
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(channels))
            channels[k] = replace(channels[k],
                                  prod_rate=channels[k].prod_rate * rng.choice([2, 3]))
        variants.append(replace(g, channels=channels))
        # Redrawn rates break the balance on several channels at once, in
        # places the traversal reaches in any order.
        variants += [redraw_rates(redraw, g, 0.25) for _ in range(4)]
        for v in variants:
            expected = solved(fraction_repetition_vector, v)
            assert solved(compute_repetition_vector, v) == expected
            inconsistent += isinstance(expected, tuple)
    assert inconsistent >= 200


def test_repetition_vector_is_solved_once_per_graph():
    g = mjpeg_application()
    q = compute_repetition_vector(g)
    assert compute_repetition_vector(g) is q
    assert validate(g) == [] and compute_repetition_vector(g) is q
    # An equal but distinct graph object is solved on its own.
    assert compute_repetition_vector(mjpeg_application()) is not q
    assert pickle.loads(pickle.dumps(g)) == g


def test_solved_graph_deep_copies_equal():
    g = mjpeg_application()
    compute_repetition_vector(g)
    assert copy.deepcopy(g) == g


def test_inconsistent_graph_raises_on_every_call():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 1), ("B", "A", 3, 1)])
    for _ in range(3):
        with pytest.raises(InconsistentGraphError) as info:
            compute_repetition_vector(g)
        assert info.value.channels == ("c1",)


def test_repetition_vector_entries_are_read_only():
    q = compute_repetition_vector(mjpeg_application())
    with pytest.raises(TypeError):
        q["VLD"] = 2
    assert q["VLD"] == 1


def test_validate_clean_mjpeg():
    assert validate(mjpeg_application()) == []


def test_validate_zero_rate():
    g = SDFG(actors=[Actor("A", 1), Actor("B", 1)],
             channels=[Channel("c", "A", "B", 1, 0)])
    codes = [d.code for d in validate(g)]
    assert codes == ["ZeroRate"]


def test_validate_dangling_endpoint():
    g = SDFG(actors=[Actor("A", 1)], channels=[Channel("c", "A", "ghost")])
    codes = [d.code for d in validate(g)]
    assert "DanglingEndpoint" in codes


def test_validate_inconsistent():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 1), ("B", "A", 3, 1)])
    codes = [d.code for d in validate(g)]
    assert "Inconsistent" in codes


def test_validate_negative_tokens_and_exec_time():
    g = SDFG(actors=[Actor("A", -5), Actor("B", 1)],
             channels=[Channel("c", "A", "B", initial_tokens=-1)])
    codes = {d.code for d in validate(g)}
    assert codes == {"NegativeExecTime", "NegativeTokens"}


def test_disable_auto_concurrency_adds_unit_self_loops():
    g = build_graph({"A": 1, "B": 2}, [("A", "B")])
    g2 = disable_auto_concurrency(g)
    loops = [c for c in g2.channels if c.src == c.dst]
    assert {(c.src, c.prod_rate, c.cons_rate, c.initial_tokens) for c in loops} == \
        {("A", 1, 1, 1), ("B", 1, 1, 1)}


def test_disable_auto_concurrency_keeps_existing_self_loop():
    g = SDFG(actors=[Actor("B", 2)],
             channels=[Channel("state", "B", "B", 1, 1, 1)])
    assert disable_auto_concurrency(g) == g


def test_disable_auto_concurrency_empty_graph():
    assert disable_auto_concurrency(SDFG()) == SDFG()


def test_disable_auto_concurrency_idempotent():
    rng = random.Random(10)
    for _ in range(20):
        g = random_consistent_graph(rng)
        once = disable_auto_concurrency(g)
        assert disable_auto_concurrency(once) == once


def test_graphs_are_immutable():
    a = Actor("A", 3)
    with pytest.raises(Exception):
        a.exec_time = 4


def ring(times=(2, 3), tokens=(0, 1), rates=(1, 1), ids=("c0", "c1"),
         extra_actors=(), reference=None, dst="B", size=0, kind=ActorKind.SOFTWARE):
    """A (times[0]) -> B (times[1]) -> A, with one field broken per case."""
    actors = [Actor("A", times[0], kind), Actor("B", times[1]), *extra_actors]
    channels = [Channel(ids[0], "A", dst, *rates, tokens[0], size),
                Channel(ids[1], "B", "A", 1, 1, tokens[1])]
    return SDFG(actors, channels, reference_actor=reference)


def bind_on_one_tile(graph):
    mapping = PlatformMapping(actor_tile={a.id: "T" for a in graph.actors},
                              tdma_slice={}, channel_binding={})
    return build_bound_graph(graph, Platform([Tile("T", tdma_wheel=10)]), mapping)


# Each of these used to end in a traceback or a number at some entry point:
# IndexError for the repeated actor, ZeroDivisionError for tokens (1, -1) in
# mcm_throughput, a throughput for the repeated channel and the other
# negative tokens, TypeError for the float time, and a repetition vector for
# the zero rate.
BAD_GRAPHS = [
    pytest.param(ring(extra_actors=[Actor("A", 5)]), DuplicateIdError, "DuplicateId",
                 id="repeated-actor"),
    pytest.param(ring(ids=("c", "c")), DuplicateIdError, "DuplicateId",
                 id="repeated-channel"),
    pytest.param(ring(tokens=(1, -1)), MalformedGraphError, "NegativeTokens",
                 id="tokens-1-minus-1"),
    pytest.param(ring(tokens=(3, -1)), MalformedGraphError, "NegativeTokens",
                 id="tokens-3-minus-1"),
    pytest.param(ring(times=(2.5, 3)), MalformedGraphError, "NegativeExecTime",
                 id="float-exec-time"),
    pytest.param(ring(tokens=(0, 1.0)), MalformedGraphError, "NegativeTokens",
                 id="float-tokens"),
    pytest.param(ring(rates=(1, 0)), InvalidRateError, "ZeroRate", id="zero-rate"),
    pytest.param(ring(rates=(1.5, 1)), MalformedGraphError, "ZeroRate", id="float-rate"),
    pytest.param(ring(times=(2, -3)), NegativeExecutionTimeError, "NegativeExecTime",
                 id="negative-exec-time"),
    pytest.param(ring(dst="ghost"), UnknownActorError, "DanglingEndpoint",
                 id="dangling-endpoint"),
    pytest.param(ring(reference="ghost"), MalformedGraphError, "BadReference",
                 id="unknown-reference"),
    pytest.param(ring(size=-1), MalformedGraphError, "NegativeTokenSize",
                 id="negative-token-size"),
    pytest.param(ring(size="64"), MalformedGraphError, "NegativeTokenSize",
                 id="string-token-size"),
    pytest.param(ring(size=64.0), MalformedGraphError, "NegativeTokenSize",
                 id="float-token-size"),
    # A bool is not an integer, and an actor kind is an ActorKind.
    pytest.param(ring(times=(True, 3)), MalformedGraphError, "NegativeExecTime",
                 id="bool-exec-time"),
    pytest.param(ring(tokens=(0, True)), MalformedGraphError, "NegativeTokens",
                 id="bool-tokens"),
    pytest.param(ring(rates=(True, 1)), MalformedGraphError, "ZeroRate", id="bool-rate"),
    pytest.param(ring(size=True), MalformedGraphError, "NegativeTokenSize",
                 id="bool-token-size"),
    pytest.param(ring(kind=True), MalformedGraphError, "BadKind", id="bool-kind"),
    pytest.param(ring(kind="hardware"), MalformedGraphError, "BadKind", id="str-kind"),
]

ENTRY_POINTS = [self_timed_throughput, iterate_states, mcm_throughput,
                bind_on_one_tile, compute_repetition_vector]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("graph, error, code", BAD_GRAPHS)
def test_bad_graph_ends_in_typed_error_at_every_entry_point(graph, error, code, entry):
    with pytest.raises(error):
        entry(graph)
    assert code in [d.code for d in validate(graph)]


@pytest.mark.parametrize("size", [-1, "64", 64.0])
def test_token_size_is_checked_through_the_api(size):
    # On two_stage_demo, -1 used to validate clean and give the connection
    # actor ac_data a time of 2 cycles, below the link's latency of 4; "64"
    # escaped binding as a bare TypeError and 64.0 ended in a
    # MalformedGraphError naming ac_data.
    scenario = load_scenario(bundled_scenario_path("two_stage_demo"))
    graph = replace(scenario.graph, channels=[
        replace(c, token_size=size) for c in scenario.graph.channels])
    message = (f"channel 'data' has token size {size!r}; it must be an integer "
               "of at least 0")
    assert [(d.code, d.subject, d.message) for d in validate(graph)] == [
        ("NegativeTokenSize", "data", message)]
    with pytest.raises(MalformedGraphError) as raised:
        build_bound_graph(graph, scenario.platform, scenario.mapping)
    assert str(raised.value) == message


@pytest.mark.parametrize("element, subject, field, code, message", [
    pytest.param("actor", "IQ", "exec_time", "NegativeExecTime",
                 "actor 'IQ' has execution time True; it must be an integer of at least 0",
                 id="exec-time"),
    pytest.param("actor", "IQ", "kind", "BadKind",
                 "actor 'IQ' has kind True; it must be an ActorKind", id="kind"),
    pytest.param("channel", "izz_iq", "initial_tokens", "NegativeTokens",
                 "channel 'izz_iq' has initial tokens True; they must be an integer of "
                 "at least 0", id="initial-tokens"),
])
def test_bool_value_is_refused_by_the_graph_rules(element, subject, field, code, message):
    # On mjpeg_base, IQ with exec_time=True used to analyse at 14.73 f/s,
    # kind=True made IQ count as hardware, and initial_tokens=True on izz_iq
    # was taken as 1.
    scenario = load_scenario(bundled_scenario_path("mjpeg_base"))
    graph = scenario.graph
    if element == "actor":
        graph = replace(graph, actors=[
            replace(a, **{field: True}) if a.id == subject else a for a in graph.actors])
    else:
        graph = replace(graph, channels=[
            replace(c, **{field: True}) if c.id == subject else c for c in graph.channels])
    assert [(d.code, d.subject, d.message) for d in validate(graph)] == [
        (code, subject, message)]
    with pytest.raises(MalformedGraphError) as raised:
        build_bound_graph(graph, scenario.platform, scenario.mapping)
    assert str(raised.value) == message
    with pytest.raises(ScenarioValidationError) as raised:
        replace(scenario, graph=graph)
    assert str(raised.value) == f"[{code}] {subject}: {message}"


def test_validate_lists_structural_and_balance_diagnostics_in_one_call():
    g = SDFG([Actor("A", -1), Actor("B", 1)],
             [Channel("c0", "A", "B", 2, 1, -1), Channel("c1", "B", "A", 3, 1)])
    assert [d.code for d in validate(g)] == ["NegativeExecTime", "NegativeTokens",
                                             "Inconsistent"]


def test_structural_check_caches_only_a_pass(monkeypatch):
    calls = []
    rules = graph_module._violations
    monkeypatch.setattr(graph_module, "_violations",
                        lambda g: calls.append(g) or rules(g))
    bad = ring(tokens=(1, -1))
    for _ in range(3):
        with pytest.raises(MalformedGraphError, match="'c1'"):
            check_graph(bad)
    assert len(calls) == 3
    good = ring()
    for _ in range(3):
        self_timed_throughput(good)
    assert len(calls) == 4
