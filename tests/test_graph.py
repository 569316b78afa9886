import pickle
import random
from dataclasses import replace

import pytest

from helpers import build_graph, fraction_repetition_vector, random_consistent_graph
from sdfmig.errors import InconsistentGraphError
from sdfmig.graph import (
    Actor,
    Channel,
    SDFG,
    compute_repetition_vector,
    disable_auto_concurrency,
    validate,
)


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
    assert q.entries == {"A": 3, "B": 2}


def test_repetition_vector_mjpeg():
    q = compute_repetition_vector(mjpeg_application())
    assert q.entries == {"VLD": 1, "IZZ": 12, "IQ": 12, "IDCT": 12,
                         "CC": 12, "RE": 1}


def test_repetition_vector_inconsistent_cycle():
    # A->B at 2:1 against B->A at 3:1 has no positive solution.
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 1), ("B", "A", 3, 1)])
    with pytest.raises(InconsistentGraphError):
        compute_repetition_vector(g)


def test_repetition_vector_per_component_minimal():
    g = build_graph({"A": 1, "B": 1, "X": 1, "Y": 1},
                    [("A", "B", 2, 4), ("X", "Y", 3, 3)])
    q = compute_repetition_vector(g)
    assert q.entries == {"A": 2, "B": 1, "X": 1, "Y": 1}


def test_repetition_vector_empty_graph():
    assert compute_repetition_vector(SDFG()).entries == {}


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
        assert math.gcd(*q.entries.values()) == 1


def test_repetition_vector_invariant_under_channel_reversal():
    rng = random.Random(9)
    for _ in range(30):
        g = random_consistent_graph(rng)
        flipped = g.with_channels([
            Channel(c.id, c.dst, c.src, c.cons_rate, c.prod_rate, c.initial_tokens)
            for c in g.channels
        ])
        assert compute_repetition_vector(g).entries == \
            compute_repetition_vector(flipped).entries


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
    return graph.with_channels(channels)


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
        variants.append(g.with_channels(channels))
        # Redrawn rates break the balance on several channels at once, in
        # places the traversal reaches in any order.
        variants += [redraw_rates(redraw, g, 0.25) for _ in range(4)]
        for v in variants:
            expected = solved(fraction_repetition_vector, v)
            assert solved(lambda x: compute_repetition_vector(x).entries, v) == expected
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


def test_inconsistent_graph_raises_on_every_call():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 1), ("B", "A", 3, 1)])
    for _ in range(3):
        with pytest.raises(InconsistentGraphError) as info:
            compute_repetition_vector(g)
        assert info.value.channels == ("c1",)


def test_repetition_vector_entries_are_read_only():
    q = compute_repetition_vector(mjpeg_application())
    with pytest.raises(TypeError):
        q.entries["VLD"] = 2
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
    loops = [c for c in g2.channels if c.is_self_loop]
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
