import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    build_graph,
    fraction_max_cycle_ratio,
    mjpeg_application,
    mjpeg_mapping,
    mjpeg_platform,
    oracle_throughput,
    random_consistent_graph,
    random_homogeneous_graph,
    ratio_edges,
    reference_states,
    reference_throughput,
    with_exec_times,
)
from sdfmig import analysis
from sdfmig.analysis import (
    _max_cycle_ratio,
    iterate_states,
    mcm_throughput,
    resolve_reference_actor,
    self_timed_throughput,
    to_frames_per_second,
)
from sdfmig.errors import (
    DeadlockError,
    InvalidClockError,
    InvalidRateError,
    InvalidStateBudgetError,
    NegativeExecutionTimeError,
    NotHomogeneousError,
    NotStronglyConnectedError,
    SdfmigError,
    StateSpaceBudgetExceededError,
    UnknownActorError,
)
from sdfmig.graph import (
    SDFG,
    Actor,
    Channel,
    compute_repetition_vector,
    disable_auto_concurrency,
)
from sdfmig.migration import MigrationSpec, migrate_task
from sdfmig.scenario import bundled_scenario_path, load_scenario
from sdfmig.transforms import build_bound_graph


def two_actor_cycle():
    return build_graph({"A": 2, "B": 3}, [("A", "B"), ("B", "A", 1, 1, 1)])


def test_self_timed_two_actor_cycle():
    r = self_timed_throughput(disable_auto_concurrency(two_actor_cycle()))
    assert r.iterations_per_cycle == Fraction(1, 5)
    assert r.period_cycles == 5
    assert r.reference_firings_per_period == 1


def test_self_timed_token_free_cycle_deadlocks():
    g = build_graph({"A": 2, "B": 3}, [("A", "B"), ("B", "A")])
    with pytest.raises(DeadlockError):
        self_timed_throughput(disable_auto_concurrency(g))


def test_self_timed_multirate_pipeline():
    # One producer firing releases three consumer firings; buffer of 6 lets
    # the producer stay one batch ahead, so B's 1-cycle firings hide entirely
    # inside A's 5-cycle ones.
    g = build_graph({"A": 5, "B": 1},
                    [("A", "B", 3, 1), ("B", "A", 1, 3, 6)])
    r = self_timed_throughput(disable_auto_concurrency(g))
    assert r.iterations_per_cycle == Fraction(1, 5)
    assert r.reference_actor == "A"


def test_self_timed_zero_exec_time_actor():
    # B forwards instantly; the A-self-loop is the only timing constraint.
    g = build_graph({"A": 4, "B": 0},
                    [("A", "B"), ("B", "A", 1, 1, 1)])
    r = self_timed_throughput(disable_auto_concurrency(g))
    assert r.iterations_per_cycle == Fraction(1, 4)


def test_self_timed_unbounded_graph_exhausts_budget():
    # A feeds B faster than B drains and nothing back-pressures A.
    g = build_graph({"A": 1, "B": 5}, [("A", "B")])
    with pytest.raises(StateSpaceBudgetExceededError):
        self_timed_throughput(disable_auto_concurrency(g), state_budget=500)


@pytest.mark.parametrize("budget", [0, -5, 2.5, True])
def test_self_timed_rejects_bad_state_budget(budget):
    with pytest.raises(InvalidStateBudgetError, match="state budget"):
        self_timed_throughput(disable_auto_concurrency(two_actor_cycle()),
                              state_budget=budget)


@pytest.mark.parametrize("max_states", [0, -1, 2.5, "3", None, True])
def test_iterate_states_rejects_bad_max_states(max_states):
    # Checked on the call, before the first state is asked for.
    with pytest.raises(InvalidStateBudgetError, match="max_states"):
        iterate_states(two_actor_cycle(), max_states=max_states)


@pytest.mark.parametrize("entry", [self_timed_throughput, iterate_states, mcm_throughput])
@pytest.mark.parametrize("ends", [("A", "ghost"), ("ghost", "A")])
def test_unknown_actor_rejected_before_graph_work(entry, ends):
    g = SDFG(actors=[Actor("A", 1)], channels=[Channel("c", *ends, 1, 1, 1)])
    with pytest.raises(UnknownActorError, match="'c'.*'ghost'"):
        entry(g)


# The ring A (2 cycles) <-> B (3 cycles) with a self-loop on A, with a rate of
# 0 on A->B. The consumption-rate case used to end in a livelock report at
# t=0, the production-rate case in a deadlock at t=9; neither named c0.
RATE_BELOW_ONE = [
    pytest.param(("A", "B", 1, 0), "production rate 1 and consumption rate 0",
                 id="cons-rate-0"),
    pytest.param(("A", "B", 0, 1, 3), "production rate 0 and consumption rate 1",
                 id="prod-rate-0"),
]


def ring_with_rate_below_one(row):
    return build_graph({"A": 2, "B": 3}, [row, ("B", "A", 1, 1, 1), ("A", "A", 1, 1, 1)])


@pytest.mark.parametrize("row, rates", RATE_BELOW_ONE)
def test_self_timed_rejects_rate_below_one(row, rates):
    with pytest.raises(InvalidRateError, match=f"channel 'c0' has {rates}"):
        self_timed_throughput(ring_with_rate_below_one(row))


@pytest.mark.parametrize("row, rates", RATE_BELOW_ONE)
def test_iterate_states_rejects_rate_below_one(row, rates):
    with pytest.raises(InvalidRateError, match=f"channel 'c0' has {rates}"):
        iterate_states(ring_with_rate_below_one(row))


def test_self_timed_empty_graph_deadlocks():
    from sdfmig.graph import SDFG
    with pytest.raises(Exception):
        self_timed_throughput(SDFG())


def test_self_timed_deterministic():
    rng = random.Random(11)
    for _ in range(10):
        g = random_homogeneous_graph(rng)
        assert self_timed_throughput(g) == self_timed_throughput(g)


def test_self_timed_reference_actor_override():
    g = build_graph({"A": 2, "B": 3}, [("A", "B"), ("B", "A", 1, 1, 1)],
                    reference="B")
    r = self_timed_throughput(disable_auto_concurrency(g))
    assert r.reference_actor == "B"
    assert r.iterations_per_cycle == Fraction(1, 5)


def test_self_timed_zero_time_cycle_livelocks():
    # A and B hand one token back and forth without time ever advancing.
    g = build_graph({"A": 0, "B": 0}, [("A", "B"), ("B", "A", 1, 1, 1)])
    with pytest.raises(StateSpaceBudgetExceededError, match="livelock"):
        self_timed_throughput(g)


def test_negative_exec_time_rejected_before_simulation():
    g = build_graph({"A": 2, "B": -3}, [("A", "B"), ("B", "A", 1, 1, 1)])
    with pytest.raises(NegativeExecutionTimeError, match="B"):
        self_timed_throughput(g)
    with pytest.raises(NegativeExecutionTimeError):
        next(iterate_states(g))


def assert_matches_reference(graph, max_states=400):
    assert list(iterate_states(graph, max_states=max_states)) == \
        reference_states(graph, max_states)
    assert self_timed_throughput(graph) == reference_throughput(graph)


def test_engine_matches_reference_on_random_graphs():
    rng = random.Random(16)
    for i in range(60):
        g = random_consistent_graph(rng, self_loops=i % 2 == 0)
        if i % 3 == 0:
            # One zero-time actor: its firings complete within the instant
            # they start in. Two adjacent ones could livelock.
            g = with_exec_times(g, {rng.choice(g.actors).id: 0})
        assert_matches_reference(g)


def test_engine_matches_reference_on_mjpeg():
    app, platform, mapping = mjpeg_application(), mjpeg_platform(), mjpeg_mapping()
    graphs = [build_bound_graph(app, platform, mapping)]
    graphs += [migrate_task(app, platform, mapping, MigrationSpec(actor=a.id)).graph
               for a in app.actors]
    assert len(graphs) == 7
    for g in graphs:
        assert_matches_reference(g, max_states=1500)


def test_engine_matches_reference_with_identical_firings_in_flight():
    # No self-loops and two tokens on the back edge: A starts twice at t=0,
    # so two equal (A, 5) firings are in flight at once, then two of B.
    g = build_graph({"A": 5, "B": 3}, [("A", "B"), ("B", "A", 1, 1, 2)])
    assert next(iterate_states(g)).active_firings == (("A", 5), ("A", 5))
    assert_matches_reference(g)


# The recurrence key holds the tokens of a spanning forest of the channels
# that are not self-loops; these graphs put every other channel's tokens,
# and a second component, outside that forest.

def test_engine_matches_reference_on_disconnected_components():
    # Two components of different periods; the second's queue fills up over
    # a transient while its firings in flight repeat.
    g = build_graph({"A": 3, "X": 2, "Y": 7},
                    [("A", "A", 1, 1, 1), ("X", "Y"), ("Y", "X", 1, 1, 3),
                     ("X", "X", 1, 1, 1), ("Y", "Y", 1, 1, 1)])
    assert_matches_reference(g)


def test_engine_matches_reference_on_multirate_parallel_edges():
    g = build_graph({"A": 3, "B": 2},
                    [("A", "B", 2, 3), ("A", "B", 4, 6, 5), ("B", "A", 3, 2, 6),
                     ("B", "A", 3, 2, 7)])
    assert_matches_reference(g)
    assert_matches_reference(disable_auto_concurrency(g))


def test_engine_matches_reference_with_only_a_self_loop_cycle():
    # A chain whose only cycle is the source's self-loop; B and C overlap
    # their own firings.
    g = build_graph({"A": 5, "B": 7, "C": 4},
                    [("A", "B", 2, 1), ("B", "C", 1, 2), ("A", "A", 1, 1, 1)])
    assert_matches_reference(g)


# Enabling counters: each actor counts its inputs below their rate, and only
# a count reaching 0 wakes it. These graphs reach each edge of that rule;
# parallel channels of different rates into one actor are
# test_engine_matches_reference_on_multirate_parallel_edges.

def test_counters_production_jumping_past_the_consumption_rate():
    # A puts 5 tokens on a channel B takes 2 at a time: B starts twice, the
    # channel is left at 1, and the next production lifts it from 1 to 6.
    g = build_graph({"A": 3, "B": 2}, [("A", "B", 5, 2), ("B", "A", 2, 5, 10)])
    assert_matches_reference(g)
    assert_matches_reference(disable_auto_concurrency(g))


def test_counters_start_leaving_inputs_at_or_above_the_rate():
    # Four tokens on B -> A: A starts four firings at t=0, each start but the
    # last leaving its input at or above the rate.
    g = build_graph({"A": 5, "B": 2}, [("A", "B"), ("B", "A", 1, 1, 4)])
    assert next(iterate_states(g)).active_firings == (("A", 5),) * 4
    assert_matches_reference(g)


@pytest.mark.parametrize("loop_tokens", [1, 2])
def test_counters_zero_time_actor_on_a_self_loop(loop_tokens):
    # Z takes no time: with one token on its self-loop, each firing leaves
    # the loop empty and the token it puts back wakes Z again in the same
    # instant; with two, Z stays enabled through the firing.
    g = build_graph({"A": 3, "Z": 0},
                    [("A", "Z", 2, 1), ("Z", "A", 1, 2, 2), ("Z", "Z", 1, 1, loop_tokens)])
    assert_matches_reference(g)


def near_tie_pair(a_time, c_time):
    """A and C, each on a self-loop, with two tokens each way between them:
    a transient of about ``c_time / (a_time - c_time)`` firings of A."""
    return build_graph({"A": a_time, "C": c_time},
                       [("A", "A", 1, 1, 1), ("C", "C", 1, 1, 1), ("A", "C", 1, 1, 2),
                        ("C", "A", 1, 1, 2)])


def test_counters_rebuilt_for_the_replay_past_the_prefix(monkeypatch):
    # The near-tie pair first repeats at state 2000, and the exact transient
    # needs replays from stored states, with counts rebuilt from their
    # tokens. Each restore puts back a stored state exactly: one in which the
    # marker A has just started a firing.
    g = near_tie_pair(1000, 999)
    states = list(iterate_states(g, max_states=2100))
    restores = []
    restored = analysis._Simulator.restored

    def spy(self, index, time, key, rest):
        clone = restored(self, index, time, key, rest)
        restores.append((index, clone.snapshot()))
        return clone

    monkeypatch.setattr(analysis._Simulator, "restored", spy)
    assert_matches_reference(g, max_states=2100)
    assert 1 <= len(restores) <= 2
    for index, snapshot in restores:
        assert snapshot == states[index]
        assert ("A", 1000) in snapshot.active_firings


# A self-loop of equal rates r with k tokens is folded into a cap of k // r
# firings in flight; the states still report its tokens, k - r * in flight.

def test_self_loop_below_its_rate_deadlocks_as_the_reference_does():
    # A's loop holds 1 token at rate 2, so A never fires and B runs dry.
    g = build_graph({"A": 2, "B": 3}, [("A", "B"), ("B", "A", 1, 1, 1), ("A", "A", 2, 2, 1)])
    with pytest.raises(DeadlockError, match="at t=0$"):
        self_timed_throughput(g)
    with pytest.raises(DeadlockError):
        reference_throughput(g)
    assert list(iterate_states(g)) == reference_states(g, 10_000)
    assert next(iterate_states(g)).channel_tokens == {"c0": 0, "c1": 1, "c2": 1}


def loop_pair(*loops):
    """A (time 5) and B (time 3) with four tokens each way, A on the given
    ``(rate, tokens)`` self-loops."""
    return build_graph({"A": 5, "B": 3}, [("A", "B", 1, 1, 4), ("B", "A", 1, 1, 4)]
                       + [("A", "A", rate, rate, tokens) for rate, tokens in loops])


@pytest.mark.parametrize("loops", [((1, 1), (1, 2)), ((2, 3),)], ids=["caps-1-and-2", "k-2r-1"])
def test_folded_self_loops_act_as_their_smallest_cap(loops):
    g, capped = loop_pair(*loops), loop_pair((1, 1))
    assert self_timed_throughput(g) == self_timed_throughput(capped)
    states = list(iterate_states(g, max_states=50))
    assert [s.active_firings for s in states] == [
        s.active_firings for s in iterate_states(capped, max_states=50)]
    for s in states:
        in_flight = sum(actor == "A" for actor, _ in s.active_firings)
        for i, (rate, tokens) in enumerate(loops, 2):
            assert s.channel_tokens[f"c{i}"] == tokens - rate * in_flight
    assert_matches_reference(g)


def test_restored_checkpoints_equal_the_states_with_folded_self_loops(monkeypatch):
    # The near-tie pair with A's loop at rate 2 holding 3 tokens (cap 1) and
    # C on two loops of caps 1 and 2: the same run, replayed from stored
    # states whose folded loops are rebuilt from the firings in flight.
    g = build_graph({"A": 1000, "C": 999},
                    [("A", "A", 2, 2, 3), ("C", "C", 1, 1, 1), ("C", "C", 3, 3, 7),
                     ("A", "C", 1, 1, 2), ("C", "A", 1, 1, 2)])
    states = list(iterate_states(g, max_states=2100))
    expected = self_timed_throughput(near_tie_pair(1000, 999))
    restores = []
    restored = analysis._Simulator.restored

    def spy(self, index, time, key, rest):
        clone = restored(self, index, time, key, rest)
        restores.append((index, clone.snapshot()))
        return clone

    monkeypatch.setattr(analysis._Simulator, "restored", spy)
    assert self_timed_throughput(g) == expected
    assert 1 <= len(restores) <= 2
    for index, snapshot in restores:
        assert snapshot == states[index]
        assert snapshot.channel_tokens["c0"] == 1
    assert states == reference_states(g, 2100)


# Sparse recurrence keys: a state is stored only when the marker, the timed
# actor that fires most per iteration, has just started a firing.

def spy_markers(monkeypatch) -> list[str]:
    """The actors that self_timed_throughput's simulators key on, recorded
    each time a run resumes with a marker set."""
    markers = []
    run = analysis._Simulator.run

    def spy(self, limit):
        for key in run(self, limit):
            yield key
            if self.marker >= 0:
                markers.append(self.actor_ids[self.marker])

    monkeypatch.setattr(analysis._Simulator, "run", spy)
    return markers


def mjpeg_graph(spec=None):
    """The bound mjpeg_base graph, or the one migrated by ``spec``, a change
    to the scenario's defaults, as ``sdfmig explore`` builds it."""
    s = load_scenario(bundled_scenario_path("mjpeg_base"))
    if spec is None:
        return build_bound_graph(s.graph, s.platform, s.mapping)
    return migrate_task(s.graph, s.platform, s.mapping, replace(s.defaults, **spec)).graph


def explore_grid_graphs():
    """The bound graphs ``sdfmig explore mjpeg_base`` analyses at speedups 2
    and 4 and prefetch times 5000, 10000 and 20000."""
    actors = [a.id for a in mjpeg_application().actors]
    return [mjpeg_graph()] + [
        mjpeg_graph({"actor": a, "speedup": speedup, "prefetch_time": prefetch})
        for speedup in (2, 4) for prefetch in (5000, 10000, 20000) for a in actors]


def first_repeat(graph) -> int:
    """The index of the first state equal to an earlier one, mu + lam, from
    the snapshots of every channel's tokens."""
    seen = set()
    for index, state in enumerate(iterate_states(graph, max_states=10**6)):
        key = (tuple(state.channel_tokens.values()), state.active_firings)
        if key in seen:
            return index
        seen.add(key)
    raise AssertionError("no repeated state")


def test_sparse_keys_match_every_state_keyed_on_explore_grid():
    graphs = explore_grid_graphs()
    assert len(graphs) == 37
    for g in graphs:
        assert self_timed_throughput(g) == reference_throughput(g)


@pytest.mark.parametrize("speedup, transient", [(2, 330124991), (4, 330118793)])
def test_izz_at_prefetch_20000_is_pinned(speedup, transient):
    # About 94 periods of transient, with only the marker's starts stored.
    r = self_timed_throughput(
        mjpeg_graph({"actor": "IZZ", "speedup": speedup, "prefetch_time": 20000}))
    assert (r.transient_cycles, r.period_cycles) == (transient, 3518526)
    assert r.reference_firings_per_period == 1


def test_izz_budget_of_first_repeat_succeeds_and_one_less_raises():
    g = mjpeg_graph({"actor": "IZZ", "speedup": 2, "prefetch_time": 20000})
    n = first_repeat(g)
    assert n > 10_000  # thousands of states, most of them not stored
    assert self_timed_throughput(g, state_budget=n).transient_cycles == 330124991
    with pytest.raises(StateSpaceBudgetExceededError):
        self_timed_throughput(g, state_budget=n - 1)


@pytest.mark.parametrize("slack", [0, 1, 2, 3, 10**9])
def test_sparse_budget_of_first_repeat_succeeds_and_one_less_raises(slack):
    # Any budget from the first repeat on gives the same result.
    rng = random.Random(23)
    for i in range(40):
        g = random_consistent_graph(rng, self_loops=i % 2 == 0)
        n = first_repeat(g)
        assert (self_timed_throughput(g, state_budget=n + slack)
                == reference_throughput(g))
        if n > 1:
            with pytest.raises(StateSpaceBudgetExceededError):
                self_timed_throughput(g, state_budget=n - 1)


@pytest.mark.parametrize("extra", [0, 2])
def test_disconnected_reference_that_stops_still_never_fires(extra):
    # R fires 3 + extra times and stops, as Q never fires. The near-tie pair
    # A, C runs on with a transient of thousands of states, every one stored.
    pair = [("A", "A", 1, 1, 1), ("C", "C", 1, 1, 1), ("A", "C", 1, 1, 2),
            ("C", "A", 1, 1, 2)]
    assert first_repeat(build_graph({"A": 1000, "C": 999}, pair)) == 2000
    g = build_graph({"Q": 1, "R": 5, "A": 1000, "C": 999},
                    [("Q", "Q"), ("Q", "R", 1, 1, 3 + extra)] + pair, reference="R")
    with pytest.raises(DeadlockError, match="reference actor 'R' never fires"):
        self_timed_throughput(g, state_budget=20_000)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_time_reference_matches_reference(monkeypatch, seed):
    # The reference's completions are counted as they happen, so a zero-time
    # reference on a connected graph leaves the states to a timed marker.
    markers = spy_markers(monkeypatch)
    rng = random.Random(31 + seed)
    for i in range(30):
        g = random_consistent_graph(rng, self_loops=i % 2 == 0)
        reference = resolve_reference_actor(g, compute_repetition_vector(g))
        g = with_exec_times(g, {reference: 0})
        markers.clear()
        assert self_timed_throughput(g, state_budget=5000) == reference_throughput(g)
        assert markers and reference not in markers


def test_marker_is_the_most_firing_timed_actor(monkeypatch):
    # Z fires six times per iteration but takes no time; C and D fire twice
    # and tie, so the smaller id keys the states.
    g = build_graph({"A": 3, "Z": 0, "C": 2, "D": 1},
                    [("A", "Z", 6, 1), ("Z", "A", 1, 6, 12), ("Z", "C", 1, 3),
                     ("C", "Z", 3, 1, 12), ("C", "D"), ("D", "C", 1, 1, 2)])
    markers = spy_markers(monkeypatch)
    assert self_timed_throughput(g) == reference_throughput(g)
    assert set(markers) == {"C"}
    markers.clear()
    self_timed_throughput(mjpeg_graph())
    assert set(markers) == {"CC"}  # the first of the q=12 actors


def test_mu_zero_where_state_zero_is_no_marker_start():
    # B holds the ring's token, so s[0] is B's firing, not a start of the
    # marker A. s[lam] == s[0] is not stored and no stored state comes before
    # the one repeated: the replay from s[0] gives mu == 0.
    g = build_graph({"A": 2, "B": 3}, [("A", "B", 1, 1, 1), ("B", "A")])
    assert next(iterate_states(g)).active_firings == (("B", 3),)
    r = self_timed_throughput(g)
    assert r == reference_throughput(g)
    assert (r.transient_cycles, r.period_cycles) == (0, 5)


def test_walk_through_undecided_prefix_states():
    # The near-tie pair 5/3 first repeats a stored state past the end of its
    # transient, so the transient comes from the lockstep replay.
    g = near_tie_pair(5, 3)
    r = self_timed_throughput(g)
    assert r == reference_throughput(g)
    assert (r.transient_cycles, r.period_cycles) == (10, 5)


def test_snapshots_keep_graph_channel_order():
    # Self-loops and a channel that closes a cycle come first in the graph,
    # but last among the simulator's channels.
    g = build_graph({"A": 2, "B": 3, "C": 1},
                    [("A", "A", 1, 1, 1), ("C", "A", 1, 1, 2), ("B", "B", 1, 1, 1),
                     ("A", "B"), ("B", "C")])
    ids = [c.id for c in g.channels]
    for state in iterate_states(g, max_states=20):
        assert list(state.channel_tokens) == ids


def test_iterate_states_conserves_cycle_tokens():
    g = disable_auto_concurrency(two_actor_cycle())
    for state in iterate_states(g, max_states=50):
        assert state.channel_tokens["c0"] + state.channel_tokens["c1"] + \
            len(state.active_firings) >= 1
        assert all(v >= 0 for v in state.channel_tokens.values())


def test_mcm_two_actor_cycle():
    assert mcm_throughput(disable_auto_concurrency(two_actor_cycle())) == Fraction(1, 5)


def test_mcm_three_actor_ring():
    # Single simple cycle: mean (1+2+3)/3 = 2, so throughput is 1/2.
    g = build_graph({"A": 1, "B": 2, "C": 3},
                    [("A", "B", 1, 1, 1), ("B", "C", 1, 1, 1), ("C", "A", 1, 1, 1)])
    assert mcm_throughput(g) == Fraction(1, 2)


def test_mcm_token_free_cycle_deadlocks():
    g = build_graph({"A": 1, "B": 2}, [("A", "B"), ("B", "A")])
    with pytest.raises(DeadlockError):
        mcm_throughput(g)


def test_mcm_rejects_multirate():
    g = build_graph({"A": 1, "B": 1}, [("A", "B", 2, 3), ("B", "A", 3, 2, 6)])
    with pytest.raises(NotHomogeneousError):
        mcm_throughput(g)


def test_mcm_rejects_empty_graph():
    with pytest.raises(SdfmigError, match="^empty graph has no cycle mean$"):
        mcm_throughput(SDFG())


def test_mcm_rejects_disconnected():
    g = build_graph({"A": 1, "B": 2}, [("A", "B", 1, 1, 1)])
    with pytest.raises(NotStronglyConnectedError):
        mcm_throughput(g)


@pytest.mark.parametrize("times", [{"A": -3, "B": 1}, {"A": -5, "B": -1}])
def test_mcm_rejects_negative_exec_time(times):
    # Before the check these rings came out as throughput -1 and -1/3.
    g = build_graph(times, [("A", "B"), ("B", "A", 1, 1, 1)])
    with pytest.raises(NegativeExecutionTimeError, match="A"):
        mcm_throughput(g)


def test_mcm_matches_enumeration_oracle():
    rng = random.Random(12)
    for _ in range(60):
        g = random_homogeneous_graph(rng)
        assert mcm_throughput(g) == oracle_throughput(g)


def test_max_cycle_ratio_matches_fraction_howard_on_random_graphs():
    # These graphs of 2 to 30 actors take 1 to 13 policy iterations, so both
    # improvement phases run.
    rng = random.Random(16)
    for _ in range(300):
        n, edges = ratio_edges(random_homogeneous_graph(rng, max_actors=rng.randint(2, 30)))
        assert _max_cycle_ratio(n, edges) == fraction_max_cycle_ratio(n, edges)


def test_max_cycle_ratio_builds_one_fraction(monkeypatch):
    # This graph takes five policy iterations, which find eleven policy
    # cycles in all; the Fraction core built a ratio per cycle and a zero
    # potential per iteration.
    n, edges = ratio_edges(random_homogeneous_graph(random.Random(4), max_actors=30))
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(analysis, "Fraction", counting_fraction)
    assert _max_cycle_ratio(n, edges) == fraction_max_cycle_ratio(n, edges)
    assert len(built) == 1


def test_self_timed_matches_mcm_on_homogeneous_graphs():
    rng = random.Random(13)
    for _ in range(60):
        g = random_homogeneous_graph(rng)
        assert self_timed_throughput(g).iterations_per_cycle == mcm_throughput(g)


def test_scale_invariance():
    rng = random.Random(14)
    for _ in range(15):
        g = random_consistent_graph(rng)
        base = self_timed_throughput(g).iterations_per_cycle
        for k in (2, 3, 5):
            scaled = with_exec_times(g, {a.id: a.exec_time * k for a in g.actors})
            assert self_timed_throughput(scaled).iterations_per_cycle == base / k


def test_monotonicity_in_exec_time():
    rng = random.Random(15)
    for _ in range(15):
        g = random_consistent_graph(rng)
        base = self_timed_throughput(g).iterations_per_cycle
        victim = rng.choice(g.actors)
        reduced = with_exec_times(g, {victim.id: rng.randrange(victim.exec_time)}) \
            if victim.exec_time else g
        assert self_timed_throughput(reduced).iterations_per_cycle >= base


def test_periodic_phase_replays():
    g = disable_auto_concurrency(two_actor_cycle())
    r = self_timed_throughput(g)
    states = list(iterate_states(g, max_states=200))
    by_key = {}
    recurrence = None
    for s in states:
        key = (tuple(sorted(s.channel_tokens.items())), s.active_firings)
        if key in by_key:
            recurrence = (by_key[key], s.time)
            break
        by_key[key] = s.time
    assert recurrence is not None
    assert recurrence[1] - recurrence[0] == r.period_cycles


def test_to_frames_per_second():
    assert to_frames_per_second(Fraction(136, 10**9), "100e6") == Decimal("13.60")
    assert to_frames_per_second(0, 10**8) == Decimal("0.00")
    assert to_frames_per_second(Fraction(1, 5), 10) == Decimal("2.00")
    for clock in (0, "-5"):
        with pytest.raises(InvalidClockError, match="positive"):
            to_frames_per_second(Fraction(1, 5), clock)
