"""Throughput computation.

Two independent routes:

* :func:`self_timed_throughput` simulates self-timed execution (fire as soon
  as enabled, consume at start, produce at completion) until the execution
  state recurs, then reads the throughput off the periodic phase. Works for
  any consistent, bounded SDF graph. The simulator is one event-driven
  loop, a generator that settles an instant, yields that stable state's
  recurrence key, and advances to the next completion time;
  :func:`iterate_states` drives the same loop. Each actor counts its inputs
  below their rate, and a production wakes an actor only when its count
  reaches 0, so settling an instant visits only enabled actors. A
  self-loop of equal rates is no channel of the loop: ``k`` tokens at rate
  ``r`` cap the actor at ``k // r`` firings in flight (the smallest cap
  over its self-loops), and a cap reached counts as one more input below
  its rate. Each firing in flight is one integer code, ``finish * n_actors
  + actor``, kept in an ascending list; the completion time is
  ``codes[0] // n_actors``. Advancing completes ``codes[0]``, then each
  next code while it is below the next multiple of ``n_actors``; most
  instants complete one firing, so this takes no search and no slice.
  The recurrence key is one flat tuple: the token counts of a spanning
  forest of the channels that are not self-loops, then the codes relative
  to now, ``remaining * n_actors + actor``, which decode uniquely. Two
  states with the same firings in flight and the same forest tokens differ
  in completions by a multiple of the repetition vector on each component,
  so by the balance equations they hold the same tokens on every channel:
  equal keys mean equal states.
  Only the states in which the marker, the timed actor that fires most per
  iteration, has just started a firing are stored, a property of the state
  itself. The first stored repeat is then exactly one period past the
  state it repeats, and at most one lockstep replay of the same loop from
  stored states gives the exact transient; the proof is in
  :func:`self_timed_throughput`.
* :func:`mcm_throughput` computes the maximum cycle ratio analytically with
  Howard's policy iteration in integers: each ratio is a reduced pair
  ``(W, T)`` with ``T > 0``, each potential is scaled by its cycle's ``T``,
  and ratios compare by cross-multiplying, so the one ``Fraction`` built is
  the exact result. Only valid for homogeneous (all rates 1), strongly
  connected graphs, where it must agree with the simulation exactly.

All results are exact rationals.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from copy import copy
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import gcd, inf
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from .errors import (
    DeadlockError,
    InvalidClockError,
    InvalidStateBudgetError,
    NotHomogeneousError,
    NotStronglyConnectedError,
    SdfmigError,
    StateSpaceBudgetExceededError,
)
from .graph import SDFG, check_graph, compute_repetition_vector
from .rational import to_decimal, to_fraction

DEFAULT_STATE_BUDGET = 1_000_000
# Firings started in one instant before the simulator reports a livelock.
_INSTANT_CAP = 1_000_000


@dataclass(frozen=True)
class ExecutionState:
    """One stable snapshot of a self-timed execution: the token count of every
    channel plus the multiset of firings still in flight (actor, remaining
    cycles). States are compared structurally for recurrence detection."""

    time: int
    channel_tokens: Mapping[str, int]
    active_firings: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of the periodic phase of a self-timed execution.

    ``iterations_per_cycle`` equals ``reference_firings_per_period /
    (reference_repetitions * period_cycles)``, stored reduced.
    """

    iterations_per_cycle: Fraction
    period_cycles: int
    transient_cycles: int
    reference_firings_per_period: int
    reference_actor: str
    reference_repetitions: int


def resolve_reference_actor(graph: SDFG, repetition: Mapping[str, int]) -> str:
    """The actor whose firings count iterations: the graph's explicit choice,
    else the smallest-id actor with repetition count 1 (falling back to the
    smallest repetition count present)."""
    if graph.reference_actor is not None:
        return graph.reference_actor
    if not graph.actors:
        raise SdfmigError("empty graph has no reference actor")
    best = min(repetition.values())
    return min(a for a, q in repetition.items() if q == best)


def _check_budget(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidStateBudgetError(f"{name} must be a positive integer, got {value!r}")


class _Simulator:
    """Event-driven self-timed executor over integer-indexed actors and
    channels, run as one loop by :meth:`run`.

    Each pass of the loop settles the current instant, yields, and advances
    to the next completion time. Settling starts every enabled firing and
    runs zero-time completions to a fixpoint. Each actor keeps an enabling
    counter, ``short[ai]``, the number of its inputs holding fewer tokens
    than their rate, plus one while its cap is reached; :meth:`run`
    rebuilds the counts from the tokens and the codes when it starts. A
    production that lifts a channel from below its consumption rate to at
    least that rate decrements the consumer's count, and the consumer joins
    the worklist when its count reaches 0. A start that leaves an input
    below its rate increments the actor's own count. Only an actor's own
    starts raise its count, so it joins the worklist at most once between
    two pops. Invariant: at every pop, the count equals the number of
    inputs below their rate, plus one at the cap, and a queued actor has a
    count of 0, so a popped actor is enabled and needs no scan of its
    inputs. A zero-time firing decides whether to start again before it
    produces, so tokens it puts back on a channel to itself wake it through
    its count instead. Each channel has one consumer and enabling is
    monotone in tokens, so the firings started in one instant, and the
    stable state they leave, do not depend on the order the worklist is
    drained in.

    Self-loops become a cap. A self-loop whose two rates are equal, ``r``,
    with ``k`` initial tokens, is left out of ``tokens``, ``consume`` and
    ``produce``: each timed start of its actor takes ``r`` from it and each
    completion puts ``r`` back, and a zero-time firing does both in one
    step, so at every point of a settle it holds ``k - r * in_flight``,
    where ``in_flight`` counts the actor's codes. It enables the actor
    exactly when ``k - r * in_flight >= r``, that is when ``in_flight <
    k // r``. The actor's ``cap`` is the smallest ``k // r`` over its
    folded self-loops, infinite with none, and :meth:`run` keeps ``free[ai]
    = cap - in_flight``, rebuilt from the codes as the counts are from the
    tokens. ``free[ai] == 0`` is one more input below its rate: a timed
    start that takes ``free`` to 0 raises ``short``, and a completion that
    lifts it from 0 lowers ``short`` and wakes the actor when that reaches
    0. A zero-time actor never changes ``free``, so a cap of 0 keeps it
    from firing and any other cap never stops it. :meth:`snapshot` reports
    each folded self-loop's tokens from its codes.

    Each firing in flight is one integer code, ``finish * n_actors +
    actor``, in an ascending list. Advancing jumps to the finish time of
    ``codes[0]``, completes it, and completes each next code while it is
    below the next multiple of ``n_actors``, popping one at a time: most
    instants complete exactly one firing, so a search for the end of the
    instant and a slice of the list would cost more than they save.

    The recurrence key is one flat tuple: the tokens of the spanning forest
    chosen by :func:`_key_channels`, then the codes in flight relative to
    now, ``remaining * n_actors + actor``, which decode uniquely. Channels
    are held forest first, so the key reads one slice of the token list;
    :meth:`snapshot` reports them in the graph's order. Every other
    channel's tokens still decide enabling. The forest holds no self-loop,
    so folding them leaves the key as it was; the tokens outside the
    forest, which a stored checkpoint keeps, no longer hold the folded
    ones.

    ``marker`` is -1 to key every state, or a timed actor whose firing
    starts select the states to key; it is set before :meth:`run`, which
    reads it once. A start of the marker sets the flag ``keyed``, and
    :meth:`run` yields only the keys of keyed states; the others it only
    simulates, counting ``index`` and writing ``time`` and ``index`` only
    when it yields or returns. The flag is a property of the state, a code
    in flight with all of the marker's time left, because only a firing
    started in the current instant has all of its time left.
    """

    def __init__(self, graph: SDFG):
        self.actor_ids = sorted(a.id for a in graph.actors)
        self.n_actors = n_actors = len(self.actor_ids)
        index = {a: i for i, a in enumerate(self.actor_ids)}
        exec_time = [graph.actor_map[a].exec_time for a in self.actor_ids]
        # A firing of actor i started at now_code ends at now_code + step[i];
        # 0 marks a zero-time actor.
        self.step = [t * n_actors + ai if t else 0 for ai, t in enumerate(exec_time)]
        key_channels = _key_channels(graph, index)
        self.n_key = len(key_channels)
        loops = [p for p, c in enumerate(graph.channels)
                 if c.src == c.dst and c.prod_rate == c.cons_rate]
        placed = set(key_channels).union(loops)
        order = key_channels + [p for p in range(len(graph.channels)) if p not in placed]
        # (actor, initial tokens, rate) per folded self-loop.
        self.loops = [(index[c.src], c.initial_tokens, c.cons_rate)
                      for c in map(graph.channels.__getitem__, loops)]
        self.cap = [inf] * n_actors
        for ai, k, r in self.loops:
            self.cap[ai] = min(self.cap[ai], k // r)
        self.tokens = [graph.channels[p].initial_tokens for p in order]
        # Graph position -> position in tokens followed by the folded loops.
        self.slot = sorted(range(len(graph.channels)), key=(order + loops).__getitem__)
        self.channel_ids = [c.id for c in graph.channels]
        self.consume: list[list[tuple[int, int]]] = [[] for _ in self.actor_ids]
        # (channel, rate, consumer, consumption rate) per output channel.
        self.produce: list[list[tuple[int, int, int, int]]] = [
            [] for _ in self.actor_ids]
        for ci, position in enumerate(order):
            c = graph.channels[position]
            self.consume[index[c.dst]].append((ci, c.cons_rate))
            self.produce[index[c.src]].append(
                (ci, c.prod_rate, index[c.dst], c.cons_rate))
        self.codes: list[int] = []  # finish * n_actors + actor, ascending
        self.time = 0
        self.index = 0  # of the state held, s[0] being the first stable state
        self.completions = [0] * n_actors
        self.marker = -1

    def restored(self, index: int, time: int, key: tuple,
                 rest: Sequence[int]) -> _Simulator:
        """A copy of this simulator put back at the state ``s[index]`` of
        its run, from that state's time, recurrence key and tokens outside
        the key's forest; it keys every state and counts no completion."""
        clone = copy(self)
        n_key = self.n_key
        now_code = time * self.n_actors
        clone.index, clone.time = index, time
        clone.tokens = [*key[:n_key], *rest]
        clone.codes = [now_code + code for code in key[n_key:]]
        clone.completions = [0] * self.n_actors
        clone.marker = -1
        return clone

    def run(self, limit: int) -> Iterator[tuple]:
        """Simulate on from the state ``s[index]`` held, yielding the
        recurrence key of each state that is keyed: every state while
        ``marker`` is -1, else those in which the marker has just started a
        firing. Return after ``s[limit]``, or once no firing is in flight.
        ``time`` and ``index`` are written at each yield and at the return.
        Call once per simulator."""
        n_actors, n_key = self.n_actors, self.n_key
        tokens, codes, completions = self.tokens, self.codes, self.completions
        consume, produce, step = self.consume, self.produce, self.step
        free = self.cap[:]
        for code in codes:
            free[code % n_actors] -= 1
        short = [sum(tokens[ci] < rate for ci, rate in inputs) + (not room)
                 for inputs, room in zip(consume, free)]
        pending = [ai for ai in range(n_actors) if not short[ai]]  # enabled actors
        index, marker = self.index, self.marker
        now_code = self.time * n_actors
        while True:
            keyed = marker < 0
            instant = 0
            while pending:
                ai = pending.pop()
                inputs, stepped = consume[ai], step[ai]
                enabled = True
                while enabled:  # start one firing, then again while enabled
                    for ci, rate in inputs:
                        left = tokens[ci] - rate
                        tokens[ci] = left
                        if left < rate:
                            short[ai] += 1
                            enabled = False
                    instant += 1
                    if instant > _INSTANT_CAP:
                        raise StateSpaceBudgetExceededError(
                            "unbounded zero-time firing sequence at "
                            f"t={now_code // n_actors} (livelock)")
                    if stepped:
                        insort(codes, now_code + stepped)
                        room = free[ai] - 1
                        free[ai] = room
                        if not room:
                            short[ai] += 1
                            enabled = False
                        if ai == marker:
                            keyed = True
                    else:
                        for ci, rate, consumer, need in produce[ai]:
                            held = tokens[ci]
                            tokens[ci] = held + rate
                            if held < need <= held + rate:
                                short[consumer] -= 1
                                if not short[consumer]:
                                    pending.append(consumer)
                        completions[ai] += 1
            if keyed:
                self.time, self.index = now_code // n_actors, index
                yield tuple(tokens[:n_key] + [code - now_code for code in codes])
            if index >= limit or not codes:
                self.time, self.index = now_code // n_actors, index
                return
            code = codes.pop(0)
            now_code = code - code % n_actors
            end = now_code + n_actors
            while True:  # complete every code below end, one at a time
                ai = code - now_code
                for ci, rate, consumer, need in produce[ai]:
                    held = tokens[ci]
                    tokens[ci] = held + rate
                    if held < need <= held + rate:
                        short[consumer] -= 1
                        if not short[consumer]:
                            pending.append(consumer)
                completions[ai] += 1
                room = free[ai]
                free[ai] = room + 1
                if not room:
                    short[ai] -= 1
                    if not short[ai]:
                        pending.append(ai)
                if not codes or codes[0] >= end:
                    break
                code = codes.pop(0)
            index += 1

    def snapshot(self) -> ExecutionState:
        n_actors, now, codes = self.n_actors, self.time, self.codes
        in_flight = [0] * n_actors
        for code in codes:
            in_flight[code % n_actors] += 1
        held = self.tokens + [k - r * in_flight[ai] for ai, k, r in self.loops]
        return ExecutionState(
            time=now,
            channel_tokens={cid: held[ci] for cid, ci in zip(self.channel_ids, self.slot)},
            active_firings=tuple(sorted((self.actor_ids[code % n_actors],
                                         code // n_actors - now) for code in codes)),
        )


def _key_channels(graph: SDFG, index: Mapping[str, int]) -> list[int]:
    """Positions, in graph order, of the channels whose tokens go into the
    recurrence key: a spanning forest of the channels that are not
    self-loops.

    Why the forest is enough: a channel holds
    ``initial + prod * completed(src) - cons * started(dst)`` tokens, and a
    stable state's started count is its completed count plus its firings in
    flight. Take two states with the same firings in flight and the same
    tokens on the forest. Their completion counts differ by some ``d`` with
    ``prod * d(src) == cons * d(dst)`` on every forest channel, so on each
    component ``d`` is one rational multiple of the repetition vector. The
    balance equations then make every other channel of the component hold
    equal tokens too; a self-loop is covered because consistency forces its
    two rates to be equal. Inconsistent graphs are rejected before
    simulation.
    """
    parent = list(range(len(index)))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    chosen = []
    for position, c in enumerate(graph.channels):
        u, v = root(index[c.src]), root(index[c.dst])
        if u != v:
            parent[u] = v
            chosen.append(position)
    return chosen


def iterate_states(graph: SDFG, max_states: int = 10_000) -> Iterator[ExecutionState]:
    """Iterate over the stable execution state at each event timestamp,
    starting at time 0, for at most ``max_states`` events. Intended for invariant checks
    and debugging; throughput extraction lives in
    :func:`self_timed_throughput`.

    The arguments are checked on the call: :class:`InvalidStateBudgetError`
    unless ``max_states`` is a positive integer, then the structural errors
    of :func:`~sdfmig.graph.check_graph`."""
    _check_budget("max_states", max_states)
    check_graph(graph)
    sim = _Simulator(graph)
    return (sim.snapshot() for _ in sim.run(max_states - 1))


def _budget_exceeded(state_budget: int) -> StateSpaceBudgetExceededError:
    return StateSpaceBudgetExceededError(
        f"more than {state_budget} states explored; graph is likely unbounded")


def self_timed_throughput(graph: SDFG,
                          state_budget: int = DEFAULT_STATE_BUDGET) -> ThroughputResult:
    """Simulate self-timed execution until a state recurs and return the
    throughput of the periodic phase.

    Raises :class:`InvalidStateBudgetError` unless ``state_budget`` is a
    positive integer, the structural errors of
    :func:`~sdfmig.graph.check_graph`, :class:`DeadlockError` when execution
    stops (or never turns the reference actor),
    :class:`InconsistentGraphError` for unsolvable balance equations, and
    :class:`StateSpaceBudgetExceededError` when more than ``state_budget``
    distinct states come before the first repeated one, which is the usual
    symptom of unbounded token accumulation.

    Which states are stored. Execution is deterministic and equal keys mean
    equal states, so the stable states ``s[0], s[1], ...`` are distinct up
    to the transient ``mu`` plus the period ``lam``, and from then on
    ``s[i] == s[i + lam]`` exactly for ``i >= mu``; a state before
    ``s[mu]`` equals no other state. The marker is the timed actor with the
    largest repetition count, the smallest id on ties. A state is stored
    only when the marker has just started a firing. That is a property of
    the state, a code in flight with all of the marker's time left, so of
    two equal states both are stored or neither. With no timed actor, or on
    a graph that is not weakly connected, every state is stored.

    Why the search stays exact:

    * A stored repeat comes, and the first, ``s[b]``, has
      ``b < mu + 2*lam``. On a weakly connected graph the completions of
      one period are a multiple of the repetition vector (the argument of
      :func:`_key_channels`), and not zero, since every state after the
      first completes a firing; so the marker starts a firing at some
      ``s[m]`` with ``mu <= m < mu + lam``, and the stored ``s[m + lam]``
      repeats the stored ``s[m]``.
    * ``b - j == lam`` for the stored ``s[j]`` that ``s[b]`` repeats, so
      the time and the reference's completions between them are one
      period's. ``b - j`` is a multiple of ``lam``; were it larger,
      ``s[b - lam]``, equal to ``s[b]``, would be stored too and would
      have repeated ``s[j]`` first.
    * ``x < mu <= j`` for the stored ``s[x]`` just before ``s[j]``, with
      ``x = -1`` when there is none. ``s[j]`` repeats, so ``mu <= j``; had
      ``s[x]`` been in the cycle, the equal ``s[x + lam]`` would be stored
      before ``s[b]`` and would have repeated first. When ``x + 1 < j``,
      two replays of the same loop step ``s[x + 1]`` and
      ``s[x + 1 + lam]`` in lockstep; their keys differ before ``s[mu]``
      and agree there, so neither passes ``s[b]``. Each starts from the
      latest stored state at or before its start, whose key and tokens
      outside the key's forest make a checkpoint, or from ``s[0]`` when
      there is none.
    * The budget error comes exactly when ``mu + lam > state_budget``, as
      when every state is stored. The stored states before the first repeat
      are distinct, so more than ``state_budget`` of them exceed it. As
      ``b <= 2*(mu + lam) - 1``, so does reaching ``s[2*state_budget - 1]``
      without a stored repeat, where :meth:`_Simulator.run` stops. Once
      ``mu`` and ``lam`` are known they are compared directly, and an
      execution that stops at or past ``s[state_budget]`` exceeds it too.
      So up to ``2*state_budget`` states may be simulated, but no more than
      ``state_budget`` are stored, and only the marker's firing starts:
      memory stays sparse while it runs.
    """
    _check_budget("state budget", state_budget)
    repetition = compute_repetition_vector(graph)
    reference = resolve_reference_actor(graph, repetition)

    sim = _Simulator(graph)
    ref_index = sim.actor_ids.index(reference)
    completions, tokens, n_key = sim.completions, sim.tokens, sim.n_key
    # The marker stays -1 where sparse keys cannot find the period: on a
    # graph that is not weakly connected, or with no timed actor.
    if n_key == sim.n_actors - 1:
        timed_counts = [q if stepped else 0 for q, stepped in
                        zip(map(repetition.__getitem__, sim.actor_ids), sim.step)]
        most = max(timed_counts)
        if most:
            sim.marker = timed_counts.index(most)
    # State key -> position in stored; list(seen) is the keys in that order.
    seen: dict[tuple, int] = {}
    # Per stored state, one flat tuple of ints, which the garbage collector
    # stops tracking at once: its index, the reference's completions and
    # the time, then the tokens outside the key's forest, where a replay can
    # start.
    stored: list[tuple[int, ...]] = []
    # The first stored repeat's index at most, when mu + lam <= state_budget.
    last = 2 * state_budget - 1
    for key in sim.run(last):
        first = seen.setdefault(key, len(stored))
        if first < len(stored):
            break
        if first == state_budget:
            raise _budget_exceeded(state_budget)
        stored.append((sim.index, completions[ref_index], sim.time, *tokens[n_key:]))
    else:
        if sim.index >= state_budget:
            raise _budget_exceeded(state_budget)
        raise DeadlockError(f"no enabled actor and no running firing at t={sim.time}")

    mu, count, transient = stored[first][:3]
    lam = sim.index - mu
    period = sim.time - transient
    firings = completions[ref_index] - count
    # low <= mu <= j, where low is one past the stored state before s[j].
    low = stored[first - 1][0] + 1 if first else 0
    if low < mu:
        keys = list(seen)

        def replay(start: int) -> tuple[_Simulator, Iterator[tuple]]:
            """A simulator and its keys from s[start] on, from the latest
            stored checkpoint at or before it, else from s[0]."""
            p = bisect_right(stored, start, key=itemgetter(0)) - 1
            if p < 0:
                at = _Simulator(graph)
            else:
                index, _, time, *rest = stored[p]
                at = sim.restored(index, time, keys[p], rest)
            return at, islice(at.run(last), start - at.index, None)

        at_low, low_keys = replay(low)
        _, lam_keys = replay(low + lam)
        for mu, (low_key, lam_key) in enumerate(zip(low_keys, lam_keys), low):
            if low_key == lam_key:
                break
        transient = at_low.time
    if mu + lam > state_budget:
        raise _budget_exceeded(state_budget)
    if firings == 0:
        raise DeadlockError(
            f"reference actor {reference!r} never fires in the periodic phase")
    q_ref = repetition[reference]
    return ThroughputResult(
        iterations_per_cycle=Fraction(firings, q_ref * period),
        period_cycles=period,
        transient_cycles=transient,
        reference_firings_per_period=firings,
        reference_actor=reference,
        reference_repetitions=q_ref,
    )


def _max_cycle_ratio(n: int, edges: list[tuple[int, int, int, int]]) -> Fraction:
    """Maximum over cycles of (sum of ``w``) / (sum of ``t``) for edges
    ``(u, v, w, t)`` over nodes ``0..n-1``, by Howard's policy iteration in
    integers.

    Every node needs an out-edge and every cycle a positive ``t`` total.
    A policy keeps one out-edge per node, so each node leads to exactly one
    policy cycle. Value determination gives each node the ratio ``W / T``
    of its policy cycle, kept as the reduced integer pair ``(W, T)`` with
    ``T > 0``, and a potential scaled by that ``T``: ``X(u) = w*T - W*t +
    X(v)`` along its policy edge, counted from the cycle's smallest node,
    where ``X`` is 0. ``X`` is ``T`` times the rational potential ``x(u) =
    w - (W/T)*t + x(v)``, and every node on a path into one cycle shares its
    ``T``. Improvement first moves a node to the out-edge whose head has the
    largest ratio, comparing ``W1/T1 > W2/T2`` as ``W1*T2 > W2*T1``, which
    is exact because both ``T`` are positive. When no node can, it moves a
    node, among out-edges whose head has its own ``(W, T)``, to the one with
    the largest ``w*T - W*t + X(v)``: one ``T`` scales all of them and
    ``X(u)``, so this orders them as the rational potentials would. A
    reduced pair is unique, so equal ratios are equal pairs. Both moves need
    a strict gain, so a tie keeps the current edge and the iteration stops
    once no node moves. The one ``Fraction`` is the answer.
    """
    out: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        out[edge[0]].append(edge)
    # Start from the heaviest, then least-token, out-edge of every node.
    policy = [max(choices, key=lambda e: (e[2], -e[3])) for choices in out]
    while True:
        # Value determination: walk each node's policy path to a known node
        # or to a new cycle, then fill the path in backwards. A node's T is
        # 0 until its policy cycle is known.
        ratio_w = [0] * n
        ratio_t = [0] * n
        x = [0] * n
        cycles: list[int] = []  # the smallest node of each policy cycle
        walked = [-1] * n  # the start of the walk that reached each node
        for start in range(n):
            path = []
            u = start
            while not ratio_t[u] and walked[u] != start:
                walked[u] = start
                path.append(u)
                u = policy[u][1]
            if not ratio_t[u]:  # the walk closed a new policy cycle at u
                k = path.index(u)
                cycle = path[k:]
                root = cycle.index(min(cycle))
                total_w = sum(policy[c][2] for c in cycle)
                total_t = sum(policy[c][3] for c in cycle)
                g = gcd(total_w, total_t)
                ratio_w[cycle[root]] = total_w // g
                ratio_t[cycle[root]] = total_t // g
                cycles.append(cycle[root])
                # Reversed, each node comes after the head of its policy edge.
                path = path[:k] + cycle[root + 1:] + cycle[:root]
            for p in reversed(path):
                _, v, w, t = policy[p]
                big_w = ratio_w[p] = ratio_w[v]
                big_t = ratio_t[p] = ratio_t[v]
                x[p] = w * big_t - big_w * t + x[v]

        # Phase 1: head with the largest ratio.
        changed = False
        for u in range(n):
            best = policy[u]
            best_w, best_t = ratio_w[best[1]], ratio_t[best[1]]
            for edge in out[u]:
                v = edge[1]
                if ratio_w[v] * best_t > best_w * ratio_t[v]:
                    best, best_w, best_t = edge, ratio_w[v], ratio_t[v]
            if best is not policy[u]:
                policy[u] = best
                changed = True
        if changed:
            continue
        # Phase 2: at an equal ratio, the largest scaled potential through
        # the edge.
        for u in range(n):
            big_w, big_t, best, value = ratio_w[u], ratio_t[u], policy[u], x[u]
            for edge in out[u]:
                _, v, w, t = edge
                if ratio_t[v] == big_t and ratio_w[v] == big_w:
                    candidate = w * big_t - big_w * t + x[v]
                    if candidate > value:
                        best, value = edge, candidate
            if best is not policy[u]:
                policy[u] = best
                changed = True
        if not changed:
            top = cycles[0]
            for c in cycles:
                if ratio_w[c] * ratio_t[top] > ratio_w[top] * ratio_t[c]:
                    top = c
            return Fraction(ratio_w[top], ratio_t[top])


def mcm_throughput(graph: SDFG) -> Fraction:
    """Throughput of a homogeneous strongly-connected graph as the reciprocal
    of the maximum cycle ratio max over cycles of (sum of execution times /
    sum of initial tokens).

    The ratio comes exactly from Howard's policy iteration in integers
    (:func:`_max_cycle_ratio`); the token-free-cycle check before it makes
    every policy cycle's token total positive. Raises, in this
    order, the structural errors of :func:`~sdfmig.graph.check_graph`,
    :class:`NotHomogeneousError`, :class:`SdfmigError` for an empty
    graph, :class:`NotStronglyConnectedError`, :class:`DeadlockError` for a
    cycle without tokens, and :class:`SdfmigError` when there is no cycle or
    every cycle takes zero time (throughput unbounded).
    """
    check_graph(graph)
    if any(c.prod_rate != 1 or c.cons_rate != 1 for c in graph.channels):
        raise NotHomogeneousError("all rates must be 1 for cycle-mean analysis")
    if not graph.actors:
        raise SdfmigError("empty graph has no cycle mean")
    actor_ids = sorted(a.id for a in graph.actors)
    index = {a: i for i, a in enumerate(actor_ids)}
    n = len(actor_ids)
    # Edge weight is the execution time of the producing actor, so a cycle's
    # weight sums each visited actor's time exactly once.
    edges = [(index[c.src], index[c.dst], graph.actor_map[c.src].exec_time,
              c.initial_tokens) for c in graph.channels]
    # One pass over the edges: successors, predecessors, token-free successors.
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    token_free: list[list[int]] = [[] for _ in range(n)]
    free_in = [0] * n
    for u, v, _, tokens in edges:
        forward[u].append(v)
        backward[v].append(u)
        if not tokens:
            token_free[u].append(v)
            free_in[v] += 1
    for adjacency in (forward, backward):  # actor 0 reaches all, and all reach it
        seen = {0}
        stack = [0]
        for u in stack:
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(stack) < n:
            raise NotStronglyConnectedError("cycle-mean analysis needs one strongly "
                                            "connected component")
    # Kahn's sort of the token-free edges stalls exactly on a token-free cycle.
    order = [u for u in range(n) if not free_in[u]]
    for u in order:
        for v in token_free[u]:
            free_in[v] -= 1
            if not free_in[v]:
                order.append(v)
    if len(order) < n:
        raise DeadlockError("a cycle without initial tokens can never fire")
    if not edges:
        raise SdfmigError("graph has no cycles; throughput is unbounded")
    ratio = _max_cycle_ratio(n, edges)
    if ratio == 0:
        raise SdfmigError("every cycle has zero total execution time; "
                          "throughput is unbounded")
    return 1 / ratio


# The clock of a scenario that sets no ``clock-hz``, and of an exploration
# given none.
DEFAULT_CLOCK_HZ = Fraction(100_000_000)


def to_frames_per_second(result: ThroughputResult | Fraction | int | float,
                         clock_hz) -> Decimal:
    """Convert iterations-per-cycle into frames per second at a clock
    frequency, rounded to two decimal places. Raises
    :class:`InvalidClockError` unless the clock is positive."""
    clock = to_fraction(clock_hz)
    if clock <= 0:
        raise InvalidClockError(f"clock frequency must be positive, got {clock}")
    rate = (result.iterations_per_cycle if isinstance(result, ThroughputResult)
            else to_fraction(result))
    return to_decimal(rate * clock)
