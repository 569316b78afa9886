"""Throughput computation.

Two independent routes:

* :func:`self_timed_throughput` simulates self-timed execution (fire as soon
  as enabled, consume at start, produce at completion) until the execution
  state recurs, then reads the throughput off the periodic phase. Works for
  any consistent, bounded SDF graph. The simulator is event driven: a
  worklist holds the actors whose inputs gained tokens, so settling an
  instant checks only those, and firings in flight wait in a completion
  queue ordered by absolute finish time, so each event pops the next
  finish time instead of rescanning every firing.
* :func:`mcm_throughput` computes the maximum cycle ratio analytically via a
  parametric longest-path search. Only valid for homogeneous (all rates 1),
  strongly connected graphs, where it must agree with the simulation exactly.

All results are exact rationals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import (
    DeadlockError,
    NegativeExecutionTimeError,
    NotHomogeneousError,
    NotStronglyConnectedError,
    SdfmigError,
    StateSpaceBudgetExceededError,
)
from .graph import SDFG, RepetitionVector, compute_repetition_vector
from .rational import to_decimal, to_fraction

DEFAULT_STATE_BUDGET = 1_000_000


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


def resolve_reference_actor(graph: SDFG, repetition: RepetitionVector) -> str:
    """The actor whose firings count iterations: the graph's explicit choice,
    else the smallest-id actor with repetition count 1 (falling back to the
    smallest repetition count present)."""
    if graph.reference_actor is not None:
        if graph.reference_actor not in graph.actor_map:
            raise SdfmigError(f"reference actor {graph.reference_actor!r} not in graph")
        return graph.reference_actor
    if not graph.actors:
        raise SdfmigError("empty graph has no reference actor")
    best = min(repetition.entries.values())
    return min(a for a, q in repetition.items() if q == best)


class _Simulator:
    """Event-driven self-timed executor over integer-indexed actors and
    channels.

    Actors whose input channels gained tokens wait on a worklist until
    :meth:`settle` starts them; firings in flight wait in a completion queue
    keyed by absolute finish time until :meth:`advance` reaches it.
    """

    def __init__(self, graph: SDFG):
        self.actor_ids = sorted(a.id for a in graph.actors)
        index = {a: i for i, a in enumerate(self.actor_ids)}
        self.exec_time = [graph.actor_map[a].exec_time for a in self.actor_ids]
        # Time must never run backwards in the completion queue.
        negative = [a for a, t in zip(self.actor_ids, self.exec_time) if t < 0]
        if negative:
            raise NegativeExecutionTimeError(
                f"negative execution time on actor(s) {', '.join(negative)}")
        self.channel_ids = [c.id for c in graph.channels]
        self.tokens = [c.initial_tokens for c in graph.channels]
        self.consume: list[list[tuple[int, int]]] = [[] for _ in self.actor_ids]
        # (channel, rate, consumer of the channel) per output channel.
        self.produce: list[list[tuple[int, int, int]]] = [[] for _ in self.actor_ids]
        for ci, c in enumerate(graph.channels):
            self.consume[index[c.dst]].append((ci, c.cons_rate))
            self.produce[index[c.src]].append((ci, c.prod_rate, index[c.dst]))
        self.pending = list(range(len(self.actor_ids)))  # worklist for settle
        self.queued = [True] * len(self.actor_ids)
        self.running: dict[int, list[int]] = {}  # finish time -> actors
        self.finish_times: list[int] = []  # heap over the keys of running
        self.time = 0
        self.completions = [0] * len(self.actor_ids)
        self._instant_cap = 1_000_000

    def _enabled(self, ai: int) -> bool:
        tokens = self.tokens
        for ci, rate in self.consume[ai]:
            if tokens[ci] < rate:
                return False
        return True

    def _produce_outputs(self, ai: int) -> None:
        tokens, queued = self.tokens, self.queued
        for ci, rate, consumer in self.produce[ai]:
            tokens[ci] += rate
            if not queued[consumer]:
                queued[consumer] = True
                self.pending.append(consumer)
        self.completions[ai] += 1

    def settle(self) -> None:
        """Start every enabled firing, running zero-time completions to a
        fixpoint before time may advance.

        Only actors on the worklist are checked. Each channel has one
        consumer and enabling is monotone in tokens, so the firings started
        in one instant, and the stable state they leave, do not depend on the
        order the worklist is drained in."""
        tokens = self.tokens
        instant = 0
        while self.pending:
            ai = self.pending.pop()
            self.queued[ai] = False
            while self._enabled(ai):
                for ci, rate in self.consume[ai]:
                    tokens[ci] -= rate
                instant += 1
                if instant > self._instant_cap:
                    raise StateSpaceBudgetExceededError(
                        "unbounded zero-time firing sequence at "
                        f"t={self.time} (livelock)")
                duration = self.exec_time[ai]
                if duration == 0:
                    self._produce_outputs(ai)
                    continue
                finish = self.time + duration
                if finish in self.running:
                    self.running[finish].append(ai)
                else:
                    self.running[finish] = [ai]
                    heapq.heappush(self.finish_times, finish)

    def advance(self) -> None:
        """Jump to the earliest finish time and produce the tokens of every
        firing that completes then."""
        self.time = heapq.heappop(self.finish_times)
        for ai in self.running.pop(self.time):
            self._produce_outputs(ai)

    def _in_flight(self) -> list[tuple[int, int]]:
        """Sorted (actor, remaining cycles) of every firing in flight."""
        now = self.time
        return sorted((ai, finish - now)
                      for finish, actors in self.running.items() for ai in actors)

    def key(self) -> tuple:
        return tuple(self.tokens), tuple(self._in_flight())

    def snapshot(self) -> ExecutionState:
        return ExecutionState(
            time=self.time,
            channel_tokens=dict(zip(self.channel_ids, self.tokens)),
            active_firings=tuple((self.actor_ids[ai], remaining)
                                 for ai, remaining in self._in_flight()),
        )


def iterate_states(graph: SDFG, max_states: int = 10_000) -> Iterator[ExecutionState]:
    """Yield the stable execution state at each event timestamp, starting at
    time 0, for at most ``max_states`` events. Intended for invariant checks
    and debugging; throughput extraction lives in
    :func:`self_timed_throughput`."""
    sim = _Simulator(graph)
    for _ in range(max_states):
        sim.settle()
        yield sim.snapshot()
        if not sim.running:
            return
        sim.advance()


def self_timed_throughput(graph: SDFG,
                          state_budget: int = DEFAULT_STATE_BUDGET) -> ThroughputResult:
    """Simulate self-timed execution until a state recurs and return the
    throughput of the periodic phase.

    Raises :class:`DeadlockError` when execution stops (or never turns the
    reference actor), :class:`InconsistentGraphError` for unsolvable balance
    equations, and :class:`StateSpaceBudgetExceededError` when more than
    ``state_budget`` distinct states are visited, which is the usual symptom
    of unbounded token accumulation.
    """
    repetition = compute_repetition_vector(graph)
    reference = resolve_reference_actor(graph, repetition)

    sim = _Simulator(graph)
    ref_index = sim.actor_ids.index(reference)
    seen: dict[tuple, tuple[int, int]] = {}
    sim.settle()
    while True:
        key = sim.key()
        if key in seen:
            first_time, first_count = seen[key]
            period = sim.time - first_time
            firings = sim.completions[ref_index] - first_count
            if firings == 0:
                raise DeadlockError(
                    f"reference actor {reference!r} never fires in the periodic phase")
            q_ref = repetition[reference]
            return ThroughputResult(
                iterations_per_cycle=Fraction(firings, q_ref * period),
                period_cycles=period,
                transient_cycles=first_time,
                reference_firings_per_period=firings,
                reference_actor=reference,
                reference_repetitions=q_ref,
            )
        seen[key] = (sim.time, sim.completions[ref_index])
        if len(seen) > state_budget:
            raise StateSpaceBudgetExceededError(
                f"more than {state_budget} states explored; "
                "graph is likely unbounded")
        if not sim.running:
            raise DeadlockError(
                f"no enabled actor and no running firing at t={sim.time}")
        sim.advance()
        sim.settle()


def _strongly_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        forward[u].append(v)
        backward[v].append(u)

    def reaches_all(adj: list[list[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return reaches_all(forward) and reaches_all(backward)


def _has_token_free_cycle(n: int, edges: list[tuple[int, int, int, int]]) -> bool:
    """Cycle detection restricted to edges carrying zero initial tokens."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _, tokens in edges:
        if tokens == 0:
            adj[u].append(v)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            node, position = stack[-1]
            if position < len(adj[node]):
                stack[-1] = (node, position + 1)
                succ = adj[node][position]
                if color[succ] == 1:
                    return True
                if color[succ] == 0:
                    color[succ] = 1
                    stack.append((succ, 0))
            else:
                color[node] = 2
                stack.pop()
    return False


def _has_positive_cycle(n: int, edges: list[tuple[int, int, int, int]],
                        lam: Fraction) -> bool:
    """True iff some cycle has positive total weight under w(e) - lam * t(e).

    Longest-path relaxation from an all-zero potential; if an edge still
    relaxes after n-1 full passes a positive cycle exists.
    """
    dist = [Fraction(0)] * n
    for _ in range(max(n - 1, 1)):
        changed = False
        for u, v, w, t in edges:
            candidate = dist[u] + w - lam * t
            if candidate > dist[v]:
                dist[v] = candidate
                changed = True
        if not changed:
            return False
    return any(dist[u] + w - lam * t > dist[v] for u, v, w, t in edges)


def mcm_throughput(graph: SDFG) -> Fraction:
    """Throughput of a homogeneous strongly-connected graph as the reciprocal
    of the maximum cycle ratio max over cycles of (sum of execution times /
    sum of initial tokens).

    The ratio is found by exact binary search on the parametric longest-path
    feasibility predicate, then snapped to the unique rational with
    denominator bounded by the total token count.
    """
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
    if not _strongly_connected(n, [(u, v) for u, v, _, _ in edges]):
        raise NotStronglyConnectedError("cycle-mean analysis needs one strongly "
                                        "connected component")
    if _has_token_free_cycle(n, edges):
        raise DeadlockError("a cycle without initial tokens can never fire")
    if not edges:
        raise SdfmigError("graph has no cycles; throughput is unbounded")

    total_tokens = sum(t for _, _, _, t in edges)
    weight_bound = sum(w for _, _, w, _ in edges)
    low, high = Fraction(-1), Fraction(weight_bound + 1)
    gap = Fraction(1, 2 * total_tokens * total_tokens)
    while high - low > gap:
        mid = (low + high) / 2
        if _has_positive_cycle(n, edges, mid):
            low = mid
        else:
            high = mid
    ratio = ((low + high) / 2).limit_denominator(total_tokens)
    if _has_positive_cycle(n, edges, ratio) or not _has_positive_cycle(n, edges, ratio - gap):
        raise SdfmigError("cycle ratio search failed to converge")  # pragma: no cover
    if ratio == 0:
        raise SdfmigError("every cycle has zero total execution time; "
                          "throughput is unbounded")
    return 1 / ratio


def to_frames_per_second(result: ThroughputResult | Fraction | int | float,
                         clock_hz, digits: int = 2) -> Decimal:
    """Convert iterations-per-cycle into frames per second at a clock
    frequency, rounded to ``digits`` decimal places."""
    clock = to_fraction(clock_hz)
    if clock <= 0:
        raise ValueError("clock frequency must be positive")
    rate = (result.iterations_per_cycle if isinstance(result, ThroughputResult)
            else to_fraction(result))
    return to_decimal(rate * clock, digits=digits)
