"""Throughput computation.

Two independent routes:

* :func:`self_timed_throughput` simulates self-timed execution (fire as soon
  as enabled, consume at start, produce at completion) until the execution
  state recurs, then reads the throughput off the periodic phase. Works for
  any consistent, bounded SDF graph. The simulator is event driven: a
  worklist holds the actors whose inputs gained tokens, so settling an
  instant checks only those. Each firing in flight is one integer code,
  ``finish * n_actors + actor``, kept in an ascending list; the completion
  time is ``codes[0] // n_actors`` and every code below the next multiple
  of ``n_actors`` completes then. The recurrence key is flat: the token
  counts plus the codes relative to now, ``remaining * n_actors + actor``,
  which decode uniquely, so two keys are equal exactly when the states
  hold the same tokens and the same multiset of (actor, remaining)
  firings.
* :func:`mcm_throughput` computes the maximum cycle ratio analytically via a
  parametric longest-path search. Only valid for homogeneous (all rates 1),
  strongly connected graphs, where it must agree with the simulation exactly.

All results are exact rationals.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import (
    DeadlockError,
    InvalidStateBudgetError,
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
    :meth:`settle` starts them. Each firing in flight is one integer code,
    ``finish * n_actors + actor``, in an ascending list, so the earliest
    completions lead the list until :meth:`advance` reaches them.
    """

    def __init__(self, graph: SDFG):
        self.actor_ids = sorted(a.id for a in graph.actors)
        self.n_actors = len(self.actor_ids)
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
        self.pending = list(range(self.n_actors))  # worklist for settle
        self.queued = [True] * self.n_actors
        self.codes: list[int] = []  # finish * n_actors + actor, ascending
        self.time = 0
        self.completions = [0] * self.n_actors
        self._instant_cap = 1_000_000

    def settle(self) -> None:
        """Start every enabled firing, running zero-time completions to a
        fixpoint before time may advance.

        Only actors on the worklist are checked. Each channel has one
        consumer and enabling is monotone in tokens, so the firings started
        in one instant, and the stable state they leave, do not depend on the
        order the worklist is drained in."""
        tokens, pending, queued = self.tokens, self.pending, self.queued
        codes, exec_time, produce = self.codes, self.exec_time, self.produce
        now_code = self.time * self.n_actors
        instant = 0
        while pending:
            ai = pending.pop()
            queued[ai] = False
            inputs = self.consume[ai]
            while True:
                for ci, rate in inputs:
                    if tokens[ci] < rate:
                        break
                else:  # enabled: start one firing, then check again
                    for ci, rate in inputs:
                        tokens[ci] -= rate
                    instant += 1
                    if instant > self._instant_cap:
                        raise StateSpaceBudgetExceededError(
                            "unbounded zero-time firing sequence at "
                            f"t={self.time} (livelock)")
                    duration = exec_time[ai]
                    if duration:
                        insort(codes, now_code + duration * self.n_actors + ai)
                    else:
                        for ci, rate, consumer in produce[ai]:
                            tokens[ci] += rate
                            if not queued[consumer]:
                                queued[consumer] = True
                                pending.append(consumer)
                        self.completions[ai] += 1
                    continue
                break

    def advance(self) -> None:
        """Jump to the earliest finish time and produce the tokens of every
        firing that completes then."""
        codes, n_actors = self.codes, self.n_actors
        time = self.time = codes[0] // n_actors
        now_code = time * n_actors
        done = bisect_left(codes, now_code + n_actors)
        tokens, pending, queued = self.tokens, self.pending, self.queued
        completions = self.completions
        for code in codes[:done]:
            ai = code - now_code
            for ci, rate, consumer in self.produce[ai]:
                tokens[ci] += rate
                if not queued[consumer]:
                    queued[consumer] = True
                    pending.append(consumer)
            completions[ai] += 1
        del codes[:done]

    def key(self) -> tuple:
        """Recurrence key: token counts plus the ascending codes of the
        firings in flight, relative to now. A relative code is
        ``remaining * n_actors + actor``, so equal keys mean equal multisets
        of (actor, remaining) firings."""
        now_code = self.time * self.n_actors
        return tuple(self.tokens), tuple([code - now_code for code in self.codes])

    def snapshot(self) -> ExecutionState:
        n_actors, now = self.n_actors, self.time
        in_flight = sorted((code % n_actors, code // n_actors - now) for code in self.codes)
        return ExecutionState(
            time=now,
            channel_tokens=dict(zip(self.channel_ids, self.tokens)),
            active_firings=tuple((self.actor_ids[ai], remaining)
                                 for ai, remaining in in_flight),
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
        if not sim.codes:
            return
        sim.advance()


def self_timed_throughput(graph: SDFG,
                          state_budget: int = DEFAULT_STATE_BUDGET) -> ThroughputResult:
    """Simulate self-timed execution until a state recurs and return the
    throughput of the periodic phase.

    Raises :class:`InvalidStateBudgetError` unless ``state_budget`` is a
    positive integer, :class:`DeadlockError` when execution stops (or never
    turns the reference actor), :class:`InconsistentGraphError` for
    unsolvable balance equations, and :class:`StateSpaceBudgetExceededError`
    when more than ``state_budget`` distinct states are visited, which is the
    usual symptom of unbounded token accumulation.
    """
    if not isinstance(state_budget, int) or state_budget < 1:
        raise InvalidStateBudgetError(
            f"state budget must be a positive integer, got {state_budget!r}")
    repetition = compute_repetition_vector(graph)
    reference = resolve_reference_actor(graph, repetition)

    sim = _Simulator(graph)
    ref_index = sim.actor_ids.index(reference)
    completions, codes = sim.completions, sim.codes
    key, advance, settle = sim.key, sim.advance, sim.settle
    # State key -> index into first_times/first_counts, the time and the
    # reference completions at which that state was first reached.
    seen: dict[tuple, int] = {}
    first_times: list[int] = []
    first_counts: list[int] = []
    settle()
    while True:
        stored = len(first_times)
        first = seen.setdefault(key(), stored)
        if first < stored:
            period = sim.time - first_times[first]
            firings = completions[ref_index] - first_counts[first]
            if firings == 0:
                raise DeadlockError(
                    f"reference actor {reference!r} never fires in the periodic phase")
            q_ref = repetition[reference]
            return ThroughputResult(
                iterations_per_cycle=Fraction(firings, q_ref * period),
                period_cycles=period,
                transient_cycles=first_times[first],
                reference_firings_per_period=firings,
                reference_actor=reference,
                reference_repetitions=q_ref,
            )
        first_times.append(sim.time)
        first_counts.append(completions[ref_index])
        if stored >= state_budget:
            raise StateSpaceBudgetExceededError(
                f"more than {state_budget} states explored; "
                "graph is likely unbounded")
        if not codes:
            raise DeadlockError(
                f"no enabled actor and no running firing at t={sim.time}")
        advance()
        settle()


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
