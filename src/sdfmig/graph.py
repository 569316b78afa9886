"""Synchronous dataflow graph model: actors, rated channels, consistency.

The graph objects are immutable; every transformation produces a new graph.
Execution times and rates are plain Python integers, so arbitrarily large
cycle counts are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping

from .errors import (
    DuplicateIdError,
    InconsistentGraphError,
    InvalidRateError,
    MalformedGraphError,
    NegativeExecutionTimeError,
    SdfmigError,
    UnknownActorError,
)


class ActorKind(str, Enum):
    SOFTWARE = "software"
    HARDWARE = "hardware"
    # Actors introduced by graph transformations (connection actors, memory
    # actors, batch gates) rather than by the application itself.
    INFRASTRUCTURE = "infrastructure"


@dataclass(frozen=True)
class Actor:
    """A task node: fires by consuming on all inputs, then producing after
    ``exec_time`` clock cycles. ``exec_time`` 0 means the firing completes
    instantaneously."""

    id: str
    exec_time: int
    kind: ActorKind = ActorKind.SOFTWARE
    name: str = ""

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True)
class Channel:
    """A token queue between two actors.

    ``prod_rate`` tokens are appended per source firing, ``cons_rate`` removed
    per destination firing. ``token_size`` is in bytes; 0 marks channels whose
    tokens carry no payload (back-edges, self-loops).
    """

    id: str
    src: str
    dst: str
    prod_rate: int = 1
    cons_rate: int = 1
    initial_tokens: int = 0
    token_size: int = 0


@dataclass(frozen=True, eq=False)
class SDFG:
    """An immutable synchronous dataflow graph.

    ``reference_actor`` names the actor whose firings are counted to measure
    iterations; when ``None`` the analysis picks the default (the repetition-
    vector-1 actor with the smallest id). Graphs compare structurally: the
    declaration order of actors and channels does not matter.
    """

    actors: tuple[Actor, ...] = ()
    channels: tuple[Channel, ...] = ()
    reference_actor: str | None = None

    def __init__(self, actors: Iterable[Actor] = (), channels: Iterable[Channel] = (),
                 reference_actor: str | None = None):
        object.__setattr__(self, "actors", tuple(actors))
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "reference_actor", reference_actor)

    def __eq__(self, other):
        if not isinstance(other, SDFG):
            return NotImplemented
        return (sorted(self.actors, key=lambda a: a.id)
                == sorted(other.actors, key=lambda a: a.id)
                and sorted(self.channels, key=lambda c: c.id)
                == sorted(other.channels, key=lambda c: c.id)
                and self.reference_actor == other.reference_actor)

    def __getstate__(self):
        # The cached views (a mapping proxy among them) are rebuilt on demand.
        return {"actors": self.actors, "channels": self.channels,
                "reference_actor": self.reference_actor}

    @cached_property
    def actor_map(self) -> dict[str, Actor]:
        return {a.id: a for a in self.actors}

    @cached_property
    def channel_map(self) -> dict[str, Channel]:
        return {c.id: c for c in self.channels}

    @cached_property
    def _repetition(self) -> Mapping[str, int]:
        # Backs compute_repetition_vector and validate, which ask only when
        # every endpoint is an actor and every rate an integer of at least 1.
        # A failure caches nothing, so it raises on every call.
        return _solve_repetition_vector(self)

    @cached_property
    def _well_formed(self) -> bool:
        # Backs check_graph, cached the same way: only a pass is kept.
        for _, _, error, message in _violations(self):
            raise error(message)
        return True


def fresh_id(stem: str, *taken: Container[str]) -> str:
    """``stem`` when no container in ``taken`` holds it, else the first of
    ``stem_2``, ``stem_3``, ... that none holds."""
    candidate, n = stem, 1
    while True:
        for ids in taken:
            if candidate in ids:
                break
        else:
            return candidate
        n += 1
        candidate = f"{stem}_{n}"


@dataclass(frozen=True)
class Diagnostic:
    """One structural violation found by :func:`validate`."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


DANGLING_ENDPOINT = "DanglingEndpoint"
ZERO_RATE = "ZeroRate"
NEGATIVE_TOKENS = "NegativeTokens"
NEGATIVE_TOKEN_SIZE = "NegativeTokenSize"
NEGATIVE_EXEC_TIME = "NegativeExecTime"
BAD_KIND = "BadKind"
DUPLICATE_ID = "DuplicateId"
BAD_ID = "BadId"
BAD_REFERENCE = "BadReference"
INCONSISTENT = "Inconsistent"


def _violations(graph: SDFG) -> Iterator[tuple[str, str, type[SdfmigError], str]]:
    """``(code, subject, error, message)`` for every rule of
    :func:`check_graph` that ``graph`` breaks, actors first, in order."""
    actor_ids: set[str] = set()
    for a in graph.actors:
        # An id is checked for its type before it is hashed into a set.
        if not isinstance(a.id, str):
            yield (BAD_ID, str(a.id), MalformedGraphError,
                   f"actor id {a.id!r} must be a str")
            continue
        if a.id in actor_ids:
            yield (DUPLICATE_ID, a.id, DuplicateIdError,
                   f"actor id {a.id!r} occurs more than once")
        actor_ids.add(a.id)
        if type(a.exec_time) is not int or a.exec_time < 0:
            yield (NEGATIVE_EXEC_TIME, a.id,
                   NegativeExecutionTimeError if type(a.exec_time) is int
                   else MalformedGraphError,
                   f"actor {a.id!r} has execution time {a.exec_time!r}; it must be "
                   "an integer of at least 0")
        if not isinstance(a.kind, ActorKind):
            yield (BAD_KIND, a.id, MalformedGraphError,
                   f"actor {a.id!r} has kind {a.kind!r}; it must be an ActorKind")
    channel_ids: set[str] = set()
    for c in graph.channels:
        if not (isinstance(c.id, str) and isinstance(c.src, str) and isinstance(c.dst, str)):
            yield (BAD_ID, str(c.id), MalformedGraphError,
                   f"channel {c.id!r} from {c.src!r} to {c.dst!r}: its id and "
                   "endpoints must be str")
            continue
        if c.id in channel_ids:
            yield (DUPLICATE_ID, c.id, DuplicateIdError,
                   f"channel id {c.id!r} occurs more than once")
        channel_ids.add(c.id)
        for endpoint in (c.src, c.dst):
            if endpoint not in actor_ids:
                yield (DANGLING_ENDPOINT, c.id, UnknownActorError,
                       f"channel {c.id!r} names actor {endpoint!r}, which is not in the graph")
        integral = type(c.prod_rate) is int and type(c.cons_rate) is int
        if not (integral and c.prod_rate >= 1 and c.cons_rate >= 1):
            yield (ZERO_RATE, c.id, InvalidRateError if integral else MalformedGraphError,
                   f"channel {c.id!r} has production rate {c.prod_rate!r} and "
                   f"consumption rate {c.cons_rate!r}; both must be integers of at least 1")
        if type(c.initial_tokens) is not int or c.initial_tokens < 0:
            yield (NEGATIVE_TOKENS, c.id, MalformedGraphError,
                   f"channel {c.id!r} has initial tokens {c.initial_tokens!r}; they must "
                   "be an integer of at least 0")
        if type(c.token_size) is not int or c.token_size < 0:
            yield (NEGATIVE_TOKEN_SIZE, c.id, MalformedGraphError,
                   f"channel {c.id!r} has token size {c.token_size!r}; it must be "
                   "an integer of at least 0")
    reference = graph.reference_actor
    if reference is not None and (not isinstance(reference, str)
                                  or reference not in actor_ids):
        yield (BAD_REFERENCE, str(reference), MalformedGraphError,
               f"reference actor {reference!r} is not in the graph")


def check_graph(graph: SDFG) -> None:
    """Raise the error of the first structural rule ``graph`` breaks: a
    repeated actor or channel id (:class:`DuplicateIdError`), a channel
    endpoint that is not an actor (:class:`UnknownActorError`), a rate below
    1 (:class:`InvalidRateError`), a negative execution time
    (:class:`NegativeExecutionTimeError`), or (:class:`MalformedGraphError`)
    an actor id, channel id or endpoint that is not a ``str`` (checked
    before any id is looked up), negative initial tokens or token size, a
    value that is not an integer (a ``bool`` is not), an actor kind that is
    not an :class:`ActorKind`, or an unknown reference actor. Only a pass is remembered, per graph
    object, so later calls on a well-formed graph are free."""
    graph._well_formed


def compute_repetition_vector(graph: SDFG) -> Mapping[str, int]:
    """Solve the balance equations q(src)*prod = q(dst)*cons for the smallest
    positive integer vector.

    Each weakly-connected component is normalized independently, so the
    whole-graph vector is collectively coprime. Raises the errors of
    :func:`check_graph` for a malformed graph and
    :class:`InconsistentGraphError` when only the zero solution exists. The
    vector maps each actor id to its count, in actor order. It is solved
    once per graph object and shared by later calls, so it is read-only.
    """
    check_graph(graph)
    return graph._repetition


def _solve_repetition_vector(graph: SDFG) -> Mapping[str, int]:
    """Propagate firing-rate ratios as reduced integer (num, den) pairs over
    each weakly-connected component, then scale each component to the
    smallest positive integers.

    Every actor is popped once and compares each incident channel, so each
    channel is checked after both of its endpoints have their final ratios:
    one pass finds every unbalanced channel. Every endpoint must be an actor
    and every rate an integer of at least 1."""
    ratios: dict[str, tuple[int, int]] = {}
    adjacency: dict[str, list[Channel]] = {a.id: [] for a in graph.actors}
    for c in graph.channels:
        adjacency[c.src].append(c)
        adjacency[c.dst].append(c)

    bad: list[str] = []
    components: list[list[str]] = []
    for seed in graph.actors:
        if seed.id in ratios:
            continue
        ratios[seed.id] = (1, 1)
        component = [seed.id]
        stack = [seed.id]
        while stack:
            here = stack.pop()
            num, den = ratios[here]
            for c in adjacency[here]:
                if here == c.src:
                    other, num2, den2 = c.dst, num * c.prod_rate, den * c.cons_rate
                else:
                    other, num2, den2 = c.src, num * c.cons_rate, den * c.prod_rate
                shrink = math.gcd(num2, den2)
                implied = (num2 // shrink, den2 // shrink)
                if other not in ratios:
                    ratios[other] = implied
                    component.append(other)
                    stack.append(other)
                elif ratios[other] != implied and c.id not in bad:
                    bad.append(c.id)
        components.append(component)
    if bad:
        raise InconsistentGraphError(
            f"balance equations unsolvable, offending channels: {', '.join(sorted(bad))}",
            channels=tuple(sorted(bad)),
        )

    entries: dict[str, int] = {}
    for component in components:
        scale = math.lcm(*(ratios[a][1] for a in component))
        counts = {a: ratios[a][0] * scale // ratios[a][1] for a in component}
        shrink = math.gcd(*counts.values())
        for a in component:
            entries[a] = counts[a] // shrink
    return MappingProxyType({a.id: entries[a.id] for a in graph.actors})


def validate(graph: SDFG) -> list[Diagnostic]:
    """Every structural rule ``graph`` breaks (:func:`check_graph` raises
    for the first), plus the unbalanced channels when the balance equations
    can be set up; empty result means the graph is well formed and
    consistent. The rules are read through the cached check, so a graph
    that passes is read once for both."""
    try:
        check_graph(graph)
        diags = []
    except SdfmigError:
        diags = [Diagnostic(code, subject, message)
                 for code, subject, _, message in _violations(graph)]
    if not any(d.code in (BAD_ID, DANGLING_ENDPOINT, ZERO_RATE) for d in diags):
        try:
            graph._repetition
        except InconsistentGraphError as exc:
            for channel_id in exc.channels:
                diags.append(Diagnostic(INCONSISTENT, channel_id,
                                        "balance equation has no positive solution"))
    return diags


def disable_auto_concurrency(graph: SDFG) -> SDFG:
    """Give every actor without a self-loop a rate-1 self-loop with one token,
    so no actor ever has two overlapping firings. Idempotent."""
    looped = {c.src for c in graph.channels if c.src == c.dst}
    channels = list(graph.channels)
    for a in graph.actors:
        if a.id not in looped:
            channels.append(Channel(
                id=fresh_id(f"{a.id}__self", graph.actor_map, graph.channel_map),
                src=a.id, dst=a.id,
                prod_rate=1, cons_rate=1, initial_tokens=1,
            ))
    return SDFG(graph.actors, channels, graph.reference_actor)
