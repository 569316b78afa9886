"""NoC-based MPSoC platform model and actor/channel mapping.

TDMA arbitration is modeled analytically: sharing a processor inflates each
actor's execution time by the co-mapped actors' slices (the worst case where
a token arrives right at the end of the actor's own slot). There is no
slot-level simulation. A mapping sums its slices per tile once
(:attr:`PlatformMapping.tile_slices`, cached like :attr:`Platform.tile_map`),
so an actor's wait is its tile's total minus its own slice.

Each value checks its own fields where it is built, types before ranges;
an id is a ``str``, and a count of type ``int``, which a ``bool`` is not.
A channel binding is a :class:`BindingKind` plus the connection it uses, if
any, and only the other fields that kind reads, each an ``int`` of at least
its minimum (buffer tokens, latency bound and prefetch time 0, chain
buffers 1).

The mapping rules are stated once, in ``_mapping_violations``: scenario
load lists the broken ones (:func:`validate_mapping`), binding and migration
raise the first (:func:`check_mapping`).

rule                                                 diagnostic         error
---------------------------------------------------  -----------------  ----------------------
tile or connection id repeated in the platform       DuplicateId        DuplicateIdError
mapped actor not in the graph                        UnknownActor       UnknownActorError
actor placed on a tile the platform lacks            UnknownTile        UnmappedActorError
software actor with no tile                          UnmappedActor      UnmappedActorError
slices over a processor's wheel                      SliceOverflow      SliceOverflowError
binding names no channel of the graph                UnknownChannel     UnknownChannelError
LOCAL endpoints not both on one tile (one unplaced)  BindingMismatch    SameTileError
REMOTE endpoints both on one tile                    BindingMismatch    SameTileError
REMOTE/PREFETCH connection not in the platform       UnknownConnection  UnknownConnectionError
connection does not join producer -> consumer tile   BindingMismatch    InvalidBindingError
second PREFETCH binding into one consumer            BindingMismatch    InvalidBindingError
buffer-tokens below the channel's initial tokens     BufferTooSmall     BufferTooSmallError
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping as TMapping

from .errors import (
    BufferTooSmallError,
    DuplicateIdError,
    InvalidBandwidthError,
    InvalidBindingError,
    InvalidFieldError,
    SameTileError,
    SdfmigError,
    SliceOverflowError,
    UnknownActorError,
    UnknownChannelError,
    UnknownConnectionError,
    UnmappedActorError,
)
from .graph import ActorKind, Diagnostic, SDFG


class TileKind(str, Enum):
    PROCESSOR = "processor"
    HARDWARE_BLOCK = "hardware_block"
    MEMORY = "memory"


@dataclass(frozen=True)
class Tile:
    """One platform tile. ``tdma_wheel`` is the full TDMA period in cycles and
    only meaningful for processor tiles."""

    id: str
    kind: TileKind = TileKind.PROCESSOR
    tdma_wheel: int = 0

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InvalidFieldError("id", f"must be a str, got {self.id!r}")
        if not isinstance(self.kind, TileKind):
            raise InvalidFieldError("kind", f"must be a TileKind, got {self.kind!r}")
        wheel = self.tdma_wheel
        if type(wheel) is not int:
            raise InvalidFieldError("tdma_wheel", f"must be an int, got {wheel!r}")
        if wheel < 0:
            raise InvalidFieldError("tdma_wheel", f"must be at least 0, got {wheel}")


@dataclass(frozen=True)
class NocConnection:
    """Directed NoC connection from ``src_tile`` to ``dst_tile``, with a
    fixed latency (cycles) and bandwidth (bytes per cycle, exact rational)."""

    id: str
    src_tile: str
    dst_tile: str
    latency: int = 0
    bandwidth: Fraction = Fraction(1)

    def __post_init__(self):
        latency, bandwidth = self.latency, self.bandwidth
        for field in ("id", "src_tile", "dst_tile"):
            value = getattr(self, field)
            if not isinstance(value, str):
                raise InvalidFieldError(field, f"must be a str, got {value!r}")
        if type(latency) is not int:
            raise InvalidFieldError("latency", f"must be an int, got {latency!r}")
        if type(bandwidth) not in (int, Fraction):
            raise InvalidBandwidthError(f"connection {self.id!r}: bandwidth must be an int "
                                        f"or a Fraction, got {bandwidth!r}")
        if latency < 0:
            raise InvalidFieldError("latency", f"must be at least 0, got {latency}")
        if bandwidth <= 0:
            raise InvalidBandwidthError(
                f"connection {self.id!r}: bandwidth must be positive, got {bandwidth}")


@dataclass(frozen=True, eq=False)
class Platform:
    """Tiles plus connections; compares structurally (declaration order of
    elements does not matter)."""

    tiles: tuple[Tile, ...] = ()
    connections: tuple[NocConnection, ...] = ()

    def __init__(self, tiles: Iterable[Tile] = (),
                 connections: Iterable[NocConnection] = ()):
        object.__setattr__(self, "tiles", tuple(tiles))
        object.__setattr__(self, "connections", tuple(connections))

    def __eq__(self, other):
        if not isinstance(other, Platform):
            return NotImplemented
        return (sorted(self.tiles, key=lambda t: t.id)
                == sorted(other.tiles, key=lambda t: t.id)
                and sorted(self.connections, key=lambda c: c.id)
                == sorted(other.connections, key=lambda c: c.id))

    @cached_property
    def tile_map(self) -> dict[str, Tile]:
        return {t.id: t for t in self.tiles}

    @cached_property
    def connection_map(self) -> dict[str, NocConnection]:
        return {c.id: c for c in self.connections}

    def connection(self, conn_id: str) -> NocConnection:
        if conn_id not in self.connection_map:
            raise UnknownConnectionError(f"no connection {conn_id!r} in the platform")
        return self.connection_map[conn_id]


class BindingKind(str, Enum):
    """How a channel is realized: a buffer in the memory of the tile both
    endpoints share, a NoC connection chain, or a prefetch by the consumer
    from a hardware block's memory over a connection."""

    LOCAL = "local"
    REMOTE = "remote"
    PREFETCH = "prefetch"


# The fields each binding kind reads; setting any other one is an error.
_BINDING_FIELDS = {
    BindingKind.LOCAL: ("buffer_tokens",),
    BindingKind.REMOTE: ("connection", "alpha_src", "alpha_dst", "latency_bound"),
    BindingKind.PREFETCH: ("connection", "buffer_tokens", "prefetch_time"),
}
# The least value of each count or time a binding can set.
_FIELD_MINIMUM = {"buffer_tokens": 0, "alpha_src": 1, "alpha_dst": 1,
                  "latency_bound": 0, "prefetch_time": 0}


@dataclass(frozen=True)
class ChannelBinding:
    """How one application channel is realized on the platform.

    ``connection`` is the connection id a REMOTE or PREFETCH binding needs.
    ``latency_bound`` is the guaranteed token latency over the connection; it
    is an input produced by the surrounding design flow, defaulting to the
    consumer tile's TDMA wheel. Each kind takes only the fields it reads.
    The five counts are ``int`` (a ``bool`` is not), checked for every field
    before any range: ``buffer_tokens``, ``latency_bound`` and
    ``prefetch_time`` are at least 0, and ``alpha_src``/``alpha_dst`` (chain
    buffers, in tokens) at least 1.
    """

    kind: BindingKind = BindingKind.LOCAL
    connection: str | None = None
    buffer_tokens: int | None = None
    alpha_src: int | None = None
    alpha_dst: int | None = None
    latency_bound: int | None = None
    prefetch_time: int | None = None

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, BindingKind):
            raise InvalidBindingError("kind", f"must be a BindingKind, got {kind!r}")
        if not isinstance(self.connection, (str, type(None))):
            raise InvalidBindingError("connection",
                                      f"must be a str or None, got {self.connection!r}")
        for name in _FIELD_MINIMUM:
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise InvalidBindingError(name, f"must be an int, got {value!r}")
        for name, minimum in _FIELD_MINIMUM.items():
            value = getattr(self, name)
            if value is not None and value < minimum:
                raise InvalidBindingError(name, f"must be at least {minimum}, got {value}")
        if kind is not BindingKind.LOCAL and self.connection is None:
            raise InvalidBindingError("connection",
                                      f"is required by a {kind.value} binding")
        for name in _UNREAD_FIELDS[kind]:
            if getattr(self, name) is not None:
                raise InvalidBindingError(name, f"is not read by a {kind.value} binding")


_UNREAD_FIELDS = {kind: [f.name for f in fields(ChannelBinding)[1:] if f.name not in reads]
                  for kind, reads in _BINDING_FIELDS.items()}


@dataclass(frozen=True)
class PlatformMapping:
    """Placement of actors on tiles, per-actor TDMA slices, and per-channel
    bindings. Every actor, tile and channel id is a ``str``, checked before
    the slices; each slice is an ``int`` of at least 0, for a placed actor."""

    actor_tile: TMapping[str, str]
    tdma_slice: TMapping[str, int]
    channel_binding: TMapping[str, ChannelBinding]

    def __post_init__(self):
        for field, ids in [("actor_tile", [*self.actor_tile, *self.actor_tile.values()]),
                           ("tdma_slice", self.tdma_slice),
                           ("channel_binding", self.channel_binding)]:
            for name in ids:
                if not isinstance(name, str):
                    raise InvalidFieldError(field, f"ids must be str, got {name!r}")
        for actor_id, slice_cycles in self.tdma_slice.items():
            if type(slice_cycles) is not int:
                raise SliceOverflowError(f"actor {actor_id!r}: tdma slice must be an int, "
                                         f"got {slice_cycles!r}")
        for actor_id, slice_cycles in self.tdma_slice.items():
            if slice_cycles < 0:
                raise SliceOverflowError(f"actor {actor_id!r}: tdma slice must be at "
                                         f"least 0, got {slice_cycles}")
            if actor_id not in self.actor_tile:
                raise SliceOverflowError(f"a tdma slice needs a tile, but actor "
                                         f"{actor_id!r} has none")

    @cached_property
    def tile_slices(self) -> dict[str, int]:
        """Tile id -> total TDMA slice of the actors placed on it."""
        totals: dict[str, int] = {}
        for actor_id, tile_id in self.actor_tile.items():
            totals[tile_id] = totals.get(tile_id, 0) + self.tdma_slice.get(actor_id, 0)
        return totals


def tdma_wait(actor_id: str, platform: Platform, mapping: PlatformMapping) -> int:
    """Worst-case wait for an actor to re-enter its TDMA slot: the sum of the
    other co-mapped actors' slices. Zero on hardware and memory tiles. Raises
    the error of the placement rule the actor breaks, or of slices over its
    tile's wheel."""
    unplaced = _unplaced(actor_id, platform, mapping)
    if unplaced is not None:
        raise UnmappedActorError(unplaced[1])
    tile = platform.tile_map[mapping.actor_tile[actor_id]]
    if tile.kind != TileKind.PROCESSOR:
        return 0
    overflow = _overflow(tile, mapping)
    if overflow is not None:
        raise SliceOverflowError(overflow)
    return mapping.tile_slices[tile.id] - mapping.tdma_slice.get(actor_id, 0)


def compute_etam(graph: SDFG, platform: Platform,
                 mapping: PlatformMapping) -> dict[str, int]:
    """Execution time after mapping for every actor: software actors pay the
    co-mapped actors' TDMA slices on top of their own execution time, other
    kinds are unchanged. Raises the errors of :func:`tdma_wait`."""
    return {actor.id: actor.exec_time + tdma_wait(actor.id, platform, mapping)
            if actor.kind == ActorKind.SOFTWARE else actor.exec_time
            for actor in graph.actors}


def _unplaced(actor_id: str, platform: Platform,
              mapping: PlatformMapping) -> tuple[str, str] | None:
    """``(code, message)`` when the actor sits on no tile of the platform."""
    tile_id = mapping.actor_tile.get(actor_id)
    if tile_id is None:
        return "UnmappedActor", f"actor {actor_id!r} has no tile"
    if tile_id not in platform.tile_map:
        return "UnknownTile", f"actor {actor_id!r} is mapped to unknown tile {tile_id!r}"
    return None


def _overflow(tile: Tile, mapping: PlatformMapping) -> str | None:
    """The message when a processor tile's slices overflow its wheel."""
    used = mapping.tile_slices.get(tile.id, 0)
    if tile.kind == TileKind.PROCESSOR and used > tile.tdma_wheel:
        return f"tile {tile.id!r}: slices total {used} exceed wheel {tile.tdma_wheel}"
    return None


def _mapping_violations(graph: SDFG, platform: Platform, mapping: PlatformMapping
                        ) -> Iterator[tuple[str, str, Callable[[str], SdfmigError], str]]:
    """``(code, subject, error, message)`` for every rule of the module
    docstring that ``mapping`` breaks: platform ids, actors, tiles, then
    bindings. A binding breaks at most one rule, its kind's tile rule
    first."""
    for what, elements in (("tile", platform.tiles), ("connection", platform.connections)):
        seen = set()
        for element in elements:
            if element.id in seen:
                yield ("DuplicateId", element.id, DuplicateIdError,
                       f"{what} id {element.id!r} occurs more than once")
            seen.add(element.id)
    unplaced_software = [a.id for a in graph.actors if a.kind == ActorKind.SOFTWARE
                         and a.id not in mapping.actor_tile]
    for actor_id in [*mapping.actor_tile, *unplaced_software]:
        if actor_id not in graph.actor_map:
            yield ("UnknownActor", actor_id, UnknownActorError,
                   f"mapped actor {actor_id!r} is not in the graph")
        unplaced = _unplaced(actor_id, platform, mapping)
        if unplaced is not None:
            yield unplaced[0], actor_id, UnmappedActorError, unplaced[1]
    for tile in platform.tiles:
        overflow = _overflow(tile, mapping)
        if overflow is not None:
            yield "SliceOverflow", tile.id, SliceOverflowError, overflow
    prefetched: dict[str, str] = {}  # consumer -> its first prefetch channel
    for channel_id, binding in mapping.channel_binding.items():
        channel = graph.channel_map.get(channel_id)
        if channel is None:
            yield ("UnknownChannel", channel_id, UnknownChannelError,
                   f"binding names channel {channel_id!r}, which is not in the graph")
            continue
        src_tile = mapping.actor_tile.get(channel.src)
        dst_tile = mapping.actor_tile.get(channel.dst)
        connection = platform.connection_map.get(binding.connection)
        if binding.kind == BindingKind.LOCAL and src_tile != dst_tile:
            yield ("BindingMismatch", channel_id, SameTileError,
                   f"channel {channel_id!r} bound locally but endpoints sit on "
                   f"{src_tile!r} and {dst_tile!r}")
        elif binding.kind == BindingKind.REMOTE and src_tile is not None \
                and src_tile == dst_tile:
            yield ("BindingMismatch", channel_id, SameTileError,
                   f"channel {channel_id!r} bound to connection {binding.connection!r} "
                   f"but both endpoints sit on {src_tile!r}")
        elif binding.kind != BindingKind.LOCAL and connection is None:
            yield ("UnknownConnection", channel_id, UnknownConnectionError,
                   f"channel {channel_id!r} bound to unknown connection "
                   f"{binding.connection!r}")
        elif connection is not None and (src_tile, dst_tile) != (connection.src_tile,
                                                                 connection.dst_tile):
            yield ("BindingMismatch", channel_id, partial(InvalidBindingError, "connection"),
                   f"{connection.id!r} joins {connection.src_tile!r}->"
                   f"{connection.dst_tile!r} but channel {channel_id!r} runs "
                   f"{src_tile!r}->{dst_tile!r}")
        elif binding.kind == BindingKind.PREFETCH and channel.dst in prefetched:
            yield ("BindingMismatch", channel_id, partial(InvalidBindingError, "kind"),
                   f"prefetch on channel {channel_id!r} is a second one into "
                   f"{channel.dst!r}, after channel {prefetched[channel.dst]!r}")
        # Initial tokens that are not an int break a graph rule instead.
        elif (binding.buffer_tokens is not None and type(channel.initial_tokens) is int
              and binding.buffer_tokens < channel.initial_tokens):
            yield ("BufferTooSmall", channel_id, BufferTooSmallError,
                   f"buffer of {binding.buffer_tokens} tokens cannot hold the "
                   f"{channel.initial_tokens} initial tokens of {channel_id!r}")
        if binding.kind == BindingKind.PREFETCH:
            prefetched.setdefault(channel.dst, channel_id)


def validate_mapping(graph: SDFG, platform: Platform,
                     mapping: PlatformMapping) -> list[Diagnostic]:
    """Every rule the mapping breaks, as diagnostics; empty means usable."""
    return [Diagnostic(code, subject, message)
            for code, subject, _, message in _mapping_violations(graph, platform, mapping)]


def check_mapping(graph: SDFG, platform: Platform, mapping: PlatformMapping) -> None:
    """Raise the error of the first rule the mapping breaks."""
    for _, _, error, message in _mapping_violations(graph, platform, mapping):
        raise error(message)


def resolve_latency_bound(channel_id: str, graph: SDFG, platform: Platform,
                          mapping: PlatformMapping) -> int:
    """Latency bound for a channel's connection chain: the explicit value when
    configured, else the consumer tile's TDMA wheel (falling back to the
    producer tile's for hardware consumers)."""
    binding = mapping.channel_binding.get(channel_id)
    if binding is not None and binding.latency_bound is not None:
        return binding.latency_bound
    channel = graph.channel_map[channel_id]
    for endpoint in (channel.dst, channel.src):
        tile = platform.tile_map.get(mapping.actor_tile.get(endpoint))
        if tile is not None and tile.kind == TileKind.PROCESSOR:
            return tile.tdma_wheel
    return 0
