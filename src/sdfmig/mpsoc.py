"""NoC-based MPSoC platform model and actor/channel mapping.

TDMA arbitration is modeled analytically: sharing a processor inflates each
actor's execution time by the co-mapped actors' slices (the worst case where
a token arrives right at the end of the actor's own slot). There is no
slot-level simulation. A mapping sums its slices per tile once
(:attr:`PlatformMapping.tile_slices`, cached like :attr:`Platform.tile_map`),
so an actor's wait is its tile's total minus its own slice, and one
slice-overflow check over those totals serves both :func:`compute_etam` and
:func:`validate_mapping`.

A channel binding is a :class:`BindingKind` plus the connection it uses,
if any, and only the other fields that kind reads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping as TMapping

from .errors import (
    InvalidBindingError,
    SliceOverflowError,
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


@dataclass(frozen=True)
class NocConnection:
    """Directed NoC connection with a fixed latency (cycles) and bandwidth
    (bytes per cycle, exact rational)."""

    id: str
    src_tile: str
    dst_tile: str
    latency: int = 0
    bandwidth: Fraction = Fraction(1)


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

    def tile(self, tile_id: str) -> Tile:
        return self.tile_map[tile_id]

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


@dataclass(frozen=True)
class ChannelBinding:
    """How one application channel is realized on the platform.

    ``connection`` is the connection id a REMOTE or PREFETCH binding needs.
    ``latency_bound`` is the guaranteed token latency over the connection; it
    is an input produced by the surrounding design flow, defaulting to the
    consumer tile's TDMA wheel. Each kind takes only the fields it reads.
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
    bindings."""

    actor_tile: TMapping[str, str]
    tdma_slice: TMapping[str, int]
    channel_binding: TMapping[str, ChannelBinding]

    @cached_property
    def tile_slices(self) -> dict[str, int]:
        """Tile id -> total TDMA slice of the actors placed on it."""
        totals: dict[str, int] = {}
        for actor_id, tile_id in self.actor_tile.items():
            totals[tile_id] = totals.get(tile_id, 0) + self.tdma_slice.get(actor_id, 0)
        return totals

    def tile_of(self, actor_id: str) -> str | None:
        return self.actor_tile.get(actor_id)


def tdma_wait(actor_id: str, platform: Platform, mapping: PlatformMapping) -> int:
    """Worst-case wait for an actor to re-enter its TDMA slot: the sum of the
    other co-mapped actors' slices. Zero on hardware and memory tiles."""
    tile_id = mapping.tile_of(actor_id)
    if tile_id is None or tile_id not in platform.tile_map:
        raise UnmappedActorError(f"actor {actor_id!r} is not mapped to a tile")
    if platform.tile(tile_id).kind != TileKind.PROCESSOR:
        return 0
    return mapping.tile_slices[tile_id] - mapping.tdma_slice.get(actor_id, 0)


def compute_etam(graph: SDFG, platform: Platform,
                 mapping: PlatformMapping) -> dict[str, int]:
    """Execution time after mapping for every actor: software actors pay the
    co-mapped actors' TDMA slices on top of their own execution time, other
    kinds are unchanged."""
    overflows = _slice_overflows(platform, mapping)
    if overflows:
        tile, used = overflows[0]
        raise SliceOverflowError(
            f"tile {tile.id!r}: slices total {used} exceed wheel {tile.tdma_wheel}")
    etam: dict[str, int] = {}
    for actor in graph.actors:
        if actor.kind == ActorKind.SOFTWARE:
            tile_id = mapping.tile_of(actor.id)
            if tile_id is None or tile_id not in platform.tile_map:
                raise UnmappedActorError(
                    f"software actor {actor.id!r} is not mapped to a tile")
            etam[actor.id] = actor.exec_time + tdma_wait(actor.id, platform, mapping)
        else:
            etam[actor.id] = actor.exec_time
    return etam


def _slice_overflows(platform: Platform,
                     mapping: PlatformMapping) -> list[tuple[Tile, int]]:
    """Every processor tile whose slices total more than its wheel, with that
    total, in platform order."""
    totals = mapping.tile_slices
    return [(tile, totals.get(tile.id, 0)) for tile in platform.tiles
            if tile.kind == TileKind.PROCESSOR
            and totals.get(tile.id, 0) > tile.tdma_wheel]


def validate_mapping(graph: SDFG, platform: Platform,
                     mapping: PlatformMapping) -> list[Diagnostic]:
    """Structural checks on a mapping; empty result means it is usable."""
    diags: list[Diagnostic] = []
    for actor_id, tile_id in mapping.actor_tile.items():
        if actor_id not in graph.actor_map:
            diags.append(Diagnostic("UnknownActor", actor_id,
                                    "mapped actor is not in the graph"))
        if tile_id not in platform.tile_map:
            diags.append(Diagnostic("UnknownTile", actor_id,
                                    f"mapped to unknown tile {tile_id!r}"))
    for actor in graph.actors:
        if actor.kind == ActorKind.SOFTWARE and mapping.tile_of(actor.id) is None:
            diags.append(Diagnostic("UnmappedActor", actor.id,
                                    "software actor has no tile"))
    for tile, used in _slice_overflows(platform, mapping):
        diags.append(Diagnostic("SliceOverflow", tile.id,
                                f"slices total {used} exceed wheel {tile.tdma_wheel}"))
    for channel_id, binding in mapping.channel_binding.items():
        channel = graph.channel_map.get(channel_id)
        if channel is None:
            diags.append(Diagnostic("UnknownChannel", channel_id,
                                    "binding references unknown channel"))
            continue
        src_tile = mapping.tile_of(channel.src)
        dst_tile = mapping.tile_of(channel.dst)
        if binding.kind == BindingKind.LOCAL:
            if src_tile is not None and dst_tile is not None and src_tile != dst_tile:
                diags.append(Diagnostic("BindingMismatch", channel_id,
                                        f"local binding but endpoints on {src_tile!r} "
                                        f"and {dst_tile!r}"))
            continue
        connection = platform.connection_map.get(binding.connection)
        if connection is None:
            diags.append(Diagnostic("UnknownConnection", channel_id,
                                    f"bound to unknown connection {binding.connection!r}"))
        elif (src_tile, dst_tile) != (connection.src_tile, connection.dst_tile):
            diags.append(Diagnostic("BindingMismatch", channel_id,
                                    f"connection {connection.id!r} joins "
                                    f"{connection.src_tile!r}->{connection.dst_tile!r} "
                                    f"but endpoints sit on {src_tile!r}->{dst_tile!r}"))
    return diags


def resolve_latency_bound(channel_id: str, graph: SDFG, platform: Platform,
                          mapping: PlatformMapping) -> int:
    """Latency bound for a channel's connection chain: the explicit value when
    configured, else the consumer tile's TDMA wheel (falling back to the
    producer tile's for hardware consumers)."""
    binding = mapping.channel_binding.get(channel_id)
    if binding is not None and binding.latency_bound is not None:
        return binding.latency_bound
    channel = graph.channel(channel_id)
    for endpoint in (channel.dst, channel.src):
        tile_id = mapping.tile_of(endpoint)
        if tile_id is not None and tile_id in platform.tile_map:
            tile = platform.tile(tile_id)
            if tile.kind == TileKind.PROCESSOR:
                return tile.tdma_wheel
    return 0
