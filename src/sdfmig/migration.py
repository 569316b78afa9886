"""Software-to-hardware task migration.

A migration moves one software actor onto a dedicated hardware block and
models four effects: the actor runs faster (configurable speedup), its TDMA
slice returns to the co-mapped actors, each of its channels (self-loops
aside) moves onto a new NoC connection and is restyled by one rule, and the
extra NoC load that style implies. The rule reads the kind of the channel's
consumer: a software consumer prefetches from the block's memory, and every
other touched channel becomes a chain onto its new connection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

from .analysis import (DEFAULT_CLOCK_HZ, DEFAULT_STATE_BUDGET, ThroughputResult,
                       self_timed_throughput, to_frames_per_second)
from .errors import (
    AlreadyHardwareError,
    InvalidMigrationSpecError,
    SdfmigError,
    UnknownActorError,
    UnmappedActorError,
)
from .graph import ActorKind, Channel, SDFG, compute_repetition_vector, fresh_id
from .mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
    check_mapping,
)
from .transforms import build_bound_graph, prefetch_batch


@dataclass(frozen=True)
class MigrationSpec:
    """Parameters of one migration. ``hw_connection`` optionally names the
    platform connection whose latency/bandwidth the new hardware link copies;
    when omitted the link borrows from the channel's previous connection, or
    failing that from the first connection touching the vacated tile.
    ``hw_buffer_tokens`` bounds the producer of a prefetch channel (defaults
    to two gate batches). ``alpha_src``/``alpha_dst`` size the buffers of
    chains that did not exist before the migration. A field of the wrong
    type, then one out of range, is refused where the spec is built, before
    it turns into a graph that fails later under another name."""

    actor: str = ""
    speedup: Fraction = Fraction(2)
    prefetch_time: int = 10000
    hw_connection: str | None = None
    hw_buffer_tokens: int | None = None
    alpha_src: int = 2
    alpha_dst: int = 2

    def __post_init__(self):
        buffer = self.hw_buffer_tokens
        for field, typed, kind in [
                ("actor", isinstance(self.actor, str), "a str"),
                ("hw_connection", isinstance(self.hw_connection, (str, type(None))),
                 "a str or None"),
                ("speedup", type(self.speedup) in (int, Fraction), "an int or a Fraction"),
                ("prefetch_time", type(self.prefetch_time) is int, "an int"),
                ("hw_buffer_tokens", type(buffer) in (int, type(None)), "an int or None"),
                ("alpha_src", type(self.alpha_src) is int, "an int"),
                ("alpha_dst", type(self.alpha_dst) is int, "an int")]:
            if not typed:
                raise InvalidMigrationSpecError(
                    field, f"must be {kind}, got {getattr(self, field)!r}")
        for field, broken, rule in [
                ("speedup", self.speedup <= 0, "must be positive"),
                ("prefetch_time", self.prefetch_time < 0, "must not be negative"),
                ("hw_buffer_tokens", (buffer or 0) < 0, "must not be negative"),
                ("alpha_src", self.alpha_src < 1, "must be at least 1"),
                ("alpha_dst", self.alpha_dst < 1, "must be at least 1")]:
            if broken:
                raise InvalidMigrationSpecError(field, f"{rule}, got {getattr(self, field)}")


@dataclass(frozen=True)
class MigrationResult:
    """A migrated scenario: the analyzable (bound) graph plus the updated
    application graph, platform and mapping it was built from."""

    graph: SDFG
    mapping: PlatformMapping
    platform: Platform
    app_graph: SDFG
    hw_tile: str


@dataclass(frozen=True)
class MigrationCandidate:
    """One row of an exploration: either a throughput or the error that
    stopped this candidate."""

    actor: str
    result: ThroughputResult | None = None
    fps_after: Decimal | None = None
    gain_fps: Decimal | None = None
    error: str | None = None


def migrate_task(graph: SDFG, platform: Platform, mapping: PlatformMapping,
                 spec: MigrationSpec) -> MigrationResult:
    """Apply one software-to-hardware migration and rebuild the bound graph.

    The migrated actor's execution time becomes ``floor(time / speedup)`` and
    it moves to a fresh hardware tile, freeing its TDMA slice. Each channel
    touching it, self-loops aside, moves onto a new connection and is
    restyled by its consumer's kind: a software consumer prefetches from the
    block's memory, any other consumer is fed by a chain. Everything
    downstream (after-mapping times, TDMA waits, chains, prefetch templates)
    follows from the rebuilt scenario.
    """
    repetition = compute_repetition_vector(graph)
    actor = graph.actor_map.get(spec.actor)
    if actor is None:
        raise UnknownActorError(f"no actor {spec.actor!r} in graph")
    if actor.kind != ActorKind.SOFTWARE:
        raise AlreadyHardwareError(f"actor {spec.actor!r} is not a software actor")
    check_mapping(graph, platform, mapping)
    old_tile = mapping.actor_tile[actor.id]

    app_graph = SDFG([
        replace(a, exec_time=a.exec_time // spec.speedup, kind=ActorKind.HARDWARE)
        if a.id == actor.id else a
        for a in graph.actors
    ], graph.channels, graph.reference_actor)

    tiles = list(platform.tiles)
    hw_tile = Tile(fresh_id(f"hw_{actor.id}", platform.tile_map),
                   kind=TileKind.HARDWARE_BLOCK)
    tiles.append(hw_tile)
    connections = list(platform.connections)
    bindings = dict(mapping.channel_binding)
    actor_tile = {**mapping.actor_tile, actor.id: hw_tile.id}
    tdma_slice = {a: s for a, s in mapping.tdma_slice.items() if a != actor.id}

    for channel in graph.channels:
        if channel.src == channel.dst or actor.id not in (channel.src, channel.dst):
            continue
        # The new connection joins the channel's endpoint tiles after the move,
        # so the other endpoint needs one; hardware may sit on none.
        peer = channel.dst if channel.src == actor.id else channel.src
        if peer not in actor_tile:
            raise UnmappedActorError(f"actor {peer!r} has no tile, so channel "
                                     f"{channel.id!r} cannot move onto a connection")
        template = _template_connection(channel, platform, mapping, spec, old_tile)
        conn = NocConnection(
            id=fresh_id(f"noc_{channel.id}", {c.id for c in connections}),
            src_tile=actor_tile[channel.src], dst_tile=actor_tile[channel.dst],
            latency=template.latency, bandwidth=template.bandwidth,
        )
        connections.append(conn)
        if app_graph.actor_map[channel.dst].kind == ActorKind.SOFTWARE:
            # Software consumer must fetch its input from the block's memory:
            # prefetch template, transfer time taken over the hardware link.
            batch = prefetch_batch(repetition, channel.src, channel.dst)
            buffer_tokens = spec.hw_buffer_tokens
            if buffer_tokens is None:
                buffer_tokens = channel.initial_tokens + 2 * batch * channel.cons_rate
            bindings[channel.id] = ChannelBinding(
                kind=BindingKind.PREFETCH,
                connection=conn.id,
                prefetch_time=spec.prefetch_time,
                buffer_tokens=buffer_tokens,
            )
        else:
            # A chain onto the new connection. A remote chain keeps its buffer
            # sizes and latency bound (no other kind sets them); a new chain's
            # buffers hold at least one firing's burst.
            previous = mapping.channel_binding.get(channel.id, ChannelBinding())
            bindings[channel.id] = ChannelBinding(
                kind=BindingKind.REMOTE,
                connection=conn.id,
                alpha_src=previous.alpha_src or spec.alpha_src * channel.prod_rate,
                alpha_dst=previous.alpha_dst or spec.alpha_dst * channel.cons_rate,
                latency_bound=previous.latency_bound,
            )

    new_platform = Platform(tiles=tiles, connections=connections)
    new_mapping = PlatformMapping(actor_tile=actor_tile, tdma_slice=tdma_slice,
                                  channel_binding=bindings)
    bound = build_bound_graph(app_graph, new_platform, new_mapping)
    return MigrationResult(graph=bound, mapping=new_mapping, platform=new_platform,
                           app_graph=app_graph, hw_tile=hw_tile.id)


def migration_candidate(graph: SDFG, platform: Platform, mapping: PlatformMapping,
                        spec: MigrationSpec, baseline: ThroughputResult, clock_hz,
                        state_budget: int = DEFAULT_STATE_BUDGET) -> MigrationCandidate:
    """One row of a report: migrate ``spec.actor``, analyze the migrated graph
    and compare it with ``baseline`` at ``clock_hz``. Raises the errors of
    :func:`migrate_task` and :func:`self_timed_throughput`."""
    migrated = migrate_task(graph, platform, mapping, spec)
    result = self_timed_throughput(migrated.graph, state_budget=state_budget)
    fps_after = to_frames_per_second(result, clock_hz)
    return MigrationCandidate(actor=spec.actor, result=result, fps_after=fps_after,
                              gain_fps=fps_after - to_frames_per_second(baseline, clock_hz))


def explore_single_migrations(graph: SDFG, platform: Platform,
                              mapping: PlatformMapping,
                              defaults: MigrationSpec = MigrationSpec(),
                              clock_hz=DEFAULT_CLOCK_HZ,
                              state_budget: int = DEFAULT_STATE_BUDGET,
                              ) -> tuple[ThroughputResult, list[MigrationCandidate]]:
    """Migrate every software actor in turn and rank the outcomes by gain.

    Returns the baseline throughput plus one candidate per software actor,
    sorted by descending gain (ties and failures by actor id; failures
    last, carrying their error message instead of a result)."""
    baseline = self_timed_throughput(build_bound_graph(graph, platform, mapping),
                                     state_budget=state_budget)
    candidates: list[MigrationCandidate] = []
    for actor in sorted(graph.actors, key=lambda a: a.id):
        if actor.kind != ActorKind.SOFTWARE:
            continue
        try:
            candidates.append(migration_candidate(
                graph, platform, mapping, replace(defaults, actor=actor.id),
                baseline, clock_hz, state_budget))
        except SdfmigError as exc:
            candidates.append(MigrationCandidate(actor=actor.id, error=str(exc)))
    candidates.sort(key=lambda c: (c.gain_fps is None,
                                   -c.gain_fps if c.gain_fps is not None else 0,
                                   c.actor))
    return baseline, candidates


def _template_connection(channel: Channel, platform: Platform,
                         mapping: PlatformMapping, spec: MigrationSpec,
                         vacated_tile: str) -> NocConnection:
    """Connection whose latency/bandwidth the new hardware link copies: the
    spec's ``hw_connection`` when given, else the channel's previous
    connection, else the first by id of those touching the vacated tile, or
    failing that of the platform's."""
    if spec.hw_connection is not None:
        return platform.connection(spec.hw_connection)
    previous = mapping.channel_binding.get(channel.id)
    if previous is not None and previous.connection in platform.connection_map:
        return platform.connection(previous.connection)
    if not platform.connections:
        raise SdfmigError(
            f"platform has no connection to model the hardware link for {channel.id!r}")
    touching = [c for c in platform.connections if vacated_tile in (c.src_tile, c.dst_tile)]
    return min(touching or platform.connections, key=lambda c: c.id)
