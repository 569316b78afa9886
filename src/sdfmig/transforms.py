"""Graph rewrites that embed platform mapping decisions into an SDF graph.

:func:`build_bound_graph` is the one way to bind: it reads each channel's
:class:`~sdfmig.mpsoc.ChannelBinding` straight into the rewrite for its
:class:`~sdfmig.mpsoc.BindingKind`:

* LOCAL: a reversed buffer channel models the finite memory a same-tile
  channel lives in;
* REMOTE: a channel crossing tiles becomes a chain of three infrastructure
  actors (connection send time, guaranteed token latency, worst-case TDMA
  re-entry wait of the consumer, which is what mapping added to its
  execution time) plus buffer back-edges on both sides;
* PREFETCH (memory-aware rewrite): a consumer that reads from a remote
  memory is split into an issue/execute pair overlapped with a memory actor,
  framed by batch gates.

Each rewrite is a method of ``_WorkingGraph``: one mutable copy of a graph,
its actors and channels held in insertion-ordered dicts. The binder applies
every rewrite to one such copy and builds a single :class:`SDFG` at the end,
so its work grows with the size of the graph rather than with channels times
graph size. Each rewrite draws its ids with :func:`~sdfmig.graph.fresh_id`
from the actors and channels of the graph as it stood before that rewrite,
so the bound graph is the one a step-by-step composition of single rewrites
gives, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .graph import (
    Actor,
    ActorKind,
    Channel,
    SDFG,
    compute_repetition_vector,
    disable_auto_concurrency,
    fresh_id,
)
from .mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    check_mapping,
    compute_etam,
    resolve_latency_bound,
)


def connection_actor_time(token_size: int, connection: NocConnection) -> int:
    """Cycles to push one token through a connection: latency plus the
    size/bandwidth quotient truncated toward zero, computed in integers. The
    bandwidth is positive, as every :class:`NocConnection` is built."""
    bandwidth = connection.bandwidth
    cycles = abs(token_size) * bandwidth.denominator // bandwidth.numerator
    return connection.latency + (cycles if token_size >= 0 else -cycles)


class _WorkingGraph:
    """A mutable copy of a graph that the rewrites edit in place.

    ``actors`` and ``channels`` are insertion-ordered dicts keyed by id, so a
    rewrite costs only what it touches and :meth:`freeze` yields the tuple
    order that rebuilding the graph after every step would give. Each rewrite
    draws all of its ids before it changes anything, so :func:`fresh_id`
    reads the graph as it stood before that rewrite.
    The graph must have passed :func:`~sdfmig.graph.check_graph`, which
    :func:`~sdfmig.graph.compute_repetition_vector` runs: a repeated id
    would make one element silently replace another. Every channel a
    rewrite names must be in the graph, which
    :func:`~sdfmig.mpsoc.check_mapping` checks.
    """

    def __init__(self, graph: SDFG):
        self.actors = {a.id: a for a in graph.actors}
        self.channels = {c.id: c for c in graph.channels}
        self.reference = graph.reference_actor

    def fresh(self, stem: str) -> str:
        return fresh_id(stem, self.actors, self.channels)

    def freeze(self) -> SDFG:
        return SDFG(actors=self.actors.values(), channels=self.channels.values(),
                    reference_actor=self.reference)

    def bind_local(self, channel_id: str, buffer_tokens: int) -> None:
        """Add the reversed buffer channel for a same-tile channel.

        The back-edge starts with ``buffer_tokens - initial_tokens`` tokens:
        the free space left in a buffer of ``buffer_tokens`` tokens. The
        forward channel is untouched, so tokens(forward) + tokens(back) stays
        equal to ``buffer_tokens`` in every reachable state, which holds the
        initial tokens (:func:`~sdfmig.mpsoc.check_mapping`).
        """
        channel = self.channels[channel_id]
        back = Channel(
            id=self.fresh(f"{channel_id}__buf"),
            src=channel.dst, dst=channel.src,
            prod_rate=channel.cons_rate, cons_rate=channel.prod_rate,
            initial_tokens=buffer_tokens - channel.initial_tokens,
        )
        self.channels[back.id] = back

    def bind_remote(self, channel_id: str, binding: ChannelBinding,
                    connection: NocConnection, latency_bound: int,
                    dst_wait: int) -> None:
        """Replace a channel with the connection chain
        src -> send -> latency -> wait -> dst.

        The inserted actors carry the send time of one token over
        ``connection``, the guaranteed token latency ``latency_bound``, and
        the consumer's worst-case TDMA re-entry wait ``dst_wait`` (zero for
        hardware consumers). Buffer back-edges hold the binding's
        ``alpha_src`` and ``alpha_dst`` tokens, 1 each when unset; the
        consumer-side one returns to the send actor. The channel's initial
        tokens carry over to the last chain edge. All inserted actors get
        unit self-loops.
        """
        channel = self.channels[channel_id]
        fresh = self.fresh
        token_size = channel.token_size
        send = Actor(fresh(f"ac_{channel_id}"),
                     connection_actor_time(token_size, connection),
                     kind=ActorKind.INFRASTRUCTURE)
        latency = Actor(fresh(f"a_{channel_id}"), latency_bound,
                        kind=ActorKind.INFRASTRUCTURE)
        wait = Actor(fresh(f"as_{channel_id}"), dst_wait, kind=ActorKind.INFRASTRUCTURE)
        chain = [
            Channel(fresh(f"{channel_id}__send"), channel.src, send.id,
                    prod_rate=channel.prod_rate, cons_rate=1, token_size=token_size),
            Channel(fresh(f"{channel_id}__lat"), send.id, latency.id),
            Channel(fresh(f"{channel_id}__wait"), latency.id, wait.id),
            Channel(fresh(f"{channel_id}__recv"), wait.id, channel.dst,
                    prod_rate=1, cons_rate=channel.cons_rate,
                    initial_tokens=channel.initial_tokens, token_size=token_size),
            Channel(fresh(f"{channel_id}__srcbuf"), send.id, channel.src,
                    prod_rate=1, cons_rate=channel.prod_rate,
                    initial_tokens=binding.alpha_src or 1),
            Channel(fresh(f"{channel_id}__dstbuf"), channel.dst, send.id,
                    prod_rate=channel.cons_rate, cons_rate=1,
                    initial_tokens=binding.alpha_dst or 1),
        ]
        chain += [Channel(fresh(f"{inserted.id}__self"), inserted.id, inserted.id, 1, 1, 1)
                  for inserted in (send, latency, wait)]
        # The channel's id is free again for later rewrites, not this one.
        del self.channels[channel_id]
        self.channels.update((c.id, c) for c in chain)
        self.actors.update((a.id, a) for a in (send, latency, wait))

    def prefetch(self, channel: Channel, binding: ChannelBinding,
                 connection: NocConnection, batch: int) -> None:
        """Split the consumer ``X`` of ``channel``, which reads it from a
        remote memory, into the prefetch template. A consumer takes at most
        one prefetch binding (:func:`~sdfmig.mpsoc.check_mapping`), so ``X``
        is still whole.

        ``X`` becomes ``X1`` (prefetch issue, the binding's prefetch time)
        and ``X2`` (execution, keeping X's execution time); ``X_m1`` models
        the remote memory and the transfer of one prefetched token over
        ``connection``; the pipeline edge X1 -> X2 holds one token so the
        prefetch for firing i+1 overlaps execution i. Gates ``X_ri``/``X_ro``
        release firings in batches of ``batch``; the gate-to-gate return edge
        carries two batch tokens, so the prefetch of one batch may overlap
        the execution of the previous one but cannot run further ahead
        (keeping every internal buffer bounded). When one firing consumes
        more than one token, which cannot all be prefetched during the
        previous firing, an extra memory actor ``X_m2`` serializes a fetch
        of one transfer time into every execution.

        X's input channels move to the input gate (consuming ``batch`` times
        their rate), output channels and self-loops move to ``X2``.
        """
        consumer = channel.dst
        original = self.actors[consumer]
        prefetch_time = binding.prefetch_time or 0
        transfer_time = connection_actor_time(channel.token_size, connection)
        fresh = self.fresh
        gate_in = Actor(fresh(f"{consumer}_ri"), 1, kind=ActorKind.INFRASTRUCTURE)
        gate_out = Actor(fresh(f"{consumer}_ro"), 1, kind=ActorKind.INFRASTRUCTURE)
        issue = Actor(fresh(f"{consumer}1"), prefetch_time, kind=ActorKind.INFRASTRUCTURE)
        execute = Actor(fresh(f"{consumer}2"), original.exec_time, kind=original.kind)
        memory = Actor(fresh(f"{consumer}_m1"), prefetch_time + transfer_time,
                       kind=ActorKind.INFRASTRUCTURE)
        added = [
            Channel(fresh(f"{consumer}__batch"), gate_in.id, memory.id,
                    prod_rate=batch, cons_rate=1),
            Channel(fresh(f"{consumer}__batch_ret"), memory.id, gate_in.id,
                    prod_rate=1, cons_rate=batch, initial_tokens=batch),
            Channel(fresh(f"{consumer}__issue"), issue.id, memory.id),
            Channel(fresh(f"{consumer}__issue_ret"), memory.id, issue.id,
                    initial_tokens=1),
            Channel(fresh(f"{consumer}__pipe"), issue.id, execute.id, initial_tokens=1),
            Channel(fresh(f"{consumer}__collect"), execute.id, gate_out.id,
                    prod_rate=1, cons_rate=batch),
            Channel(fresh(f"{consumer}__release"), gate_out.id, execute.id,
                    prod_rate=batch, cons_rate=1, initial_tokens=batch),
            Channel(fresh(f"{consumer}__rearm"), gate_out.id, gate_in.id,
                    initial_tokens=2),
        ]
        new_actors = [gate_in, issue, memory, execute, gate_out]
        if channel.cons_rate > 1:
            fetch_memory = Actor(fresh(f"{consumer}_m2"), transfer_time,
                                 kind=ActorKind.INFRASTRUCTURE)
            new_actors.append(fetch_memory)
            added += [
                Channel(fresh(f"{consumer}__fetch"), execute.id, fetch_memory.id),
                Channel(fresh(f"{consumer}__fetch_ret"), fetch_memory.id, execute.id,
                        initial_tokens=1),
            ]

        for c in [c for c in self.channels.values() if consumer in (c.src, c.dst)]:
            if c.src == c.dst:
                c = replace(c, src=execute.id, dst=execute.id)
            elif c.dst == consumer:
                c = replace(c, dst=gate_in.id, cons_rate=c.cons_rate * batch)
            else:
                c = replace(c, src=execute.id)
            self.channels[c.id] = c
        self.channels.update((c.id, c) for c in added)
        del self.actors[consumer]
        self.actors.update((a.id, a) for a in new_actors)
        if self.reference == consumer:
            self.reference = execute.id


def build_bound_graph(graph: SDFG, platform: Platform, mapping: PlatformMapping) -> SDFG:
    """Turn an application graph plus mapping into the analyzable graph:
    execution times inflated to their after-mapping values, every bound
    channel rewritten per its binding kind, and a unit self-loop on every
    actor.

    Channels without a binding entry are left untouched. Raises the errors
    of :func:`~sdfmig.graph.check_graph`, then those of
    :func:`~sdfmig.mpsoc.check_mapping`.
    """
    repetition = compute_repetition_vector(graph)
    check_mapping(graph, platform, mapping)
    etam = compute_etam(graph, platform, mapping)
    work = _WorkingGraph(graph)
    work.actors.update((a.id, replace(a, exec_time=etam[a.id])) for a in graph.actors)

    # Prefetch rewrites first: they re-point the affected channels, and the
    # remaining bindings then attach to the split actors transparently.
    for channel in graph.channels:
        binding = mapping.channel_binding.get(channel.id)
        if binding is None or binding.kind != BindingKind.PREFETCH:
            continue
        work.prefetch(channel, binding, platform.connection_map[binding.connection],
                      prefetch_batch(repetition, channel.src, channel.dst))
        if binding.buffer_tokens is not None:
            work.bind_local(channel.id, binding.buffer_tokens)

    for channel in graph.channels:
        binding = mapping.channel_binding.get(channel.id)
        if binding is None or binding.kind == BindingKind.PREFETCH:
            continue
        if binding.kind == BindingKind.LOCAL:
            if binding.buffer_tokens is not None:
                work.bind_local(channel.id, binding.buffer_tokens)
        else:
            work.bind_remote(channel.id, binding,
                             platform.connection_map[binding.connection],
                             resolve_latency_bound(channel.id, graph, platform, mapping),
                             dst_wait=etam[channel.dst] - graph.actor_map[channel.dst].exec_time)
    return disable_auto_concurrency(work.freeze())


def prefetch_batch(repetition, producer: str, consumer: str) -> int:
    """Gate batch size for a prefetch rewrite: the consumer firings released
    per producer batch, kept integral by dividing out the common factor."""
    q_dst, q_src = repetition[consumer], repetition[producer]
    return q_dst // math.gcd(q_dst, q_src)
