"""Shared builders and independent oracles for the test suite.

The cycle-ratio oracle here enumerates simple cycles directly and must stay
independent of the package's analytical search, so the two can check each
other. Likewise the scan-all reference simulator must stay independent of the
package's event-driven one, the ``Fraction`` repetition-vector solver of the
package's integer one, the ``Fraction`` Howard iteration of the package's
integer cycle-ratio core, and the step-by-step binding composition of the
package's one-pass binder.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from dataclasses import replace
from fractions import Fraction

from sdfmig.errors import InconsistentGraphError
from sdfmig.graph import Actor, ActorKind, Channel, SDFG, disable_auto_concurrency


def build_graph(actor_times: dict[str, int],
                channels: list[tuple],
                reference: str | None = None,
                kinds: dict[str, ActorKind] | None = None) -> SDFG:
    """Compact graph builder.

    ``channels`` rows are (src, dst, prod, cons, tokens) with trailing fields
    optional; channel ids are generated as c0, c1, ...
    """
    kinds = kinds or {}
    actors = [Actor(a, et, kind=kinds.get(a, ActorKind.SOFTWARE))
              for a, et in actor_times.items()]
    chans = []
    for i, row in enumerate(channels):
        src, dst = row[0], row[1]
        prod = row[2] if len(row) > 2 else 1
        cons = row[3] if len(row) > 3 else 1
        tokens = row[4] if len(row) > 4 else 0
        chans.append(Channel(f"c{i}", src, dst, prod, cons, tokens))
    return SDFG(actors=actors, channels=chans, reference_actor=reference)


def with_exec_times(graph: SDFG, exec_times: dict[str, int]) -> SDFG:
    """Copy of ``graph`` with the listed actors' execution times replaced."""
    return replace(graph, actors=[replace(a, exec_time=exec_times[a.id])
                                  if a.id in exec_times else a for a in graph.actors])


def ratio_edges(graph: SDFG) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The cycle-ratio graph ``mcm_throughput`` analyses: actors numbered in
    id order, and per channel an edge ``(src, dst, exec_time(src), tokens)``."""
    ids = sorted(a.id for a in graph.actors)
    index = {a: i for i, a in enumerate(ids)}
    return len(ids), [(index[c.src], index[c.dst], graph.actor_map[c.src].exec_time,
                       c.initial_tokens) for c in graph.channels]


def enumerate_cycle_ratios(graph: SDFG) -> list[Fraction]:
    """All simple-cycle ratios (total execution time / total tokens) by
    explicit DFS enumeration. Parallel channels count as distinct cycles."""
    n, edges = ratio_edges(graph)
    outgoing: list[list[int]] = [[] for _ in range(n)]
    for ei, (u, _, _, _) in enumerate(edges):
        outgoing[u].append(ei)

    ratios: list[Fraction] = []

    def walk(start: int, node: int, visited: set[int], weight: int, tokens: int):
        for ei in outgoing[node]:
            _, v, w, t = edges[ei]
            if v == start:
                if tokens + t == 0:
                    ratios.append(Fraction(-1))  # sentinel: token-free cycle
                else:
                    ratios.append(Fraction(weight + w, tokens + t))
            elif v > start and v not in visited:
                visited.add(v)
                walk(start, v, visited, weight + w, tokens + t)
                visited.remove(v)

    for s in range(n):
        walk(s, s, {s}, 0, 0)
    return ratios


def oracle_throughput(graph: SDFG) -> Fraction:
    """1 / max simple-cycle ratio, straight from enumeration."""
    ratios = enumerate_cycle_ratios(graph)
    assert ratios, "oracle needs at least one cycle"
    assert Fraction(-1) not in ratios, "oracle hit a token-free cycle"
    return 1 / max(ratios)


def fraction_repetition_vector(graph: SDFG) -> dict[str, int]:
    """Repetition vector entries by propagating exact ``Fraction`` ratios over
    each weakly-connected component, the solver the package's integer one
    replaced. Raises :class:`InconsistentGraphError` naming the sorted
    offending channels."""
    ratios: dict[str, Fraction] = {}
    adjacency: dict[str, list[Channel]] = {a.id: [] for a in graph.actors}
    for c in graph.channels:
        if c.src in adjacency and c.dst in adjacency:
            adjacency[c.src].append(c)
            adjacency[c.dst].append(c)

    bad: list[str] = []
    components: list[list[str]] = []
    for seed in graph.actors:
        if seed.id in ratios:
            continue
        ratios[seed.id] = Fraction(1)
        component = [seed.id]
        stack = [seed.id]
        while stack:
            here = stack.pop()
            for c in adjacency[here]:
                if c.prod_rate <= 0 or c.cons_rate <= 0:
                    continue
                other = c.dst if here == c.src else c.src
                implied = (ratios[here] * c.prod_rate / c.cons_rate
                           if here == c.src else
                           ratios[here] * c.cons_rate / c.prod_rate)
                if other not in ratios:
                    ratios[other] = implied
                    component.append(other)
                    stack.append(other)
                elif ratios[other] != implied and c.id not in bad:
                    bad.append(c.id)
        components.append(component)

    for c in graph.channels:
        if c.prod_rate <= 0 or c.cons_rate <= 0:
            continue
        if c.src not in ratios or c.dst not in ratios:
            continue
        if ratios[c.src] * c.prod_rate != ratios[c.dst] * c.cons_rate:
            if c.id not in bad:
                bad.append(c.id)
    if bad:
        raise InconsistentGraphError("balance equations unsolvable",
                                     channels=tuple(sorted(bad)))

    entries: dict[str, int] = {}
    for component in components:
        scale = math.lcm(*(ratios[a].denominator for a in component))
        counts = {a: int(ratios[a] * scale) for a in component}
        shrink = math.gcd(*counts.values())
        for a in component:
            entries[a] = counts[a] // shrink
    return {a.id: entries[a.id] for a in graph.actors}


def fraction_max_cycle_ratio(n: int, edges: list[tuple[int, int, int, int]]) -> Fraction:
    """Maximum over cycles of (sum of ``w``) / (sum of ``t``) for edges
    ``(u, v, w, t)`` over nodes ``0..n-1``, by Howard's policy iteration
    with ``Fraction`` ratios and potentials: the core the package's
    integer-only one replaced, kept as its oracle.

    Every node needs an out-edge and every cycle a positive ``t`` total.
    A policy keeps one out-edge per node, so each node leads to exactly one
    policy cycle. Value determination gives each node the ratio ``eta`` of
    its policy cycle and a potential ``x`` with ``x(u) = w - eta * t + x(v)``
    along its policy edge, counted from the cycle's smallest node, where
    ``x`` is 0. Improvement first moves a node to the out-edge whose head has
    the largest ``eta``; when no node can, it moves a node, among out-edges
    whose head has its own ``eta``, to the one with the largest
    ``w - eta * t + x(v)``. Both moves need a strict gain, so a tie keeps
    the current edge and the iteration stops once no node moves.
    """
    out: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        out[edge[0]].append(edge)
    # Start from the heaviest, then least-token, out-edge of every node.
    policy = [max(choices, key=lambda e: (e[2], -e[3])) for choices in out]
    while True:
        # Value determination: walk each node's policy path to a known node
        # or to a new cycle, then fill the path in backwards.
        eta: list[Fraction | None] = [None] * n
        x: list[Fraction] = [Fraction(0)] * n
        walked = [-1] * n  # the start of the walk that reached each node
        for start in range(n):
            path = []
            u = start
            while eta[u] is None and walked[u] != start:
                walked[u] = start
                path.append(u)
                u = policy[u][1]
            if eta[u] is None:  # the walk closed a new policy cycle at u
                k = path.index(u)
                cycle = path[k:]
                root = cycle.index(min(cycle))
                eta[cycle[root]] = Fraction(sum(policy[c][2] for c in cycle),
                                            sum(policy[c][3] for c in cycle))
                # Reversed, each node comes after the head of its policy edge.
                path = path[:k] + cycle[root + 1:] + cycle[:root]
            for p in reversed(path):
                _, v, w, t = policy[p]
                eta[p] = eta[v]
                x[p] = w - eta[v] * t + x[v]

        # Phase 1: head with the largest eta.
        changed = False
        for u in range(n):
            best = policy[u]
            for edge in out[u]:
                if eta[edge[1]] > eta[best[1]]:
                    best = edge
            if best is not policy[u]:
                policy[u] = best
                changed = True
        if changed:
            continue
        # Phase 2: at equal eta, the largest potential through the edge.
        for u in range(n):
            lam, best, value = eta[u], policy[u], x[u]
            for edge in out[u]:
                _, v, w, t = edge
                if eta[v] == lam:
                    candidate = w - lam * t + x[v]
                    if candidate > value:
                        best, value = edge, candidate
            if best is not policy[u]:
                policy[u] = best
                changed = True
        if not changed:
            return max(eta)


def random_homogeneous_graph(rng: random.Random, max_actors: int = 8,
                             max_exec: int = 20, max_tokens: int = 3) -> SDFG:
    """Random strongly-connected, live, all-rates-1 graph.

    Strong connectivity comes from a random ring over all actors; liveness
    from forcing tokens onto every edge that does not advance along the ring
    order, so every cycle carries at least one token.
    """
    n = rng.randint(2, max_actors)
    ids = [f"a{i}" for i in range(n)]
    ring = list(range(n))
    rng.shuffle(ring)
    position = {node: pos for pos, node in enumerate(ring)}

    def tokens_between(u: int, v: int) -> int:
        if position[v] <= position[u]:
            return rng.randint(1, max_tokens)
        return rng.randint(0, max_tokens)

    pairs = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        pairs.append((rng.randrange(n), rng.randrange(n)))
    actors = [Actor(a, rng.randint(1, max_exec)) for a in ids]
    channels = [Channel(f"c{i}", ids[u], ids[v], 1, 1, tokens_between(u, v))
                for i, (u, v) in enumerate(pairs)]
    graph = SDFG(actors=actors, channels=channels)
    if rng.random() < 0.5:
        graph = disable_auto_concurrency(graph)
    return graph


def random_consistent_graph(rng: random.Random, max_actors: int = 6,
                            max_exec: int = 20, self_loops: bool = True) -> SDFG:
    """Random consistent, live, bounded multirate graph.

    Rates are derived from a preselected repetition vector so the balance
    equations hold by construction; every forward channel gets a reversed
    buffer channel holding two iterations worth of tokens, which bounds all
    buffers and guarantees liveness.
    """
    n = rng.randint(2, max_actors)
    reps = [rng.randint(1, 4) for _ in range(n)]
    ids = [f"a{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(n - 1)
        v = rng.randint(u + 1, n - 1)
        if (u, v) not in pairs:
            pairs.append((u, v))
    channels = []
    for i, (u, v) in enumerate(pairs):
        g = math.gcd(reps[u], reps[v])
        m = rng.randint(1, 2)
        prod, cons = m * reps[v] // g, m * reps[u] // g
        flow = reps[u] * prod
        channels.append(Channel(f"f{i}", ids[u], ids[v], prod, cons, 0))
        channels.append(Channel(f"b{i}", ids[v], ids[u], cons, prod, 2 * flow))
    actors = [Actor(a, rng.randint(1, max_exec)) for a in ids]
    graph = SDFG(actors=actors, channels=channels)
    return disable_auto_concurrency(graph) if self_loops else graph


def mjpeg_application() -> SDFG:
    """Six-stage MJPEG decoder for 32x24 frames: VLD and RE handle whole
    frames (12 blocks), the middle stages one 8x8 block per firing."""
    actors = [
        Actor("VLD", 2082463), Actor("IZZ", 24791), Actor("IQ", 49582),
        Actor("IDCT", 99165), Actor("CC", 74374), Actor("RE", 892484),
    ]
    channels = [
        Channel("vld_izz", "VLD", "IZZ", 12, 1, token_size=1024),
        Channel("izz_iq", "IZZ", "IQ", 1, 1, token_size=1024),
        Channel("iq_idct", "IQ", "IDCT", 1, 1, token_size=1024),
        Channel("idct_cc", "IDCT", "CC", 1, 1, token_size=512),
        Channel("cc_re", "CC", "RE", 1, 12, token_size=512),
    ]
    return SDFG(actors=actors, channels=channels, reference_actor="VLD")


def mjpeg_platform():
    from fractions import Fraction as F
    from sdfmig.mpsoc import NocConnection, Platform, Tile
    tiles = [Tile("T1", tdma_wheel=100000), Tile("T2", tdma_wheel=100000),
             Tile("T3", tdma_wheel=100000)]
    connections = [
        NocConnection("n1", "T1", "T2", latency=3, bandwidth=F("0.00406278")),
        NocConnection("n2", "T2", "T3", latency=3, bandwidth=F("0.00203139")),
    ]
    return Platform(tiles=tiles, connections=connections)


def mjpeg_mapping(vld_izz_buffer=13, iq_idct_buffer=2, cc_re_buffer=24,
                  izz_iq_alpha=(2, 1), idct_cc_alpha=(2, 2)):
    """Calibrated case-study mapping. The tile-1 buffer of 13 blocks (one
    frame plus one slack block) and the single consumer-side buffer token on
    the first chain pin the baseline throughput; see the bundled scenario
    for the full rationale."""
    from sdfmig.mpsoc import BindingKind, ChannelBinding, PlatformMapping
    return PlatformMapping(
        actor_tile={"VLD": "T1", "IZZ": "T1", "IQ": "T2", "IDCT": "T2",
                    "CC": "T3", "RE": "T3"},
        tdma_slice={"VLD": 50000, "IZZ": 50000, "IQ": 10000, "IDCT": 90000,
                    "CC": 20000, "RE": 80000},
        channel_binding={
            "vld_izz": ChannelBinding(buffer_tokens=vld_izz_buffer),
            "izz_iq": ChannelBinding(BindingKind.REMOTE, "n1", alpha_src=izz_iq_alpha[0],
                                     alpha_dst=izz_iq_alpha[1], latency_bound=100000),
            "iq_idct": ChannelBinding(buffer_tokens=iq_idct_buffer),
            "idct_cc": ChannelBinding(BindingKind.REMOTE, "n2", alpha_src=idct_cc_alpha[0],
                                      alpha_dst=idct_cc_alpha[1], latency_bound=100000),
            "cc_re": ChannelBinding(buffer_tokens=cc_re_buffer),
        },
    )


def random_scenario(rng: random.Random, max_actors: int = 5):
    """Random consistent application graph with a full-mesh platform and a
    mapping that binds every channel (local buffer or connection chain).

    Buffer and alpha sizes are scaled to the channel rates so the scenario is
    structurally valid; liveness is not guaranteed (structural property tests
    only need consistency).
    """
    from sdfmig.graph import compute_repetition_vector
    from sdfmig.mpsoc import (BindingKind, ChannelBinding, NocConnection, Platform,
                              PlatformMapping, Tile)

    graph = random_consistent_graph(rng, max_actors=max_actors, self_loops=False)
    q = compute_repetition_vector(graph)

    n_tiles = rng.randint(2, 3)
    tiles = [Tile(f"T{i}", tdma_wheel=10000) for i in range(n_tiles)]
    connections = [
        NocConnection(f"n{i}_{j}", f"T{i}", f"T{j}", latency=rng.randint(0, 5),
                      bandwidth=Fraction(rng.randint(1, 8), rng.choice([1, 2, 4])))
        for i in range(n_tiles) for j in range(n_tiles) if i != j
    ]
    platform = Platform(tiles=tiles, connections=connections)

    actor_tile = {a.id: f"T{rng.randrange(n_tiles)}" for a in graph.actors}
    per_tile = {t.id: [a for a, tid in actor_tile.items() if tid == t.id]
                for t in tiles}
    tdma_slice = {}
    for t in tiles:
        members = per_tile[t.id]
        if members:
            share = t.tdma_wheel // (len(members) + 1)
            for a in members:
                tdma_slice[a] = rng.randint(1, share)

    bindings = {}
    for c in graph.channels:
        if c.src == c.dst:
            continue
        flow = q[c.src] * c.prod_rate
        if actor_tile[c.src] == actor_tile[c.dst]:
            bindings[c.id] = ChannelBinding(
                buffer_tokens=c.initial_tokens + flow + rng.randint(0, flow))
        else:
            conn = f"n{actor_tile[c.src][1:]}_{actor_tile[c.dst][1:]}"
            bindings[c.id] = ChannelBinding(
                kind=BindingKind.REMOTE, connection=conn,
                alpha_src=c.prod_rate + rng.randint(0, 2),
                alpha_dst=c.cons_rate + rng.randint(0, 2),
                latency_bound=rng.randint(0, 50))
    mapping = PlatformMapping(actor_tile=actor_tile, tdma_slice=tdma_slice,
                              channel_binding=bindings)
    return graph, platform, mapping


class ReferenceSimulator:
    """The scan-all self-timed executor the package's event-driven engine
    replaced, kept as a differential reference.

    ``settle`` rescans every actor until a full pass starts nothing;
    ``advance`` rebuilds the multiset of (actor, remaining) firings on every
    event. Slow but obviously faithful to the self-timed semantics.
    """

    def __init__(self, graph: SDFG):
        self.actor_ids = sorted(a.id for a in graph.actors)
        index = {a: i for i, a in enumerate(self.actor_ids)}
        self.exec_time = [graph.actor_map[a].exec_time for a in self.actor_ids]
        self.channel_ids = [c.id for c in graph.channels]
        self.tokens = [c.initial_tokens for c in graph.channels]
        self.consume: list[list[tuple[int, int]]] = [[] for _ in self.actor_ids]
        self.produce: list[list[tuple[int, int]]] = [[] for _ in self.actor_ids]
        for ci, c in enumerate(graph.channels):
            self.consume[index[c.dst]].append((ci, c.cons_rate))
            self.produce[index[c.src]].append((ci, c.prod_rate))
        self.active: Counter[tuple[int, int]] = Counter()  # (actor, remaining) -> count
        self.time = 0
        self.completions = [0] * len(self.actor_ids)

    def _enabled(self, ai: int) -> bool:
        return all(self.tokens[ci] >= rate for ci, rate in self.consume[ai])

    def _produce_outputs(self, ai: int) -> None:
        for ci, rate in self.produce[ai]:
            self.tokens[ci] += rate
        self.completions[ai] += 1

    def settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for ai in range(len(self.actor_ids)):
                while self._enabled(ai):
                    for ci, rate in self.consume[ai]:
                        self.tokens[ci] -= rate
                    if self.exec_time[ai] == 0:
                        self._produce_outputs(ai)
                    else:
                        self.active[(ai, self.exec_time[ai])] += 1
                    progressed = True

    def advance(self) -> None:
        dt = min(remaining for (_, remaining) in self.active)
        self.time += dt
        still_running: Counter[tuple[int, int]] = Counter()
        done: list[int] = []
        for (ai, remaining), count in self.active.items():
            if remaining == dt:
                done.extend([ai] * count)
            else:
                still_running[(ai, remaining - dt)] += count
        self.active = still_running
        for ai in sorted(done):
            self._produce_outputs(ai)

    def key(self) -> tuple:
        return tuple(self.tokens), tuple(sorted(self.active.items()))

    def snapshot(self):
        from sdfmig.analysis import ExecutionState
        firings = []
        for (ai, remaining), count in sorted(self.active.items()):
            firings.extend([(self.actor_ids[ai], remaining)] * count)
        return ExecutionState(time=self.time,
                              channel_tokens=dict(zip(self.channel_ids, self.tokens)),
                              active_firings=tuple(firings))


def reference_states(graph: SDFG, max_states: int) -> list:
    """The stable states ``iterate_states`` must yield, from the reference
    simulator."""
    sim = ReferenceSimulator(graph)
    states = []
    for _ in range(max_states):
        sim.settle()
        states.append(sim.snapshot())
        if not sim.active:
            break
        sim.advance()
    return states


def reference_throughput(graph: SDFG):
    """The ``ThroughputResult`` ``self_timed_throughput`` must return, from the
    reference simulator and its own recurrence search."""
    from sdfmig.analysis import ThroughputResult, resolve_reference_actor
    from sdfmig.errors import DeadlockError, StateSpaceBudgetExceededError
    from sdfmig.graph import compute_repetition_vector

    repetition = compute_repetition_vector(graph)
    reference = resolve_reference_actor(graph, repetition)
    sim = ReferenceSimulator(graph)
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
                raise DeadlockError("reference actor never fires in the periodic phase")
            q_ref = repetition[reference]
            return ThroughputResult(
                iterations_per_cycle=Fraction(firings, q_ref * period),
                period_cycles=period, transient_cycles=first_time,
                reference_firings_per_period=firings, reference_actor=reference,
                reference_repetitions=q_ref)
        seen[key] = (sim.time, sim.completions[ref_index])
        if len(seen) > 1_000_000:
            raise StateSpaceBudgetExceededError("state budget exceeded")
        if not sim.active:
            raise DeadlockError(f"deadlock at t={sim.time}")
        sim.advance()
        sim.settle()


# ---------------------------------------------------------------------------
# step-by-step binding composition, the reference for build_bound_graph

# The inputs of one reference rewrite, as the reference binder derives them
# from a channel binding.
_RemoteParams = namedtuple("_RemoteParams", "connection alpha_src alpha_dst latency_bound")
_PrefetchParams = namedtuple("_PrefetchParams",
                             "n prefetch_time transfer_time enable_fetch_path")


def _set_union_id(graph: SDFG, stem: str) -> str:
    """The id rule the package's binder must follow: ``stem``, else the first
    free ``stem_2``, ``stem_3``, ... against every actor and channel id."""
    taken = {a.id for a in graph.actors} | {c.id for c in graph.channels}
    if stem not in taken:
        return stem
    n = 2
    while f"{stem}_{n}" in taken:
        n += 1
    return f"{stem}_{n}"


def _reference_local(graph: SDFG, channel_id: str, buffer_tokens: int) -> SDFG:
    from sdfmig.errors import BufferTooSmallError

    channel = graph.channel_map[channel_id]
    if buffer_tokens < channel.initial_tokens:
        raise BufferTooSmallError(
            f"buffer of {buffer_tokens} tokens cannot hold the "
            f"{channel.initial_tokens} initial tokens of {channel_id!r}")
    back = Channel(_set_union_id(graph, f"{channel_id}__buf"), channel.dst, channel.src,
                   prod_rate=channel.cons_rate, cons_rate=channel.prod_rate,
                   initial_tokens=buffer_tokens - channel.initial_tokens)
    return SDFG(graph.actors, list(graph.channels) + [back], graph.reference_actor)


def _reference_remote(graph: SDFG, channel_id: str, params, dst_wait: int) -> SDFG:
    from sdfmig.transforms import connection_actor_time

    def fresh(stem):
        return _set_union_id(graph, stem)

    infra = ActorKind.INFRASTRUCTURE
    channel = graph.channel_map[channel_id]
    token_size = channel.token_size
    send = Actor(fresh(f"ac_{channel_id}"),
                 connection_actor_time(token_size, params.connection), kind=infra)
    latency = Actor(fresh(f"a_{channel_id}"), params.latency_bound, kind=infra)
    wait = Actor(fresh(f"as_{channel_id}"), dst_wait, kind=infra)
    chain = [
        Channel(fresh(f"{channel_id}__send"), channel.src, send.id,
                prod_rate=channel.prod_rate, cons_rate=1, token_size=token_size),
        Channel(fresh(f"{channel_id}__lat"), send.id, latency.id),
        Channel(fresh(f"{channel_id}__wait"), latency.id, wait.id),
        Channel(fresh(f"{channel_id}__recv"), wait.id, channel.dst, prod_rate=1,
                cons_rate=channel.cons_rate, initial_tokens=channel.initial_tokens,
                token_size=token_size),
        Channel(fresh(f"{channel_id}__srcbuf"), send.id, channel.src, prod_rate=1,
                cons_rate=channel.prod_rate, initial_tokens=params.alpha_src),
        Channel(fresh(f"{channel_id}__dstbuf"), channel.dst, send.id,
                prod_rate=channel.cons_rate, cons_rate=1, initial_tokens=params.alpha_dst),
    ]
    for inserted in (send, latency, wait):
        chain.append(Channel(fresh(f"{inserted.id}__self"), inserted.id, inserted.id,
                             1, 1, 1))
    channels = [c for c in graph.channels if c.id != channel_id] + chain
    return SDFG(list(graph.actors) + [send, latency, wait], channels,
                graph.reference_actor)


def _reference_prefetch(graph: SDFG, actor_id: str, params) -> SDFG:
    from sdfmig.errors import UnknownActorError

    def fresh(stem):
        return _set_union_id(graph, stem)

    infra = ActorKind.INFRASTRUCTURE
    original = graph.actor_map.get(actor_id)
    if original is None:
        raise UnknownActorError(f"no actor {actor_id!r} in graph")
    gate_in = Actor(fresh(f"{actor_id}_ri"), 1, kind=infra)
    gate_out = Actor(fresh(f"{actor_id}_ro"), 1, kind=infra)
    issue = Actor(fresh(f"{actor_id}1"), params.prefetch_time, kind=infra)
    execute = Actor(fresh(f"{actor_id}2"), original.exec_time, kind=original.kind)
    memory = Actor(fresh(f"{actor_id}_m1"), params.prefetch_time + params.transfer_time,
                   kind=infra)
    n = params.n
    channels = []
    for c in graph.channels:
        if c.src == actor_id and c.dst == actor_id:
            channels.append(replace(c, src=execute.id, dst=execute.id))
        elif c.dst == actor_id:
            channels.append(replace(c, dst=gate_in.id, cons_rate=c.cons_rate * n))
        elif c.src == actor_id:
            channels.append(replace(c, src=execute.id))
        else:
            channels.append(c)
    channels += [
        Channel(fresh(f"{actor_id}__batch"), gate_in.id, memory.id, n, 1),
        Channel(fresh(f"{actor_id}__batch_ret"), memory.id, gate_in.id, 1, n, n),
        Channel(fresh(f"{actor_id}__issue"), issue.id, memory.id),
        Channel(fresh(f"{actor_id}__issue_ret"), memory.id, issue.id, 1, 1, 1),
        Channel(fresh(f"{actor_id}__pipe"), issue.id, execute.id, 1, 1, 1),
        Channel(fresh(f"{actor_id}__collect"), execute.id, gate_out.id, 1, n),
        Channel(fresh(f"{actor_id}__release"), gate_out.id, execute.id, n, 1, n),
        Channel(fresh(f"{actor_id}__rearm"), gate_out.id, gate_in.id, 1, 1, 2),
    ]
    new_actors = [gate_in, issue, memory, execute, gate_out]
    if params.enable_fetch_path:
        fetch_memory = Actor(fresh(f"{actor_id}_m2"), params.transfer_time, kind=infra)
        new_actors.append(fetch_memory)
        channels += [
            Channel(fresh(f"{actor_id}__fetch"), execute.id, fetch_memory.id),
            Channel(fresh(f"{actor_id}__fetch_ret"), fetch_memory.id, execute.id, 1, 1, 1),
        ]
    actors = [a for a in graph.actors if a.id != actor_id] + new_actors
    reference = execute.id if graph.reference_actor == actor_id else graph.reference_actor
    return SDFG(actors, channels, reference)


def reference_bound_graph(graph: SDFG, platform, mapping,
                          disable_concurrency: bool = True) -> SDFG:
    """``build_bound_graph`` as a composition of single rewrites, each building
    a new graph and drawing its ids with :func:`_set_union_id` on the graph
    before it. Same checks, errors and rewrite order as the package: the
    mapping rules are the package's own :func:`check_mapping`, run at the
    same point."""
    from sdfmig.graph import compute_repetition_vector
    from sdfmig.mpsoc import (BindingKind, check_mapping, compute_etam,
                              resolve_latency_bound, tdma_wait)
    from sdfmig.transforms import connection_actor_time, prefetch_batch

    repetition = compute_repetition_vector(graph)
    check_mapping(graph, platform, mapping)
    bound = with_exec_times(graph, compute_etam(graph, platform, mapping))
    waits = {a.id: (tdma_wait(a.id, platform, mapping)
                    if a.kind == ActorKind.SOFTWARE and mapping.actor_tile.get(a.id) else 0)
             for a in graph.actors}
    for channel in graph.channels:
        binding = mapping.channel_binding.get(channel.id)
        if binding is None or binding.kind != BindingKind.PREFETCH:
            continue
        connection = platform.connection(binding.connection)
        bound = _reference_prefetch(bound, channel.dst, _PrefetchParams(
            n=prefetch_batch(repetition, channel.src, channel.dst),
            prefetch_time=binding.prefetch_time or 0,
            transfer_time=connection_actor_time(channel.token_size, connection),
            enable_fetch_path=channel.cons_rate > 1))
        if binding.buffer_tokens is not None:
            bound = _reference_local(bound, channel.id, binding.buffer_tokens)
    for channel in graph.channels:
        binding = mapping.channel_binding.get(channel.id)
        if binding is None or binding.kind == BindingKind.PREFETCH:
            continue
        if binding.kind == BindingKind.LOCAL:
            if binding.buffer_tokens is not None:
                bound = _reference_local(bound, channel.id, binding.buffer_tokens)
        else:
            params = _RemoteParams(
                connection=platform.connection(binding.connection),
                alpha_src=binding.alpha_src if binding.alpha_src is not None else 1,
                alpha_dst=binding.alpha_dst if binding.alpha_dst is not None else 1,
                latency_bound=resolve_latency_bound(channel.id, graph, platform, mapping))
            bound = _reference_remote(bound, channel.id, params, waits[channel.dst])
    if disable_concurrency:
        loops = {c.src for c in bound.channels if c.src == c.dst}
        channels = list(bound.channels)
        for a in bound.actors:
            if a.id not in loops:
                channels.append(Channel(_set_union_id(bound, f"{a.id}__self"),
                                        a.id, a.id, 1, 1, 1))
        bound = SDFG(bound.actors, channels, bound.reference_actor)
    return bound


# An SDF3-style application graph for the import shim: A and B in a ring,
# rates 2 and 3, with execution times and one token size.
SDF3_APP = """<sdf3 type="sdf" version="1.0">
  <applicationGraph name="demo">
    <sdf name="demo" type="demo">
      <actor name="A" type="a">
        <port name="out0" type="out" rate="2"/>
        <port name="in0" type="in" rate="2"/>
      </actor>
      <actor name="B" type="b">
        <port name="in0" type="in" rate="3"/>
        <port name="out0" type="out" rate="3"/>
      </actor>
      <channel name="ch1" srcActor="A" srcPort="out0" dstActor="B" dstPort="in0"/>
      <channel name="ch2" srcActor="B" srcPort="out0" dstActor="A" dstPort="in0" initialTokens="3"/>
    </sdf>
    <sdfProperties>
      <actorProperties actor="A">
        <processor type="arm" default="true">
          <executionTime time="100"/>
        </processor>
      </actorProperties>
      <actorProperties actor="B">
        <processor type="arm" default="true">
          <executionTime time="70"/>
        </processor>
      </actorProperties>
      <channelProperties channel="ch1">
        <tokenSize sz="512"/>
      </channelProperties>
    </sdfProperties>
  </applicationGraph>
</sdf3>"""


# Ids the rewrites draw for a channel c or an actor X.
REWRITE_STEMS = ("ac_{c}", "a_{c}", "as_{c}", "{c}__buf", "{c}__send", "{c}__recv",
                 "{X}_ri", "{X}1", "{X}2", "{X}_m1", "{X}__self")


def with_rewrite_stems(rng, graph, mapping):
    """``graph`` and ``mapping`` with about half the actors and channels
    renamed to an id that a rewrite draws, so the binder has to skip ids the
    application holds. Two elements may end up with one id."""
    from sdfmig.mpsoc import PlatformMapping

    if not graph.channels:
        return graph, mapping
    names = {e.id: rng.choice(REWRITE_STEMS).format(c=rng.choice(graph.channels).id,
                                                    X=rng.choice(graph.actors).id)
             for e in graph.actors + graph.channels if rng.random() < 0.5}

    def name(element_id):
        return names.get(element_id, element_id)

    graph = SDFG([replace(a, id=name(a.id), name="") for a in graph.actors],
                 [replace(c, id=name(c.id), src=name(c.src), dst=name(c.dst))
                  for c in graph.channels],
                 name(graph.reference_actor))
    mapping = PlatformMapping(
        actor_tile={name(a): t for a, t in mapping.actor_tile.items()},
        tdma_slice={name(a): s for a, s in mapping.tdma_slice.items()},
        channel_binding={name(c): b for c, b in mapping.channel_binding.items()})
    return graph, mapping
