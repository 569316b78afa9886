"""Seeded input generators for the benchmark workloads.

They follow the helpers in ``tests/helpers.py`` but are kept apart from
them, so an edit to the test helpers cannot change what the benchmark
measures. Each generator takes a ``random.Random`` and gives the same inputs
for the same seed. Graph generators take the imported ``sdfmig`` modules as
``lib`` because the benchmark imports the library afresh for every set-up.

Every family is built so that its answer is known in closed form and its
cost does not depend much on the seed: the seed moves values inside a
family, never the size of the work.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import quoteattr

# --- long_transient --------------------------------------------------------

# Near-tie pairs: actors A (time T) and C (time T - eps), each with a
# self-loop, NEAR_TIE_TOKENS tokens each way between them. Throughput is 1/T;
# the transient lasts about T/eps firings of A. T/eps is the same for every
# base, so each pair visits about the same number of states.
NEAR_TIE_BASES = ((10_000, 1), (100_000, 10), (1_000_000, 100))
NEAR_TIE_TOKENS = 2
NEAR_TIE_OFFSETS = 32  # the seed adds 0..31 to T

# Coprime multirate triangles X -> Y -> Z -> X with repetition vector
# (a, b, c). Z has the largest q*e; X and Y trail it by a gap chosen so that
# every triangle visits about TRIANGLE_STATES states before recurring.
TRIANGLES = ((3, 5, 7), (5, 7, 11), (7, 11, 13), (11, 13, 17), (13, 17, 19),
             (17, 19, 23), (19, 23, 29), (23, 29, 31), (29, 31, 37), (31, 37, 41))
TRIANGLE_SCALES = range(10, 20)  # the seed picks the time scale per triangle
TRIANGLE_STATES = 3000


def near_tie_params(rng):
    return [(t + rng.randrange(NEAR_TIE_OFFSETS), eps) for t, eps in NEAR_TIE_BASES]


def near_tie_pair(lib, t: int, eps: int):
    graph = lib.graph
    k = NEAR_TIE_TOKENS
    return graph.SDFG(
        actors=[graph.Actor("A", t), graph.Actor("C", t - eps)],
        channels=[graph.Channel("aa", "A", "A", 1, 1, 1),
                  graph.Channel("cc", "C", "C", 1, 1, 1),
                  graph.Channel("ac", "A", "C", 1, 1, k),
                  graph.Channel("ca", "C", "A", 1, 1, k)])


def triangle_params(rng):
    return [(a, b, c, rng.choice(TRIANGLE_SCALES)) for a, b, c in TRIANGLES]


def triangle_times(a: int, b: int, c: int, scale: int) -> tuple[int, int, int]:
    """Execution times of X, Y, Z: q*e is scale*a*b*c for Z and slightly less
    for X and Y."""
    product = scale * a * b * c
    gap = max(1, product * (a + b + c) // TRIANGLE_STATES)
    return (scale * b * c - max(1, gap // a),
            scale * a * c - max(1, gap // b),
            scale * a * b)


def triangle(lib, a: int, b: int, c: int, scale: int):
    graph = lib.graph
    ex, ey, ez = triangle_times(a, b, c, scale)
    return graph.SDFG(
        actors=[graph.Actor("X", ex), graph.Actor("Y", ey), graph.Actor("Z", ez)],
        channels=[graph.Channel("xy", "X", "Y", b, a, 0),
                  graph.Channel("yz", "Y", "Z", c, b, 0),
                  # two iterations of tokens, so the loop never binds
                  graph.Channel("zx", "Z", "X", a, c, 2 * a * c),
                  graph.Channel("xx", "X", "X", 1, 1, 1),
                  graph.Channel("yy", "Y", "Y", 1, 1, 1),
                  graph.Channel("zz", "Z", "Z", 1, 1, 1)])


# --- mcm_homogeneous -------------------------------------------------------

# Cost grows with size and hardly depends on the seed (see planted_graph).
# Two graphs of 40 put the median job inside one size, and two of 50 next
# to the 50-ring make a top-but-one size of three jobs, so the 11th-slowest
# job stays inside it for 3 to 10 rounds a run.
MCM_GRAPH_SIZES = (20, 30, 40, 40, 50, 50, 60)
MCM_RING_SIZES = (10, 50)
MEAN_EXEC = 50


def _split(rng, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]


def planted_graph(lib, rng, n: int, chords: bool):
    """Strongly connected homogeneous graph whose maximum cycle ratio is the
    total execution time W = n * MEAN_EXEC, so its throughput is 1/W.

    A ring over all actors in seeded order carries one token on its closing
    edge. Every actor also gets one extra edge holding one token: to a seeded
    random actor (``chords``) or to itself (a plain ring). Any cycle but the
    full ring crosses an extra edge, so it weighs at most W with at least one
    token. Every actor has out-degree 2 and the token total is n + 1 for every
    seed, which keeps the cost of the cycle-ratio search nearly seed-free.
    """
    graph = lib.graph
    order = list(range(n))
    rng.shuffle(order)
    ids = [f"a{i}" for i in range(n)]
    times = _split(rng, n * MEAN_EXEC, n)
    channels = [graph.Channel(f"r{p}", ids[order[p]], ids[order[(p + 1) % n]],
                              1, 1, 1 if p == n - 1 else 0) for p in range(n)]
    for i in range(n):
        target = ids[rng.randrange(n)] if chords else ids[i]
        channels.append(graph.Channel(f"x{i}", ids[i], target, 1, 1, 1))
    return graph.SDFG(actors=[graph.Actor(a, t) for a, t in zip(ids, times)],
                      channels=channels)


# --- scenario_bind ---------------------------------------------------------

SCENARIO_COUNT = 32
TDMA_WHEEL = 10_000
BANDWIDTHS = ("0.25", "0.5", "0.75", "1", "1.5", "2", "0.00406278")


def scenario_shape(index: int) -> tuple[int, int]:
    """Actor and processor-tile counts of the index-th scenario. They cycle
    instead of being drawn, so every seed binds the same mix of sizes."""
    return 20 + index % 13, 2 + index % 3


def random_scenario_xml(rng, name: str, n: int, n_tiles: int) -> str:
    """A consistent application graph mapped onto processor tiles and one
    hardware block, as scenario-file text in the canonical form that
    ``save_scenario`` writes (sorted ids, fixed attribute order, defaults
    left out).

    Rates follow a preselected repetition vector; every forward channel has
    a reversed channel holding two iterations of tokens. Channels between
    software actors on one tile are bound locally, channels across tiles to a
    NoC connection chain, and one hardware-to-software channel per consumer
    to the prefetch template, so all three binding kinds occur.
    """
    ids = [f"a{i:02d}" for i in range(n)]
    reps = [rng.randint(1, 4) for _ in range(n)]
    hardware = set(rng.sample(range(n), 2))
    processors = [f"T{i}" for i in range(n_tiles)]
    tile = {i: "H0" if i in hardware else rng.choice(processors) for i in range(n)}

    pairs = [(i, i + 1) for i in range(n - 1)]
    for _ in range(n // 2):
        u = rng.randrange(n - 1)
        v = rng.randint(u + 1, n - 1)
        if (u, v) not in pairs:
            pairs.append((u, v))
    channels = []  # (id, src, dst, prod, cons, tokens, token_size)
    for k, (u, v) in enumerate(pairs):
        g = math.gcd(reps[u], reps[v])
        m = rng.randint(1, 2)
        prod, cons = m * reps[v] // g, m * reps[u] // g
        flow = reps[u] * prod
        channels.append((f"f{k}", u, v, prod, cons, 0, rng.choice((64, 256, 1024))))
        channels.append((f"b{k}", v, u, cons, prod, 2 * flow, 0))

    tiles = ["H0"] + processors
    connections = {}  # (src tile, dst tile) -> (id, latency, bandwidth)
    for s in tiles:
        for d in tiles:
            if s != d:
                connections[(s, d)] = (f"n{s}_{d}", rng.randint(0, 5),
                                       rng.choice(BANDWIDTHS))

    slices = {}
    for t in processors:
        members = [i for i in range(n) if tile[i] == t]
        for i in members:
            slices[i] = rng.randint(1, TDMA_WHEEL // (len(members) + 1))

    bindings = {}
    prefetched = set()
    for cid, u, v, prod, cons, tokens, _ in channels:
        flow = reps[u] * prod
        if tile[u] == tile[v]:
            bindings[cid] = [("buffer-tokens", tokens + flow + rng.randint(0, flow))]
        elif u in hardware and v not in hardware and v not in prefetched:
            prefetched.add(v)
            batch = reps[v] // math.gcd(reps[v], reps[u])
            bindings[cid] = [("prefetch", "true"),
                             ("connection", connections[(tile[u], tile[v])][0]),
                             ("buffer-tokens", tokens + 2 * batch * cons),
                             ("prefetch-time", rng.randint(100, 2000))]
        else:
            attrs = [("connection", connections[(tile[u], tile[v])][0]),
                     ("alpha-src", prod + rng.randint(0, 2)),
                     ("alpha-dst", cons + rng.randint(0, 2))]
            if rng.random() < 0.5:
                attrs.append(("latency-bound", rng.randint(0, 50)))
            bindings[cid] = attrs

    def element(tag, attrs):
        return f"<{tag} " + " ".join(f"{k}={quoteattr(str(v))}" for k, v in attrs) + "/>"

    out = [f"<scenario name={quoteattr(name)}>", "  <application>"]
    for i in sorted(range(n), key=lambda i: ids[i]):
        attrs = [("id", ids[i]), ("exec-time", rng.randint(1, 500))]
        if i in hardware:
            attrs.append(("kind", "hardware"))
        out.append("    " + element("actor", attrs))
    for cid, u, v, prod, cons, tokens, size in sorted(channels):
        attrs = [("id", cid), ("src", ids[u]), ("dst", ids[v])]
        for label, value, default in (("prod-rate", prod, 1), ("cons-rate", cons, 1),
                                      ("initial-tokens", tokens, 0),
                                      ("token-size", size, 0)):
            if value != default:
                attrs.append((label, value))
        out.append("    " + element("channel", attrs))
    out += ["  </application>", "  <platform>",
            "    " + element("tile", [("id", "H0"), ("kind", "hardware_block")])]
    out += ["    " + element("tile", [("id", t), ("tdma-wheel", TDMA_WHEEL)])
            for t in processors]
    for (s, d), (cid, latency, bandwidth) in sorted(connections.items(),
                                                     key=lambda item: item[1][0]):
        attrs = [("id", cid), ("src-tile", s), ("dst-tile", d)]
        if latency:
            attrs.append(("latency", latency))
        attrs.append(("bandwidth", bandwidth))
        out.append("    " + element("connection", attrs))
    out += ["  </platform>", "  <mapping>"]
    for i in sorted(range(n), key=lambda i: ids[i]):
        attrs = [("actor", ids[i]), ("tile", tile[i])]
        if i in slices:
            attrs.append(("tdma-slice", slices[i]))
        out.append("    " + element("place", attrs))
    for cid in sorted(bindings):
        out.append("    " + element("bind", [("channel", cid)] + bindings[cid]))
    out += ["  </mapping>", "</scenario>"]
    return "\n".join(out) + "\n"
