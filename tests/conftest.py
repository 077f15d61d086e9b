"""Shared test helpers: canned topologies, seeded random instances, and
traces and server ranks in the forms the reference loops use."""

import random
from collections import namedtuple

import pytest

from cdnte import parse_topology
from cdnte.workload import Trace

# one request as named fields, for the reference loops written in tests
# (a `Trace` is built from these with `trace_from_rows`)
Row = namedtuple("Row", "timestamp pop content nbytes")


def trace_from_rows(rows):
    """A `Trace` of (timestamp, pop, content id, bytes) rows; content
    codes in order of first appearance."""
    rows = list(rows)
    code = {}
    contents = [code.setdefault(row[2], len(code)) for row in rows]
    return Trace([row[0] for row in rows], [row[1] for row in rows],
                 contents, list(code), [row[3] for row in rows])


def ic_rank(topo):
    """Each client's rank of every pop, by pop id: {client: {pop: rank}},
    read off `Topology.ic_order`."""
    pops = topo.pops
    return {c: {pops[p]: i for i, p in enumerate(row)}
            for c, row in zip(pops, topo.ic_order.tolist())}


def make_two_pop(cap_mbps=10):
    return parse_topology(f"""
    pop 0 A
    pop 1 B
    link 0 1 {cap_mbps}
    origin 0
    """)


def make_triangle(caps=(10, 10, 10)):
    return parse_topology(f"""
    pop 0 A
    pop 1 B
    pop 2 C
    link 0 1 {caps[0]}
    link 1 2 {caps[1]}
    link 0 2 {caps[2]}
    origin 0
    """)


def make_parallel_paths(cap_mbps=10):
    """A -> B over two vertex-disjoint relay paths of equal capacity."""
    return parse_topology(f"""
    pop 0 A
    pop 1 B
    pop 2 R1
    pop 3 R2
    link 0 2 {cap_mbps}
    link 2 1 {cap_mbps}
    link 0 3 {cap_mbps}
    link 3 1 {cap_mbps}
    origin 0
    """)


# sources 0 and 1 meet at pop 2, which can send flow toward pop 5 through
# pop 3 or pop 4; pop 5 links back to 0 and 1
MERGE_AND_SPLIT = "\n".join(
    [f"pop {p} N{p}" for p in range(6)]
    + ["arc 0 2 10", "arc 1 2 10", "arc 2 3 10", "arc 2 4 10",
       "arc 3 5 10", "arc 4 5 10", "arc 5 0 10", "arc 5 1 10",
       "origin 0"])


def random_digraph(n, rng, extra_arc_prob=0.35, caps=(1000, 2500, 10000)):
    """Strongly connected directed topology: a random Hamiltonian cycle
    plus random extra arcs, possibly asymmetric capacities."""
    lines = [f"pop {i} N{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = set()
    for i in range(n):
        arcs.add((perm[i], perm[(i + 1) % n]))
    for s in range(n):
        for t in range(n):
            if s != t and (s, t) not in arcs and rng.random() < extra_arc_prob:
                arcs.add((s, t))
    for (s, t) in sorted(arcs):
        lines.append(f"arc {s} {t} {rng.choice(caps)}")
    lines.append("origin 0")
    return parse_topology("\n".join(lines))


def random_symmetric_topology(n, seed, extra_link_prob=0.12,
                              caps=(500, 1000, 2500)):
    """Full-duplex backbone: random spanning tree plus extra links."""
    rng = random.Random(seed)
    lines = [f"pop {i} N{i}" for i in range(n)]
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        a, b = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < extra_link_prob:
                edges.add((a, b))
    for (a, b) in sorted(edges):
        lines.append(f"link {a} {b} {rng.choice(caps)}")
    lines.append("origin 0")
    return parse_topology("\n".join(lines))


def random_traffic_matrix(topo, rng, n_commodities=None, max_frac=0.6):
    """Sparse random traffic matrix with rates scaled to link capacities."""
    pops = list(topo.pops)
    min_cap = min(l.capacity for l in topo.links)
    k = n_commodities if n_commodities is not None else len(pops)
    tm = {}
    for _ in range(k):
        s, t = rng.sample(pops, 2)
        rate = rng.uniform(0.05, max_frac) * min_cap
        tm[(s, t)] = tm.get((s, t), 0.0) + rate
    return tm


@pytest.fixture
def two_pop():
    return make_two_pop()


@pytest.fixture
def triangle():
    return make_triangle()


@pytest.fixture
def parallel_paths():
    return make_parallel_paths()
