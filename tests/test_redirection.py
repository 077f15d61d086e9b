import random

import pytest

from cdnte import parse_topology
from cdnte.redirection import (path_table, redirect_closest,
                               redirect_utilization_aware, serve_reason)
from cdnte.topology import (all_pairs_distances, inverse_cap_weights,
                            shortest_path_routes)

from conftest import random_digraph


def _dists(topo):
    return all_pairs_distances(topo, inverse_cap_weights(topo))


def _tables(topo):
    """(dists, rank table, InverseCap routes, their path table)."""
    routes = shortest_path_routes(topo, inverse_cap_weights(topo))
    return _dists(topo), topo.ic_rank, routes, path_table(topo, routes)


def _load_list(topo, loads):
    return [loads.get(link.id, 0.0) for link in topo.links]


def test_closest_argmin_distance():
    # chain 1 - 2 - 3: replicas at 2 and 3, client 1
    topo = parse_topology("""
    pop 1 A
    pop 2 B
    pop 3 C
    link 1 2 10
    link 2 3 10
    link 1 3 2.5
    origin 1
    """)
    d = _dists(topo)
    assert d[(1, 2)] == pytest.approx(1.0)
    assert d[(1, 3)] == pytest.approx(2.0)
    assert topo.ic_rank[1] == {1: 0, 2: 1, 3: 2}
    server = redirect_closest({2, 3}, origin=3, rank=topo.ic_rank[1])
    assert server == 2
    assert serve_reason(1, server, 3) == "remote-replica"


def test_closest_local_hit_and_origin_fallback():
    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 10\norigin 0\n")
    rank = topo.ic_rank
    local = redirect_closest({1}, origin=0, rank=rank[1])
    assert local == 1 and serve_reason(1, local, 0) == "local-hit"
    fallback = redirect_closest(set(), origin=0, rank=rank[1])
    assert fallback == 0 and serve_reason(1, fallback, 0) == "origin"


def test_closest_tie_breaks_lowest_pop():
    topo = parse_topology("""
    pop 0 A
    pop 1 B
    pop 2 C
    link 0 1 10
    link 0 2 10
    link 1 2 10
    origin 0
    """)
    assert topo.ic_rank[0] == {0: 0, 1: 1, 2: 2}
    server = redirect_closest({1, 2}, origin=1, rank=topo.ic_rank[0])
    assert server == 1  # equal distance, lowest id wins


def _square():
    # client 0; servers 2 and 3 reachable over disjoint relays via pop 1? No:
    # direct links 2->0 and 3->0 with equal weight, different live loads.
    return parse_topology("""
    pop 0 CLIENT
    pop 1 FILL
    pop 2 S1
    pop 3 S2
    link 0 2 10
    link 0 3 10
    link 1 2 10
    link 1 3 10
    origin 1
    """)


def test_utilization_aware_prefers_cooler_path():
    topo = _square()
    _, rank, _, paths = _tables(topo)
    link_20 = [l.id for l in topo.links if (l.src, l.dst) == (2, 0)][0]
    link_30 = [l.id for l in topo.links if (l.src, l.dst) == (3, 0)][0]
    loads = _load_list(topo, {link_20: 9e6, link_30: 4e6})  # 0.9 vs 0.4
    server = redirect_utilization_aware(0, {2, 3}, origin=1, loads=loads,
                                        paths=paths[0], rate=1e5,
                                        rank=rank[0])
    assert server == 3
    # verify the hand-computed bottleneck metrics pick the same winner
    m2 = (9e6 + 1e5) / 10e6
    m3 = (4e6 + 1e5) / 10e6
    assert m3 < m2


def test_utilization_aware_zero_loads_agrees_with_closest():
    # symmetric instance: uniform capacities, every candidate (origin
    # included) reaches the client over its own single path, so with zero
    # loads all bottleneck metrics tie and the distance tie-break makes
    # both policies agree exactly
    topo = parse_topology("""
    pop 0 CLIENT
    pop 1 R1
    pop 2 R2
    pop 3 R3
    pop 4 ORIGIN
    link 0 1 10
    link 0 2 10
    link 0 3 10
    link 3 4 10
    origin 4
    """)
    _, rank, _, paths = _tables(topo)
    zeros = _load_list(topo, {})
    rng = random.Random(47)
    for _ in range(30):
        holders = set(rng.sample([1, 2, 3], rng.randint(0, 3)))
        a = redirect_closest(holders, origin=4, rank=rank[0])
        b = redirect_utilization_aware(0, holders, origin=4, loads=zeros,
                                       paths=paths[0], rate=1e5, rank=rank[0])
        assert a == b
        assert serve_reason(0, a, 4) == serve_reason(0, b, 4)


def test_utilization_aware_local_short_circuit():
    topo = _square()
    _, rank, _, paths = _tables(topo)
    loads = _load_list(topo, {0: 1e9})
    server = redirect_utilization_aware(0, {0, 2}, origin=1, loads=loads,
                                        paths=paths[0], rate=1e5,
                                        rank=rank[0])
    assert server == 0 and serve_reason(0, server, 1) == "local-hit"


def test_decisions_always_serveable_and_deterministic():
    rng = random.Random(53)
    topo = _square()
    _, rank, _, paths = _tables(topo)
    for _ in range(50):
        holders = set(p for p in topo.pops if rng.random() < 0.4)
        origin = rng.choice(list(topo.pops))
        client = rng.choice(list(topo.pops))
        a = redirect_closest(holders, origin, rank[client])
        assert a in holders | {origin, client}
        loads = [rng.uniform(0, 2e7) for _ in topo.links]
        b = redirect_utilization_aware(client, holders, origin, loads,
                                       paths[client], 1e5, rank[client])
        assert b in holders | {origin, client}
        b2 = redirect_utilization_aware(client, holders, origin, loads,
                                        paths[client], 1e5, rank[client])
        assert b == b2


def test_closest_invariant_under_capacity_scaling():
    base = _square()
    scaled = parse_topology("\n".join(
        [f"pop {p} N{p}" for p in base.pops]
        + [f"arc {l.src} {l.dst} {l.capacity * 7 // 1_000_000}" for l in base.links]
        + ["origin 1"]))
    r1, r2 = base.ic_rank, scaled.ic_rank
    rng = random.Random(59)
    for _ in range(20):
        holders = set(rng.sample([1, 2, 3], rng.randint(1, 3)))
        a = redirect_closest(holders, origin=1, rank=r1[0])
        b = redirect_closest(holders, origin=1, rank=r2[0])
        assert a == b


def test_ic_rank_orders_by_distance_then_pop_id():
    rng = random.Random(67)
    for _ in range(20):
        topo = random_digraph(rng.randint(3, 8), rng,
                              caps=rng.choice([(1000,), (1000, 2500, 10000)]))
        d = _dists(topo)
        for c in topo.pops:
            order = sorted(topo.pops, key=lambda p: (d[(c, p)], p))
            assert topo.ic_rank[c] == {p: i for i, p in enumerate(order)}
            assert topo.ic_rank[c][c] == 0


def test_rules_match_brute_force_definitions_with_ties():
    # equal capacities on 6-8 pop digraphs make equal distances and ECMP
    # splits common; loads are zero on most links so bottlenecks tie too
    rng = random.Random(61)
    distance_ties = bottleneck_ties = 0
    for _ in range(40):
        topo = random_digraph(rng.randint(6, 8), rng, caps=(1000,))
        d, rank, routes, paths = _tables(topo)
        caps = {l.id: l.capacity for l in topo.links}
        pops = list(topo.pops)
        for _ in range(25):
            client, origin = rng.sample(pops, 2)
            others = [p for p in pops if p != client]
            holders = set(rng.sample(others, rng.randint(0, len(others))))
            loads = {l.id: rng.choice((0.0, 0.0, 0.0, rng.uniform(0, 9e8)))
                     for l in topo.links}
            rate = rng.choice((1e6, 5e7))

            expected = (min(holders, key=lambda j: (d[(client, j)], j))
                        if holders else origin)
            assert redirect_closest(holders, origin, rank[client]) == expected
            if len({d[(client, j)] for j in holders}) < len(holders):
                distance_ties += 1

            def metric(server):
                worst = 0.0
                for link_id, frac in routes[(server, client)].items():
                    if frac > 0.0:
                        util = (loads[link_id] + frac * rate) / caps[link_id]
                        worst = max(worst, util)
                return worst

            keys = sorted((metric(j), d[(client, j)], j)
                          for j in holders | {origin})
            if len(keys) > 1 and keys[0][0] == keys[1][0]:
                bottleneck_ties += 1
            got = redirect_utilization_aware(
                client, holders, origin, _load_list(topo, loads),
                paths[client], rate, rank[client])
            assert got == keys[0][2]
    assert distance_ties > 50 and bottleneck_ties > 50
