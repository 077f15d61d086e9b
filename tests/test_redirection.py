import random

import numpy as np
import pytest

from cdnte import parse_topology
from cdnte.redirection import (redirect_closest, redirect_utilization_aware,
                               serve_reason)
from cdnte.topology import (all_pairs_distances, inverse_cap_weights,
                            shortest_path_routes)
from cdnte.traffic import path_table

from conftest import ic_rank, random_digraph


def _dists(topo):
    return all_pairs_distances(topo, inverse_cap_weights(topo))


def _tables(topo):
    """(dists, rank table, InverseCap routes, their path table)."""
    routes = shortest_path_routes(topo, inverse_cap_weights(topo))
    return _dists(topo), ic_rank(topo), routes, path_table(topo, routes)


def _order(topo):
    """Each client's pops in rank order, by position, as replay has it."""
    return topo.ic_order


def _load_list(topo, loads):
    return [loads.get(link.id, 0.0) for link in topo.links]


def _accesses(topo, accesses):
    """(client, holders, origin) triples by pop id as the rules' arrays:
    clients, origins, holder ids and a holder-set table by position."""
    at = topo.pop_at
    sets = np.zeros((len(accesses), len(topo.pops)), dtype=bool)
    for k, (_, holders, _) in enumerate(accesses):
        sets[k, [at[h] for h in holders]] = True
    return (np.array([at[c] for c, _, _ in accesses], dtype=np.int64),
            np.array([at[o] for _, _, o in accesses], dtype=np.int64),
            np.arange(len(accesses)), sets)


def _closest(topo, client, holders, origin):
    """redirect_closest for one access, by pop id."""
    server, = redirect_closest(*_accesses(topo, [(client, holders, origin)]),
                               _order(topo))
    return topo.pops[server]


def _util_aware(topo, client, holders, origin, loads, paths, rate):
    """redirect_utilization_aware for one access, by pop id; `loads` is by
    link position and `paths` a path_table."""
    server, = redirect_utilization_aware(
        *_accesses(topo, [(client, holders, origin)]), np.array([rate]),
        list(loads), paths, _order(topo))
    return topo.pops[server]


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
    assert ic_rank(topo)[1] == {1: 0, 2: 1, 3: 2}
    server = _closest(topo, 1, {2, 3}, 3)
    assert server == 2
    assert serve_reason(1, server, 3) == "remote-replica"


def test_closest_local_hit_and_origin_fallback():
    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 10\norigin 0\n")
    local = _closest(topo, 1, {1}, 0)
    assert local == 1 and serve_reason(1, local, 0) == "local-hit"
    fallback = _closest(topo, 1, set(), 0)
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
    assert ic_rank(topo)[0] == {0: 0, 1: 1, 2: 2}
    server = _closest(topo, 0, {1, 2}, 1)
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
    _, _, _, paths = _tables(topo)
    link_20 = [l.id for l in topo.links if (l.src, l.dst) == (2, 0)][0]
    link_30 = [l.id for l in topo.links if (l.src, l.dst) == (3, 0)][0]
    loads = _load_list(topo, {link_20: 9e6, link_30: 4e6})  # 0.9 vs 0.4
    server = _util_aware(topo, 0, {2, 3}, 1, loads, paths, 1e5)
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
    _, _, _, paths = _tables(topo)
    zeros = _load_list(topo, {})
    rng = random.Random(47)
    for _ in range(30):
        holders = set(rng.sample([1, 2, 3], rng.randint(0, 3)))
        a = _closest(topo, 0, holders, 4)
        b = _util_aware(topo, 0, holders, 4, zeros, paths, 1e5)
        assert a == b
        assert serve_reason(0, a, 4) == serve_reason(0, b, 4)


def test_utilization_aware_local_short_circuit():
    topo = _square()
    _, _, _, paths = _tables(topo)
    loads = _load_list(topo, {0: 1e9})
    server = _util_aware(topo, 0, {0, 2}, 1, loads, paths, 1e5)
    assert server == 0 and serve_reason(0, server, 1) == "local-hit"
    assert _util_aware(topo, 1, {2}, 1, loads, paths, 1e5) == 1


def test_decisions_always_serveable_and_deterministic():
    rng = random.Random(53)
    topo = _square()
    _, _, _, paths = _tables(topo)
    for _ in range(50):
        holders = set(p for p in topo.pops if rng.random() < 0.4)
        origin = rng.choice(list(topo.pops))
        client = rng.choice(list(topo.pops))
        a = _closest(topo, client, holders, origin)
        assert a in holders | {origin, client}
        loads = [rng.uniform(0, 2e7) for _ in topo.links]
        b = _util_aware(topo, client, holders, origin, loads, paths, 1e5)
        assert b in holders | {origin, client}
        b2 = _util_aware(topo, client, holders, origin, loads, paths, 1e5)
        assert b == b2


def test_closest_invariant_under_capacity_scaling():
    base = _square()
    scaled = parse_topology("\n".join(
        [f"pop {p} N{p}" for p in base.pops]
        + [f"arc {l.src} {l.dst} {l.capacity * 7 // 1_000_000}" for l in base.links]
        + ["origin 1"]))
    rng = random.Random(59)
    for _ in range(20):
        holders = set(rng.sample([1, 2, 3], rng.randint(1, 3)))
        a = _closest(base, 0, holders, 1)
        b = _closest(scaled, 0, holders, 1)
        assert a == b


def test_ic_rank_orders_by_distance_then_pop_id():
    rng = random.Random(67)
    for _ in range(20):
        topo = random_digraph(rng.randint(3, 8), rng,
                              caps=rng.choice([(1000,), (1000, 2500, 10000)]))
        d = _dists(topo)
        for c in topo.pops:
            order = sorted(topo.pops, key=lambda p: (d[(c, p)], p))
            assert ic_rank(topo)[c] == {p: i for i, p in enumerate(order)}
            assert ic_rank(topo)[c][c] == 0


def test_rules_match_brute_force_definitions_with_ties():
    # equal capacities on 6-8 pop digraphs make equal distances and ECMP
    # splits common; loads are zero on most links so bottlenecks tie too
    rng = random.Random(61)
    distance_ties = bottleneck_ties = 0
    for _ in range(40):
        topo = random_digraph(rng.randint(6, 8), rng, caps=(1000,))
        d, _, routes, paths = _tables(topo)
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
            assert _closest(topo, client, holders, origin) == expected
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
            got = _util_aware(topo, client, holders, origin,
                             _load_list(topo, loads), paths, rate)
            assert got == keys[0][2]
    assert distance_ties > 50 and bottleneck_ties > 50


def test_rules_on_many_accesses_match_one_at_a_time():
    # one call over many accesses gives each the server a call of its own
    # gives; under the utilization-aware rule, each access sees the rates
    # of the ones before it, which changes some choices
    rng = random.Random(71)
    topo = random_digraph(7, rng, caps=(1000,))
    _, _, _, paths = _tables(topo)
    order = _order(topo)
    pops = list(topo.pops)
    accesses = []
    for _ in range(80):
        client, origin = rng.sample(pops, 2)
        others = [p for p in pops if p != client]
        accesses.append((client, set(rng.sample(others, rng.randint(0, 4))),
                         origin))
    rates = np.array([rng.choice((1e7, 3e8)) for _ in accesses])
    arrays = _accesses(topo, accesses)
    batch = redirect_closest(*arrays, order)
    assert [topo.pops[s] for s in batch] == [
        _closest(topo, c, h, o) for c, h, o in accesses]

    loads = [0.0] * len(topo.links)
    batch = redirect_utilization_aware(*arrays, rates, loads, paths, order)
    one_by_one, alone = [0.0] * len(topo.links), []
    for k, (c, h, o) in enumerate(accesses):
        one = _accesses(topo, [(c, h, o)])
        server, = redirect_utilization_aware(*one, rates[k:k + 1],
                                             one_by_one, paths, order)
        assert server == batch[k]
        alone.append(_util_aware(topo, c, h, o, [0.0] * len(topo.links),
                                paths, rates[k]))
    assert loads == one_by_one
    assert [topo.pops[s] for s in batch] != alone


def test_rank_matrix_and_path_table_by_position():
    # ic_rank_matrix inverts ic_order, and path_table keeps each
    # route's (link, fraction) rows in the routing's order under
    # commodity server position * pops + client, and each link's
    # capacity by position; by_client has the same rows by
    # [client][server], with the link's capacity
    rng = random.Random(5)
    topo = random_digraph(6, rng, caps=(1000, 2500))
    pops, n = topo.pops, len(topo.pops)
    assert topo.ic_rank_matrix.tolist() == [
        [ic_rank(topo)[c][p] for p in pops] for c in pops]
    assert (np.argsort(topo.ic_rank_matrix, axis=1) == topo.ic_order).all()
    _, _, routes, table = _tables(topo)
    for (server, client), fracs in routes.items():
        k = topo.pop_at[server] * n + topo.pop_at[client]
        rows = range(table.at[k], table.at[k + 1])
        assert [(topo.links[table.link[r]].id, table.frac[r])
                for r in rows] == list(fracs.items())
        by_client = table.by_client[topo.pop_at[client]][topo.pop_at[server]]
        assert by_client == [(table.link[r], table.frac[r],
                              topo.links[table.link[r]].capacity)
                             for r in rows]
    assert table.capacities.tolist() == [l.capacity for l in topo.links]
    assert table.at[-1] == sum(len(f) for f in routes.values())


def test_utilization_aware_batch_matches_brute_force_with_live_loads():
    # one call over many accesses against a plain loop: each access
    # takes the candidate (holders and origin) with the least bottleneck
    # after its rate on the loads the accesses before it left, then the
    # client's rank; a local copy serves in place, and an access with no
    # holder goes to the origin. Equal capacities make ties common
    rng = random.Random(89)
    origin_only = ties = local = 0
    for _ in range(30):
        topo = random_digraph(rng.randint(4, 8), rng,
                              caps=rng.choice([(1000,), (1000, 2500)]))
        _, rank, routes, paths = _tables(topo)
        pops = list(topo.pops)
        accesses = []
        for _ in range(60):
            client, origin = rng.sample(pops, 2)
            holders = set() if rng.random() < 0.3 else \
                set(rng.sample(pops, rng.randint(1, 3)))
            accesses.append((client, holders, origin))
        rates = [rng.choice((1e6, 5e7, 3e8)) for _ in accesses]
        start = [rng.choice((0.0, 0.0, rng.uniform(0, 8e8)))
                 for _ in topo.links]
        loads = list(start)
        got = redirect_utilization_aware(
            *_accesses(topo, accesses), np.array(rates), loads, paths,
            _order(topo))

        want = list(start)
        for (client, holders, origin), rate, server in zip(accesses, rates,
                                                           got):
            candidates = holders | {origin}
            if client in candidates:
                local += 1
                assert topo.pops[server] == client
                continue
            route = {s: [(topo.link_at[l], f)
                         for l, f in routes[(s, client)].items()]
                     for s in candidates}

            def metric(s):
                return max([(want[pos] + f * rate)
                            / topo.links[pos].capacity
                            for pos, f in route[s] if f > 0.0] + [0.0])

            keys = sorted((metric(s), rank[client][s], s) for s in candidates)
            if len(keys) == 1:
                origin_only += 1
            elif keys[0][0] == keys[1][0]:
                ties += 1
            assert topo.pops[server] == keys[0][2]
            for pos, f in route[keys[0][2]]:
                want[pos] += f * rate
        assert loads == want
    assert origin_only > 100 and ties > 100 and local > 100
