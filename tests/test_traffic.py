import random

import numpy as np
import pytest

from cdnte import parse_topology
from cdnte.traffic import (apply_routing, check_flow_conservation,
                           link_loads, mlu, path_table,
                           read_traffic_matrix, split_by_source,
                           validate_traffic_matrix, write_traffic_matrix)
from cdnte.topology import inverse_cap_weights, shortest_path_routes

from conftest import MERGE_AND_SPLIT, random_digraph, random_traffic_matrix


def test_apply_single_commodity(two_pop):
    link = [l for l in two_pop.links if l.src == 0][0]
    routing = {(0, 1): {link.id: 1.0}}
    loads = apply_routing(routing, {(0, 1): 10.0})
    assert loads == {link.id: 10.0}


def test_apply_even_split(parallel_paths):
    routes = shortest_path_routes(parallel_paths,
                                  inverse_cap_weights(parallel_paths))
    loads = apply_routing(routes, {(0, 1): 10.0})
    for l in parallel_paths.links:
        expected = 5.0 if l.src in (0, 2, 3) and l.dst in (1, 2, 3) else 0.0
        assert loads.get(l.id, 0.0) == pytest.approx(expected)


def test_apply_zero_matrix(two_pop):
    assert apply_routing({}, {}) == {}
    assert apply_routing({(0, 1): {0: 1.0}}, {(0, 1): 0.0}) == {}


def test_apply_missing_commodity():
    with pytest.raises(KeyError):
        apply_routing({}, {(0, 1): 5.0})


def test_apply_linearity():
    rng = random.Random(3)
    for _ in range(10):
        topo = random_digraph(rng.randint(3, 6), rng)
        routes = shortest_path_routes(topo, inverse_cap_weights(topo))
        tm1 = random_traffic_matrix(topo, rng)
        tm2 = random_traffic_matrix(topo, rng)
        a = rng.uniform(0.1, 5.0)
        combo = dict(tm1)
        for k, v in tm2.items():
            combo[k] = combo.get(k, 0.0) + v
        for k in combo:
            combo[k] = a * tm1.get(k, 0.0) + tm2.get(k, 0.0)
        lhs = apply_routing(routes, combo)
        l1 = apply_routing(routes, tm1)
        l2 = apply_routing(routes, tm2)
        for link in topo.links:
            want = a * l1.get(link.id, 0.0) + l2.get(link.id, 0.0)
            assert lhs.get(link.id, 0.0) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_mlu_examples():
    topo = parse_topology("pop 0 A\npop 1 B\narc 0 1 10\narc 1 0 10\norigin 0\n")
    l01 = [l for l in topo.links if l.src == 0][0]
    l10 = [l for l in topo.links if l.src == 1][0]
    assert mlu({l01.id: 5e6, l10.id: 2e6}, topo) == pytest.approx(0.5)
    assert mlu({}, topo) == 0.0
    assert mlu({l01.id: 15e6}, topo) == pytest.approx(1.5)  # overload reported


def test_matrix_csv_roundtrip():
    tm = {(0, 1): 2.5e6, (1, 0): 1e9}
    text = write_traffic_matrix(tm)
    assert text.splitlines()[0] == "src_pop,dst_pop,rate_mbps"
    back = read_traffic_matrix(text)
    for k, v in tm.items():
        assert back[k] == pytest.approx(v, rel=1e-9)


def test_matrix_csv_errors():
    with pytest.raises(ValueError, match="line 2"):
        read_traffic_matrix("src_pop,dst_pop,rate_mbps\n1,2\n")
    with pytest.raises(ValueError, match="diagonal"):
        read_traffic_matrix("1,1,5\n")
    with pytest.raises(ValueError, match="negative"):
        read_traffic_matrix("0,1,-5\n")
    for rate in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=r"line 2: .* is not finite"):
            read_traffic_matrix(f"0,1,5\n1,0,{rate}\n")
    with pytest.raises(ValueError):
        validate_traffic_matrix({(0, 0): 1.0})


def test_split_by_source_follows_each_pop_proportionally():
    topo = parse_topology(MERGE_AND_SPLIT)
    ids = {(l.src, l.dst): l.id for l in topo.links}
    # rates 1 and 3 (in units of the largest rate: 1/3 and 1); pop 2
    # sends 30% of what it carries through pop 3 and 70% through pop 4
    flow = [0.0] * len(topo.links)
    for arc, value in {(0, 2): 1 / 3, (1, 2): 1.0, (2, 3): 0.4, (2, 4): 14 / 15,
                       (3, 5): 0.4, (4, 5): 14 / 15}.items():
        flow[topo.link_at[ids[arc]]] = value
    routing = split_by_source(topo, 5, flow, [0, 1], topo.pop_at.__getitem__)
    for s in (0, 1):
        assert routing[(s, 5)].keys() == {ids[(s, 2)], ids[(2, 3)],
                                          ids[(2, 4)], ids[(3, 5)],
                                          ids[(4, 5)]}
        assert routing[(s, 5)][ids[(s, 2)]] == 1.0
        for arc, want in (((2, 3), 0.3), ((3, 5), 0.3), ((2, 4), 0.7),
                          ((4, 5), 0.7)):
            assert routing[(s, 5)][ids[arc]] == pytest.approx(want, abs=1e-12)
    check_flow_conservation(routing, topo, tol=1e-12)
    loads = apply_routing(routing, {(0, 5): 1.0, (1, 5): 3.0})
    assert loads[ids[(2, 3)]] == pytest.approx(1.2, abs=1e-12)
    assert loads[ids[(2, 4)]] == pytest.approx(2.8, abs=1e-12)


def test_split_by_source_rejects_cycles_and_stranded_sources():
    topo = parse_topology(MERGE_AND_SPLIT)
    at = {(l.src, l.dst): topo.link_at[l.id] for l in topo.links}
    flow = [0.0] * len(topo.links)
    for arc in ((0, 2), (2, 3), (3, 5)):
        flow[at[arc]] = 1.0
    key = topo.pop_at.__getitem__
    assert split_by_source(topo, 5, flow, [0], key) == {
        (0, 5): {topo.links[at[a]].id: 1.0 for a in ((0, 2), (2, 3), (3, 5))}}
    with pytest.raises(ValueError, match=r"\(1, 5\) does not reach its sink"):
        split_by_source(topo, 5, flow, [0, 1], key)
    flow[at[(5, 0)]] = 0.5
    with pytest.raises(ValueError, match="toward pop 5 has a cycle"):
        split_by_source(topo, 5, flow, [0], key)


def test_routes_loads_equal_apply_routing_bit_for_bit():
    # Routes.add_loads, through link_loads, gives apply_routing's floats
    # on random routings, with pop ids apart from their positions, routes
    # listing links in any order and zero rates; with a second matrix
    # routed on another routing added after, as replay adds transit; and
    # per group, as replay sums its intervals
    rng = random.Random(83)
    for _ in range(40):
        ids = sorted(rng.sample(range(100), rng.randint(2, 7)))
        topo = parse_topology("\n".join(
            [f"pop {p} N{p}" for p in ids]
            + [f"arc {a} {b} {rng.choice((1, 3, 10))}"
               for a in ids for b in ids if a != b]
            + [f"origin {ids[0]}"]))
        link_ids = [l.id for l in topo.links]

        def random_routing():
            return {(s, t): {l: rng.choice((1.0, 0.5, rng.random()))
                             for l in rng.sample(link_ids, rng.randint(
                                 1, len(link_ids)))}
                    for s in ids for t in ids
                    if s != t and rng.random() < 0.8}

        def random_matrix(routing):
            return {k: rng.choice((0.0, rng.uniform(1.0, 1e9)))
                    for k in routing if rng.random() < 0.7}

        def by_position(loads):
            return [loads.get(link_id, 0.0) for link_id in link_ids]

        routing, transit_routing = random_routing(), random_routing()
        tm, transit_tm = random_matrix(routing), random_matrix(transit_routing)
        routes = path_table(topo, routing)
        loads = link_loads(topo, routes, tm)
        want = apply_routing(routing, tm)
        assert loads.tolist() == by_position(want)

        transit = link_loads(topo, path_table(topo, transit_routing),
                             transit_tm)
        for link_id, extra in apply_routing(transit_routing,
                                            transit_tm).items():
            want[link_id] = want.get(link_id, 0.0) + extra
        assert (loads + transit).tolist() == by_position(want)

        at, n = topo.pop_at, len(ids)
        commodities = np.array([at[s] * n + at[t] for s, t in sorted(tm)],
                               dtype=np.int64)
        rates = np.array([tm[k] for k in sorted(tm)])
        group = np.array([rng.randrange(3) for _ in tm], dtype=np.int64)
        grouped = routes.add_loads(np.zeros((3, len(link_ids))),
                                   commodities, rates, group)
        for g in range(3):
            part = {k: tm[k] for k, kg in zip(sorted(tm), group) if kg == g}
            assert grouped[g].tolist() == by_position(
                apply_routing(routing, part))
