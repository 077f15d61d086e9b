import random

import pytest

from cdnte import parse_topology
from cdnte.traffic import (apply_routing, mlu, read_traffic_matrix,
                           validate_traffic_matrix, write_traffic_matrix)
from cdnte.topology import inverse_cap_weights, shortest_path_routes

from conftest import random_digraph, random_traffic_matrix


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
    with pytest.raises(ValueError):
        validate_traffic_matrix({(0, 0): 1.0})
