import random
from collections import deque

import pytest

from cdnte import (TopologyError, all_pairs_distances, inverse_cap_weights,
                   parse_topology, shortest_path_routes)
from cdnte.cli import main
from cdnte.topology import _TIE_REL, Link, Topology, _dijkstra_to
from cdnte.traffic import check_flow_conservation

from conftest import make_triangle, random_digraph, random_symmetric_topology


def test_parse_two_pop():
    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 10000\norigin 0\n")
    assert topo.pops == (0, 1)
    assert topo.names == {0: "A", 1: "B"}
    assert len(topo.links) == 2
    assert all(l.capacity == 10_000_000_000 for l in topo.links)
    assert topo.origin_pop == 0


def test_parse_zero_capacity_names_line():
    with pytest.raises(TopologyError, match="line 3"):
        parse_topology("pop 0 A\npop 1 B\nlink 0 1 0\norigin 0\n")


def test_parse_triangle_link_lines():
    topo = make_triangle()
    assert len(topo.links) == 6
    # strong connectivity was validated at parse time; spot-check reachability
    assert all_pairs_distances(topo, inverse_cap_weights(topo))[(2, 0)] > 0


def test_parse_errors():
    with pytest.raises(TopologyError, match="line 1"):
        parse_topology("link 0 1\norigin 0\n")
    with pytest.raises(TopologyError, match="duplicate"):
        parse_topology("pop 0 A\npop 1 B\narc 0 1 5\narc 0 1 5\n"
                       "arc 1 0 5\norigin 0\n")
    with pytest.raises(TopologyError, match="capacity"):
        parse_topology("pop 0 A\npop 1 B\nlink 0 1 -4\norigin 0\n")
    with pytest.raises(TopologyError, match="strongly connected"):
        parse_topology("pop 0 A\npop 1 B\narc 0 1 5\norigin 0\n")
    with pytest.raises(TopologyError, match="origin"):
        parse_topology("pop 0 A\npop 1 B\nlink 0 1 5\norigin 9\n")
    with pytest.raises(TopologyError, match="origin"):
        parse_topology("pop 0 A\npop 1 B\nlink 0 1 5\n")
    with pytest.raises(TopologyError, match="self-loop"):
        parse_topology("pop 0 A\nlink 0 0 5\norigin 0\n")
    with pytest.raises(TopologyError, match="unknown pop"):
        parse_topology("pop 0 A\npop 1 B\nlink 0 3 5\norigin 0\n")


def test_direct_construction_checks_link_ends():
    names = {0: "A", 1: "B"}
    links = [Link(0, 0, 1, 10), Link(1, 1, 0, 10), Link(2, 0, 5, 10)]
    with pytest.raises(TopologyError, match="link 2: unknown pop"):
        Topology([0, 1], names, links, 0)


def test_parse_fractional_mbps_is_exact():
    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 2.5\norigin 0\n")
    assert topo.links[0].capacity == 2_500_000


def test_inverse_cap_weights_examples():
    topo = parse_topology("pop 0 A\npop 1 B\narc 0 1 10000\narc 1 0 2500\norigin 0\n")
    w = inverse_cap_weights(topo)
    by_pair = {(l.src, l.dst): w[l.id] for l in topo.links}
    assert by_pair[(0, 1)] == 1.0
    assert by_pair[(1, 0)] == 4.0

    topo = make_triangle()
    assert set(inverse_cap_weights(topo).values()) == {1.0}

    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 123\norigin 0\n")
    assert set(inverse_cap_weights(topo).values()) == {1.0}


def test_inverse_cap_scaling_invariance():
    rng = random.Random(7)
    for _ in range(10):
        topo = random_digraph(rng.randint(3, 7), rng)
        scaled = parse_topology("\n".join(
            [f"pop {p} N{p}" for p in topo.pops]
            + [f"arc {l.src} {l.dst} {l.capacity * 3 // 1_000_000}"
               for l in topo.links]
            + ["origin 0"]))
        w1 = inverse_cap_weights(topo)
        w2 = inverse_cap_weights(scaled)
        for l1, l2 in zip(topo.links, scaled.links):
            assert w1[l1.id] == pytest.approx(w2[l2.id], rel=1e-12)


def test_ecmp_triangle_direct_path(triangle):
    routes = shortest_path_routes(triangle, inverse_cap_weights(triangle))
    direct = [l for l in triangle.links if (l.src, l.dst) == (0, 1)][0]
    assert routes[(0, 1)] == {direct.id: 1.0}


def test_ecmp_parallel_paths_even_split(parallel_paths):
    routes = shortest_path_routes(parallel_paths,
                                  inverse_cap_weights(parallel_paths))
    fracs = routes[(0, 1)]
    by_pair = {(l.src, l.dst): l.id for l in parallel_paths.links}
    assert fracs[by_pair[(0, 2)]] == pytest.approx(0.5)
    assert fracs[by_pair[(2, 1)]] == pytest.approx(0.5)
    assert fracs[by_pair[(0, 3)]] == pytest.approx(0.5)
    assert fracs[by_pair[(3, 1)]] == pytest.approx(0.5)


def test_ecmp_two_pop_identity(two_pop):
    routes = shortest_path_routes(two_pop, inverse_cap_weights(two_pop))
    link = [l for l in two_pop.links if l.src == 0][0]
    assert routes[(0, 1)] == {link.id: 1.0}


def test_ecmp_flow_conservation_random():
    rng = random.Random(11)
    for _ in range(20):
        topo = random_digraph(rng.randint(3, 8), rng)
        routes = shortest_path_routes(topo, inverse_cap_weights(topo))
        assert len(routes) == len(topo.pops) * (len(topo.pops) - 1)
        check_flow_conservation(routes, topo, tol=1e-9)


def _ecmp_reference(topo, w):
    """ECMP as a per-source loop: each source's unit, pushed through the
    pops in decreasing distance to the destination (then by pop id), split
    evenly over each pop's shortest-path out-links."""
    routes = {}
    for t in topo.pops:
        dist = _dijkstra_to(topo, w, t)
        dag = {}
        for l in topo.links:
            target = w[l.id] + dist[l.dst]
            if abs(dist[l.src] - target) <= _TIE_REL * (1.0 + abs(target)):
                dag.setdefault(l.src, []).append(l)
        order = sorted((p for p in topo.pops if p != t),
                       key=lambda p: (-dist[p], p))
        for s in topo.pops:
            if s == t:
                continue
            mass, fracs = {s: 1.0}, {}
            for u in order:
                mu = mass.get(u, 0.0)
                if mu == 0.0:
                    continue
                share = mu / len(dag[u])
                for l in dag[u]:
                    fracs[l.id] = fracs.get(l.id, 0.0) + share
                    mass[l.dst] = mass.get(l.dst, 0.0) + share
            routes[(s, t)] = fracs
    return routes


def _five_by_five():
    """Pop 0 links to pops 1-5, each of them to all of pops 6-10, and each
    of those to pop 11: toward pop 11, each fifth that pop 0 sends splits
    five ways again, and 0.2 * (1 / 5) != 0.2 / 5 in floating point."""
    lines = [f"pop {p} N{p}" for p in range(12)]
    lines += [f"link 0 {a} 10" for a in range(1, 6)]
    lines += [f"link {a} {b} 10" for a in range(1, 6) for b in range(6, 11)]
    lines += [f"link {b} 11 10" for b in range(6, 11)]
    return parse_topology("\n".join(lines + ["origin 0"]))


def test_ecmp_equals_per_source_reference_exactly():
    # the same links and the same floats as the per-source loop, under
    # InverseCap and uniform weights
    rng = random.Random(19)
    topos = [random_digraph(rng.randint(3, 9), rng) for _ in range(15)]
    topos += [random_symmetric_topology(rng.randint(4, 20), seed)
              for seed in range(15)]
    topos += [random_symmetric_topology(20, seed=42), _five_by_five()]
    for topo in topos:
        for w in (inverse_cap_weights(topo), {l.id: 1.0 for l in topo.links}):
            assert shortest_path_routes(topo, w) == _ecmp_reference(topo, w)


def _bfs_hops(topo, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for l in topo.out_links[u]:
            if l.dst not in dist:
                dist[l.dst] = dist[u] + 1
                queue.append(l.dst)
    return dist


def test_ecmp_uniform_weights_hop_count_oracle():
    rng = random.Random(13)
    for _ in range(15):
        topo = random_digraph(rng.randint(3, 8), rng)
        uniform = {l.id: 1.0 for l in topo.links}
        routes = shortest_path_routes(topo, uniform)
        hops_from = {p: _bfs_hops(topo, p) for p in topo.pops}
        for (s, t), fracs in routes.items():
            for link_id, frac in fracs.items():
                if frac <= 0:
                    continue
                l = topo.link_by_id[link_id]
                assert hops_from[s][l.src] + 1 + hops_from[l.dst][t] \
                    == hops_from[s][t], f"{(s, t)} uses off-path link {link_id}"


def test_all_pairs_distances_examples(triangle, two_pop):
    d = all_pairs_distances(triangle, inverse_cap_weights(triangle))
    assert d[(0, 0)] == 0.0
    assert d[(0, 1)] == pytest.approx(1.0)
    d2 = all_pairs_distances(two_pop, inverse_cap_weights(two_pop))
    assert d2[(0, 1)] == pytest.approx(1.0)


def test_path_distance_triangle_inequality():
    rng = random.Random(17)
    for _ in range(10):
        topo = random_digraph(rng.randint(3, 7), rng)
        w = inverse_cap_weights(topo)
        d = all_pairs_distances(topo, w)
        for a in topo.pops:
            for b in topo.pops:
                for c in topo.pops:
                    assert d[(a, c)] <= d[(a, b)] + d[(b, c)] + 1e-9


def test_ecmp_capacity_spread(tmp_path, capsys):
    # a 1 bit/s link beside a 10 Tbit/s one weighs 1e13 InverseCap units:
    # the fast link's weight 1 is within the tie tolerance of that length,
    # so the topology is refused, naming both links (link 0 is 0->1,
    # link 2 is 1->2), with exit code 1
    text = ("pop 0 A\npop 1 B\npop 2 C\nlink 0 1 10000000\n"
            "link 1 2 0.000001\norigin 0\n")
    with pytest.raises(TopologyError, match="links 0 and 2 weigh 1 and 1e"):
        parse_topology(text).ic_routes
    topo_path, tm_path = tmp_path / "topo.txt", tmp_path / "tm.csv"
    topo_path.write_text(text)
    tm_path.write_text("src_pop,dst_pop,rate_mbps\n0,2,1\n")
    assert main(["solve-routing", str(topo_path), str(tm_path)]) == 1
    assert "links 0 and 2" in capsys.readouterr().err
    # a 1e7 spread routes: one path each way, as the hop-count oracle has it
    topo = parse_topology(text.replace("0.000001", "1"))
    routes = topo.ic_routes
    check_flow_conservation(routes, topo, tol=0.0)
    assert routes[(0, 2)] == {0: 1.0, 2: 1.0}
    assert routes[(2, 0)] == {3: 1.0, 1: 1.0}


def test_unreachable_reported_defensively(parallel_paths):
    with pytest.raises(TopologyError):
        shortest_path_routes(parallel_paths, {l.id: -1.0 for l in
                                              parallel_paths.links})
