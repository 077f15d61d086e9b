import random

import pytest

from cdnte import lp as L
from cdnte import parse_topology
from cdnte.placement import (CacheState, Placement, _SwapSearch,
                             induced_traffic_matrix, plan_placement_optimized,
                             replay_caches, split_hybrid)
from cdnte.topology import (all_pairs_distances, inverse_cap_weights,
                            shortest_path_routes)
from cdnte.traffic import apply_routing, mlu
from cdnte.workload import ChunkMap, ContentObject, DemandMatrix

from conftest import random_digraph


def test_lru_textbook_eviction():
    cache = CacheState(0, 2)
    assert cache.access(("a", 0), 1) == ("miss", [])
    assert cache.access(("b", 0), 1) == ("miss", [])
    outcome, evicted = cache.access(("c", 0), 1)
    assert outcome == "miss" and evicted == [("a", 0)]
    assert ("b", 0) in cache and ("c", 0) in cache


def test_lru_refresh_changes_victim():
    cache = CacheState(0, 2)
    cache.access(("a", 0), 1)
    cache.access(("b", 0), 1)
    assert cache.access(("a", 0), 1) == ("hit", [])
    outcome, evicted = cache.access(("c", 0), 1)
    assert outcome == "miss" and evicted == [("b", 0)]


def test_lru_oversized_bypass():
    cache = CacheState(0, 2)
    cache.access(("a", 0), 1)
    outcome, evicted = cache.access(("big", 0), 3)
    assert outcome == "miss" and evicted == []
    assert ("big", 0) not in cache and ("a", 0) in cache
    assert cache.used == 1


def test_replay_caches_refreshes_a_planned_copy_and_tracks_holders():
    # pop positions 0 and 1, caches of two unit chunks; chunks 0-2
    caches = [CacheState(0, 2), CacheState(1, 2)]
    sizes, cached = [1, 1, 1], [0, 0, 0]
    misses, masks = replay_caches(caches, [0, 0, 1], [0, 1, 0], sizes,
                                  [0, 0, 0], cached)
    assert misses == [0, 1, 2]
    assert masks == [0, 0, 0b01]  # pop 1's miss saw pop 0's cached copy
    assert cached == [0b11, 0b01, 0]
    # pop 0 now stores chunk 0 by plan: the access is local, and it still
    # refreshes the cached copy, so chunk 1 is evicted next, not chunk 0
    planned = [0b01, 0, 0b10]
    misses, masks = replay_caches(caches, [0, 0, 1], [0, 2, 2], sizes,
                                  planned, cached)
    assert misses == [1]
    assert masks == [0b10]  # the planned holder
    assert cached == [0b11, 0, 0b01]
    # pop 1 stores chunk 2 by plan and caches nothing of it: its access
    # is local, admits nothing and leaves every cached bit as it was
    assert list(caches[1].resident) == [0]
    misses, masks = replay_caches(caches, [1], [2], sizes, planned, cached)
    assert misses == [] and masks == []
    assert list(caches[1].resident) == [0] and caches[1].used == 1
    assert cached == [0b11, 0, 0b01]
    # chunk 3 is larger than pop 0's cache: it misses, evicts nothing and
    # its cached bit stays clear; pop 0's copies of chunks 0 and 2 stay
    sizes.append(3)
    cached.append(0)
    misses, masks = replay_caches(caches, [0, 0], [3, 3], sizes,
                                  planned + [0], cached)
    assert misses == [0, 1] and masks == [0, 0]
    assert cached == [0b11, 0, 0b01, 0]
    assert list(caches[0].resident) == [0, 2] and caches[0].used == 2


class _ReferenceLru:
    """Naive recency-list model used as the oracle."""

    def __init__(self, budget):
        self.budget = budget
        self.order = []  # most recent first
        self.sizes = {}

    def access(self, chunk, size):
        if chunk in self.sizes:
            self.order.remove(chunk)
            self.order.insert(0, chunk)
            return "hit", []
        if size > self.budget:
            return "miss", []
        evicted = []
        while sum(self.sizes.values()) + size > self.budget:
            victim = self.order.pop()
            del self.sizes[victim]
            evicted.append(victim)
        self.order.insert(0, chunk)
        self.sizes[chunk] = size
        return "miss", evicted


def test_lru_matches_reference_model():
    rng = random.Random(19)
    for trial in range(5):
        budget = rng.randint(1, 50)
        cache = CacheState(0, budget)
        ref = _ReferenceLru(budget)
        sizes = {i: rng.randint(1, 12) for i in range(30)}
        for _ in range(2000):
            cid = ("o%d" % rng.randrange(30), 0)
            size = sizes[int(cid[0][1:])]
            assert cache.access(cid, size) == ref.access(cid, size)
            assert cache.used == sum(ref.sizes.values())
            assert cache.used <= budget
        assert list(cache.resident) == list(reversed(ref.order))


def test_split_hybrid_examples():
    budgets = {0: 1000, 1: 400}
    planned, cache = split_hybrid(budgets, 0.0)
    assert planned == budgets and cache == {0: 0, 1: 0}
    planned, cache = split_hybrid(budgets, 1.0)
    assert planned == {0: 0, 1: 0} and cache == budgets
    planned, cache = split_hybrid({0: 1000}, 0.1)
    assert planned == {0: 900} and cache == {0: 100}
    with pytest.raises(ValueError):
        split_hybrid(budgets, 1.2)


def _origin_triangle():
    return parse_topology("""
    pop 0 P0
    pop 1 P1
    pop 2 ORIGIN
    link 0 1 10
    link 0 2 10
    link 1 2 10
    origin 2
    """)


def _fixture_two_chunks():
    topo = _origin_triangle()
    cat = {"A": ContentObject("A", 100), "B": ContentObject("B", 100)}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    dm = DemandMatrix(0.0, 86400.0, {(("A", 0), 0): 10**6, (("B", 0), 1): 10**6})
    return topo, chunks, origins, dm


def test_plan_optimized_two_chunk_instance():
    topo, chunks, origins, dm = _fixture_two_chunks()
    budgets = {0: 100, 1: 100, 2: 100}
    placement, routing = plan_placement_optimized(dm, topo, budgets, chunks,
                                                  origins)
    assert placement.stored[0] == {("A", 0)}
    assert placement.stored[1] == {("B", 0)}
    tm = induced_traffic_matrix(dm, placement, origins, topo)
    assert tm == {}  # everything local
    assert mlu(apply_routing(routing, tm), topo) == 0.0


def test_plan_optimized_full_replication():
    topo, chunks, origins, dm = _fixture_two_chunks()
    budgets = {p: 10**6 for p in topo.pops}
    placement, _ = plan_placement_optimized(dm, topo, budgets, chunks, origins)
    assert ("A", 0) in placement.stored[0]
    assert ("B", 0) in placement.stored[1]
    assert induced_traffic_matrix(dm, placement, origins, topo) == {}


def test_plan_optimized_zero_budgets_matches_origin_min_mlu():
    topo, chunks, origins, dm = _fixture_two_chunks()
    placement, routing = plan_placement_optimized(dm, topo, {0: 0, 1: 0, 2: 0},
                                                  chunks, origins)
    assert placement.stored == {}
    tm = {(2, 0): 10**6 * 8 / 86400.0, (2, 1): 10**6 * 8 / 86400.0}
    realized = mlu(apply_routing(routing, tm), topo)
    direct = L.solve_lp(L.build_min_mlu_lp(topo, tm)).objective
    assert realized == pytest.approx(direct, rel=1e-7, abs=1e-12)


def test_plan_budgets_never_overflow():
    rng = random.Random(43)
    topo = _origin_triangle()
    for _ in range(10):
        cat = {f"o{i}": ContentObject(f"o{i}", rng.randint(1, 40))
               for i in range(5)}
        chunks = ChunkMap(cat, None)
        origins = {cid: 2 for cid in cat}
        demand = {}
        for cid in cat:
            for pop in (0, 1):
                if rng.random() < 0.7:
                    demand[((cid, 0), pop)] = rng.randint(1, 10**6)
        if not demand:
            continue
        dm = DemandMatrix(0.0, 3600.0, demand)
        budgets = {0: rng.randint(0, 80), 1: rng.randint(0, 80), 2: 0}
        placement, _ = plan_placement_optimized(dm, topo, budgets, chunks,
                                                origins)
        for pop, stored in placement.stored.items():
            used = sum(chunks.sizes[c] for c in stored)
            assert used <= budgets[pop]


# The `future` placement is plan_placement_optimized fed the upcoming day's
# demand; these tests pin that the planner is a function of its inputs.


def test_plan_future_same_input_same_output():
    topo, chunks, origins, dm = _fixture_two_chunks()
    budgets = {0: 100, 1: 100, 2: 0}
    a = plan_placement_optimized(dm, topo, budgets, chunks, origins)
    b = plan_placement_optimized(dm, topo, budgets, chunks, origins)
    assert a[0].stored == b[0].stored
    assert a[1] == b[1]


def test_plan_future_disjoint_days_differ():
    topo = _origin_triangle()
    cat = {"A": ContentObject("A", 100), "B": ContentObject("B", 100)}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    day1 = DemandMatrix(0.0, 86400.0, {(("A", 0), 0): 10**6})
    day2 = DemandMatrix(86400.0, 2 * 86400.0, {(("B", 0), 0): 10**6})
    budgets = {0: 100, 1: 0, 2: 0}  # room for exactly one chunk at pop 0
    prior, _ = plan_placement_optimized(day1, topo, budgets, chunks, origins)
    oracle, _ = plan_placement_optimized(day2, topo, budgets, chunks, origins)
    assert prior.stored[0] == {("A", 0)}
    assert oracle.stored[0] == {("B", 0)}


def test_plan_future_zero_budgets():
    topo, chunks, origins, dm = _fixture_two_chunks()
    a = plan_placement_optimized(dm, topo, {0: 0, 1: 0, 2: 0}, chunks, origins)
    b = plan_placement_optimized(dm, topo, {0: 0, 1: 0, 2: 0}, chunks, origins)
    assert a[0].stored == b[0].stored == {}
    assert a[1] == b[1]


def _surrogate_from_scratch(topo, dm, origins, stored, ic_routes, dists):
    """The swap search's objective, recomputed the plain way: every demand
    pair's nearest of the replica holders and the origin by (InverseCap
    distance, pop id), its InverseCap route loads, then the MLU. Also
    returns how many pairs a pop-id tie-break between two replicas
    decided."""
    holders = {}
    for pop, chunk_set in stored.items():
        for chunk in chunk_set:
            holders.setdefault(chunk, set()).add(pop)
    loads = {}
    id_ties = 0
    for (chunk, client), nbytes in sorted(dm.demand.items()):
        if nbytes <= 0:
            continue
        origin, replicas = origins[chunk[0]], holders.get(chunk, set())
        server = min(replicas | {origin}, key=lambda j: (dists[(client, j)], j))
        if server not in (client, origin) and any(
                j != server and dists[(client, j)] == dists[(client, server)]
                for j in replicas):
            id_ties += 1
        if server != client:
            for link_id, frac in ic_routes[(server, client)].items():
                loads[link_id] = loads.get(link_id, 0.0) \
                    + nbytes * 8.0 / dm.window_seconds * frac
    return mlu(loads, topo), id_ties


def _equal_capacity_instances(rng, count):
    """Joint instances on 4-6 pop digraphs with equal capacities, so
    InverseCap distances are hop counts and tie often; each object has its
    own origin pop."""
    out = []
    while len(out) < count:
        topo = random_digraph(rng.randint(4, 6), rng, caps=(1000,))
        catalog = {f"c{k}": ContentObject(f"c{k}", 1)
                   for k in range(rng.randint(2, 4))}
        chunks = ChunkMap(catalog, None)
        origins = {cid: rng.choice(topo.pops) for cid in catalog}
        demand = {((cid, 0), pop): rng.randint(1, 9)
                  for cid in catalog for pop in topo.pops
                  if rng.random() < 0.6}
        if demand:
            budgets = {p: rng.randint(0, 2) for p in topo.pops}
            out.append((topo, catalog, chunks, origins,
                        DemandMatrix(0.0, 1.0, demand), budgets))
    return out


def test_swap_search_moves_match_from_scratch_surrogate():
    from test_acceptance import _tiny_instances
    rng = random.Random(4040)
    evaluated = pruned = id_ties = 0
    instances = _tiny_instances(rng, 200) + _equal_capacity_instances(rng, 40)
    for topo, _, chunks, origins, dm, budgets in instances:
        w = inverse_cap_weights(topo)
        ic, dists = shortest_path_routes(topo, w), all_pairs_distances(topo, w)
        stored = {}
        for pop in topo.pops:
            room = budgets[pop]
            for chunk in sorted(chunks.sizes):
                if origins[chunk[0]] != pop and chunks.sizes[chunk] <= room \
                        and rng.random() < 0.5:
                    stored.setdefault(pop, set()).add(chunk)
                    room -= chunks.sizes[chunk]
        x_vals = {(c, p): rng.random() for c in chunks.sizes for p in topo.pops}
        search = _SwapSearch(topo, dm, budgets, chunks, origins, stored,
                             x_vals)
        current, ties = _surrogate_from_scratch(topo, dm, origins, stored,
                                                ic, dists)
        id_ties += ties
        assert search.value == pytest.approx(current, rel=1e-12, abs=0)
        for pop in topo.pops:
            if budgets[pop] <= 0:
                continue
            for value, drop, add in search._moves(pop):
                moved = {p: set(s) for p, s in stored.items()}
                moved.setdefault(pop, set()).add(add)
                moved[pop].discard(drop)
                scratch, ties = _surrogate_from_scratch(topo, dm, origins,
                                                        moved, ic, dists)
                id_ties += ties
                if value == float("inf"):
                    pruned += 1
                    assert scratch >= search.value
                else:
                    evaluated += 1
                    assert value == pytest.approx(scratch, rel=1e-12, abs=0)
    assert evaluated > 0 and pruned > 0 and id_ties > 0


def test_swap_search_loads_match_induced_matrix_after_every_move():
    # the search sums its loads over InverseCap route rows, pair by pair;
    # after every move it applies they equal apply_routing of the induced
    # nearest-replica matrix of the placement so far (per commodity, so
    # to rounding), and its surrogate that matrix's MLU
    rng = random.Random(4141)
    instances = _equal_capacity_instances(rng, 30)
    while len(instances) < 60:
        topo = random_digraph(rng.randint(5, 8), rng)
        catalog = {f"c{k}": ContentObject(f"c{k}", rng.randint(1, 3))
                   for k in range(rng.randint(3, 6))}
        origins = {cid: rng.choice(topo.pops) for cid in catalog}
        demand = {((cid, 0), pop): rng.randint(1, 9)
                  for cid in catalog for pop in topo.pops
                  if rng.random() < 0.5}
        if demand:
            instances.append((topo, catalog, ChunkMap(catalog, None),
                              origins, DemandMatrix(0.0, 1.0, demand),
                              {p: rng.randint(0, 4) for p in topo.pops}))
    applied = 0
    for topo, _, chunks, origins, dm, budgets in instances:
        search = _SwapSearch(topo, dm, budgets, chunks, origins, {}, {})

        def check():
            tm = induced_traffic_matrix(dm, Placement(search.stored),
                                        origins, topo)
            loads = apply_routing(topo.ic_routes, tm)
            assert search.loads.tolist() == pytest.approx(
                [loads.get(l.id, 0.0) for l in topo.links], rel=1e-12, abs=0)
            assert search.value == pytest.approx(mlu(loads, topo),
                                                 rel=1e-12, abs=0)

        def apply(pop, drop, add, real=search._apply):
            nonlocal applied
            real(pop, drop, add)
            applied += 1
            check()

        check()
        search._apply = apply
        search.run()
    assert applied > 100


def _relabelled(topo, rng):
    """`topo` with its pops renumbered at random, so pop ids and their
    positions in `Topology.pops` differ."""
    ids = dict(zip(topo.pops, rng.sample(range(100), len(topo.pops))))
    return parse_topology("\n".join(
        [f"pop {ids[p]} N{p}" for p in topo.pops]
        + [f"arc {ids[l.src]} {ids[l.dst]} {l.capacity // 10**6}"
           for l in topo.links]
        + [f"origin {ids[topo.origin_pop]}"]))


def test_induced_matrix_matches_nearest_of_holders_and_origin():
    # equal capacities make InverseCap distances hop counts, so the
    # (distance, pop id) tie-break decides many pairs; the placement may
    # store chunks nobody demands and copies at their origin, and some
    # pairs demand zero bytes
    rng = random.Random(4242)
    id_ties = origin_wins = 0
    for _ in range(60):
        topo = _relabelled(random_digraph(rng.randint(3, 8), rng,
                                          caps=(1000,)), rng)
        dists = all_pairs_distances(topo, inverse_cap_weights(topo))
        pops = list(topo.pops)
        objects = [f"o{k}" for k in range(rng.randint(1, 5))]
        origins = {cid: rng.choice(pops) for cid in objects}
        chunks = [(cid, k) for cid in objects for k in range(rng.randint(1, 2))]
        demand = {(chunk, pop): rng.choice((0, 1, 7, 100))
                  for chunk in chunks for pop in pops if rng.random() < 0.6}
        stored = {pop: {c for c in chunks + [("unasked", 0)]
                        if rng.random() < 0.3} for pop in pops}
        dm = DemandMatrix(0.0, rng.choice((1.0, 300.0)), demand)

        holders = {}
        for pop, held in stored.items():
            for chunk in held:
                holders.setdefault(chunk, set()).add(pop)
        want = {}
        for (chunk, client), nbytes in sorted(demand.items()):
            if nbytes <= 0:
                continue
            origin = origins[chunk[0]]
            candidates = holders.get(chunk, set()) | {origin}
            server = min(candidates, key=lambda j: (dists[(client, j)], j))
            if any(j != server and dists[(client, j)] == dists[(client, server)]
                   for j in candidates):
                id_ties += 1
            if server == origin and len(candidates) > 1:
                origin_wins += 1
            if server != client:
                want[(server, client)] = want.get((server, client), 0.0) \
                    + nbytes * 8.0 / dm.window_seconds
        assert induced_traffic_matrix(dm, Placement(stored), origins,
                                      topo) == want
    assert id_ties > 50 and origin_wins > 50
