"""Per-PoP content placement: online LRU caching, once-a-day optimized
placement from a demand matrix, the future-knowledge variant, and the
hybrid budget split."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import lp as lp_mod
from . import topology as topo_mod
from .traffic import RoutingSolution, TrafficMatrix
from .workload import ChunkId, ChunkMap, DemandMatrix


class CacheState:
    """Byte-budgeted LRU cache for one PoP.

    Whole chunks only; a chunk larger than the budget bypasses the cache
    (miss, no insertion, no eviction).
    """

    def __init__(self, pop: int, budget: int):
        if budget < 0:
            raise ValueError("cache budget must be >= 0")
        self.pop = pop
        self.budget = budget
        self.resident: "OrderedDict[ChunkId, int]" = OrderedDict()
        self.used = 0

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self.resident

    def access(self, chunk: ChunkId, size: int) -> Tuple[str, List[ChunkId]]:
        """Returns ("hit", []) or ("miss", evicted chunk ids)."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        if chunk in self.resident:
            self.resident.move_to_end(chunk)
            return "hit", []
        if size > self.budget:
            return "miss", []
        evicted = []
        while self.used + size > self.budget:
            old, old_size = self.resident.popitem(last=False)
            self.used -= old_size
            evicted.append(old)
        self.resident[chunk] = size
        self.used += size
        return "miss", evicted


@dataclass
class Placement:
    """Integral per-PoP chunk placement for one epoch. The origin PoP of
    each chunk implicitly stores it (never materialized here, never
    counted against a budget)."""
    stored: Dict[int, Set[ChunkId]] = field(default_factory=dict)

    def holds(self, pop: int, chunk: ChunkId) -> bool:
        return chunk in self.stored.get(pop, ())


def split_hybrid(budgets: Dict[int, int], reserve: float) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Split each PoP budget into (planned store, LRU cache) parts; the
    cache gets round(reserve * budget) bytes."""
    if not 0.0 <= reserve <= 1.0:
        raise ValueError("reserve must be in [0, 1]")
    planned, cache = {}, {}
    for pop, budget in budgets.items():
        c = int(budget * reserve + 0.5)
        cache[pop] = c
        planned[pop] = budget - c
    return planned, cache


def nearest_replica(chunk: ChunkId, client: int, holders: Set[int],
                    origin: int, dists: Dict[Tuple[int, int], float]) -> int:
    """The planner's rule: the closest of the replica holders and the
    origin by InverseCap distance, ties broken by lowest pop id.

    This differs from `redirection.redirect_closest`, which replay uses:
    it serves from the origin only when no replica exists, so a remote
    replica wins there even when the origin is closer."""
    if client in holders or client == origin:
        return client
    candidates = set(holders) | {origin}
    return min(candidates, key=lambda j: (dists[(client, j)], j))


def induced_traffic_matrix(dm: DemandMatrix, placement: Placement,
                           origins: Dict[str, int],
                           dists: Dict[Tuple[int, int], float]) -> TrafficMatrix:
    """Traffic matrix when each PoP's demand is served by its nearest
    replica (utilization-blind assignment), rates averaged over the
    demand window."""
    window = dm.window_seconds
    holders_by_chunk: Dict[ChunkId, Set[int]] = {}
    for pop, stored in placement.stored.items():
        for chunk in stored:
            holders_by_chunk.setdefault(chunk, set()).add(pop)
    tm: TrafficMatrix = {}
    for (chunk, pop) in sorted(dm.demand):
        nbytes = dm.demand[(chunk, pop)]
        if nbytes <= 0:
            continue
        origin = origins[chunk[0]]
        server = nearest_replica(chunk, pop, holders_by_chunk.get(chunk, set()),
                                 origin, dists)
        if server == pop:
            continue
        key = (server, pop)
        tm[key] = tm.get(key, 0.0) + nbytes * 8.0 / window
    return tm


def _round_placement(lp: lp_mod.LinearProgram, sol, dm: DemandMatrix,
                     budgets: Dict[int, int], chunks: ChunkMap) -> Placement:
    """Greedy rounding of the relaxed placement: per PoP, admit chunks in
    decreasing x (ties: higher local demand, then lower chunk id) while
    they fit the budget. Never overflows a budget."""
    x = lp.meta["x"]
    by_pop: Dict[int, List[Tuple[float, int, ChunkId]]] = {}
    for (chunk, j), idx in x.items():
        val = float(sol.array[idx])
        if val > 1e-9:
            local = dm.demand.get((chunk, j), 0)
            by_pop.setdefault(j, []).append((val, local, chunk))
    stored: Dict[int, Set[ChunkId]] = {}
    for j, entries in by_pop.items():
        entries.sort(key=lambda e: (-e[0], -e[1], e[2]))
        room = budgets[j]
        chosen = set()
        for _, _, chunk in entries:
            size = chunks.sizes[chunk]
            if size <= room:
                chosen.add(chunk)
                room -= size
        if chosen:
            stored[j] = chosen
    return Placement(stored)


class _SwapSearch:
    """Deterministic local improvement of a rounded placement.

    The relaxation's x values can prefer a fractionally-shared replica
    over a pop's own dominant demand; integrally that can double the
    realized MLU. This pass greedily applies swap/add moves per PoP while
    they lower a surrogate objective: the MLU of the induced
    nearest-replica traffic routed on InverseCap paths. Move evaluation
    is incremental (only the two affected chunks' demands are re-served),
    so the full move set stays cheap at every instance size.
    """

    def __init__(self, topo, dm, budgets, chunks, origins, stored,
                 x_vals, ic_routes, dists):
        self.topo = topo
        self.budgets = budgets
        self.chunks = chunks
        self.origins = origins
        self.ic_routes = ic_routes
        self.dists = dists
        self.caps = {l.id: l.capacity for l in topo.links}
        window = dm.window_seconds
        self.rates: Dict[Tuple[ChunkId, int], float] = {}
        self.by_chunk: Dict[ChunkId, List[int]] = {}
        for (chunk, pop), nbytes in sorted(dm.demand.items()):
            if nbytes > 0:
                self.rates[(chunk, pop)] = nbytes * 8.0 / window
                self.by_chunk.setdefault(chunk, []).append(pop)
        self.x_vals = x_vals
        self.stored = {p: set(s) for p, s in stored.items()}
        self.holders: Dict[ChunkId, Set[int]] = {}
        for pop, chunk_set in self.stored.items():
            for chunk in chunk_set:
                self.holders.setdefault(chunk, set()).add(pop)
        self._rebuild()

    def _rebuild(self) -> None:
        self.servers: Dict[Tuple[ChunkId, int], int] = {}
        self.loads: Dict[int, float] = {}
        for (chunk, client), rate in self.rates.items():
            server = nearest_replica(chunk, client,
                                     self.holders.get(chunk, set()),
                                     self.origins[chunk[0]], self.dists)
            self.servers[(chunk, client)] = server
            if server != client:
                for link_id, frac in self.ic_routes[(server, client)].items():
                    self.loads[link_id] = self.loads.get(link_id, 0.0) \
                        + rate * frac
        self.value = self._mlu(self.loads)

    def _mlu(self, loads) -> float:
        worst = 0.0
        for link_id, cap in self.caps.items():
            util = loads.get(link_id, 0.0) / cap
            if util > worst:
                worst = util
        return worst

    def _try_move(self, pop, drop: Optional[ChunkId], add: Optional[ChunkId]) -> float:
        """Surrogate value if `drop` is removed from / `add` is placed at
        `pop`; only the two chunks' demand pairs are re-evaluated."""
        loads = dict(self.loads)
        for chunk, gains_pop in ((drop, False), (add, True)):
            if chunk is None:
                continue
            holders = set(self.holders.get(chunk, set()))
            if gains_pop:
                holders.add(pop)
            else:
                holders.discard(pop)
            origin = self.origins[chunk[0]]
            for client in self.by_chunk.get(chunk, ()):
                rate = self.rates[(chunk, client)]
                old = self.servers[(chunk, client)]
                new = nearest_replica(chunk, client, holders, origin,
                                      self.dists)
                if old == new:
                    continue
                if old != client:
                    for link_id, frac in self.ic_routes[(old, client)].items():
                        loads[link_id] = loads.get(link_id, 0.0) - rate * frac
                if new != client:
                    for link_id, frac in self.ic_routes[(new, client)].items():
                        loads[link_id] = loads.get(link_id, 0.0) + rate * frac
        return self._mlu(loads)

    def _apply(self, pop, drop, add) -> None:
        if drop is not None:
            self.stored[pop].discard(drop)
            self.holders[drop].discard(pop)
        if add is not None:
            self.stored.setdefault(pop, set()).add(add)
            self.holders.setdefault(add, set()).add(pop)
        self._rebuild()

    def run(self, max_rounds: int = 5) -> Dict[int, Set[ChunkId]]:
        pops = sorted(p for p in self.topo.pops if self.budgets.get(p, 0) > 0)
        for _ in range(max_rounds):
            improved = False
            for pop in pops:
                admitted = sorted(self.stored.get(pop, ()))
                used = sum(self.chunks.sizes[c] for c in admitted)
                room = self.budgets[pop] - used
                candidates = sorted(
                    (c for c in self.by_chunk
                     if c not in self.stored.get(pop, ())
                     and self.origins[c[0]] != pop),
                    key=lambda c: (-self.x_vals.get((c, pop), 0.0),
                                   -self.rates.get((c, pop), 0.0), c))
                best = (self.value, None, None)
                for add in candidates:
                    size = self.chunks.sizes[add]
                    if size <= room:
                        val = self._try_move(pop, None, add)
                        if val < best[0] - 1e-15:
                            best = (val, None, add)
                    for drop in admitted:
                        if size <= room + self.chunks.sizes[drop]:
                            val = self._try_move(pop, drop, add)
                            if val < best[0] - 1e-15:
                                best = (val, drop, add)
                if best[2] is not None:
                    self._apply(pop, best[1], best[2])
                    improved = True
            if not improved:
                break
        return {p: s for p, s in self.stored.items() if s}


def plan_placement_optimized(dm: DemandMatrix, topo, budgets: Dict[int, int],
                             chunks: ChunkMap, origins: Dict[str, int],
                             ic_routes: Optional[RoutingSolution] = None,
                             dists: Optional[Dict] = None,
                             ) -> Tuple[Placement, RoutingSolution]:
    """Once-a-day placement from a demand matrix: solve the joint
    relaxation, round greedily, improve with local swaps, then re-solve
    min-MLU routing on the traffic matrix induced by nearest-replica
    assignment. The `future` placement is this planner fed the upcoming
    day's demand instead of the prior day's."""
    if dists is None:
        dists = topo_mod.all_pairs_distances(
            topo, topo_mod.inverse_cap_weights(topo))
    if ic_routes is None:
        ic_routes = topo_mod.shortest_path_routes(
            topo, topo_mod.inverse_cap_weights(topo))
    effective = {p: b for p, b in budgets.items() if b > 0}
    if not effective or not dm.demand:
        placement = Placement()
    else:
        lp = lp_mod.build_joint_lp(topo, dm, budgets, chunks, origins)
        sol = lp_mod.solve_lp_auto(lp)
        if sol.status != "optimal":
            raise lp_mod.SimplexError(f"joint program ended {sol.status}")
        placement = _round_placement(lp, sol, dm, budgets, chunks)
        x_vals = {key: float(sol.array[idx])
                  for key, idx in lp.meta["x"].items()}
        search = _SwapSearch(topo, dm, budgets, chunks, origins,
                             placement.stored, x_vals, ic_routes, dists)
        placement = Placement(search.run())
    tm = induced_traffic_matrix(dm, placement, origins, dists)
    routing = lp_mod.solve_min_mlu_routing(topo, tm, ic_routes=ic_routes)
    return placement, routing

