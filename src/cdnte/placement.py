"""Per-PoP content placement: online LRU caching and replay's pass of a
day's chunk accesses through the caches, once-a-day optimized placement
from a demand matrix, the future-knowledge variant, and the hybrid
budget split."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set, Tuple

import numpy as np

from . import lp as lp_mod
from .redirection import holder_table, placed_masks, redirect_closest
from .traffic import RoutingSolution, TrafficMatrix
from .workload import ChunkId, ChunkMap, DemandMatrix


class CacheState:
    """Byte-budgeted LRU cache for one PoP, keyed by any chunk key: a
    ChunkId, or in replay the chunk's index.

    Whole chunks only; a chunk larger than the budget bypasses the cache
    (miss, no insertion, no eviction).
    """

    def __init__(self, pop: int, budget: int):
        if budget < 0:
            raise ValueError("cache budget must be >= 0")
        self.pop = pop
        self.budget = budget
        self.resident: "OrderedDict[Hashable, int]" = OrderedDict()
        self.used = 0

    def __contains__(self, chunk: Hashable) -> bool:
        return chunk in self.resident

    def access(self, chunk: Hashable, size: int) -> Tuple[str, List[Hashable]]:
        """Returns ("hit", []) or ("miss", evicted chunk keys)."""
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


def replay_caches(caches: List[CacheState], clients: List[int],
                  chunks: List[int], sizes: List[int], planned: List[int],
                  cached: List[int]) -> Tuple[List[int], List[int]]:
    """Run chunk accesses through the PoP caches in order. Access k asks
    at pop position `clients[k]`, not the chunk's origin, for chunk index
    `chunks[k]` of size `sizes[chunk]`. A hit, when the client's cache
    holds the chunk, refreshes it. An access by a planned holder with no
    cached copy is local and changes nothing. Any other access misses,
    and `CacheState.access` admits the chunk to the client's cache
    whichever server then serves it, so a PoP's cache contents depend
    only on its own accesses.

    `planned[chunk]` and `cached[chunk]` are bitmasks over pop positions:
    the planned holders, and the PoPs whose cache holds the chunk, which
    this keeps up to date. Returns the positions of the misses and, for
    each, the mask of its holders (planned or cached) when it missed."""
    misses, masks = [], []
    for k, (client, chunk) in enumerate(zip(clients, chunks)):
        cache = caches[client]
        if chunk in cache.resident:
            cache.resident.move_to_end(chunk)
            continue
        bit = 1 << client
        if planned[chunk] & bit:
            continue
        misses.append(k)
        masks.append(planned[chunk] | cached[chunk])
        for gone in cache.access(chunk, sizes[chunk])[1]:
            cached[gone] &= ~bit
        if sizes[chunk] <= cache.budget:
            cached[chunk] |= bit
    return misses, masks


@dataclass
class Placement:
    """Integral per-PoP chunk placement for one epoch. The origin PoP of
    each chunk implicitly stores it (never materialized here, never
    counted against a budget)."""
    stored: Dict[int, Set[ChunkId]] = field(default_factory=dict)


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


class _DemandPairs:
    """The pairs of a demand matrix with positive bytes, in sorted (chunk,
    client) order: each pair's row of `chunk_ids` (`pair_chunk`), client
    position and rate in bit/s over the window (`pair_rates`, and by
    (chunk, pop) `rates`), and each chunk row's origin position."""

    def __init__(self, dm: DemandMatrix, topo, origins: Dict[str, int]):
        self.topo = topo
        at = topo.pop_at
        self.rates = dm.rates()
        self.chunk_ids: List[ChunkId] = []
        pair_chunk, clients = [], []
        for chunk, pop in self.rates:
            if not self.chunk_ids or self.chunk_ids[-1] != chunk:
                self.chunk_ids.append(chunk)
            pair_chunk.append(len(self.chunk_ids) - 1)
            clients.append(at[pop])
        self.pair_chunk = np.array(pair_chunk, dtype=np.int64)
        self.clients = np.array(clients, dtype=np.int64)
        self.pair_rates = list(self.rates.values())
        self.origin_at = np.array([at[origins[c[0]]]
                                   for c in self.chunk_ids], dtype=np.int64)
        self.row = {c: k for k, c in enumerate(self.chunk_ids)}

    def holders(self, stored: Dict[int, Set[ChunkId]]) -> np.ndarray:
        """The holders in `stored` (pop id -> chunks) as a bool matrix, a
        row per chunk row and a column per pop position."""
        ids, table = holder_table(
            placed_masks(stored, self.topo.pop_at, self.row),
            len(self.topo.pops))
        return table[ids]

    def closest(self, holds: np.ndarray, pairs=slice(None)) -> np.ndarray:
        """The server of each pair in `pairs` by `redirect_closest`, the
        chunk's holders its row of `holds` plus its origin."""
        with_origin = holds.copy()
        with_origin[np.arange(len(holds)), self.origin_at] = True
        rows = self.pair_chunk[pairs]
        return redirect_closest(self.clients[pairs], self.origin_at[rows],
                                rows, with_origin, self.topo.ic_order)


def induced_traffic_matrix(dm: DemandMatrix, placement: Placement,
                           origins: Dict[str, int], topo) -> TrafficMatrix:
    """Traffic matrix when each PoP's demand is served by the holder it
    ranks first, the origin counted as one (utilization-blind assignment
    by `redirect_closest`), rates averaged over the demand window and
    summed per (server, client) in sorted (chunk, client) order."""
    pairs = _DemandPairs(dm, topo, origins)
    servers = pairs.closest(pairs.holders(placement.stored))
    remote = servers != pairs.clients
    n, ids = len(topo.pops), topo.pops
    keys, inverse = np.unique(servers[remote] * n + pairs.clients[remote],
                              return_inverse=True)
    rates = np.zeros(len(keys))
    np.add.at(rates, inverse, np.array(pairs.pair_rates)[remote])
    return {(ids[k // n], ids[k % n]): rate
            for k, rate in zip(keys.tolist(), rates.tolist())}


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


class _SwapSearch(_DemandPairs):
    """Deterministic local improvement of a rounded placement.

    The relaxation's x values can prefer a fractionally-shared replica
    over a pop's own dominant demand; integrally that can double the
    realized MLU. This pass greedily applies swap/add moves per PoP while
    they lower a surrogate objective: the MLU of the induced traffic
    (`induced_traffic_matrix`'s servers) routed on InverseCap paths.

    The surrogate is kept in arrays, with pops indexed in ascending id
    order: per-chunk holder rows, which `closest` resolves with replay's
    `redirect_closest` and the origin counted as a holder, the rank
    matrix `Topology.ic_rank_matrix`, the rows of the InverseCap
    `Topology.ic_paths` and a float64 link-load vector, which
    `Routes.add_loads` sums. A move re-serves only the demand pairs whose
    server changes, in a fixed order: the dropped chunk before the added
    one, clients ascending, the old route taken off before the new one is
    put on. Each link's load thus sees the same float operations as in a
    per-link evaluation of the move, and the search's choices do not
    depend on the array form. A move is evaluated in full only if it
    lowers the load on every link at the current maximum (each kept with
    its [server][client] column of route fractions); otherwise its
    surrogate cannot fall below the current one.
    """

    def __init__(self, topo, dm, budgets, chunks, origins, stored, x_vals):
        super().__init__(dm, topo, origins)
        self.budgets = budgets
        self.chunks = chunks
        self.origins = origins
        self.x_vals = x_vals
        self.n = len(topo.pops)
        self.rank = topo.ic_rank_matrix
        self.routes = topo.ic_paths
        self.caps = self.routes.capacities
        self.stored = {p: set(s) for p, s in stored.items()}
        self.holds = self.holders(self.stored)
        self._rebuild()

    def _rebuild(self) -> None:
        """Servers, loads and surrogate from scratch, pairs in sorted
        (chunk, client) order."""
        self.servers = self.closest(self.holds)
        loads = self.routes.add_loads(np.zeros(len(self.caps)),
                                      self.servers * self.n + self.clients,
                                      np.array(self.pair_rates))
        self.loads = loads
        util = loads / self.caps
        self.value = max(0.0, float(util.max()))
        # the links at the maximum, with their loads and route columns
        self.top = [(m, float(loads[m]), self._column(m))
                    for m in np.flatnonzero(util == self.value).tolist()]

    def _column(self, m: int) -> List[List[float]]:
        """Every route's fraction on link position `m`, [server][client]."""
        on = np.flatnonzero(self.routes.link == m)
        col = np.zeros(self.n * self.n)
        col[np.searchsorted(self.routes.at, on, side="right") - 1] = \
            self.routes.frac[on]
        return col.reshape(self.n, self.n).tolist()

    def _gains(self, p: int) -> Dict[int, List[Tuple[float, int, int, int]]]:
        """Per chunk row, the pairs that would move to pop index `p` if it
        stored the chunk: (rate, old server, new server, client)."""
        s, c = self.servers, self.clients
        moves = self.rank[c, p] < self.rank[c, s]
        out: Dict[int, List[Tuple[float, int, int, int]]] = {}
        for q in np.flatnonzero(moves).tolist():
            out.setdefault(int(self.pair_chunk[q]), []).append(
                (self.pair_rates[q], int(s[q]), p, int(c[q])))
        return out

    def _losses(self, chunk: ChunkId, p: int) -> List[Tuple[float, int, int, int]]:
        """The pairs served from pop index `p` that move elsewhere if it
        drops `chunk`: (rate, old server, new server, client)."""
        k = self.row.get(chunk)
        if k is None:
            return []
        served = np.flatnonzero((self.pair_chunk == k) & (self.servers == p))
        holds = self.holds.copy()
        holds[k, p] = False
        return [(self.pair_rates[q], p, new, int(self.clients[q]))
                for q, new in zip(served.tolist(),
                                  self.closest(holds, served).tolist())]

    def _moved(self, loads: np.ndarray, changes) -> np.ndarray:
        n = self.n
        commodities = [k for _, old, new, c in changes
                       for k in (old * n + c, new * n + c)]
        rates = [r for rate, _, _, _ in changes for r in (-rate, rate)]
        return self.routes.add_loads(
            loads.copy(), np.array(commodities, dtype=np.int64),
            np.array(rates, dtype=np.float64))

    def _try(self, base: np.ndarray, changes) -> float:
        """Surrogate after applying `changes` to `base` (the current loads,
        or the loads after a drop); inf when a link at the current maximum
        does not get lighter, since the surrogate then cannot fall."""
        for m, current, col in self.top:
            v = float(base[m])
            for rate, old, new, c in changes:
                v = v - rate * col[old][c]
                v = v + rate * col[new][c]
            if v >= current:
                return math.inf
        return max(0.0, float((self._moved(base, changes) / self.caps).max()))

    def _apply(self, pop, drop, add) -> None:
        if drop is not None:
            self.stored[pop].discard(drop)
            if drop in self.row:
                self.holds[self.row[drop], self.topo.pop_at[pop]] = False
        if add is not None:
            self.stored.setdefault(pop, set()).add(add)
            self.holds[self.row[add], self.topo.pop_at[pop]] = True
        self._rebuild()

    def _moves(self, pop: int):
        """Every move the budget allows at `pop`, in search order, as
        (surrogate, drop, add); the surrogate is inf for a pruned move."""
        p = self.topo.pop_at[pop]
        admitted = sorted(self.stored.get(pop, ()))
        used = sum(self.chunks.sizes[c] for c in admitted)
        room = self.budgets[pop] - used
        candidates = sorted(
            (c for c in self.chunk_ids
             if c not in self.stored.get(pop, ())
             and self.origins[c[0]] != pop),
            key=lambda c: (-self.x_vals.get((c, pop), 0.0),
                           -self.rates.get((c, pop), 0.0), c))
        gains = self._gains(p)
        after_drop = {d: self._moved(self.loads, self._losses(d, p))
                      for d in admitted}
        for add in candidates:
            size = self.chunks.sizes[add]
            changes = gains.get(self.row[add], [])
            if size <= room:
                yield self._try(self.loads, changes), None, add
            for drop in admitted:
                if size <= room + self.chunks.sizes[drop]:
                    yield self._try(after_drop[drop], changes), drop, add

    def run(self, max_rounds: int = 5) -> Dict[int, Set[ChunkId]]:
        pops = sorted(p for p in self.topo.pops if self.budgets.get(p, 0) > 0)
        for _ in range(max_rounds):
            improved = False
            for pop in pops:
                best = (self.value, None, None)
                for val, drop, add in self._moves(pop):
                    if val < best[0] - 1e-15:
                        best = (val, drop, add)
                if best[2] is not None:
                    self._apply(pop, best[1], best[2])
                    improved = True
            if not improved:
                break
        return {p: s for p, s in self.stored.items() if s}


def plan_placement(dm: DemandMatrix, topo, budgets: Dict[int, int],
                   chunks: ChunkMap, origins: Dict[str, int]) -> Placement:
    """Once-a-day placement from a demand matrix: solve the joint
    relaxation, round greedily, then improve with local swaps."""
    if not any(b > 0 for b in budgets.values()) or not dm.demand:
        return Placement()
    lp = lp_mod.build_joint_lp(topo, dm, budgets, chunks, origins)
    sol = lp_mod.solve_lp_auto(lp)
    if sol.status != "optimal":
        raise lp_mod.SimplexError(f"joint program ended {sol.status}")
    placement = _round_placement(lp, sol, dm, budgets, chunks)
    x_vals = {key: float(sol.array[idx]) for key, idx in lp.meta["x"].items()}
    search = _SwapSearch(topo, dm, budgets, chunks, origins,
                         placement.stored, x_vals)
    return Placement(search.run())


def plan_placement_optimized(dm: DemandMatrix, topo, budgets: Dict[int, int],
                             chunks: ChunkMap, origins: Dict[str, int]
                             ) -> Tuple[Placement, RoutingSolution]:
    """`plan_placement`, then min-MLU routing on the placement's
    `induced_traffic_matrix`. The `future` placement is this planner
    fed the upcoming day's demand instead of the prior day's."""
    placement = plan_placement(dm, topo, budgets, chunks, origins)
    tm = induced_traffic_matrix(dm, placement, origins, topo)
    return placement, lp_mod.solve_min_mlu_routing(topo, tm)
