"""ISP backbone model: PoPs, directed capacitated links, shortest paths.

The topology file format is line oriented, UTF-8, `#` starts a comment:

    pop <int-id> <name>
    link <src-id> <dst-id> <capacity-mbps>     # creates both directions
    arc <src-id> <dst-id> <capacity-mbps>      # one direction only
    origin <pop-id>                            # exactly one

Capacities are stored in bits/sec (mbps * 10^6), converted with exact
integer arithmetic at parse time.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .traffic import (Routes, RoutingSolution, exact_millions, path_table,
                      split_by_source)

WeightMap = Dict[int, float]


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Link:
    id: int
    src: int
    dst: int
    capacity: int  # bits/sec


class Topology:
    """Immutable directed capacitated graph of PoPs.

    The InverseCap facts every layer reads are derived once, on first
    use: the link weights (`ic_weights`), the ECMP routes on them
    (`ic_routes`, and as `traffic.Routes` `ic_paths`) and each client's
    order of the pops (`ic_order`, and its inverse `ic_rank_matrix`).
    Callers must not mutate them."""

    def __init__(self, pops: List[int], names: Dict[int, str],
                 links: List[Link], origin_pop: int):
        self.pops = tuple(sorted(pops))
        self.names = dict(names)
        self.links = tuple(links)
        self.origin_pop = origin_pop
        self.link_by_id = {l.id: l for l in self.links}
        # positions in `pops` and `links`, which index every array
        self.pop_at = {p: i for i, p in enumerate(self.pops)}
        self.link_at = {l.id: i for i, l in enumerate(self.links)}
        self._validate()
        out: Dict[int, List[Link]] = {p: [] for p in self.pops}
        inc: Dict[int, List[Link]] = {p: [] for p in self.pops}
        for l in self.links:
            out[l.src].append(l)
            inc[l.dst].append(l)
        self.out_links = {p: tuple(out[p]) for p in self.pops}
        self.in_links = {p: tuple(inc[p]) for p in self.pops}
        if len(self.pops) > 1 and not self._strongly_connected():
            raise TopologyError("topology is not strongly connected")

    @functools.cached_property
    def ic_weights(self) -> WeightMap:
        return inverse_cap_weights(self)

    @functools.cached_property
    def ic_routes(self) -> RoutingSolution:
        return shortest_path_routes(self, self.ic_weights)

    @functools.cached_property
    def ic_paths(self) -> Routes:
        return path_table(self, self.ic_routes)

    @functools.cached_property
    def ic_order(self) -> np.ndarray:
        """The one tie-break between servers: row c lists the pop
        positions in the order client c ranks them, by (InverseCap
        distance c->pop, pop id), so the client itself comes first."""
        dists = all_pairs_distances(self, self.ic_weights)
        return np.array([[self.pop_at[p] for p in sorted(
                              self.pops, key=lambda p: (dists[(c, p)], p))]
                         for c in self.pops], dtype=np.int64)

    @functools.cached_property
    def ic_rank_matrix(self) -> np.ndarray:
        """`ic_order` inverted: [c, p] is the rank client c gives pop p,
        all by position."""
        return np.argsort(self.ic_order, axis=1)

    def _validate(self) -> None:
        if not self.pops:
            raise TopologyError("topology has no pops")
        seen_pairs = set()
        for l in self.links:
            if l.capacity <= 0:
                raise TopologyError(f"link {l.id}: capacity must be positive")
            if l.src == l.dst:
                raise TopologyError(f"link {l.id}: self-loop at pop {l.src}")
            if l.src not in self.pop_at or l.dst not in self.pop_at:
                raise TopologyError(f"link {l.id}: unknown pop")
            if (l.src, l.dst) in seen_pairs:
                raise TopologyError(
                    f"duplicate directed link {l.src}->{l.dst}")
            seen_pairs.add((l.src, l.dst))
        if self.origin_pop not in self.names:
            raise TopologyError(f"origin pop {self.origin_pop} not declared")

    def _strongly_connected(self) -> bool:
        def reaches_all(adjacency):
            start = self.pops[0]
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return len(seen) == len(self.pops)

        fwd = {p: [l.dst for l in self.out_links[p]] for p in self.pops}
        bwd = {p: [l.src for l in self.in_links[p]] for p in self.pops}
        return reaches_all(fwd) and reaches_all(bwd)


def _capacity_bits(field: str, lineno: int) -> int:
    try:
        bits = exact_millions(field, "bit/sec")
    except ValueError as exc:
        raise TopologyError(f"line {lineno}: capacity {exc}") from None
    if bits <= 0:
        raise TopologyError(f"line {lineno}: capacity must be positive")
    return bits


def parse_topology(text: str) -> Topology:
    """Parse the topology file format; raises TopologyError naming the
    offending line on malformed input."""
    names: Dict[int, str] = {}
    links: List[Link] = []
    origin = None
    next_id = 0
    pairs = set()

    def add_link(src: int, dst: int, cap: int, lineno: int) -> None:
        nonlocal next_id
        if (src, dst) in pairs:
            raise TopologyError(f"line {lineno}: duplicate link {src}->{dst}")
        pairs.add((src, dst))
        links.append(Link(next_id, src, dst, cap))
        next_id += 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "pop":
                if len(fields) < 3:
                    raise TopologyError(f"line {lineno}: pop needs id and name")
                pid = int(fields[1])
                if pid in names:
                    raise TopologyError(f"line {lineno}: duplicate pop {pid}")
                names[pid] = " ".join(fields[2:])
            elif kind in ("link", "arc"):
                if len(fields) != 4:
                    raise TopologyError(
                        f"line {lineno}: {kind} needs src dst capacity")
                src, dst = int(fields[1]), int(fields[2])
                if src == dst:
                    raise TopologyError(f"line {lineno}: self-loop at {src}")
                cap = _capacity_bits(fields[3], lineno)
                add_link(src, dst, cap, lineno)
                if kind == "link":
                    add_link(dst, src, cap, lineno)
            elif kind == "origin":
                if len(fields) != 2:
                    raise TopologyError(f"line {lineno}: origin needs a pop id")
                if origin is not None:
                    raise TopologyError(f"line {lineno}: origin declared twice")
                origin = int(fields[1])
            else:
                raise TopologyError(f"line {lineno}: unknown directive {kind!r}")
        except TopologyError:
            raise
        except ValueError:
            raise TopologyError(f"line {lineno}: malformed integer field") from None

    if origin is None:
        raise TopologyError("no origin directive")
    return Topology(list(names), names, links, origin)


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def inverse_cap_weights(topo: Topology) -> WeightMap:
    """InverseCap link weights: C_max / capacity, so the fastest link has
    weight 1. Any positive rescaling gives the same shortest paths."""
    cmax = max(l.capacity for l in topo.links)
    return {l.id: cmax / l.capacity for l in topo.links}


# Relative slack when deciding two path weights are equal (ECMP ties).
_TIE_REL = 1e-12


def _dijkstra_to(topo: Topology, w: WeightMap, dst: int) -> Dict[int, float]:
    """Distance from every pop TO dst (runs on the reversed graph)."""
    dist = {p: float("inf") for p in topo.pops}
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for l in topo.in_links[u]:
            nd = d + w[l.id]
            if nd < dist[l.src]:
                dist[l.src] = nd
                heapq.heappush(heap, (nd, l.src))
    return dist


def all_pairs_distances(topo: Topology, w: WeightMap) -> Dict[Tuple[int, int], float]:
    dists = {}
    for t in topo.pops:
        to_t = _dijkstra_to(topo, w, t)
        for s in topo.pops:
            dists[(s, t)] = 0.0 if s == t else to_t[s]
    return dists


def shortest_path_routes(topo: Topology, w: WeightMap) -> RoutingSolution:
    """ECMP routing over all minimum-weight paths, for every ordered pair.

    At each node the commodity's mass splits evenly across all outgoing
    links that lie on some minimum-weight path to the destination.
    Weights so far apart that the lightest link is within the tie
    tolerance of a path length are rejected, naming the lightest and the
    heaviest link: paths with and without that link would tie.
    """
    for link_id, weight in w.items():
        if not (weight > 0) or weight == float("inf"):
            raise TopologyError(f"weight for link {link_id} must be positive "
                                "and finite")
    light = min(w, key=w.__getitem__, default=None)
    heavy = max(w, key=w.__getitem__, default=None)
    routes: RoutingSolution = {}
    for t in topo.pops:
        dist = _dijkstra_to(topo, w, t)
        if light is not None and \
                w[light] <= 2 * _TIE_REL * (1.0 + max(dist.values())):
            raise TopologyError(
                f"links {light} and {heavy} weigh {w[light]:g} and "
                f"{w[heavy]:g}: too far apart for float path lengths to "
                f"tell a path through link {light} from one without it")
        # weight 1 on each link of some shortest path to t that lies more
        # than half its weight downhill, so that a link and its reverse
        # never both tie
        on_dag = []
        for l in topo.links:
            target = w[l.id] + dist[l.dst]
            on_dag.append(1.0 if abs(dist[l.src] - target)
                          <= _TIE_REL * (1.0 + abs(target))
                          and dist[l.src] - dist[l.dst] > w[l.id] / 2 else 0.0)
        routes.update(split_by_source(
            topo, t, on_dag, [p for p in topo.pops if p != t],
            key=lambda p: (-dist[p], p)))
    return routes
