"""Traffic matrices, routing solutions and link loads.

Value conventions used throughout the package:

* a traffic matrix maps an ordered PoP pair ``(src, dst)`` to a rate in
  bits/sec; diagonal entries are forbidden (local traffic never touches
  the backbone),
* a routing solution maps each commodity ``(src, dst)`` to per-link flow
  fractions (fraction of the commodity's rate carried by that link),
* link loads map a link id to bits/sec.

The dicts are the reference; `Routes` is a routing as arrays by
position, with the one link-load sum that replay and the planner use.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Commodity = Tuple[int, int]
TrafficMatrix = Dict[Commodity, float]
RoutingSolution = Dict[Commodity, Dict[int, float]]
LinkLoads = Dict[int, float]

CONSERVATION_TOL = 1e-7


def validate_traffic_matrix(tm: TrafficMatrix) -> None:
    for (src, dst), rate in tm.items():
        if src == dst:
            raise ValueError(f"traffic matrix has diagonal entry for pop {src}")
        if rate < 0:
            raise ValueError(f"negative rate {rate} for commodity {src}->{dst}")


def apply_routing(routing: RoutingSolution, tm: TrafficMatrix) -> LinkLoads:
    """Per-link loads induced by routing a traffic matrix.

    load(l) = sum over commodities of rate(k) * frac(k, l). Commodities are
    accumulated in sorted order so repeated runs produce bit-identical floats.
    Raises KeyError if a positive-rate commodity is missing from the routing.
    """
    loads: LinkLoads = {}
    for commodity in sorted(tm):
        rate = tm[commodity]
        if rate == 0:
            continue
        if commodity not in routing:
            raise KeyError(f"routing has no entry for commodity {commodity}")
        for link_id, frac in routing[commodity].items():
            loads[link_id] = loads.get(link_id, 0.0) + rate * frac
    return loads


def mlu(loads: LinkLoads, topo) -> float:
    """Maximum link utilization: max over links of load/capacity.

    Overload (> 1) is reported as-is, never clamped. An empty network or
    all-zero loads give 0.
    """
    worst = 0.0
    for link in topo.links:
        util = loads.get(link.id, 0.0) / link.capacity
        if util > worst:
            worst = util
    return worst


def check_flow_conservation(routing: RoutingSolution, topo,
                            tol: float = CONSERVATION_TOL) -> None:
    """Assert per-commodity conservation: net out-fraction 1 at the source,
    1 into the sink, 0 elsewhere; fractions within [0, 1] up to tol.
    Raises ValueError on violation."""
    for (src, dst), fracs in routing.items():
        net = {pop: 0.0 for pop in topo.pops}
        for link_id, frac in fracs.items():
            if frac < -tol:
                raise ValueError(f"negative fraction {frac} on link {link_id} "
                                 f"for commodity {(src, dst)}")
            if frac > 1.0 + tol:
                raise ValueError(f"fraction {frac} > 1 on link {link_id} "
                                 f"for commodity {(src, dst)}")
            link = topo.link_by_id[link_id]
            net[link.src] += frac
            net[link.dst] -= frac
        for pop, value in net.items():
            want = 1.0 if pop == src else (-1.0 if pop == dst else 0.0)
            if abs(value - want) > tol:
                raise ValueError(
                    f"conservation violated for {(src, dst)} at pop {pop}: "
                    f"net {value}, expected {want}")


def flat_ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges first[i] .. first[i] + counts[i] - 1, one after another."""
    return np.repeat(first - np.cumsum(counts) + counts, counts) \
        + np.arange(int(counts.sum()))


def exact_total(nbytes: np.ndarray) -> int:
    """The exact sum of `nbytes` (non-negative int64) as a Python int: the
    int64 sum while the float estimate is below 2^62, so it cannot wrap,
    else the sum of Python ints."""
    if nbytes.sum(dtype=np.float64) < 2.0 ** 62:
        return int(nbytes.sum())
    return sum(nbytes.tolist())


def byte_sums(groups: np.ndarray, nbytes: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct `groups` in sorted order, and the integer sum of
    `nbytes` (positive) in each. Raises ValueError when their total is
    beyond int64, where a sum would wrap."""
    if exact_total(nbytes) >= 2 ** 63:
        raise ValueError("byte sums exceed the int64 range")
    keys, inverse = np.unique(groups, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse, nbytes)
    return keys, sums


@dataclass(eq=False)
class Routes:
    """A routing by pop position, as flat rows. The route server->client
    is commodity k = server * pop count + client; its rows are
    at[k] .. at[k + 1] - 1, each a link (its position in `topo.links`)
    and the flow fraction on it; `capacities` is by link position."""
    at: np.ndarray
    link: np.ndarray
    frac: np.ndarray
    capacities: np.ndarray

    def add_loads(self, out: np.ndarray, commodities: np.ndarray,
                  rates: np.ndarray,
                  groups: Optional[np.ndarray] = None) -> np.ndarray:
        """Add rates[i] routed on commodity commodities[i] to the loads
        `out` by link position (with `groups`, to row groups[i] of a 2-d
        `out`) and return it. Each link's terms are added in the order of
        `commodities`, a route's in the routing's order: for commodities
        in sorted order, the floats of `apply_routing`."""
        first = self.at[commodities]
        n_rows = self.at[commodities + 1] - first
        term = np.repeat(np.arange(len(commodities)), n_rows)
        at = flat_ranges(first, n_rows)
        link = self.link[at]
        np.add.at(out, link if groups is None else (groups[term], link),
                  rates[term] * self.frac[at])
        return out

    @functools.cached_property
    def by_client(self) -> List[List[List[Tuple[int, float, float]]]]:
        """The same rows as (link, fraction, capacity) tuples, indexed
        [client][server], for the utilization-aware rule's loop."""
        n = math.isqrt(len(self.at) - 1)
        at = self.at.tolist()
        rows = list(zip(self.link.tolist(), self.frac.tolist(),
                        self.capacities[self.link].tolist()))
        return [[rows[at[s * n + c]:at[s * n + c + 1]] for s in range(n)]
                for c in range(n)]


def path_table(topo, routing: RoutingSolution) -> Routes:
    """`routing` as `Routes`, each route's rows in the routing's order."""
    n, at = len(topo.pops), topo.pop_at
    rows: List[list] = [[] for _ in range(n * n)]
    for (server, client), fracs in routing.items():
        rows[at[server] * n + at[client]] = [
            (topo.link_at[link_id], frac) for link_id, frac in fracs.items()]
    flat = [row for r in rows for row in r]
    return Routes(np.cumsum([0] + [len(r) for r in rows]),
                  np.array([pos for pos, _ in flat], dtype=np.int64),
                  np.array([frac for _, frac in flat], dtype=np.float64),
                  np.array([l.capacity for l in topo.links], dtype=np.float64))


def link_loads(topo, routes: Routes, tm: TrafficMatrix) -> np.ndarray:
    """`apply_routing` by link position, on `routes`, to the same floats."""
    n, at = len(topo.pops), topo.pop_at
    keys = sorted(tm)
    return routes.add_loads(
        np.zeros(len(topo.links)),
        np.array([at[s] * n + at[t] for s, t in keys], dtype=np.int64),
        np.array([tm[k] for k in keys], dtype=np.float64))


def split_by_source(topo, sink: int, weights, sources: List[int],
                    key: Callable[[int], Any]) -> RoutingSolution:
    """Destination-based routing toward `sink`: the flow fractions of each
    (source, sink) commodity. `weights` is indexed by link position, and
    a link carries flow iff its weight is positive. Each source's unit is
    pushed through the pops in topological order (Kahn's algorithm,
    taking the ready pop with the least `key(pop id)` first) and split at
    each pop in proportion to its out-link weights, so ECMP is the case
    where every used link weighs 1. A cycle, or a source whose unit
    cannot reach the sink, raises ValueError."""
    n, at = len(topo.pops), topo.pop_at
    ends = [(at[l.src], at[l.dst]) for l in topo.links]
    used = [l for l, w in enumerate(weights) if w > 0]
    out_links: List[List[int]] = [[] for _ in range(n)]
    feeds = [0] * n  # in-links carrying flow
    for l in used:
        out_links[ends[l][0]].append(l)
        feeds[ends[l][1]] += 1
    ready = [(key(p), u) for u, p in enumerate(topo.pops) if not feeds[u]]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)[1]
        order.append(u)
        for l in out_links[u]:
            v = ends[l][1]
            feeds[v] -= 1
            if not feeds[v]:
                heapq.heappush(ready, (key(topo.pops[v]), v))
    if len(order) < n:
        raise ValueError(f"flow toward pop {sink} has a cycle")
    out_weight = [sum(weights[l] for l in links) for links in out_links]
    mass = np.zeros((len(sources), n))
    mass[np.arange(len(sources)), [at[s] for s in sources]] = 1.0
    fracs = np.zeros((len(sources), len(ends)))
    for u in order:
        if u == at[sink] or not mass[:, u].any():
            continue
        if not out_links[u]:
            stuck = sources[int(np.flatnonzero(mass[:, u])[0])]
            raise ValueError(f"flow of commodity {(stuck, sink)} does not "
                             f"reach its sink from pop {topo.pops[u]}")
        for l in out_links[u]:
            # not mass * (w / out): with w = 1 this is ECMP's exact mass / out
            fracs[:, l] = mass[:, u] * weights[l] / out_weight[u]
            mass[:, ends[l][1]] += fracs[:, l]
    return {(s, sink): {topo.links[l].id: float(fracs[i, l])
                        for l in np.flatnonzero(fracs[i]).tolist()}
            for i, s in enumerate(sources)}


def finite_float(text: str) -> float:
    """float(text), with a ValueError for inf and nan as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def exact_millions(text: str, unit: str) -> int:
    """The decimal `text` millions of `unit` as an exact whole number of
    `unit`; a ValueError if it is not one."""
    try:
        value = Fraction(text) * 1_000_000
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a number") from None
    if value.denominator != 1:
        raise ValueError(f"{text!r} is finer than 1 {unit}")
    return int(value)


def read_traffic_matrix(text: str) -> TrafficMatrix:
    """Parse the traffic-matrix CSV: header src_pop,dst_pop,rate_mbps."""
    tm: TrafficMatrix = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[:3] == ["src_pop", "dst_pop", "rate_mbps"]:
            continue
        if len(parts) != 3:
            raise ValueError(f"traffic matrix line {lineno}: expected 3 fields")
        try:
            src, dst, mbps = int(parts[0]), int(parts[1]), finite_float(parts[2])
        except ValueError as exc:
            raise ValueError(f"traffic matrix line {lineno}: {exc}") from None
        if src == dst:
            raise ValueError(f"traffic matrix line {lineno}: diagonal entry")
        if mbps < 0:
            raise ValueError(f"traffic matrix line {lineno}: negative rate")
        key = (src, dst)
        tm[key] = tm.get(key, 0.0) + mbps * 1e6
    return tm


def write_traffic_matrix(tm: TrafficMatrix) -> str:
    lines = ["src_pop,dst_pop,rate_mbps"]
    for (src, dst) in sorted(tm):
        lines.append(f"{src},{dst},{tm[(src, dst)] / 1e6:.9g}")
    return "\n".join(lines) + "\n"
