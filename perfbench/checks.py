"""Checks on the simulator's outputs, computed apart from the simulator.

Nothing here imports `cdnte`. The network is read from the topology file
with this module's own parser, distances come from Floyd-Warshall, and
InverseCap routes, link loads and MLU are recomputed here. Every check
raises CheckError with a message naming what differed.

Output checks read the CSVs `simulate` wrote. Property checks take the
planner's and router's inputs and outputs captured during a traced run,
as plain dicts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

DAY_SECONDS = 86_400.0
FLOW_TOL = 1e-7


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# network model


class Network:
    """Directed links numbered in file order; `link a b` adds a->b then
    b->a, `arc a b` adds a->b. Capacities in bits/s."""

    def __init__(self, text: str):
        self.pops: List[int] = []
        self.links: List[Tuple[int, int, int, float]] = []  # id, src, dst, cap
        self.origin = None
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "pop":
                self.pops.append(int(fields[1]))
            elif fields[0] in ("link", "arc"):
                a, b, cap = int(fields[1]), int(fields[2]), float(fields[3]) * 1e6
                self.links.append((len(self.links), a, b, cap))
                if fields[0] == "link":
                    self.links.append((len(self.links), b, a, cap))
            elif fields[0] == "origin":
                self.origin = int(fields[1])
        self.pops.sort()
        self.cap = {lid: cap for lid, _, _, cap in self.links}
        cmax = max(self.cap.values())
        self.weight = {lid: cmax / cap for lid, cap in self.cap.items()}
        self.dist = self._floyd_warshall()

    def _floyd_warshall(self) -> Dict[Tuple[int, int], float]:
        dist = {(a, b): (0.0 if a == b else math.inf)
                for a in self.pops for b in self.pops}
        for lid, a, b, _ in self.links:
            dist[(a, b)] = min(dist[(a, b)], self.weight[lid])
        for k in self.pops:
            for a in self.pops:
                for b in self.pops:
                    alt = dist[(a, k)] + dist[(k, b)]
                    if alt < dist[(a, b)]:
                        dist[(a, b)] = alt
        return dist

    def inverse_cap_routes(self) -> Dict[Tuple[int, int], Dict[int, float]]:
        """ECMP over all minimum-weight paths: at each node the mass splits
        evenly over the out-links that start a shortest path. Nodes are
        visited farthest first (ties: lower id), the order that makes
        equal inputs give equal floats."""
        routes = {}
        for t in self.pops:
            nexts: Dict[int, list] = {}
            for lid, a, b, _ in self.links:
                target = self.weight[lid] + self.dist[(b, t)]
                if abs(self.dist[(a, t)] - target) <= 1e-12 * (1.0 + abs(target)):
                    nexts.setdefault(a, []).append((lid, b))
            order = sorted((p for p in self.pops if p != t),
                           key=lambda p: (-self.dist[(p, t)], p))
            for s in self.pops:
                if s == t:
                    continue
                mass = {s: 1.0}
                fracs: Dict[int, float] = {}
                for u in order:
                    mu = mass.get(u, 0.0)
                    if mu == 0.0:
                        continue
                    share = mu / len(nexts[u])
                    for lid, b in nexts[u]:
                        fracs[lid] = fracs.get(lid, 0.0) + share
                        mass[b] = mass.get(b, 0.0) + share
                routes[(s, t)] = fracs
        return routes

    def mlu(self, routing, tm) -> float:
        """Max over links of load / capacity; commodities summed in sorted
        order."""
        loads: Dict[int, float] = {}
        for k in sorted(tm):
            rate = tm[k]
            if rate == 0:
                continue
            for lid, frac in routing[k].items():
                loads[lid] = loads.get(lid, 0.0) + rate * frac
        worst = 0.0
        for lid, _, _, cap in self.links:
            worst = max(worst, loads.get(lid, 0.0) / cap)
        return worst


# ---------------------------------------------------------------------------
# output checks on report.csv / summary.csv


def read_csv(path: str) -> List[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:] if line]


def group_report(rows) -> Dict[str, Dict[int, List[Tuple[str, str]]]]:
    """scheme -> day -> [(interval_start_s, mlu)] as written."""
    out: Dict[str, Dict[int, list]] = {}
    for scheme, day, start, value in rows:
        out.setdefault(scheme, {}).setdefault(int(day), []).append((start, value))
    return out


def check_intervals(report, scheme: str, days: int, interval_s: float) -> None:
    """Each day has ceil(86400 / interval_s) rows at the right starts."""
    per_day = math.ceil(DAY_SECONDS / interval_s)
    by_day = report.get(scheme, {})
    require(sorted(by_day) == list(range(days)),
            f"{scheme}: days {sorted(by_day)} in report, want 0..{days - 1}")
    for day, rows in by_day.items():
        require(len(rows) == per_day,
                f"{scheme} day {day}: {len(rows)} interval rows, want {per_day}")
        for iv, (start, _) in enumerate(rows):
            want = day * DAY_SECONDS + iv * interval_s
            require(float(start) == want,
                    f"{scheme} day {day} row {iv}: start {start}, want {want:g}")


def nearest_rank_p99(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def check_p99(report, summary, scheme: str) -> None:
    """summary p99 = nearest-rank 99th percentile of the day's rows."""
    for row in summary:
        if row[0] != scheme:
            continue
        day, p99 = int(row[1]), float(row[2])
        want = nearest_rank_p99([float(v) for _, v in report[scheme][day]])
        require(p99 == want, f"{scheme} day {day}: summary p99 {row[2]}, "
                             f"nearest-rank p99 of report rows {want!r}")


def check_hit_origin_sum(summary, scheme: str) -> None:
    """hit_ratio + origin_fraction = 1 (each printed to 10 digits)."""
    for row in summary:
        if row[0] == scheme:
            total = float(row[4]) + float(row[5])
            require(abs(total - 1.0) <= 2e-10,
                    f"{scheme} day {row[1]}: hit + origin = {total!r}")


def check_origin_share(summary, scheme: str, shares: Dict[int, float],
                       days) -> None:
    """hit_ratio equals the share of the day's bytes requested at the
    origin PoP, for days on which nothing but the origin holds content."""
    for row in summary:
        if row[0] == scheme and int(row[1]) in days:
            day, hit = int(row[1]), float(row[4])
            want = shares[day]
            require(abs(hit - want) <= 1e-9 * max(1e-3, want),
                    f"{scheme} day {day}: hit ratio {row[4]}, origin share "
                    f"{want!r}")


def check_reference_mlus(report, scheme: str, reference: List[str]) -> None:
    """Day-0 interval MLUs equal the reference replay's, as written."""
    got = [value for _, value in report[scheme][0]]
    require(len(got) == len(reference),
            f"{scheme}: {len(got)} day-0 rows, reference has {len(reference)}")
    for iv, (a, b) in enumerate(zip(got, reference)):
        require(a == b, f"{scheme} day 0 interval {iv}: mlu {a}, reference {b}")


class ReferenceLru:
    """Recency list, most recent first; whole objects only."""

    def __init__(self, budget: int):
        self.budget = budget
        self.order: List[str] = []
        self.sizes: Dict[str, int] = {}

    def access(self, key: str, size: int) -> None:
        if key in self.sizes:
            self.order.remove(key)
            self.order.insert(0, key)
            return
        if size > self.budget:
            return
        while sum(self.sizes.values()) + size > self.budget:
            del self.sizes[self.order.pop()]
        self.order.insert(0, key)
        self.sizes[key] = size


def reference_replay_day0(net: Network, requests, sizes: Dict[str, int],
                          storage_ratio: float, interval_s: float) -> List[str]:
    """Brute-force replay of day 0 under lru + inversecap + closest from
    empty caches. `requests` is [(timestamp_s, pop, content, bytes)] in
    time order. Returns each interval's MLU formatted as report.csv writes
    it."""
    routes = net.inverse_cap_routes()
    budget = int(storage_ratio * sum(sizes.values()) / len(net.pops))
    caches = {p: ReferenceLru(budget) for p in net.pops}
    out, pos = [], 0
    for iv in range(math.ceil(DAY_SECONDS / interval_s)):
        end = min((iv + 1) * interval_s, DAY_SECONDS)
        matrix: Dict[Tuple[int, int], int] = {}
        while pos < len(requests) and requests[pos][0] < end:
            _, client, content, nbytes = requests[pos]
            pos += 1
            if client == net.origin:
                continue
            if content in caches[client].sizes:
                caches[client].access(content, sizes[content])
                continue
            holders = [p for p in net.pops
                       if p != client and content in caches[p].sizes]
            server = (min(holders, key=lambda j: (net.dist[(client, j)], j))
                      if holders else net.origin)
            matrix[(server, client)] = matrix.get((server, client), 0) + nbytes
            caches[client].access(content, sizes[content])
        tm = {k: b * 8.0 / interval_s for k, b in matrix.items()}
        out.append(f"{net.mlu(routes, tm):.10g}")
    return out


# ---------------------------------------------------------------------------
# property checks on captured planner and router outputs


def check_conservation(net: Network, routing, label: str) -> None:
    """Net out-fraction 1 at the source, -1 at the sink, 0 elsewhere, and
    every fraction within [0, 1]. A fraction above 1 means the commodity
    crosses the link more than once, around a cycle."""
    ends = {lid: (a, b) for lid, a, b, _ in net.links}
    for (s, t), fracs in routing.items():
        net_out = dict.fromkeys(net.pops, 0.0)
        for lid, frac in fracs.items():
            require(-FLOW_TOL <= frac <= 1.0 + FLOW_TOL,
                    f"{label}: fraction {frac!r} on link {lid} for {(s, t)}")
            a, b = ends[lid]
            net_out[a] += frac
            net_out[b] -= frac
        for pop, value in net_out.items():
            want = 1.0 if pop == s else (-1.0 if pop == t else 0.0)
            require(abs(value - want) <= FLOW_TOL,
                    f"{label}: commodity {(s, t)} nets {value!r} at pop {pop}")


def check_mlu_vs_inverse_cap(net: Network, ic_routes, tm, routing,
                             label: str) -> None:
    """A min-MLU routing is no worse than InverseCap on the matrix it was
    solved for."""
    got, ic = net.mlu(routing, tm), net.mlu(ic_routes, tm)
    require(got <= ic + 1e-7,
            f"{label}: min-MLU routing has MLU {got!r} > InverseCap {ic!r}")


def nearest_replica_matrix(net: Network, plan) -> Dict[Tuple[int, int], float]:
    """Rates when each demand is served by the closest holder of the
    chunk (the origin always holds it), ties toward the lower pop id."""
    holders: Dict[Tuple[str, int], set] = {}
    for pop, chunks in plan["stored"].items():
        for chunk in chunks:
            holders.setdefault(chunk, set()).add(pop)
    tm: Dict[Tuple[int, int], float] = {}
    for (chunk, client), nbytes in sorted(plan["demand"].items()):
        origin = plan["origins"][chunk[0]]
        have = holders.get(chunk, set())
        if nbytes <= 0 or client == origin or client in have:
            continue
        server = min(have | {origin}, key=lambda j: (net.dist[(client, j)], j))
        tm[(server, client)] = tm.get((server, client), 0.0) \
            + nbytes * 8.0 / plan["window_s"]
    return tm


def check_plan(net: Network, plan, label: str) -> None:
    """The placement fits every budget, and the joint relaxation's alpha
    is no higher than the MLU of the placement's nearest-replica matrix
    under the returned routing."""
    for pop, chunks in plan["stored"].items():
        used = sum(plan["sizes"][c] for c in chunks)
        require(used <= plan["budgets"][pop],
                f"{label}: pop {pop} stores {used} bytes, budget "
                f"{plan['budgets'][pop]}")
    if plan["alpha"] is not None:
        realized = net.mlu(plan["routing"], nearest_replica_matrix(net, plan))
        require(plan["alpha"] <= realized * (1 + 1e-7) + 1e-12,
                f"{label}: relaxation alpha {plan['alpha']!r} above the "
                f"placement's MLU {realized!r}")
