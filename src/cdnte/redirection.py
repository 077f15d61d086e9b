"""Request redirection: pick the serving PoP for a chunk access that has
no local copy. The rules read tables built ahead of replay: each client's
rank of every PoP (`Topology.ic_rank`, once per topology) and each route
as rows (once per day)."""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

from .traffic import RoutingSolution

LOCAL_HIT = "local-hit"
REMOTE_REPLICA = "remote-replica"
ORIGIN = "origin"

Ranks = Dict[int, int]  # one client's rank of each server pop
RouteRows = List[Tuple[int, float, int]]  # (link position, fraction, capacity)


def path_table(topo, routing: RoutingSolution
               ) -> Dict[int, Dict[int, RouteRows]]:
    """`routing` as rows indexed [client][server]: the route server->client
    as (position in topo.links, flow fraction, link capacity) rows."""
    pos = topo.link_at
    table: Dict[int, Dict[int, RouteRows]] = {c: {} for c in topo.pops}
    for (server, client), fracs in routing.items():
        table[client][server] = [
            (pos[link_id], frac, topo.links[pos[link_id]].capacity)
            for link_id, frac in fracs.items()]
    return table


def serve_reason(client: int, server: int, origin: int) -> str:
    """local-hit, origin or remote-replica, in that order."""
    if server == client:
        return LOCAL_HIT
    if server == origin:
        return ORIGIN
    return REMOTE_REPLICA


def redirect_closest(holders: Collection[int], origin: int, rank: Ranks) -> int:
    """Replay's rule for a client with no local copy: the replica holder
    the client ranks first (its row of `Topology.ic_rank`), and the origin
    only when no replica exists.

    This differs from `placement.nearest_replica`, the planner's rule,
    which also counts the origin as a candidate and so picks it whenever
    it is closer than every replica."""
    if holders:
        return min(holders, key=rank.__getitem__)
    return origin


def _bottleneck(rows: RouteRows, loads: List[float], rate: float) -> float:
    worst = 0.0
    for pos, frac, capacity in rows:
        if frac <= 0.0:
            continue
        util = (loads[pos] + frac * rate) / capacity
        if util > worst:
            worst = util
    return worst


def redirect_utilization_aware(client: int, holders: Collection[int],
                               origin: int, loads: List[float],
                               paths: Dict[int, RouteRows], rate: float,
                               rank: Ranks) -> int:
    """Among all candidate servers (replicas plus origin), pick the one
    whose route to `client` (`paths[server]`, the client's row of
    `path_table`) has the smallest bottleneck utilization after adding
    `rate` on its flow-carrying links; `loads` is indexed by link
    position. A local copy short-circuits. Ties break by the client's
    `rank`: the closer server, then the lowest pop id."""
    if client in holders or client == origin:
        return client
    best = origin
    best_key = (_bottleneck(paths[origin], loads, rate), rank[origin])
    for server in holders:
        key = (_bottleneck(paths[server], loads, rate), rank[server])
        if key < best_key:
            best, best_key = server, key
    return best
