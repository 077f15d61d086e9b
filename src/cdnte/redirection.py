"""Request redirection: pick the serving PoP for a chunk access given the
current placement view (planned stores + cache contents + origin)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from .traffic import LinkLoads, RoutingSolution

LOCAL_HIT = "local-hit"
REMOTE_REPLICA = "remote-replica"
ORIGIN = "origin"


@dataclass(frozen=True)
class RedirectDecision:
    chunk: Tuple[str, int]
    client: int
    server: int
    reason: str  # local-hit | remote-replica | origin


def _decision(chunk, client, server, origin) -> RedirectDecision:
    if server == client:
        reason = LOCAL_HIT
    elif server == origin:
        reason = ORIGIN
    else:
        reason = REMOTE_REPLICA
    return RedirectDecision(chunk, client, server, reason)


def redirect_closest(chunk: Tuple[str, int], client: int, holders: Set[int],
                     origin: int, dists: Dict[Tuple[int, int], float]
                     ) -> RedirectDecision:
    """Replay's rule: serve locally when possible, otherwise from the
    replica holder minimizing the InverseCap distance client->server, and
    from the origin only when no replica exists. Ties break toward the
    lowest pop id.

    This differs from `placement.nearest_replica`, the planner's rule,
    which also counts the origin as a candidate and so picks it whenever
    it is closer than every replica."""
    if client in holders or client == origin:
        return _decision(chunk, client, client, origin)
    if holders:
        server = min(holders, key=lambda j: (dists[(client, j)], j))
    else:
        server = origin
    return _decision(chunk, client, server, origin)


def redirect_utilization_aware(chunk: Tuple[str, int], client: int,
                               holders: Set[int], origin: int,
                               loads: LinkLoads, routing: RoutingSolution,
                               request_rate: float, capacities: Dict[int, int],
                               dists: Dict[Tuple[int, int], float]
                               ) -> RedirectDecision:
    """Among all candidate servers (replicas plus origin), pick the one
    whose delivery path has the smallest bottleneck utilization after
    adding this request's rate along the current routing's flow-carrying
    links. A local copy short-circuits with metric 0. Ties break toward
    the closer server, then the lowest pop id."""
    if client in holders or client == origin:
        return _decision(chunk, client, client, origin)
    candidates = set(holders) | {origin}
    candidates.discard(client)
    best = None
    for server in sorted(candidates):
        bottleneck = 0.0
        for link_id, frac in routing[(server, client)].items():
            if frac <= 0.0:
                continue
            util = (loads.get(link_id, 0.0) + frac * request_rate) \
                / capacities[link_id]
            if util > bottleneck:
                bottleneck = util
        key = (bottleneck, dists[(client, server)], server)
        if best is None or key < best[0]:
            best = (key, server)
    return _decision(chunk, client, best[1], origin)
