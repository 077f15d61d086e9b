"""Request redirection: pick the serving PoP for the chunk accesses that
have no local copy, many accesses per call. PoPs are named by their
position in `Topology.pops`. The rules read tables built ahead of replay:
each client's PoPs in rank order (`Topology.ic_order`) and the day's
routing as `traffic.Routes` (built once per routing object). An access's
replica holders are one row of a holder-set table, a bool matrix with a
column per PoP, which `holder_table` builds from bitmasks over PoP
positions; replay and the planner both build theirs this way."""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from .traffic import Routes

LOCAL_HIT = "local-hit"
REMOTE_REPLICA = "remote-replica"
ORIGIN = "origin"


def serve_reason(client: int, server: int, origin: int) -> str:
    """local-hit, origin or remote-replica, in that order."""
    if server == client:
        return LOCAL_HIT
    if server == origin:
        return ORIGIN
    return REMOTE_REPLICA


def placed_masks(stored: Dict[int, Iterable[Hashable]],
                 pop_at: Dict[int, int], chunk_at: Dict[Hashable, int]
                 ) -> List[int]:
    """A list with, per chunk index 0 .. len(chunk_at) - 1 (`chunk_at` of
    the chunk), the bitmask of the positions of the PoPs whose `stored`
    set (pop id -> chunks) holds it. Chunks without an index are left
    out."""
    masks = [0] * len(chunk_at)
    for pop, held in stored.items():
        bit = 1 << pop_at[pop]
        for chunk in held:
            i = chunk_at.get(chunk)
            if i is not None:
                masks[i] |= bit
    return masks


def holder_table(masks: List[int], n_pops: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Bitmasks over pop positions as (id of each mask, table of the
    distinct masks as a bool matrix: a row per id, a column per pop)."""
    index: Dict[int, int] = {}
    ids = np.array([index.setdefault(m, len(index)) for m in masks],
                   dtype=np.int64)
    width = (n_pops + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in index),
                        dtype=np.uint8).reshape(len(index), width)
    bits = np.unpackbits(raw, axis=1, count=n_pops, bitorder="little")
    return ids, bits.astype(bool)


def redirect_closest(clients: np.ndarray, origins: np.ndarray,
                     holder_ids: np.ndarray, holder_sets: np.ndarray,
                     order: np.ndarray) -> np.ndarray:
    """The one nearest-server rule, for every access at once: the holder
    the client ranks first (its row of `order`, `Topology.ic_order`), and
    the origin only when the access has no holder. Access k asks at
    `clients[k]` for a chunk whose origin is `origins[k]` and whose
    holders are row `holder_ids[k]` of `holder_sets`. Each distinct
    (client, holder set) is resolved once. Replay passes the replica
    holders alone, so a remote replica wins even when the origin is
    closer; the planner also sets each chunk's origin bit, the one
    difference between the two."""
    if not len(clients):
        return np.zeros(0, dtype=np.int64)
    n_sets = len(holder_sets)
    pairs, inverse = np.unique(clients * n_sets + holder_ids,
                               return_inverse=True)
    by_rank = order[pairs // n_sets]
    ranked = np.take_along_axis(holder_sets[pairs % n_sets], by_rank, axis=1)
    first = ranked.argmax(axis=1)  # the first holder, if any
    found = ranked[np.arange(len(pairs)), first]
    servers = by_rank[np.arange(len(pairs)), first]
    return np.where(found[inverse], servers[inverse], origins)


def redirect_utilization_aware(clients: np.ndarray, origins: np.ndarray,
                               holder_ids: np.ndarray,
                               holder_sets: np.ndarray, rates: np.ndarray,
                               loads: List[float], routes: Routes,
                               order: np.ndarray) -> List[int]:
    """The utilization-aware rule, for one interval's accesses in order
    (arguments as in `redirect_closest`; `rates[k]` is access k's rate).
    Among the candidate servers, the replica holders plus the origin, each
    access takes the one whose route to the client has the smallest
    bottleneck utilization after adding its rate on the route's
    flow-carrying links; ties break by the client's rank. `loads`, by
    link position, holds the interval's load so far and takes each chosen
    route's rate, so later accesses see it. A local copy short-circuits."""
    n = len(clients)
    # each access's candidates in the client's rank order, as one flat list
    held = holder_sets[holder_ids]
    held[np.arange(n), origins] = True
    ranked = np.take_along_axis(held, order[clients], axis=1)
    which, place = np.nonzero(ranked)
    candidates = order[clients[which], place].tolist()
    ends = np.cumsum(ranked.sum(axis=1)).tolist()
    paths = routes.by_client
    servers = []
    start = 0
    for client, end, rate in zip(clients.tolist(), ends, rates.tolist()):
        if candidates[start] == client:  # ranks first: a local copy
            servers.append(client)
            start = end
            continue
        route = paths[client]
        if end - start == 1:  # the origin alone: nothing to compare
            best = candidates[start]
            best_rows = route[best]
        else:
            best, best_rows, least = client, (), math.inf
            for server in candidates[start:end]:
                rows = route[server]
                worst = 0.0
                for pos, frac, capacity in rows:
                    if frac > 0.0:
                        util = (loads[pos] + frac * rate) / capacity
                        if util > worst:
                            worst = util
                            if worst >= least:  # it can no longer win
                                break
                if worst < least:
                    best, best_rows, least = server, rows, worst
        for pos, frac, _ in best_rows:
            loads[pos] += frac * rate
        servers.append(best)
        start = end
    return servers
