"""Seeded benchmark inputs, written in the simulator's file formats.

The generators here are the benchmark's own, so the inputs do not change
when the simulator's code does. The trace is a Zipf workload with daily
churn of the most popular ranks and a sinusoidal diurnal rate, drawn from
the seed given to `write_inputs`, and so is the transit matrix. Two parts
are drawn from FIXED_SEED whatever that seed:

- the topology, which reproduces the acceptance suite's 20-PoP random
  symmetric backbone (spanning tree plus extra links, capacities
  500/1000/2500 Mbps, origin at PoP 0);
- the object sizes. Drawn from the seed, they made the chunks requested
  on replay-10x range from 506k to 718k across seeds, and the work per
  run with them.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

DAY_SECONDS = 86_400.0
FIXED_SEED = 42
N_POPS = 20
ORIGIN_POP = 0
EXTRA_LINK_PROB = 0.12
CAPACITIES_MBPS = (500, 1000, 2500)
CATALOG_SIZE = 64          # Zipf ranks
ZIPF_ALPHA = 0.8
CHURN = 0.2                # popularity mass moved to new objects each day
SIZE_MIN, SIZE_MAX = 1_000_000, 16_000_000
PEAK_RATIO = 3.0           # diurnal peak / trough
TRANSIT_COMMODITIES = 12
TRANSIT_MBPS = (2.0, 8.0)


def topology_text() -> str:
    """Full-duplex backbone: a random spanning tree plus extra links."""
    rng = random.Random(FIXED_SEED)
    lines = [f"pop {i} N{i}" for i in range(N_POPS)]
    nodes = list(range(N_POPS))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, N_POPS):
        a, b = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a in range(N_POPS):
        for b in range(a + 1, N_POPS):
            if (a, b) not in edges and rng.random() < EXTRA_LINK_PROB:
                edges.add((a, b))
    for (a, b) in sorted(edges):
        lines.append(f"link {a} {b} {rng.choice(CAPACITIES_MBPS)}")
    lines.append(f"origin {ORIGIN_POP}")
    return "\n".join(lines) + "\n"


def _diurnal_fractions(rng: np.random.Generator, count: int) -> np.ndarray:
    """Sorted day fractions in [0, 1) under the rate 1 - a cos(2 pi x):
    trough at midnight, peak at noon, peak/trough = PEAK_RATIO. The
    cumulative rate is inverted by bisection."""
    a = (PEAK_RATIO - 1.0) / (PEAK_RATIO + 1.0)
    u = np.sort(rng.random(count))
    lo, hi = np.zeros(count), np.ones(count)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = mid - (a / (2 * math.pi)) * np.sin(2 * math.pi * mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def zipf_trace(seed: int, requests_per_day: int, days: int):
    """Returns (sizes: {content_id: bytes}, rows: (ts_ms, pop, obj) arrays).

    Each day has exactly `requests_per_day` whole-object requests at
    uniformly chosen PoPs. At each day boundary after the first, the top
    ranks carrying CHURN of the popularity mass move to new objects.
    Timestamps are whole milliseconds inside their day. Object sizes are
    log-uniform, drawn from FIXED_SEED; everything else from `seed`.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, CATALOG_SIZE + 1, dtype=float) ** (-ZIPF_ALPHA)
    probs = weights / weights.sum()
    churn_k = min(int(np.searchsorted(np.cumsum(probs), CHURN - 1e-12)) + 1,
                  CATALOG_SIZE)
    n_objects = CATALOG_SIZE + churn_k * (days - 1)
    log_sizes = np.random.default_rng(FIXED_SEED).uniform(
        math.log(SIZE_MIN), math.log(SIZE_MAX), n_objects)
    sizes = np.maximum(1, np.rint(np.exp(log_sizes))).astype(np.int64)

    rank_to_obj = np.arange(CATALOG_SIZE)
    next_obj = CATALOG_SIZE
    ts, pop, obj = [], [], []
    for day in range(days):
        if day > 0:
            fresh = np.arange(next_obj, next_obj + churn_k)
            next_obj += churn_k
            rank_to_obj = np.concatenate([fresh, rank_to_obj[churn_k:]])
        frac = _diurnal_fractions(rng, requests_per_day)
        ms = np.floor((day + frac) * DAY_SECONDS * 1000.0).astype(np.int64)
        ts.append(np.minimum(ms, int((day + 1) * DAY_SECONDS * 1000) - 1))
        pop.append(rng.integers(0, N_POPS, requests_per_day))
        obj.append(rank_to_obj[rng.choice(CATALOG_SIZE, requests_per_day,
                                          p=probs)])
    return ({f"obj{i:06d}": int(s) for i, s in enumerate(sizes)},
            (np.concatenate(ts), np.concatenate(pop), np.concatenate(obj)))


def transit_matrix(seed: int):
    """Sparse transit matrix {(src, dst): Mbps} between distinct PoPs."""
    rng = random.Random(seed * 7919 + 17)
    tm = {}
    while len(tm) < TRANSIT_COMMODITIES:
        s, t = rng.sample(range(N_POPS), 2)
        tm.setdefault((s, t), round(rng.uniform(*TRANSIT_MBPS), 3))
    return tm


def write_inputs(directory: str, seed: int, requests_per_day: int,
                 days: int, with_transit: bool) -> dict:
    """Write topo.txt, trace.csv, catalog.csv (and transit.csv) into
    `directory`; returns the in-memory inputs the checks read."""
    os.makedirs(directory, exist_ok=True)
    topo = topology_text()
    with open(os.path.join(directory, "topo.txt"), "w", encoding="utf-8") as fh:
        fh.write(topo)
    sizes, (ts, pop, obj) = zipf_trace(seed, requests_per_day, days)
    names = sorted(sizes)
    with open(os.path.join(directory, "catalog.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("content_id,size_bytes,origin_pop\n")
        fh.write("".join(f"{cid},{sizes[cid]},\n" for cid in names))
    obj_sizes = np.array([sizes[cid] for cid in names], dtype=np.int64)
    with open(os.path.join(directory, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("timestamp_s,pop_id,content_id,bytes\n")
        fh.write("".join(
            f"{t // 1000}.{t % 1000:03d},{p},obj{o:06d},{b}\n"
            for t, p, o, b in zip(ts.tolist(), pop.tolist(), obj.tolist(),
                                  obj_sizes[obj].tolist())))
    if with_transit:
        with open(os.path.join(directory, "transit.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("src_pop,dst_pop,rate_mbps\n")
            fh.write("".join(f"{s},{t},{r}\n" for (s, t), r
                             in sorted(transit_matrix(seed).items())))
    return {"topology": topo, "sizes": sizes, "ts_ms": ts, "pop": pop,
            "obj": obj, "obj_sizes": obj_sizes}
