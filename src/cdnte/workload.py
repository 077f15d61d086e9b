"""Content catalog, request traces, synthetic workloads and demand matrices.

Trace CSV format: header ``timestamp_s,pop_id,content_id,bytes``, one
request per row. Optional catalog CSV: ``content_id,size_bytes,origin_pop``
(empty origin defaults to the topology's origin PoP). The synthetic
generator writes the same formats, so generated and ingested workloads are
interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

ChunkId = Tuple[str, int]


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class ContentObject:
    id: str
    size: int                     # bytes
    origin: Optional[int] = None  # None -> topology origin pop

    def __post_init__(self):
        if self.size <= 0:
            raise TraceError(f"object {self.id}: size must be positive")


@dataclass(frozen=True)
class Request:
    timestamp: float  # seconds since trace start
    pop: int
    content: str
    nbytes: int


Catalog = Dict[str, ContentObject]


@dataclass
class DemandMatrix:
    """Aggregate bytes per (chunk, pop) over a half-open time window."""
    start: float
    end: float
    demand: Dict[Tuple[ChunkId, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("demand window end must be after start")

    def total_bytes(self) -> int:
        return sum(self.demand.values())

    @property
    def window_seconds(self) -> float:
        return self.end - self.start


class ChunkMap:
    """Chunked view of a catalog plus the request expansion rule.

    An object of size S becomes ceil(S / chunk_size) chunks; the last chunk
    carries the remainder. chunk_size=None keeps one chunk per object.
    """

    def __init__(self, catalog: Catalog, chunk_size: Optional[int]):
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.sizes: Dict[ChunkId, int] = {}
        self.by_content: Dict[str, List[ChunkId]] = {}
        for cid in sorted(catalog):
            obj = catalog[cid]
            if chunk_size is None:
                ids = [(cid, 0)]
                self.sizes[(cid, 0)] = obj.size
            else:
                n = (obj.size + chunk_size - 1) // chunk_size
                ids = []
                remaining = obj.size
                for k in range(n):
                    size = min(chunk_size, remaining)
                    ids.append((cid, k))
                    self.sizes[(cid, k)] = size
                    remaining -= size
            self.by_content[cid] = ids

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes.values())

    def request_chunks(self, content: str, nbytes: int) -> List[Tuple[ChunkId, int]]:
        """Expand a request for the first `nbytes` of an object into
        (chunk, bytes) pairs; the last chunk may be partial. Byte total is
        preserved exactly."""
        if nbytes <= 0:
            raise ValueError("request bytes must be positive")
        chunks = self.by_content[content]
        out = []
        remaining = nbytes
        for chunk in chunks:
            if remaining <= 0:
                break
            take = min(self.sizes[chunk], remaining)
            out.append((chunk, take))
            remaining -= take
        if remaining > 0:
            raise ValueError(
                f"request for {nbytes} bytes exceeds size of {content}")
        return out


def chunk_objects(catalog: Catalog, chunk_size: Optional[int]) -> ChunkMap:
    return ChunkMap(catalog, chunk_size)


def parse_catalog(text: str) -> Catalog:
    catalog: Catalog = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0] == "content_id" and parts[1:2] == ["size_bytes"]:
            continue
        if len(parts) not in (2, 3):
            raise TraceError(f"catalog line {lineno}: expected 2 or 3 fields")
        cid = parts[0]
        try:
            size = int(parts[1])
        except ValueError:
            raise TraceError(f"catalog line {lineno}: bad size") from None
        origin = None
        if len(parts) == 3 and parts[2]:
            try:
                origin = int(parts[2])
            except ValueError:
                raise TraceError(f"catalog line {lineno}: bad origin pop") from None
        if size <= 0:
            raise TraceError(f"catalog line {lineno}: size must be positive")
        if cid in catalog:
            raise TraceError(f"catalog line {lineno}: duplicate content {cid}")
        catalog[cid] = ContentObject(cid, size, origin)
    return catalog


def write_catalog(catalog: Catalog) -> str:
    lines = ["content_id,size_bytes,origin_pop"]
    for cid in sorted(catalog):
        obj = catalog[cid]
        origin = "" if obj.origin is None else str(obj.origin)
        lines.append(f"{cid},{obj.size},{origin}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str, pops: Optional[Iterable[int]] = None,
                catalog: Optional[Catalog] = None) -> Tuple[Catalog, List[Request]]:
    """Parse a trace CSV into (catalog, requests sorted by timestamp).

    Object sizes are inferred as the maximum bytes seen per content id
    unless an explicit catalog is supplied. With an explicit catalog, a
    request larger than the object is a row error.
    """
    pop_set = set(pops) if pops is not None else None
    requests: List[Request] = []
    max_bytes: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[:4] == ["timestamp_s", "pop_id", "content_id", "bytes"]:
            continue
        if len(parts) != 4:
            raise TraceError(f"trace row {lineno}: expected 4 fields")
        try:
            ts = float(parts[0])
            pop = int(parts[1])
            nbytes = int(parts[3])
        except ValueError:
            raise TraceError(f"trace row {lineno}: malformed field") from None
        content = parts[2]
        if not content:
            raise TraceError(f"trace row {lineno}: empty content id")
        if not math.isfinite(ts):
            raise TraceError(f"trace row {lineno}: timestamp must be finite")
        if ts < 0:
            raise TraceError(f"trace row {lineno}: negative timestamp")
        if nbytes <= 0:
            raise TraceError(f"trace row {lineno}: bytes must be positive")
        if pop_set is not None and pop not in pop_set:
            raise TraceError(f"trace row {lineno}: unknown pop {pop}")
        if catalog is not None:
            if content not in catalog:
                raise TraceError(f"trace row {lineno}: unknown content {content}")
            if nbytes > catalog[content].size:
                raise TraceError(
                    f"trace row {lineno}: request exceeds object size")
        requests.append(Request(ts, pop, content, nbytes))
        if nbytes > max_bytes.get(content, 0):
            max_bytes[content] = nbytes
    requests.sort(key=lambda r: r.timestamp)
    if catalog is not None:
        out_catalog = dict(catalog)
    else:
        out_catalog = {cid: ContentObject(cid, size)
                       for cid, size in sorted(max_bytes.items())}
    return out_catalog, requests


def write_trace(requests: List[Request]) -> str:
    lines = ["timestamp_s,pop_id,content_id,bytes"]
    for r in requests:
        lines.append(f"{r.timestamp:.3f},{r.pop},{r.content},{r.nbytes}")
    return "\n".join(lines) + "\n"


@dataclass
class SynthParams:
    """Knobs for the synthetic Zipf workload with daily popularity churn."""
    catalog_size: int = 64
    zipf_alpha: float = 0.8
    requests_per_day: int = 15_000
    days: int = 7
    churn: float = 0.2
    size_min: int = 1_000_000       # bytes
    size_max: int = 16_000_000      # bytes, log-uniform between min and max
    diurnal_peak_ratio: float = 3.0
    pop_weights: Optional[Dict[int, float]] = None  # None -> uniform
    seed: int = 42

    def validate(self, pops: Iterable[int]) -> None:
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if self.requests_per_day < 1:
            raise ValueError("requests_per_day must be >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be >= 0")
        if not (0 < self.size_min <= self.size_max):
            raise ValueError("need 0 < size_min <= size_max")
        if self.diurnal_peak_ratio < 1:
            raise ValueError("diurnal_peak_ratio must be >= 1")
        if self.pop_weights is not None:
            pops = list(pops)
            if set(self.pop_weights) != set(pops):
                raise ValueError("pop_weights must cover exactly the topology pops")
            if abs(sum(self.pop_weights.values()) - 1.0) > 1e-9:
                raise ValueError("pop_weights must sum to 1")


DAY_SECONDS = 86_400.0


def _zipf_probs(n: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def _churn_rank_count(probs: np.ndarray, churn: float) -> int:
    """Smallest k such that the top-k ranks carry at least `churn` of the
    popularity mass (0 when churn is 0)."""
    if churn <= 0.0:
        return 0
    cum = np.cumsum(probs)
    k = int(np.searchsorted(cum, churn - 1e-12)) + 1
    return min(k, len(probs))


def _diurnal_timestamps(rng: np.random.Generator, day: int, count: int,
                        peak_ratio: float) -> np.ndarray:
    """Arrival times for one day under a sinusoidal rate with the given
    peak-to-trough ratio (trough at midnight, peak at noon)."""
    a = (peak_ratio - 1.0) / (peak_ratio + 1.0)
    u = np.sort(rng.random(count))
    # Invert the cumulative intensity L(x) = x - a/(2 pi) * sin(2 pi x)
    # by bisection; L is strictly increasing on [0, 1].
    lo = np.zeros(count)
    hi = np.ones(count)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        val = mid - (a / (2 * math.pi)) * np.sin(2 * math.pi * mid)
        takes = val < u
        lo = np.where(takes, mid, lo)
        hi = np.where(takes, hi, mid)
    x = 0.5 * (lo + hi)
    return (day + x) * DAY_SECONDS


def generate_synthetic_trace(params: SynthParams, topo) -> Tuple[Catalog, List[Request]]:
    """Zipf workload with daily churn of the most popular ranks.

    Deterministic for a fixed seed. Each day has exactly
    `requests_per_day` requests; each request fetches a whole object.
    Day d reassigns the top ranks carrying `churn` popularity mass to
    objects never seen before day d.
    """
    params.validate(topo.pops)
    rng = np.random.default_rng(params.seed)
    probs = _zipf_probs(params.catalog_size, params.zipf_alpha)
    churn_k = _churn_rank_count(probs, params.churn)

    pops = list(topo.pops)
    if params.pop_weights is None:
        pop_probs = np.full(len(pops), 1.0 / len(pops))
    else:
        pop_probs = np.array([params.pop_weights[p] for p in pops])
        pop_probs = pop_probs / pop_probs.sum()

    catalog: Catalog = {}
    next_obj = 0

    def new_object() -> str:
        nonlocal next_obj
        cid = f"obj{next_obj:06d}"
        next_obj += 1
        ln = rng.uniform(math.log(params.size_min), math.log(params.size_max))
        size = max(1, int(round(math.exp(ln))))
        catalog[cid] = ContentObject(cid, size)
        return cid

    # rank r (0-based) -> content id, re-dealt at each day boundary
    rank_to_obj = [new_object() for _ in range(params.catalog_size)]

    requests: List[Request] = []
    for day in range(params.days):
        if day > 0 and churn_k > 0:
            fresh = [new_object() for _ in range(churn_k)]
            rank_to_obj = fresh + rank_to_obj[churn_k:]
        times = _diurnal_timestamps(rng, day, params.requests_per_day,
                                    params.diurnal_peak_ratio)
        pop_idx = rng.choice(len(pops), size=params.requests_per_day, p=pop_probs)
        obj_idx = rng.choice(params.catalog_size, size=params.requests_per_day,
                             p=probs)
        for i in range(params.requests_per_day):
            cid = rank_to_obj[obj_idx[i]]
            requests.append(Request(float(times[i]), pops[pop_idx[i]], cid,
                                    catalog[cid].size))
    return catalog, requests


def aggregate_demand(requests: List[Request], window: Tuple[float, float],
                     chunks: ChunkMap) -> DemandMatrix:
    """Total bytes per (chunk, pop) over the half-open window [start, end)."""
    start, end = window
    dm = DemandMatrix(start, end)
    for r in requests:
        if not (start <= r.timestamp < end):
            continue
        for chunk, nbytes in chunks.request_chunks(r.content, r.nbytes):
            key = (chunk, r.pop)
            dm.demand[key] = dm.demand.get(key, 0) + nbytes
    return dm
