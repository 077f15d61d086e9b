"""Content catalog, request traces, synthetic workloads and demand matrices.

Trace CSV format: header ``timestamp_s,pop_id,content_id,bytes``, one
request per row. Optional catalog CSV: ``content_id,size_bytes,origin_pop``
(empty origin defaults to the topology's origin PoP). The synthetic
generator writes the same formats, so generated and ingested workloads are
interchangeable. In memory a trace is one `Trace`: a column per field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .traffic import byte_sums, flat_ranges

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


Catalog = Dict[str, ContentObject]
Row = Tuple[float, int, str, int]  # (timestamp, pop, content id, bytes)


class Trace:
    """A request trace as columns. Row k asks at PoP `pops[k]`, at
    `timestamps[k]` seconds since the trace start, for the first
    `nbytes[k]` bytes of content `content_ids[contents[k]]`.

    Rows are kept in timestamp order, ties in the order they were given,
    and `content_ids` holds the requested ids in sorted order, so equal
    rows give equal columns however the trace was made.
    """

    def __init__(self, timestamps, pops, contents, content_ids: List[str],
                 nbytes):
        timestamps = np.asarray(timestamps, dtype=np.float64)
        order = np.argsort(timestamps, kind="stable")
        contents = np.asarray(contents, dtype=np.int64)[order]
        used = np.flatnonzero(np.bincount(contents, minlength=len(content_ids)))
        used = sorted(used.tolist(), key=content_ids.__getitem__)
        code = np.zeros(len(content_ids), dtype=np.int64)
        code[used] = np.arange(len(used))
        self.timestamps = timestamps[order]
        self.pops = np.asarray(pops, dtype=np.int64)[order]
        self.contents = code[contents]
        self.content_ids = [content_ids[i] for i in used]
        self.nbytes = np.asarray(nbytes, dtype=np.int64)[order]

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def days(self) -> int:
        """Days 0 .. days - 1 hold the rows: the last row's day plus one."""
        return int(self.timestamps[-1] // DAY_SECONDS) + 1 if len(self) else 0

    def rows(self) -> Iterator[Row]:
        """(timestamp, pop, content id, bytes) per row, as Python values."""
        ids = self.content_ids
        return zip(self.timestamps.tolist(), self.pops.tolist(),
                   [ids[c] for c in self.contents.tolist()],
                   self.nbytes.tolist())

    def span(self, start: float, end: float) -> slice:
        """The rows with start <= timestamp < end."""
        lo, hi = np.searchsorted(self.timestamps, (start, end))
        return slice(int(lo), int(hi))


@dataclass
class DemandMatrix:
    """Aggregate bytes per (chunk, pop) over a half-open time window."""
    start: float
    end: float
    demand: Dict[Tuple[ChunkId, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("demand window end must be after start")

    def rates(self) -> Dict[Tuple[ChunkId, int], float]:
        """Each (chunk, pop) with positive bytes, in sorted order, and its
        average rate in bit/s over the window."""
        window = self.window_seconds
        return {key: nbytes * 8.0 / window
                for key, nbytes in sorted(self.demand.items()) if nbytes > 0}

    @property
    def window_seconds(self) -> float:
        return self.end - self.start


class ChunkMap:
    """Chunked view of a catalog plus the request expansion rule, the one
    that replay and demand aggregation both use (`expand`).

    An object of size S becomes ceil(S / chunk_size) chunks; the last chunk
    carries the remainder. chunk_size=None keeps one chunk per object.
    Chunks are indexed by their position in `sizes`, which is their
    sorted order (`index`).
    """

    def __init__(self, catalog: Catalog, chunk_size: Optional[int]):
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.sizes: Dict[ChunkId, int] = {}
        self.by_content: Dict[str, List[ChunkId]] = {}
        for cid in sorted(catalog):
            size = catalog[cid].size
            step = chunk_size or size
            self.by_content[cid] = [(cid, k) for k in range(-(-size // step))]
            for k, chunk in enumerate(self.by_content[cid]):
                self.sizes[chunk] = min(step, size - k * step)
        self.index = {chunk: i for i, chunk in enumerate(self.sizes)}
        # (chunk indices, bytes) of each (content id, bytes) request
        self._expansions: Dict[Tuple[str, int], Tuple[List[int], List[int]]] = {}

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

    def expand(self, content_ids: List[str], codes: np.ndarray,
               nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Requests as chunk accesses, in request order: request k asks
        for the first `nbytes[k]` bytes of `content_ids[codes[k]]`.
        Returns the request, chunk index and bytes of each access.
        `request_chunks` runs once per distinct (content, bytes), in order
        of first appearance, and the map keeps what it returned for later
        calls."""
        _, size_code = np.unique(nbytes, return_inverse=True)
        _, first, inverse = np.unique(codes * (int(size_code.max(initial=0)) + 1)
                                      + size_code, return_index=True,
                                      return_inverse=True)
        pairs = list(zip([content_ids[c] for c in codes[first].tolist()],
                         nbytes[first].tolist()))
        for k in np.argsort(first).tolist():
            if pairs[k] not in self._expansions:
                parts = self.request_chunks(*pairs[k])
                self._expansions[pairs[k]] = ([self.index[c] for c, _ in parts],
                                              [b for _, b in parts])
        parts = [self._expansions[pair] for pair in pairs]
        counts = np.array([len(c) for c, _ in parts], dtype=np.int64)
        flat_chunks = np.array([i for c, _ in parts for i in c], dtype=np.int64)
        flat_bytes = np.array([b for _, bs in parts for b in bs], dtype=np.int64)
        per_row = counts[inverse]
        row = np.repeat(np.arange(len(codes)), per_row)
        at = flat_ranges((np.cumsum(counts) - counts)[inverse], per_row)
        return row, flat_chunks[at], flat_bytes[at]


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


# Parsing works on blocks of whole lines, so that no more than one
# block's fields exist as Python strings at a time: about 16k rows of
# ordinary traces (half a million characters).
_BLOCK_CHARS = 1 << 19
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1

# One block's rows: timestamps, pops, codes into the block's content
# ids, the ids, bytes.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], np.ndarray]


def parse_trace(text: str, pops: Optional[Iterable[int]] = None,
                catalog: Optional[Catalog] = None) -> Tuple[Catalog, Trace]:
    """Parse a trace CSV into (catalog, trace).

    Blank lines, lines starting with ``#`` and header lines are skipped;
    fields may be padded with spaces. A bad row is an error naming its
    line. Object sizes are inferred as the maximum bytes seen per content
    id unless an explicit catalog is supplied. With an explicit catalog, a
    request larger than the object is a row error.
    """
    pop_list = sorted(set(pops)) if pops is not None else None
    ids: Dict[str, int] = {}  # content id -> code, in order of first sight
    times, pop_col, codes, nbytes = [], [], [], []
    pos, lineno = 0, 1
    while pos < len(text):
        # cut right after a newline, so no line (nor "\r\n") is split
        end = text.find("\n", pos + _BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        lines = text[pos:end].splitlines()
        block = _plain_block(lines, pop_list, catalog)
        if block is None:
            # without the lines `_scan_block` skips, the rest may be plain;
            # a line that starts with a digit is never skipped
            block = _plain_block([line for line in lines if line[:1].isdigit()
                                  or not _skipped(line)], pop_list, catalog)
        if block is None:
            # row by row, so that an error names the line in the text
            block = _scan_block(lines, lineno, pop_list, catalog)
        to_code = np.array([ids.setdefault(cid, len(ids)) for cid in block[3]],
                           dtype=np.int64)
        times.append(block[0])
        pop_col.append(block[1])
        codes.append(to_code[block[2]])
        nbytes.append(block[4])
        pos, lineno = end, lineno + len(lines)

    times, pop_col, codes, nbytes = (np.concatenate(col or [[]]) for col
                                     in (times, pop_col, codes, nbytes))
    trace = Trace(times, pop_col, codes, list(ids), nbytes)
    if catalog is not None:
        return dict(catalog), trace
    max_bytes = np.zeros(len(trace.content_ids), dtype=np.int64)
    np.maximum.at(max_bytes, trace.contents, trace.nbytes)
    return ({cid: ContentObject(cid, size)
             for cid, size in zip(trace.content_ids, max_bytes.tolist())},
            trace)


_HEADER = ["timestamp_s", "pop_id", "content_id", "bytes"]


def _skipped(line: str) -> bool:
    """A blank line, a comment (first non-space character "#") or a
    header line, which parse_trace skips."""
    line = line.strip()
    return (not line or line.startswith("#")
            or (line.startswith(_HEADER[0])
                and [p.strip() for p in line.split(",")][:4] == _HEADER))


def _plain_block(lines: List[str], pop_list: Optional[List[int]],
                 catalog: Optional[Catalog]) -> Optional[_Block]:
    """The block's columns when every line is a row with four fields that
    passes every check of `_scan_block`, else None. Empty lines are
    skipped, as `_scan_block` skips them; any other line that it skips
    never passes: it is blank, or its first field is not a number.

    numpy's C reader reads the block, each id as the Python string
    between its commas, stripped here as `_scan_block` strips it. Where
    the reader and float()/int() of the stripped field could disagree,
    the block is refused instead: underscores, non-ASCII digits and
    integers beyond int64 fail to read; a numeric field with a non-ASCII
    character is refused before reading (the reader takes some such
    characters for digits)."""
    if not lines:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0), empty, empty, [], empty
    if not ("".join(lines).isascii() or all(map(_ascii_numbers, lines))):
        return None
    dtype = np.dtype([("ts", np.float64), ("pop", np.int64), ("id", object),
                      ("nbytes", np.int64)])
    try:
        with warnings.catch_warnings():
            # a block the reader warns on (one with no data) is refused,
            # so no warning is printed
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    # copies, so that the per-row id strings are freed with the block
    ts, pops, nbytes = (rows[f].copy() for f in ("ts", "pop", "nbytes"))
    if not (np.isfinite(ts).all() and (ts >= 0).all() and (nbytes > 0).all()):
        return None
    if pop_list is not None and not np.isin(pops, pop_list).all():
        return None
    raw = rows["id"].tolist()
    raw_code = {cid: k for k, cid in enumerate(dict.fromkeys(raw))}
    ids = [cid.strip() for cid in raw_code]
    if not all(ids):
        return None
    codes = np.array(list(map(raw_code.__getitem__, raw)), dtype=np.int64)
    if catalog is not None:
        if not all(cid in catalog for cid in ids):
            return None
        sizes = np.array([min(catalog[cid].size, _INT64_MAX) for cid in ids],
                         dtype=np.int64)
        if (nbytes > sizes[codes]).any():
            return None
    return ts, pops, codes, ids, nbytes


def _ascii_numbers(line: str) -> bool:
    """Whether `line` has four fields and its three numbers are ASCII."""
    parts = line.split(",")
    return len(parts) == 4 and (parts[0] + parts[1] + parts[3]).isascii()


def _scan_block(lines: List[str], lineno: int,
                pop_list: Optional[List[int]],
                catalog: Optional[Catalog]) -> _Block:
    """The block's columns, row by row; raises TraceError naming the first
    bad row, counting `lineno` as the number of the block's first line."""
    pop_set = set(pop_list) if pop_list is not None else None
    ts_col, pop_col, code_col, nbytes_col = [], [], [], []
    code: Dict[str, int] = {}
    for lineno, line in enumerate(lines, start=lineno):
        if _skipped(line):
            continue
        parts = [p.strip() for p in line.split(",")]
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
        if not (_INT64_MIN <= pop <= _INT64_MAX and nbytes <= _INT64_MAX):
            raise TraceError(f"trace row {lineno}: number out of range")
        ts_col.append(ts)
        pop_col.append(pop)
        code_col.append(code.setdefault(content, len(code)))
        nbytes_col.append(nbytes)
    return (np.array(ts_col, dtype=np.float64),
            np.array(pop_col, dtype=np.int64),
            np.array(code_col, dtype=np.int64), list(code),
            np.array(nbytes_col, dtype=np.int64))


def write_trace(trace: Trace) -> str:
    lines = ["timestamp_s,pop_id,content_id,bytes"]
    lines.extend(f"{ts:.3f},{pop},{content},{nbytes}"
                 for ts, pop, content, nbytes in trace.rows())
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


def generate_synthetic_trace(params: SynthParams, topo) -> Tuple[Catalog, Trace]:
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

    def new_object() -> int:
        cid = f"obj{len(catalog):06d}"
        ln = rng.uniform(math.log(params.size_min), math.log(params.size_max))
        catalog[cid] = ContentObject(cid, max(1, int(round(math.exp(ln)))))
        return len(catalog) - 1

    # rank r (0-based) -> object number, re-dealt at each day boundary
    rank_to_obj = [new_object() for _ in range(params.catalog_size)]

    times, pop_rows, obj_rows = [], [], []
    for day in range(params.days):
        if day > 0 and churn_k > 0:
            fresh = [new_object() for _ in range(churn_k)]
            rank_to_obj = fresh + rank_to_obj[churn_k:]
        times.append(_diurnal_timestamps(rng, day, params.requests_per_day,
                                         params.diurnal_peak_ratio))
        pop_idx = rng.choice(len(pops), size=params.requests_per_day, p=pop_probs)
        obj_idx = rng.choice(params.catalog_size, size=params.requests_per_day,
                             p=probs)
        pop_rows.append(np.asarray(pops)[pop_idx])
        obj_rows.append(np.asarray(rank_to_obj)[obj_idx])
    objects = np.concatenate(obj_rows)
    sizes = np.array([obj.size for obj in catalog.values()], dtype=np.int64)
    return catalog, Trace(np.concatenate(times), np.concatenate(pop_rows),
                          objects, list(catalog), sizes[objects])


def aggregate_demand(trace: Trace, window: Tuple[float, float],
                     chunks: ChunkMap) -> DemandMatrix:
    """Total bytes per (chunk, pop) over the half-open window [start, end),
    in sorted (chunk, pop) order: the integer sums of the window's chunk
    accesses (`ChunkMap.expand`)."""
    start, end = window
    rows = trace.span(start, end)
    row, chunk, nbytes = chunks.expand(trace.content_ids, trace.contents[rows],
                                       trace.nbytes[rows])
    pop_ids, pop = np.unique(trace.pops[rows], return_inverse=True)
    n_pops = len(pop_ids)
    keys, sums = byte_sums(chunk * n_pops + pop[row], nbytes)
    chunk_ids, pop_ids = list(chunks.sizes), pop_ids.tolist()
    return DemandMatrix(start, end, {
        (chunk_ids[k // n_pops], pop_ids[k % n_pops]): b
        for k, b in zip(keys.tolist(), sums.tolist())})
