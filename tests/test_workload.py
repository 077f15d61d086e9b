import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnte.workload import (DAY_SECONDS, ChunkMap, ContentObject, SynthParams,
                            TraceError, aggregate_demand,
                            generate_synthetic_trace, parse_catalog,
                            parse_trace, write_catalog, write_trace)

from conftest import make_triangle, trace_from_rows


def test_parse_trace_single_row():
    catalog, trace = parse_trace("0,0,vidA,1000\n")
    assert list(trace.rows()) == [(0.0, 0, "vidA", 1000)]
    assert catalog["vidA"].size == 1000


def test_parse_trace_sorts_by_timestamp():
    _, trace = parse_trace("5,0,a,10\n1,0,b,20\n3,1,a,30\n")
    assert list(trace.rows()) == [(1.0, 0, "b", 20), (3.0, 1, "a", 30),
                                  (5.0, 0, "a", 10)]
    assert trace.content_ids == ["a", "b"]


def test_parse_trace_zero_bytes_names_row():
    with pytest.raises(TraceError, match="row 2"):
        parse_trace("1,0,a,10\n2,0,a,0\n")


def test_parse_trace_non_finite_timestamp_names_row():
    for ts in ("inf", "nan"):
        with pytest.raises(TraceError, match="row 2: timestamp must be finite"):
            parse_trace(f"1,0,a,10\n{ts},0,a,10\n")


def test_parse_trace_header_and_pop_validation():
    text = "timestamp_s,pop_id,content_id,bytes\n0,0,a,5\n"
    catalog, reqs = parse_trace(text, pops=[0, 1])
    assert len(reqs) == 1
    with pytest.raises(TraceError, match="unknown pop"):
        parse_trace("0,7,a,5\n", pops=[0, 1])


def test_parse_trace_infers_max_size():
    catalog, _ = parse_trace("0,0,a,10\n1,0,a,90\n2,0,a,30\n")
    assert catalog["a"].size == 90


def test_parse_trace_with_catalog_checks_size():
    cat = {"a": ContentObject("a", 50)}
    with pytest.raises(TraceError, match="exceeds"):
        parse_trace("0,0,a,60\n", catalog=cat)


def test_catalog_roundtrip():
    cat = {"a": ContentObject("a", 10, 2), "b": ContentObject("b", 20)}
    text = write_catalog(cat)
    back = parse_catalog(text)
    assert back["a"].origin == 2 and back["b"].origin is None
    assert back["a"].size == 10


def test_chunking_identity_when_large():
    cat = {"a": ContentObject("a", 500), "b": ContentObject("b", 900)}
    chunks = ChunkMap(cat, 1000)
    assert chunks.sizes == {("a", 0): 500, ("b", 0): 900}
    unchunked = ChunkMap(cat, None)
    assert unchunked.sizes == chunks.sizes


def test_chunking_arithmetic():
    cat = {"a": ContentObject("a", 2500)}
    chunks = ChunkMap(cat, 1000)
    assert chunks.sizes == {("a", 0): 1000, ("a", 1): 1000, ("a", 2): 500}
    expansion = chunks.request_chunks("a", 1500)
    assert expansion == [(("a", 0), 1000), (("a", 1), 500)]


def test_chunking_conserves_bytes():
    rng = random.Random(23)
    for _ in range(20):
        cat = {f"o{i}": ContentObject(f"o{i}", rng.randint(1, 5000))
               for i in range(8)}
        chunks = ChunkMap(cat, rng.randint(1, 2000))
        for cid, obj in cat.items():
            assert sum(chunks.sizes[c] for c in chunks.by_content[cid]) == obj.size
            nbytes = rng.randint(1, obj.size)
            assert sum(b for _, b in chunks.request_chunks(cid, nbytes)) == nbytes


def test_aggregate_demand_examples():
    cat = {"a": ContentObject("a", 1000)}
    chunks = ChunkMap(cat, None)
    dm = aggregate_demand(trace_from_rows([]), (0, 100), chunks)
    assert dm.demand == {}

    _, reqs = parse_trace("1,0,a,100\n2,0,a,200\n")
    dm = aggregate_demand(reqs, (0, 100), chunks)
    assert dm.demand == {(("a", 0), 0): 300}

    _, reqs = parse_trace("100,0,a,100\n")
    dm = aggregate_demand(reqs, (0, 100), chunks)
    assert dm.demand == {}  # half-open window excludes ts == end

    # bytes whose total is beyond int64 are refused, not wrapped
    cat, reqs = parse_trace("0,0,a,5000000000000000000\n"
                            "1,0,a,5000000000000000000\n")
    with pytest.raises(ValueError, match="int64"):
        aggregate_demand(reqs, (0, 100), ChunkMap(cat, None))


def test_aggregate_demand_additive_over_windows():
    rng = random.Random(5)
    cat = {f"o{i}": ContentObject(f"o{i}", 1000) for i in range(4)}
    chunks = ChunkMap(cat, 300)
    reqs = trace_from_rows(
        (rng.uniform(0, 300), rng.choice([0, 1]), f"o{rng.randrange(4)}",
         rng.randint(1, 1000)) for _ in range(200))
    a = aggregate_demand(reqs, (0, 120), chunks).demand
    b = aggregate_demand(reqs, (120, 300), chunks).demand
    c = aggregate_demand(reqs, (0, 300), chunks).demand
    merged = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, 0) + v
    assert merged == c


@st.composite
def _requests(draw):
    """A catalog, a chunk size, a trace and a window. Sizes are scaled by
    1 or 2**50 + 1, so that a float sum of the bytes would round; timestamps
    lie on quarter days, so that rows tie; some requests may be larger
    than their object."""
    scale = draw(st.sampled_from([1, 2 ** 50 + 1]))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    catalog = {f"o{i}": ContentObject(f"o{i}", n * scale)
               for i, n in enumerate(sizes)}
    chunk_size = draw(st.none() | st.integers(1, 12).map(lambda n: n * scale))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        i = draw(st.integers(0, len(sizes) - 1))
        rows.append((draw(st.integers(0, 8)) * DAY_SECONDS / 4,
                     draw(st.sampled_from([0, 3, 5])), f"o{i}",
                     draw(st.integers(1, sizes[i])) * scale))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)
                  if rows else st.just([])):
        ts, pop, cid, _ = rows[k]
        rows[k] = (ts, pop, cid, catalog[cid].size + draw(st.integers(1, 3)))
    # whole days, windows that cut a day, and windows after every row
    start = draw(st.sampled_from([0.0, DAY_SECONDS, 3 * DAY_SECONDS])
                 | st.floats(0, 3 * DAY_SECONDS))
    length = draw(st.sampled_from([DAY_SECONDS, 2 * DAY_SECONDS])
                  | st.floats(1, DAY_SECONDS))
    return catalog, chunk_size, trace_from_rows(rows), (start, start + length)


def _outcome(fn):
    """What `fn()` returns, or the text of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _per_row(chunks, trace, rows):
    """The accesses (row, chunk, bytes) and the demand per (chunk, pop) of
    the trace's `rows`, one `request_chunks` call per row."""
    accesses, demand = [], Counter()
    for k, (_, pop, cid, nbytes) in enumerate(list(trace.rows())[rows]):
        for chunk, part in chunks.request_chunks(cid, nbytes):
            accesses.append((k, chunk, part))
            demand[(chunk, pop)] += part
    return accesses, dict(demand)


@settings(derandomize=True, deadline=None)
@given(_requests())
def test_expand_and_aggregate_demand_match_a_per_row_loop(case):
    catalog, chunk_size, trace, window = case
    chunks = ChunkMap(catalog, chunk_size)
    ids = list(chunks.sizes)
    assert ids == sorted(ids) and chunks.index == {c: i for i, c in enumerate(ids)}
    reference = ChunkMap(catalog, chunk_size)
    calls = Counter()

    def counted(cid, nbytes):
        parts = reference.request_chunks(cid, nbytes)
        calls[(cid, nbytes)] += 1  # an expansion that raised is not kept
        return parts
    chunks.request_chunks = counted

    # the window's demand, then the whole trace's accesses, on one map
    def demand():
        dm = aggregate_demand(trace, window, chunks)
        assert list(dm.demand) == sorted(dm.demand)
        return dm.demand

    def accesses():
        row, chunk, nbytes = chunks.expand(trace.content_ids, trace.contents,
                                           trace.nbytes)
        return list(zip(row.tolist(), [ids[i] for i in chunk.tolist()],
                        nbytes.tolist()))
    assert _outcome(demand) == _outcome(
        lambda: _per_row(reference, trace, trace.span(*window))[1])
    everything = _outcome(accesses)
    assert everything == _outcome(
        lambda: _per_row(reference, trace, slice(None))[0])
    assert set(calls.values()) <= {1}
    if isinstance(everything, list):
        assert set(calls) == set(zip([r[2] for r in trace.rows()],
                                     trace.nbytes.tolist()))


def test_generator_deterministic():
    topo = make_triangle()
    params = SynthParams(catalog_size=20, requests_per_day=500, days=2, seed=9)
    cat1, reqs1 = generate_synthetic_trace(params, topo)
    cat2, reqs2 = generate_synthetic_trace(params, topo)
    assert write_trace(reqs1) == write_trace(reqs2)
    assert write_catalog(cat1) == write_catalog(cat2)


def test_generator_requests_per_day_exact():
    topo = make_triangle()
    params = SynthParams(catalog_size=10, requests_per_day=321, days=3, seed=1)
    _, trace = generate_synthetic_trace(params, topo)
    days = (trace.timestamps // 86400).astype(int)
    assert np.bincount(days).tolist() == [321, 321, 321]


def test_generator_churn_zero_stable_catalog():
    topo = make_triangle()
    params = SynthParams(catalog_size=15, requests_per_day=200, days=4,
                         churn=0.0, seed=2)
    cat, _ = generate_synthetic_trace(params, topo)
    assert len(cat) == 15  # no fresh objects ever introduced


def test_generator_full_churn_disjoint_days():
    topo = make_triangle()
    params = SynthParams(catalog_size=12, requests_per_day=400, days=3,
                         churn=1.0, seed=3)
    _, trace = generate_synthetic_trace(params, topo)
    by_day = {}
    for ts, _, content, _ in trace.rows():
        by_day.setdefault(int(ts // 86400), set()).add(content)
    assert by_day[0] & by_day[1] == set()
    assert by_day[1] & by_day[2] == set()


def test_generator_alpha_zero_uniform_chi_square():
    topo = make_triangle()
    n, k = 120_000, 80
    params = SynthParams(catalog_size=k, zipf_alpha=0.0, requests_per_day=n,
                         days=1, churn=0.0, seed=4)
    _, trace = generate_synthetic_trace(params, topo)
    counts = np.bincount(trace.contents)
    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts.tolist())
    # chi-square with k-1 dof: mean k-1, sd sqrt(2(k-1)); allow 3 sds
    assert stat < (k - 1) + 3 * math.sqrt(2 * (k - 1))


def test_generator_diurnal_shape():
    topo = make_triangle()
    params = SynthParams(catalog_size=10, requests_per_day=50_000, days=1,
                         diurnal_peak_ratio=3.0, seed=6)
    _, trace = generate_synthetic_trace(params, topo)
    hours = (trace.timestamps % 86400) / 3600.0
    noon = ((hours >= 10) & (hours < 14)).sum()
    night = ((hours >= 22) | (hours < 2)).sum()
    assert noon > 1.8 * night  # peak-to-trough ratio 3 with some slack


def test_params_validation():
    topo = make_triangle()
    with pytest.raises(ValueError):
        generate_synthetic_trace(SynthParams(days=0), topo)
    with pytest.raises(ValueError):
        generate_synthetic_trace(SynthParams(churn=1.5), topo)
    with pytest.raises(ValueError):
        generate_synthetic_trace(SynthParams(pop_weights={0: 1.0}), topo)
    bad = SynthParams(pop_weights={0: 0.5, 1: 0.2, 2: 0.2})
    with pytest.raises(ValueError, match="sum to 1"):
        generate_synthetic_trace(bad, topo)


def _reference_parse_trace(text, pops=None, catalog=None):
    """The row loop parse_trace was written as before traces were held as
    columns: (catalog, rows sorted by timestamp)."""
    pop_set = set(pops) if pops is not None else None
    requests = []
    max_bytes = {}
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
        if not (-2 ** 63 <= pop < 2 ** 63 and nbytes < 2 ** 63):
            raise TraceError(f"trace row {lineno}: number out of range")
        requests.append((ts, pop, content, nbytes))
        if nbytes > max_bytes.get(content, 0):
            max_bytes[content] = nbytes
    requests.sort(key=lambda r: r[0])
    if catalog is not None:
        out_catalog = dict(catalog)
    else:
        out_catalog = {cid: ContentObject(cid, size)
                       for cid, size in sorted(max_bytes.items())}
    return out_catalog, requests


FAULTS = {
    "fields": lambda rng, row: ",".join(row[:rng.choice([1, 3])]
                                        + ["x"] * rng.choice([0, 2])),
    # numpy's integer reader reads "\u01fe" as the digit 462
    "malformed": lambda rng, row: ",".join(
        [row[0], rng.choice(["1.5", "1e3", "p", "", "\u01fe"]), row[2], row[3]]),
    "empty content": lambda rng, row: ",".join([row[0], row[1], " ", row[3]]),
    "non-finite": lambda rng, row: ",".join(
        [rng.choice(["inf", "nan", "-inf"])] + row[1:]),
    "negative": lambda rng, row: ",".join(["-0.5"] + row[1:]),
    "bytes": lambda rng, row: ",".join(row[:3] + [rng.choice(["0", "-3"])]),
    "pop": lambda rng, row: ",".join([row[0], "7"] + row[2:]),
    "content": lambda rng, row: ",".join(row[:2] + ["zzz"] + row[3:]),
    "size": lambda rng, row: ",".join(row[:3] + ["10_001"]),
    "range": lambda rng, row: ",".join(
        rng.choice([row[:3] + [str(2 ** 63)],
                    [row[0], str(-2 ** 63 - 1)] + row[2:]])),
}

# Ids: short ones; one longer than the numbers beside it; non-ASCII ones;
# one ending in a NUL, which the reader must keep, as str.strip() does.
TRACE_IDS = ([f"c{k}" for k in range(9)]
             + ["c-" + "long" * 12, "é1", "ид", "c1\x00"])
# ten times the length of the rows around it
LONG_ID = "L" * 300


def _random_trace_text(rng, n_rows, fault=None, fault_at=None):
    """A trace with padded fields (ASCII and not), ids from `TRACE_IDS`
    and, in some traces, one `LONG_ID` in the middle, numbers written as
    `1_000`, `1e3`, `+5`, `-0` or with a non-ASCII
    digit, comments, blank and header lines anywhere, equal and
    out-of-order timestamps, mixed line endings and, if asked, one bad
    row at `fault_at`."""
    lines = []
    t = 0.0
    for k in range(n_rows):
        t = max(0.0, t + rng.choice([0.0, 0.0, 1.25, 7.5, -3.0]))
        pop = rng.randrange(4)
        row = [f"{t:g}", str(pop), rng.choice(TRACE_IDS[:9] * 4 + TRACE_IDS),
               str(rng.randint(1, 10_000))]
        if k == n_rows // 2 and rng.random() < 0.3:
            row[2] = LONG_ID
        if rng.random() < 0.05:
            row[3] = f"{int(row[3]):_}"
        if rng.random() < 0.1:
            row[0] = rng.choice([f"{t:e}", f"+{t:g}", "-0" if t == 0 else row[0]])
            row[1] = {0: "-0", 3: "\u0663"}.get(pop, f"+{pop}")
            row[3] = "+" + row[3]
        if rng.random() < 0.05:
            pads = ["", " ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
            row = [rng.choice(pads) + f + rng.choice(pads) for f in row]
        line = ",".join(row)
        if fault is not None and k == fault_at:
            line = FAULTS[fault](rng, row)
        extra = rng.random()
        if extra < 0.02:
            lines.append(rng.choice(["# note", "   # note, with, commas, x",
                                     "#1,2,c1,4"]))
        elif extra < 0.03:
            lines.append(rng.choice(["", "   ", "\t"]))
        elif extra < 0.035:
            lines.append(rng.choice(["timestamp_s,pop_id,content_id,bytes",
                                     " timestamp_s , pop_id,content_id,bytes"]))
        lines.append(line)
    ends = [rng.choice(["\n", "\n", "\r\n"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_both(text, pops, catalog):
    """(parse_trace's, the reference's) catalog items in order and rows,
    or error message."""
    try:
        cat, rows = _reference_parse_trace(text, pops, catalog)
        expected = list(cat.items()), rows
    except TraceError as exc:
        expected = str(exc)
    try:
        cat, trace = parse_trace(text, pops, catalog)
    except TraceError as exc:
        return str(exc), expected
    return (list(cat.items()), list(trace.rows())), expected


@pytest.mark.parametrize("block_chars", [64, 300, 1 << 19])
def test_parse_trace_matches_row_loop_reference(monkeypatch, block_chars):
    # small blocks put blank, comment and header lines and every kind of
    # bad row at every place in a block, and in blocks after the first
    from cdnte import workload
    monkeypatch.setattr(workload, "_BLOCK_CHARS", block_chars)
    rng = random.Random(block_chars)
    catalog = {cid: ContentObject(cid, 10_000) for cid in TRACE_IDS + [LONG_ID]}
    seen = set()
    for case in range(120):
        n_rows = rng.randint(1, 60)
        fault = rng.choice([None, *FAULTS])
        text = _random_trace_text(rng, n_rows, fault, rng.randrange(n_rows))
        pops = rng.choice([None, [0, 1, 2, 3]])
        cat = rng.choice([None, catalog])
        got, expected = _parse_both(text, pops, cat)
        assert got == expected, (case, text)
        seen.add(expected if isinstance(expected, str) else "ok")
    kinds = {msg.split(": ", 1)[-1].split(" ")[0] for msg in seen}
    assert {"ok", "expected", "malformed", "empty", "timestamp", "negative",
            "bytes", "unknown", "request"} <= kinds


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_parse_trace_names_bad_row_after_first_block(fault):
    # about 20k rows at the real block size: the bad row is past the first
    rng = random.Random(len(fault))
    catalog = {cid: ContentObject(cid, 10_000) for cid in TRACE_IDS + [LONG_ID]}
    text = _random_trace_text(rng, 20_000, fault, 19_000)
    got, expected = _parse_both(text, [0, 1, 2, 3], catalog)
    assert isinstance(expected, str) and int(expected.split()[2][:-1]) > 19_000
    assert got == expected


@pytest.mark.parametrize("line", [
    "1,\u01fe,c0,5", "1,0,c0,5\u01fe", "1,\u0663,c0,5", "\u0661,0,c0,5",
    "1,0,c0\x00,5", "1,0,\x00,5", "1,0, c0\xa0,5", "1,0,\x1fc0\x1f,5",
    "1_0,0,c0,5", "1,0,c0,2.0",
    "1,0,c0,1e3", "1e3,+2,c0,+5", "-0,-0,c0,5", "1,0,c0,9223372036854775808",
    "1,0,é" + "x" * 40 + ",5", "1,0,c0," + "9" * 30])
def test_parse_trace_reader_traps_match_reference(line):
    # one trap among plain rows, with and without a catalog
    text = "".join(f"{k},1,c{k % 2},5\n" for k in range(6)) + line + "\n"
    for catalog in (None, {cid: ContentObject(cid, 10 ** 6)
                           for cid in ("c0", "c1", "c0\x00")}):
        got, expected = _parse_both(text, None, catalog)
        assert got == expected


def test_parse_trace_of_blank_lines_warns_nothing():
    # numpy's reader warns on a block with no data; parse_trace must not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        catalog, trace = parse_trace("\n\n\n\n")
    assert caught == [] and catalog == {} and len(trace) == 0


def test_parse_trace_rejects_numbers_beyond_int64():
    with pytest.raises(TraceError, match="row 2: number out of range"):
        parse_trace("1,0,a,10\n2,0,a,9223372036854775808\n")
    with pytest.raises(TraceError, match="row 1: number out of range"):
        parse_trace(f"1,{-2 ** 63 - 1},a,10\n")
    _, trace = parse_trace(f"1,{-2 ** 63},a,{2 ** 63 - 1}\n")
    assert list(trace.rows()) == [(1.0, -2 ** 63, "a", 2 ** 63 - 1)]


def _mark_comment_lines(k, line):
    return ("# checkpoint\n" if k and k % 5000 == 0 else "") + line


def _mark_long_ids(k, line):
    if k % 17_000 != 8_000:
        return line
    ts, pop, _, nbytes = line.split(",")
    return ",".join([ts, pop, "L" * 400, nbytes])


@pytest.mark.parametrize("mark", [_mark_comment_lines, _mark_long_ids],
                         ids=["comment lines", "long ids"])
def test_parse_trace_comment_lines_keep_blocks_on_the_fast_path(monkeypatch,
                                                                 mark):
    # "# checkpoint" before every 5000th row, or a 400-character id in
    # every ~17k-row block, parses without reading any block row by row
    from cdnte import workload
    _, trace = generate_synthetic_trace(
        SynthParams(requests_per_day=12_000, days=3, seed=7), make_triangle())
    lines = write_trace(trace).splitlines(keepends=True)  # header, rows
    marked = "".join(mark(k, line) for k, line in enumerate(lines))
    scanned = []
    scan = workload._scan_block
    monkeypatch.setattr(workload, "_scan_block",
                        lambda *args: scanned.append(args[1]) or scan(*args))
    got, expected = _parse_both(marked, None, None)
    assert not scanned and got == expected
    if mark is _mark_comment_lines:
        _, plain = parse_trace("".join(lines))
        _, got = parse_trace(marked)
        assert not scanned and marked.count("# checkpoint") == 7
        assert got.content_ids == plain.content_ids
        for column in ("timestamps", "pops", "contents", "nbytes"):
            assert (getattr(got, column).tobytes()
                    == getattr(plain, column).tobytes())
    else:
        assert marked.count("L" * 400) == 2
    # a bad row among them still names its line of the marked text
    marked_lines = marked.splitlines(keepends=True)
    marked_lines[30_004] = "1.0,0,,5\n"
    with pytest.raises(TraceError, match="trace row 30005: empty content id"):
        parse_trace("".join(marked_lines))
    assert scanned
