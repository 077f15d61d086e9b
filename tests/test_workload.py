import math
import random

import numpy as np
import pytest

from cdnte.workload import (ContentObject, SynthParams, TraceError,
                            aggregate_demand, chunk_objects,
                            generate_synthetic_trace, parse_catalog,
                            parse_trace, write_catalog, write_trace)

from conftest import make_triangle


def test_parse_trace_single_row():
    catalog, reqs = parse_trace("0,0,vidA,1000\n")
    assert len(reqs) == 1
    assert reqs[0].pop == 0 and reqs[0].content == "vidA" and reqs[0].nbytes == 1000
    assert catalog["vidA"].size == 1000


def test_parse_trace_sorts_by_timestamp():
    _, reqs = parse_trace("5,0,a,10\n1,0,b,20\n3,1,a,30\n")
    assert [r.timestamp for r in reqs] == [1.0, 3.0, 5.0]


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
    chunks = chunk_objects(cat, 1000)
    assert chunks.sizes == {("a", 0): 500, ("b", 0): 900}
    unchunked = chunk_objects(cat, None)
    assert unchunked.sizes == chunks.sizes


def test_chunking_arithmetic():
    cat = {"a": ContentObject("a", 2500)}
    chunks = chunk_objects(cat, 1000)
    assert chunks.sizes == {("a", 0): 1000, ("a", 1): 1000, ("a", 2): 500}
    expansion = chunks.request_chunks("a", 1500)
    assert expansion == [(("a", 0), 1000), (("a", 1), 500)]


def test_chunking_conserves_bytes():
    rng = random.Random(23)
    for _ in range(20):
        cat = {f"o{i}": ContentObject(f"o{i}", rng.randint(1, 5000))
               for i in range(8)}
        chunks = chunk_objects(cat, rng.randint(1, 2000))
        for cid, obj in cat.items():
            assert sum(chunks.sizes[c] for c in chunks.by_content[cid]) == obj.size
            nbytes = rng.randint(1, obj.size)
            assert sum(b for _, b in chunks.request_chunks(cid, nbytes)) == nbytes


def test_aggregate_demand_examples():
    cat = {"a": ContentObject("a", 1000)}
    chunks = chunk_objects(cat, None)
    dm = aggregate_demand([], (0, 100), chunks)
    assert dm.demand == {}

    _, reqs = parse_trace("1,0,a,100\n2,0,a,200\n")
    dm = aggregate_demand(reqs, (0, 100), chunks)
    assert dm.demand == {(("a", 0), 0): 300}

    _, reqs = parse_trace("100,0,a,100\n")
    dm = aggregate_demand(reqs, (0, 100), chunks)
    assert dm.demand == {}  # half-open window excludes ts == end


def test_aggregate_demand_additive_over_windows():
    rng = random.Random(5)
    cat = {f"o{i}": ContentObject(f"o{i}", 1000) for i in range(4)}
    chunks = chunk_objects(cat, 300)
    from cdnte.workload import Request
    reqs = []
    for _ in range(200):
        reqs.append(Request(rng.uniform(0, 300), rng.choice([0, 1]),
                            f"o{rng.randrange(4)}", rng.randint(1, 1000)))
    a = aggregate_demand(reqs, (0, 120), chunks).demand
    b = aggregate_demand(reqs, (120, 300), chunks).demand
    c = aggregate_demand(reqs, (0, 300), chunks).demand
    merged = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, 0) + v
    assert merged == c


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
    _, reqs = generate_synthetic_trace(params, topo)
    per_day = {}
    for r in reqs:
        per_day[int(r.timestamp // 86400)] = per_day.get(int(r.timestamp // 86400), 0) + 1
    assert per_day == {0: 321, 1: 321, 2: 321}


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
    _, reqs = generate_synthetic_trace(params, topo)
    by_day = {}
    for r in reqs:
        by_day.setdefault(int(r.timestamp // 86400), set()).add(r.content)
    assert by_day[0] & by_day[1] == set()
    assert by_day[1] & by_day[2] == set()


def test_generator_alpha_zero_uniform_chi_square():
    topo = make_triangle()
    n, k = 120_000, 80
    params = SynthParams(catalog_size=k, zipf_alpha=0.0, requests_per_day=n,
                         days=1, churn=0.0, seed=4)
    _, reqs = generate_synthetic_trace(params, topo)
    counts = {}
    for r in reqs:
        counts[r.content] = counts.get(r.content, 0) + 1
    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with k-1 dof: mean k-1, sd sqrt(2(k-1)); allow 3 sds
    assert stat < (k - 1) + 3 * math.sqrt(2 * (k - 1))


def test_generator_diurnal_shape():
    topo = make_triangle()
    params = SynthParams(catalog_size=10, requests_per_day=50_000, days=1,
                         diurnal_peak_ratio=3.0, seed=6)
    _, reqs = generate_synthetic_trace(params, topo)
    hours = np.array([r.timestamp % 86400 for r in reqs]) / 3600.0
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
