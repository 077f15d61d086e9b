import math
import random
from collections import defaultdict

import numpy as np
import pytest

from cdnte import lp as lp_mod
from cdnte import parse_topology
from cdnte.engine import (PLACEMENTS, REDIRECTIONS, ROUTINGS, DayStats,
                          SchemeSpec, TransitSpec, ValidationError,
                          compare_schemes, comparison_csv, report_csv,
                          run_experiment, scheme_inputs, summary_csv,
                          sweep_runs)
from cdnte.placement import Placement, induced_traffic_matrix
from cdnte.redirection import holder_table, placed_masks, redirect_closest
from cdnte.topology import (all_pairs_distances, inverse_cap_weights,
                            shortest_path_routes)
from cdnte.traffic import apply_routing, mlu
from cdnte.workload import (ChunkMap, ContentObject, SynthParams,
                            aggregate_demand, generate_synthetic_trace)

from conftest import (Row, ic_rank, make_triangle, random_digraph,
                      random_symmetric_topology, trace_from_rows)


def _origin_triangle():
    return parse_topology("""
    pop 0 P0
    pop 1 P1
    pop 2 ORIGIN
    link 0 1 10
    link 0 2 10
    link 1 2 10
    origin 2
    """)


def _daily_trace(days, pops=(0, 1), objects=("A", "B"), size=1000):
    """Every pop requests every object once per day at fixed offsets."""
    catalog = {c: ContentObject(c, size) for c in objects}
    reqs = []
    for day in range(days):
        t = day * 86400.0 + 100.0
        for pop in pops:
            for c in objects:
                reqs.append((t, pop, c, size))
                t += 10.0
    return catalog, trace_from_rows(reqs)


def test_full_replication_zero_after_day0():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    scheme = SchemeSpec("optimized", "inversecap", "closest", storage_ratio=3.0)
    rep = run_experiment(topo, catalog, reqs, scheme, interval_s=3600.0)
    for day, _, value in rep.intervals:
        if day >= 1:
            assert value == 0.0
    assert rep.days[1].hit_ratio == 1.0
    assert rep.days[0].origin_fraction == 1.0  # warm-up day serves from origin


def test_single_pop_topology_rejected():
    topo = parse_topology("pop 0 A\norigin 0\n")
    catalog, reqs = _daily_trace(2, pops=(0,))
    with pytest.raises(ValidationError, match="at least 2 pops"):
        run_experiment(topo, catalog, reqs,
                       SchemeSpec("lru", "inversecap"), 3600.0)


@pytest.mark.parametrize("interval_s", [math.inf, math.nan, 0.0, -300.0])
def test_run_rejects_an_interval_that_is_not_positive_and_finite(interval_s):
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(1)
    with pytest.raises(ValidationError, match="interval_s"):
        run_experiment(topo, catalog, reqs,
                       SchemeSpec("lru", "inversecap"), interval_s)


def test_stationary_workload_optimized_equals_future_from_day1():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    opt = run_experiment(topo, catalog, reqs,
                         SchemeSpec("optimized", "inversecap", "closest",
                                    storage_ratio=1.5), 3600.0)
    fut = run_experiment(topo, catalog, reqs,
                         SchemeSpec("future", "inversecap", "closest",
                                    storage_ratio=1.5), 3600.0)
    opt_after = [(d, s, v) for d, s, v in opt.intervals if d >= 1]
    fut_after = [(d, s, v) for d, s, v in fut.intervals if d >= 1]
    assert opt_after == fut_after
    # day 0 differs: future already places, optimized is origin-only
    assert fut.days[0].origin_fraction < opt.days[0].origin_fraction


def test_determinism_identical_reports():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    scheme = SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0)
    a = run_experiment(topo, catalog, reqs, scheme, 3600.0)
    b = run_experiment(topo, catalog, reqs, scheme, 3600.0)
    assert a == b


def test_hit_plus_origin_is_one():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    for placement in ("lru", "optimized", "future"):
        rep = run_experiment(topo, catalog, reqs,
                             SchemeSpec(placement, "inversecap", "closest",
                                        storage_ratio=1.0), 3600.0)
        for d in rep.days:
            assert d.hit_ratio + d.origin_fraction == 1.0


@pytest.mark.parametrize("redirection", REDIRECTIONS)
def test_a_day_with_no_requests_has_full_hits_and_transit_load(redirection):
    # requests on days 0 and 2 only: day 1 serves no bytes, so it reads
    # hit 1 and origin 0, and its MLU is the transit's alone, 1 kbit/s on
    # a 1 Mbit/s link
    topo = make_triangle(caps=(1, 1, 1))
    catalog = {c: ContentObject(c, 1000) for c in ("A", "B")}
    reqs = trace_from_rows((day * 86400.0 + 100.0 + 10.0 * k, pop, c, 1000)
                           for day in (0, 2)
                           for k, (pop, c) in enumerate([(1, "A"), (2, "B")]))
    scheme = SchemeSpec("lru", "inversecap", redirection, storage_ratio=1.0,
                        transit=TransitSpec({(0, 1): 1e3}, "combined"))
    rep = run_experiment(topo, catalog, reqs, scheme, 3600.0)
    assert [d.day for d in rep.days] == [0, 1, 2]
    empty = rep.days[1]
    assert (empty.hit_ratio, empty.origin_fraction) == (1.0, 0.0)
    assert empty.p99_mlu == pytest.approx(0.001, rel=1e-12)
    assert rep.days[0].origin_fraction > 0.0


_VALID_PAIRS = [(p, r) for p in PLACEMENTS for r in ROUTINGS
                if not (p in ("lru", "hybrid") and r == "min-mlu-future")]


@pytest.mark.parametrize("transit_mode", [None, "inversecap", "combined"])
@pytest.mark.parametrize("placement,routing", _VALID_PAIRS)
def test_reported_mlu_matches_independent_recomputation(
        placement, routing, transit_mode, monkeypatch):
    # every interval's MLU, recomputed from a routing rebuilt day by day
    # from the rule in run_experiment's docstring
    topo = parse_topology("""
    pop 0 A
    pop 1 B
    pop 2 C
    pop 3 D
    link 0 1 10
    link 1 2 20
    link 2 3 10
    link 3 0 20
    link 0 2 5
    origin 0
    """)
    catalog, reqs = generate_synthetic_trace(
        SynthParams(catalog_size=6, requests_per_day=40, days=3,
                    size_min=1000, size_max=4000, seed=5), topo)
    transit_tm = {(1, 3): 30.0, (3, 2): 10.0}
    transit = None if transit_mode is None else TransitSpec(transit_tm,
                                                            transit_mode)
    scheme = SchemeSpec(placement, routing, "closest", storage_ratio=1.0,
                        transit=transit)
    solves = []
    real_solve = lp_mod.solve_min_mlu_routing

    def counted(*args, **kwargs):
        solves.append(args[1])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(lp_mod, "solve_min_mlu_routing", counted)
    rep = run_experiment(topo, catalog, reqs, scheme, 3600.0,
                         collect_placements=True, collect_matrices=True)
    monkeypatch.undo()
    n_days, per_day = len(rep.days), 24
    assert n_days == 3
    if placement != "lru":
        assert rep.placements
    if (placement, routing, transit_mode) == ("future", "min-mlu-future",
                                              "inversecap"):
        assert len(solves) == n_days  # the planner's routing is reused

    ic = shortest_path_routes(topo, inverse_cap_weights(topo))
    chunks = ChunkMap(catalog, None)
    origins = {c: topo.origin_pop for c in catalog}

    def demand(day):
        return aggregate_demand(reqs, (day * 86400.0, (day + 1) * 86400.0),
                                chunks)

    def matrices(day):
        return rep.interval_matrices[day * per_day:(day + 1) * per_day]

    for day in range(n_days):
        placed = Placement()
        for epoch, pop, chunk in rep.placements:
            if epoch == day:
                placed.stored.setdefault(pop, set()).add(chunk)
        if routing == "inversecap" or (routing == "min-mlu-prior-day"
                                       and day == 0):
            expected = ic
        else:
            if routing == "min-mlu-future":
                tm = induced_traffic_matrix(demand(day), placed, origins,
                                            topo)
            elif placement in ("optimized", "hybrid"):
                tm = induced_traffic_matrix(demand(day - 1), placed, origins,
                                            topo)
            else:  # yesterday's realized matrix
                realized = defaultdict(int)
                for matrix in matrices(day - 1):
                    for k, b in matrix.items():
                        realized[k] += b
                tm = {k: b * 8.0 / 86400.0 for k, b in sorted(realized.items())}
            if transit_mode == "combined":
                tm = dict(tm)
                for k, rate in transit_tm.items():
                    tm[k] = tm.get(k, 0.0) + rate
            expected = lp_mod.solve_min_mlu_routing(topo, tm)
        transit_loads = {}
        if transit_mode is not None:
            transit_loads = apply_routing(
                expected if transit_mode == "combined" else ic, transit_tm)
        intervals = rep.intervals[day * per_day:(day + 1) * per_day]
        for (iv_day, _, value), matrix in zip(intervals, matrices(day)):
            assert iv_day == day
            tm = {k: b * 8.0 / 3600.0 for k, b in sorted(matrix.items())}
            loads = apply_routing(expected, tm)
            for link_id, extra in transit_loads.items():
                loads[link_id] = loads.get(link_id, 0.0) + extra
            assert value == mlu(loads, topo)


def test_p99_within_day_range():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    rep = run_experiment(topo, catalog, reqs,
                         SchemeSpec("lru", "inversecap", storage_ratio=1.0),
                         3600.0)
    by_day = {}
    for day, _, v in rep.intervals:
        by_day.setdefault(day, []).append(v)
    for d in rep.days:
        assert min(by_day[d.day]) <= d.p99_mlu <= max(by_day[d.day])


def test_prior_day_scheme_needs_two_days():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(1)
    with pytest.raises(ValidationError, match="2 days"):
        run_experiment(topo, catalog, reqs,
                       SchemeSpec("optimized", "inversecap",
                                  storage_ratio=1.0), 3600.0)


def test_lru_with_future_routing_rejected():
    with pytest.raises(ValidationError, match="min-mlu-future"):
        SchemeSpec("lru", "min-mlu-future").validate()


def test_min_mlu_prior_day_routing_runs():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    rep = run_experiment(topo, catalog, reqs,
                         SchemeSpec("optimized", "min-mlu-prior-day",
                                    "closest", storage_ratio=1e-9), 3600.0)
    assert len(rep.days) == 3
    # zero budgets: everything from origin
    assert [d.origin_fraction for d in rep.days] == [1.0, 1.0, 1.0]


def test_transit_overlay_adds_load():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    base = SchemeSpec("lru", "inversecap", "closest", storage_ratio=0.25)
    rep0 = run_experiment(topo, catalog, reqs, base, 3600.0)
    transit_tm = {(0, 1): 5e6}  # half the 10 Mbps link
    with_transit = SchemeSpec("lru", "inversecap", "closest",
                              storage_ratio=0.25,
                              transit=TransitSpec(transit_tm, "inversecap"))
    rep1 = run_experiment(topo, catalog, reqs, with_transit, 3600.0)
    for (_, _, a), (_, _, b) in zip(rep0.intervals, rep1.intervals):
        assert b >= 0.5 - 1e-12
        assert b >= a


def test_transit_zero_matrix_identity():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    plain = run_experiment(topo, catalog, reqs,
                           SchemeSpec("lru", "inversecap", storage_ratio=0.5),
                           3600.0)
    with_zero = run_experiment(
        topo, catalog, reqs,
        SchemeSpec("lru", "inversecap", storage_ratio=0.5,
                   transit=TransitSpec({}, "inversecap")), 3600.0)
    assert plain.intervals == with_zero.intervals


def test_hybrid_reserve_extremes_match_pure_schemes():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    pure_opt = run_experiment(topo, catalog, reqs,
                              SchemeSpec("optimized", "inversecap", "closest",
                                         storage_ratio=1.0), 3600.0)
    hybrid0 = run_experiment(topo, catalog, reqs,
                             SchemeSpec("hybrid", "inversecap", "closest",
                                        storage_ratio=1.0, hybrid_reserve=0.0),
                             3600.0)
    assert pure_opt.intervals == hybrid0.intervals
    pure_lru = run_experiment(topo, catalog, reqs,
                              SchemeSpec("lru", "inversecap", "closest",
                                         storage_ratio=1.0), 3600.0)
    hybrid1 = run_experiment(topo, catalog, reqs,
                             SchemeSpec("hybrid", "inversecap", "closest",
                                        storage_ratio=1.0, hybrid_reserve=1.0),
                             3600.0)
    assert pure_lru.intervals == hybrid1.intervals


def test_compare_schemes_single_and_duplicate():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    scheme = SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0)
    reports = compare_schemes(topo, catalog, reqs, [scheme], 3600.0)
    rows = comparison_csv(reports).splitlines()[1:]
    assert all(float(row.split(",")[2]) == 1.0 for row in rows)
    dup = [SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0),
           SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0)]
    reports2 = compare_schemes(topo, catalog, reqs, dup, 3600.0)
    a, b = (rep.scheme for rep in reports2)
    assert [d.p99_mlu for d in reports2[0].days] == \
        [d.p99_mlu for d in reports2[1].days]
    # the runs are told apart; the caller's specs keep their names
    assert (a, b) == ("lru+inversecap+closest+r1#0",
                      "lru+inversecap+closest+r1#1")
    assert [s.name for s in dup] == [None, None]


def test_sweep_validation_and_full_replication_column(monkeypatch):
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    template = SchemeSpec("optimized", "inversecap", "closest")
    with pytest.raises(ValidationError):
        sweep_runs(template, [])
    with pytest.raises(ValidationError):
        sweep_runs(template, [2.0, 1.0])
    with pytest.raises(ValidationError):
        sweep_runs(template, [-1.0])
    rows = compare_schemes(topo, catalog, reqs, sweep_runs(template, [4.0]),
                           3600.0)
    assert len(rows) == 1
    for day, _, value in rows[0].intervals:
        if day >= 1:
            assert value == 0.0

    # every field but the ratio and the name reaches each swept run
    import cdnte.engine as engine_mod
    seen = []
    real = engine_mod.run_experiment

    def recorded(*args, **kwargs):
        seen.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "run_experiment", recorded)
    transit = TransitSpec({(0, 1): 1e3}, "combined")
    template = SchemeSpec("hybrid", "min-mlu-prior-day", "utilization-aware",
                          chunk_size=500, hybrid_reserve=0.25,
                          transit=transit)
    compare_schemes(topo, catalog, reqs, sweep_runs(template, [0.5, 2.0]),
                    3600.0)
    assert [(s.storage_ratio, s.name) for s in seen] == [
        (0.5, f"{template.label()}@r0.5"), (2.0, f"{template.label()}@r2")]
    for s in seen:
        assert (s.placement, s.routing, s.redirection, s.chunk_size,
                s.hybrid_reserve, s.transit) == (
            "hybrid", "min-mlu-prior-day", "utilization-aware", 500, 0.25,
            transit)


def test_byte_conservation_no_storage():
    # with zero-ish budgets every byte crosses the network exactly once
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    rep = run_experiment(topo, catalog, reqs,
                         SchemeSpec("optimized", "inversecap", "closest",
                                    storage_ratio=1e-9), 3600.0,
                         collect_matrices=True)
    total_requested = int(reqs.nbytes.sum())
    total_in_matrices = sum(sum(m.values()) for m in rep.interval_matrices)
    assert total_in_matrices == total_requested


def test_chunked_requests_preserve_bytes_and_split_servers():
    topo = _origin_triangle()
    catalog = {"big": ContentObject("big", 2500)}
    reqs = []
    for day in range(2):
        reqs.append((day * 86400.0 + 50.0, 0, "big", 2500))
        reqs.append((day * 86400.0 + 60.0, 1, "big", 1500))
    scheme = SchemeSpec("lru", "inversecap", "closest", storage_ratio=0.9,
                        chunk_size=1000)
    rep = run_experiment(topo, catalog, trace_from_rows(reqs), scheme, 3600.0,
                         collect_matrices=True, collect_decisions=True)
    # network bytes never exceed requested bytes, and every decision names
    # a real chunk of the object
    total = sum(sum(m.values()) for m in rep.interval_matrices)
    assert total <= sum(nbytes for _, _, _, nbytes in reqs)
    chunk_ids = {d[2] for d in rep.decisions}
    assert chunk_ids == {"big#0", "big#1", "big#2"}


def test_utilization_aware_spreads_chunks_of_one_request():
    # pops 1 and 2 cache both chunks during interval 0; pop 0 then fetches
    # the whole object in interval 2: the first chunk loads link 1->0, so
    # the second chunk of the same request switches to the cooler pop 2.
    # Every candidate has a single delivery path (no ECMP splits), so the
    # zero-load metrics tie and distance breaks the tie.
    topo = parse_topology("""
    pop 0 CLIENT
    pop 1 R1
    pop 2 R2
    pop 3 ORIGIN
    link 0 1 10
    link 0 2 10
    link 1 3 10
    origin 3
    """)
    catalog = {"x": ContentObject("x", 2000)}
    reqs = trace_from_rows([
        (10.0, 1, "x", 2000),
        (20.0, 2, "x", 2000),
        (7200.0, 0, "x", 2000),
    ])
    scheme = SchemeSpec("lru", "inversecap", "utilization-aware",
                        storage_ratio=4.0, chunk_size=1000)
    rep = run_experiment(topo, catalog, reqs, scheme, 3600.0,
                         collect_decisions=True)
    pop0 = [d for d in rep.decisions if d[1] == 0]
    assert [(d[2], d[3]) for d in pop0] == [("x#0", 1), ("x#1", 2)]
    closest = SchemeSpec("lru", "inversecap", "closest", storage_ratio=4.0,
                         chunk_size=1000)
    rep2 = run_experiment(topo, catalog, reqs, closest, 3600.0,
                          collect_decisions=True)
    pop0 = [d for d in rep2.decisions if d[1] == 0]
    assert [(d[2], d[3]) for d in pop0] == [("x#0", 1), ("x#1", 1)]


def test_compare_schemes_parallel_jobs_match_sequential():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    schemes = [SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0),
               SchemeSpec("optimized", "inversecap", "closest",
                          storage_ratio=2.0)]
    seq = compare_schemes(topo, catalog, reqs, schemes, 3600.0, jobs=1)
    par = compare_schemes(topo, catalog, reqs,
                          [SchemeSpec("lru", "inversecap", "closest",
                                      storage_ratio=1.0),
                           SchemeSpec("optimized", "inversecap", "closest",
                                      storage_ratio=2.0)], 3600.0, jobs=2)
    assert [(r.scheme, [d.p99_mlu for d in r.days]) for r in seq] == \
        [(r.scheme, [d.p99_mlu for d in r.days]) for r in par]
    assert [r.intervals for r in seq] == [r.intervals for r in par]


def test_jobs_capped_at_the_number_of_runs(monkeypatch):
    # the pool starts all of max_workers at once, so it must not ask for
    # more workers than runs; a fake pool runs the tasks in this process
    from concurrent import futures
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", FakePool)
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    schemes = [SchemeSpec("lru", "inversecap", "closest", storage_ratio=1.0),
               SchemeSpec("optimized", "inversecap", "closest",
                          storage_ratio=2.0)]
    reports = compare_schemes(topo, catalog, reqs, schemes, 3600.0,
                              jobs=10_000)
    assert asked == [2]
    assert len(reports) == 2
    compare_schemes(topo, catalog, reqs, schemes[:1], 3600.0, jobs=10_000)
    assert asked == [2]  # one run needs no pool


def test_sweep_storage_ratio_parallel_jobs_match_sequential():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(2)
    template = SchemeSpec("optimized", "inversecap", "closest")
    runs = sweep_runs(template, [0.5, 2.0])
    seq = compare_schemes(topo, catalog, reqs, runs, 3600.0, jobs=1)
    par = compare_schemes(topo, catalog, reqs, runs, 3600.0, jobs=2)
    assert [(r.scheme, r.mean_daily_p99()) for r in seq] == \
        [(r.scheme, r.mean_daily_p99()) for r in par]
    assert report_csv(seq) == report_csv(par)
    assert summary_csv(seq) == summary_csv(par)


def test_transit_combined_mode_runs():
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    scheme = SchemeSpec("optimized", "min-mlu-prior-day", "closest",
                        storage_ratio=1.5,
                        transit=TransitSpec({(0, 1): 2e6}, "combined"))
    rep = run_experiment(topo, catalog, reqs, scheme, 3600.0)
    assert len(rep.days) == 3
    # transit 2 Mbps from pop 0 must leave over links 0->1 and 0->2
    # (10 Mbps each): utilization at least 0.1 however routing splits it;
    # exactly 0.2-plus on day 0 where InverseCap keeps it on the direct link
    assert all(v >= 0.1 - 1e-12 for _, _, v in rep.intervals)
    day0 = [v for day, _, v in rep.intervals if day == 0]
    assert all(v >= 0.2 - 1e-12 for v in day0)


@pytest.mark.parametrize("redirection", ["closest", "utilization-aware"])
def test_short_tail_interval_reads_same_mlu(redirection):
    # 1000 s intervals leave a 400 s tail at the end of the day; a constant
    # 1000 B/s load from the origin must read the same MLU in it
    topo = parse_topology("pop 0 A\npop 1 B\nlink 0 1 1000\norigin 0\n")
    catalog = {"A": ContentObject("A", 10_000)}
    reqs = trace_from_rows((float(t), 1, "A", 10_000)
                           for t in range(0, 86_400, 10))
    scheme = SchemeSpec("lru", "inversecap", redirection, storage_ratio=1e-9)
    rep = run_experiment(topo, catalog, reqs, scheme, interval_s=1000.0)
    starts = [start for _, start, _ in rep.intervals]
    assert starts[-1] == 86_000.0
    values = [value for _, _, value in rep.intervals]
    assert values[0] == pytest.approx(8e-06, rel=1e-12)
    assert values[-1] == pytest.approx(values[0], rel=1e-12)


def test_lru_run_aggregates_no_demand(monkeypatch):
    import cdnte.engine as engine_mod
    calls = []
    real = engine_mod.aggregate_demand

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "aggregate_demand", counting)
    topo = _origin_triangle()
    catalog, reqs = _daily_trace(3)
    run_experiment(topo, catalog, reqs,
                   SchemeSpec("lru", "inversecap", storage_ratio=1.0), 3600.0)
    assert calls == []
    run_experiment(topo, catalog, reqs,
                   SchemeSpec("optimized", "inversecap", storage_ratio=1.0),
                   3600.0)
    assert len(calls) == 3


def _shifting_trace(days):
    """Pop 0 asks for A and pop 1 for B, one more time each day, so every
    day's demand differs from every other day's."""
    catalog = {c: ContentObject(c, 1000) for c in ("A", "B")}
    reqs = []
    for day in range(days):
        t = day * 86400.0 + 100.0
        for _ in range(day + 1):
            for pop, c in ((0, "A"), (1, "B")):
                reqs.append((t, pop, c, 1000))
                t += 10.0
    return catalog, trace_from_rows(reqs)


def _planner_vs_oracle():
    return [SchemeSpec("optimized", "min-mlu-prior-day", "closest",
                       storage_ratio=1.0),
            SchemeSpec("future", "min-mlu-future", "closest",
                       storage_ratio=1.0)]


def test_compare_schemes_plans_each_program_once(monkeypatch):
    # optimized on day d+1 and future on day d plan the same program:
    # optimized plans days 1-2 and future days 0-2, but only from three
    # distinct demand days
    import cdnte.engine as engine_mod
    calls = []
    real = engine_mod.plan_placement_optimized

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "plan_placement_optimized", counted)
    topo = _origin_triangle()
    catalog, reqs = _shifting_trace(3)
    reports = compare_schemes(topo, catalog, reqs, _planner_vs_oracle(),
                              3600.0)
    assert len(calls) == 3
    for scheme, rep in zip(_planner_vs_oracle(), reports):
        own = run_experiment(topo, catalog, reqs, scheme, 3600.0)
        assert report_csv([rep]) == report_csv([own])
        assert summary_csv([rep]) == summary_csv([own])
    assert len(calls) == 3 + 2 + 3


def test_inversecap_facts_derived_once_per_topology(monkeypatch):
    # several multi-day runs on one Topology, with planning, min-MLU
    # routing, a transit overlay and both redirection rules, derive the
    # InverseCap routes once and leave them as they were derived
    import cdnte.topology as topo_mod
    calls = []
    real = topo_mod.shortest_path_routes

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(topo_mod, "shortest_path_routes", counted)
    topo = _origin_triangle()
    catalog, reqs = _shifting_trace(3)
    # min-MLU routing splits the combined transit over two paths, so a
    # router writing into the InverseCap routes would show below
    schemes = [SchemeSpec("optimized", "min-mlu-prior-day", "closest",
                          storage_ratio=1.0,
                          transit=TransitSpec({(0, 1): 2e6}, "inversecap")),
               SchemeSpec("lru", "min-mlu-prior-day", "utilization-aware",
                          storage_ratio=1.0,
                          transit=TransitSpec({(0, 1): 2e6}, "combined"))]
    compare_schemes(topo, catalog, reqs, schemes, 3600.0)
    assert len(calls) == 1
    monkeypatch.undo()
    assert topo.ic_routes == shortest_path_routes(topo,
                                                  inverse_cap_weights(topo))
    assert ic_rank(topo) == ic_rank(_origin_triangle())


def test_compare_schemes_shared_plans_match_parallel_jobs():
    topo = _origin_triangle()
    catalog, reqs = _shifting_trace(3)
    seq = compare_schemes(topo, catalog, reqs, _planner_vs_oracle(), 3600.0,
                          jobs=1)
    par = compare_schemes(topo, catalog, reqs, _planner_vs_oracle(), 3600.0,
                          jobs=2)
    assert report_csv(seq) == report_csv(par)
    assert summary_csv(seq) == summary_csv(par)
    assert comparison_csv(seq) == comparison_csv(par)


class _RefLru:
    """Reference byte-budgeted LRU: a list, least recent first."""

    def __init__(self, budget):
        self.budget, self.items = budget, []

    def holds(self, chunk):
        return any(c == chunk for c, _ in self.items)

    def touch(self, chunk):
        entry = next(e for e in self.items if e[0] == chunk)
        self.items.remove(entry)
        self.items.append(entry)

    def admit(self, chunk, size):
        if size > self.budget:
            return
        while sum(s for _, s in self.items) + size > self.budget:
            self.items.pop(0)
        self.items.append((chunk, size))


def _reference_replay(topo, catalog, reqs, scheme, interval_s, placed, route):
    """The per-chunk replay loop written plainly: set holders from the
    reported placements plus a reference LRU, sorted candidates, dict live
    loads. `route(day, realized)` gives the day's routing and transit loads
    from yesterday's realized matrix. Returns the decisions, the interval
    MLUs, the DayStats and each day's realized matrix in bit/s."""
    chunks = ChunkMap(catalog, scheme.chunk_size)
    pops = list(topo.pops)
    origins = {c: (o.origin if o.origin is not None else topo.origin_pop)
               for c, o in catalog.items()}
    budget = int(scheme.storage_ratio * sum(chunks.sizes.values()) / len(pops))
    cache_budget = {"lru": budget,
                    "hybrid": int(budget * scheme.hybrid_reserve + 0.5)
                    }.get(scheme.placement, 0)
    caches = {p: _RefLru(cache_budget) for p in pops}
    w = inverse_cap_weights(topo)
    dists = all_pairs_distances(topo, w)
    caps = {l.id: l.capacity for l in topo.links}
    util_aware = scheme.redirection == "utilization-aware"
    decisions, mlus, days, realized_days = [], [], [], []
    realized = {}
    reqs = sorted(reqs, key=lambda r: r.timestamp)
    for day, stored in enumerate(placed):
        routing, transit_loads = route(day, realized)
        day_mlus, day_bytes = [], defaultdict(int)
        served = from_origin = 0
        for iv in range(math.ceil(86400 / interval_s)):
            start = day * 86400.0 + iv * interval_s
            end = min(start + interval_s, (day + 1) * 86400.0)
            live = dict(transit_loads)
            commodity = defaultdict(int)
            for r in reqs:
                if not start <= r.timestamp < end:
                    continue
                client, origin = r.pop, origins[r.content]
                for chunk, nbytes in chunks.request_chunks(r.content, r.nbytes):
                    server = client
                    if client == origin:
                        pass
                    elif caches[client].holds(chunk):
                        caches[client].touch(chunk)
                    elif chunk in stored.get(client, ()):
                        pass
                    else:
                        holders = {p for p in pops
                                   if chunk in stored.get(p, ())
                                   or caches[p].holds(chunk)}
                        if util_aware:
                            rate = nbytes * 8.0 / (end - start)
                            best = None
                            for cand in sorted((holders | {origin}) - {client}):
                                worst = 0.0
                                for link_id, frac in routing[(cand, client)].items():
                                    if frac <= 0.0:
                                        continue
                                    util = (live.get(link_id, 0.0)
                                            + frac * rate) / caps[link_id]
                                    worst = max(worst, util)
                                key = (worst, dists[(client, cand)], cand)
                                if best is None or key < best:
                                    best = key
                            server = best[2]
                            for link_id, frac in routing[(server, client)].items():
                                live[link_id] = live.get(link_id, 0.0) + frac * rate
                        elif holders:
                            server = min(holders,
                                         key=lambda j: (dists[(client, j)], j))
                        else:
                            server = origin
                        commodity[(server, client)] += nbytes
                        day_bytes[(server, client)] += nbytes
                        if server == origin:
                            from_origin += nbytes
                        caches[client].admit(chunk, chunks.sizes[chunk])
                    served += nbytes
                    reason = ("local-hit" if server == client else
                              "origin" if server == origin else
                              "remote-replica")
                    decisions.append((r.timestamp, client,
                                      f"{chunk[0]}#{chunk[1]}", server, reason))
            tm = {k: b * 8.0 / (end - start)
                  for k, b in sorted(commodity.items())}
            loads = apply_routing(routing, tm)
            for link_id, extra in transit_loads.items():
                loads[link_id] = loads.get(link_id, 0.0) + extra
            day_mlus.append(mlu(loads, topo))
        mlus += day_mlus
        ordered = sorted(day_mlus)
        p99 = ordered[math.ceil(0.99 * len(ordered)) - 1]
        hit, share = 1.0, 0.0
        if served:
            hit, share = (served - from_origin) / served, from_origin / served
        days.append(DayStats(day, p99, sum(day_mlus) / len(day_mlus), hit,
                             share))
        realized = {k: b * 8.0 / 86400.0 for k, b in sorted(day_bytes.items())}
        realized_days.append(realized)
    return decisions, mlus, days, realized_days


def _route_by_rule(topo, catalog, trace, scheme, placed):
    """route(day, realized) for `_reference_replay`: the day's routing by
    the rule in run_experiment's docstring, rebuilt from the reported
    placements, and its transit loads."""
    chunks = ChunkMap(catalog, scheme.chunk_size)
    origins = {c: (o.origin if o.origin is not None else topo.origin_pop)
               for c, o in catalog.items()}
    ic = shortest_path_routes(topo, inverse_cap_weights(topo))
    transit = scheme.transit

    def route(day, realized):
        if scheme.routing == "inversecap" or (
                scheme.routing == "min-mlu-prior-day" and day == 0):
            routing = ic
        else:
            if scheme.routing == "min-mlu-future":
                demand_day = day
            elif scheme.placement in ("optimized", "hybrid"):
                demand_day = day - 1
            else:
                demand_day = None  # yesterday's realized matrix
            tm = realized
            if demand_day is not None:
                dm = aggregate_demand(trace, (demand_day * 86400.0,
                                              (demand_day + 1) * 86400.0),
                                      chunks)
                tm = induced_traffic_matrix(dm, Placement(placed[day]),
                                            origins, topo)
            if transit is not None and transit.mode == "combined":
                tm = dict(tm)
                for k, rate in transit.tm.items():
                    tm[k] = tm.get(k, 0.0) + rate
            routing = lp_mod.solve_min_mlu_routing(topo, tm)
        loads = {}
        if transit is not None:
            loads = apply_routing(
                routing if transit.mode == "combined" else ic, transit.tm)
        return routing, loads

    return route


def _replay_and_reference(topo, catalog, reqs, scheme, monkeypatch,
                          interval_s=3600.0):
    """run_experiment and the reference on the same scheme. Returns both,
    and the matrices the run's min-MLU routings ran on."""
    trace = trace_from_rows(reqs)
    routed_on = []
    real = lp_mod.solve_min_mlu_routing

    def recorded(topo, tm):
        routed_on.append(dict(tm))
        return real(topo, tm)

    monkeypatch.setattr(lp_mod, "solve_min_mlu_routing", recorded)
    rep = run_experiment(topo, catalog, trace, scheme, interval_s,
                         collect_decisions=True, collect_placements=True)
    monkeypatch.undo()
    # the day count comes from the requests, and lru schemes store
    # nothing, whatever the run reports
    n_days = int(max(r.timestamp for r in reqs) // 86400) + 1
    assert len(rep.days) == n_days
    placed = [defaultdict(set) for _ in range(n_days)]
    if scheme.placement == "lru":
        assert not rep.placements
    else:
        for epoch, pop, chunk in rep.placements:
            placed[epoch][pop].add(chunk)
    ref = _reference_replay(topo, catalog, reqs, scheme, interval_s, placed,
                            _route_by_rule(topo, catalog, trace, scheme,
                                           placed))
    return rep, ref, routed_on


def _assert_same_replay(rep, ref):
    decisions, mlus, days, _ = ref
    assert rep.decisions == decisions
    assert [v for _, _, v in rep.intervals] == mlus
    assert rep.days == days


def _random_requests(rng, topo, days, n_objects, per_day, own_origins):
    pops = list(topo.pops)
    catalog = {}
    for i in range(n_objects):
        cid = f"o{i}"
        catalog[cid] = ContentObject(cid, rng.randint(1000, 9000),
                                     rng.choice(pops) if own_origins else None)
    names = sorted(catalog)
    weights = [1.0 / (k + 1) for k in range(n_objects)]
    reqs = []
    for day in range(days):
        for _ in range(per_day):
            cid = rng.choices(names, weights)[0]
            size = catalog[cid].size
            nbytes = size if rng.random() < 0.6 else rng.randint(1, size)
            # a coarse clock, so some requests share a timestamp
            ts = day * 86400.0 + rng.randrange(0, 86400, 60)
            reqs.append(Row(ts, rng.choice(pops), cid, nbytes))
    return catalog, reqs


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_replay_matches_reference_hybrid_util_aware_combined(seed,
                                                             monkeypatch):
    # hybrid + utilization-aware + chunks + min-mlu-prior-day with combined
    # transit: the day's routing is rebuilt by its rule, the replay by the
    # plain reference loop, and both must agree exactly
    rng = random.Random(seed)
    topo = random_symmetric_topology(6, seed, extra_link_prob=0.3)
    catalog, reqs = _random_requests(rng, topo, 3, 12, 150, own_origins=True)
    pops = list(topo.pops)
    transit_tm = {tuple(rng.sample(pops, 2)): rng.uniform(1e3, 1e5)
                  for _ in range(3)}
    scheme = SchemeSpec("hybrid", "min-mlu-prior-day", "utilization-aware",
                        storage_ratio=0.8, chunk_size=2500,
                        hybrid_reserve=0.4,
                        transit=TransitSpec(transit_tm, "combined"))
    rep, ref, _ = _replay_and_reference(topo, catalog, reqs, scheme,
                                        monkeypatch)
    assert any(epoch == 1 for epoch, _, _ in rep.placements)
    assert {d[4] for d in ref[0]} == {"local-hit", "origin",
                                      "remote-replica"}
    _assert_same_replay(rep, ref)


@pytest.mark.parametrize("seed", [5, 17, 23])
def test_replay_matches_reference_lru_util_aware_ecmp_ties(seed, monkeypatch):
    # equal capacities: hop-count distances tie often and ECMP splits
    # flows, so the tie-break decides many requests
    rng = random.Random(seed)
    topo = random_digraph(7, rng, caps=(1000,))
    catalog, reqs = _random_requests(rng, topo, 2, 10, 200, own_origins=False)
    scheme = SchemeSpec("lru", "inversecap", "utilization-aware",
                        storage_ratio=0.6)
    ic = shortest_path_routes(topo, inverse_cap_weights(topo))
    assert any(len(fracs) > 1 and any(f < 1.0 for f in fracs.values())
               for fracs in ic.values())  # some route splits
    rep, ref, _ = _replay_and_reference(topo, catalog, reqs, scheme,
                                        monkeypatch)
    _assert_same_replay(rep, ref)


def test_replay_matches_reference_with_a_short_tail_interval(monkeypatch):
    # 7000 s intervals leave a 2400 s tail each day: its byte rates, and
    # the utilization-aware rule's access rates, divide by the tail's
    # length; transit loads of the same size as those rates make the
    # choice depend on the divisor
    rng = random.Random(13)
    topo = random_digraph(6, rng, caps=(1000,))
    catalog, reqs = _random_requests(rng, topo, 2, 8, 400, own_origins=True)
    transit = TransitSpec({(0, 3): 20.0, (2, 5): 40.0, (4, 1): 30.0},
                          "inversecap")
    scheme = SchemeSpec("lru", "inversecap", "utilization-aware",
                        storage_ratio=1.0, transit=transit)
    rep, ref, _ = _replay_and_reference(topo, catalog, reqs, scheme,
                                        monkeypatch, interval_s=7000.0)
    _assert_same_replay(rep, ref)
    assert rep.intervals[12][1] == 84000.0
    assert any(d[0] >= 84000.0 and d[4] == "remote-replica"
               for d in rep.decisions)


_CLOSEST_SCHEMES = {
    "lru": dict(placement="lru", routing="inversecap", storage_ratio=0.6),
    "hybrid": dict(placement="hybrid", routing="inversecap",
                   storage_ratio=0.8, hybrid_reserve=0.4,
                   transit="inversecap"),
    "optimized-chunked": dict(placement="optimized", routing="inversecap",
                              storage_ratio=0.8, chunk_size=2500),
    "future": dict(placement="future", routing="min-mlu-future",
                   storage_ratio=0.8),
    "zero-budgets": dict(placement="optimized", routing="min-mlu-prior-day",
                         storage_ratio=1e-9),
    "lru-realized": dict(placement="lru", routing="min-mlu-prior-day",
                         storage_ratio=0.6, transit="combined"),
}


@pytest.mark.parametrize("case", sorted(_CLOSEST_SCHEMES))
def test_replay_matches_reference_closest(case, monkeypatch):
    # every placement under the closest rule, against the plain reference
    # loop: decisions, interval MLUs, day statistics, and for lru the
    # realized matrix that the next day's min-MLU routing runs on
    rng = random.Random(41)
    topo = random_symmetric_topology(6, 41, extra_link_prob=0.3)
    catalog, reqs = _random_requests(rng, topo, 3, 12, 150, own_origins=True)
    spec = dict(_CLOSEST_SCHEMES[case])
    mode = spec.pop("transit", None)
    transit = None
    if mode is not None:
        transit = TransitSpec({(1, 4): 5e4, (3, 0): 2e4}, mode)
    scheme = SchemeSpec(redirection="closest", transit=transit, **spec)
    rep, ref, routed_on = _replay_and_reference(topo, catalog, reqs, scheme,
                                                monkeypatch)
    _assert_same_replay(rep, ref)
    reasons = {d[4] for d in rep.decisions}
    if case == "zero-budgets":
        assert not rep.placements and "remote-replica" not in reasons
    else:
        assert "remote-replica" in reasons
    if case == "lru-realized":
        realized = ref[3]
        assert routed_on == [
            {**day, **{k: day.get(k, 0.0) + rate
                       for k, rate in transit.tm.items()}}
            for day in realized[:-1]]


@pytest.mark.parametrize("redirection", ["closest", "utilization-aware"])
def test_replay_matches_reference_past_63_pops(redirection, monkeypatch):
    # holder sets are bitmasks over pop positions: 70 pops need more than
    # one 64-bit word, and caches at positions 64-69 must count as holders
    rng = random.Random(7)
    topo = random_symmetric_topology(70, 7, extra_link_prob=0.02)
    catalog, reqs = _random_requests(rng, topo, 2, 4, 120, own_origins=False)
    scheme = SchemeSpec("lru", "inversecap", redirection, storage_ratio=4.0,
                        chunk_size=3000)
    rep, ref, _ = _replay_and_reference(topo, catalog, reqs, scheme,
                                        monkeypatch)
    _assert_same_replay(rep, ref)
    assert any(d[3] >= 64 and d[4] == "remote-replica" for d in rep.decisions)


def test_runs_share_each_days_demand_per_trace(monkeypatch):
    # runs on one trace aggregate each day's demand once; a second trace
    # through the same table gets its own demand, not the first one's
    import cdnte.engine as engine_mod
    calls = []
    real = engine_mod.aggregate_demand

    def counted(trace, window, chunks):
        calls.append(window)
        return real(trace, window, chunks)

    monkeypatch.setattr(engine_mod, "aggregate_demand", counted)
    topo = _origin_triangle()
    catalog, trace = _daily_trace(3, objects=("A", "B"))
    _, other = _daily_trace(3, pops=(0,), objects=("B",))
    plans = {}
    for placement in ("optimized", "future", "hybrid"):
        run_experiment(topo, catalog, trace,
                       SchemeSpec(placement, "inversecap", storage_ratio=1.0),
                       3600.0, plans=plans)
    assert len(calls) == 3
    future = SchemeSpec("future", "min-mlu-future", storage_ratio=1.5)
    first = run_experiment(topo, catalog, trace, future, 3600.0,
                           collect_placements=True, plans=plans)
    shared = run_experiment(topo, catalog, other, future, 3600.0,
                            collect_placements=True, plans=plans)
    assert len(calls) == 6
    own = run_experiment(topo, catalog, other, future, 3600.0,
                         collect_placements=True)
    assert shared.placements == own.placements != first.placements
    assert shared.intervals == own.intervals


def test_run_rejects_a_routing_that_breaks_conservation(monkeypatch):
    # every routing the engine uses is checked: a commodity that loses
    # half its flow stops the run with SimplexError naming it
    real = lp_mod.solve_min_mlu_routing

    def halved(topo, tm):
        routing = real(topo, tm)
        routing[(2, 1)] = {lid: f / 2 for lid, f in routing[(2, 1)].items()}
        return routing

    monkeypatch.setattr(lp_mod, "solve_min_mlu_routing", halved)
    catalog, trace = _daily_trace(2)
    scheme = SchemeSpec("optimized", "min-mlu-prior-day", storage_ratio=1e-9)
    with pytest.raises(lp_mod.SimplexError,
                       match=r"day 1 routing: .*\(2, 1\)"):
        run_experiment(_origin_triangle(), catalog, trace, scheme, 3600.0)


def test_each_routing_object_checked_once_per_table(monkeypatch):
    # the InverseCap routes serve every inversecap day of every run on a
    # table, and are checked once; each min-MLU routing is a new object
    # and is checked on the day it is made
    import cdnte.engine as engine_mod
    checked = []
    real = engine_mod.check_flow_conservation

    def counted(routing, topo):
        checked.append(id(routing))
        return real(routing, topo)

    monkeypatch.setattr(engine_mod, "check_flow_conservation", counted)
    catalog, trace = _daily_trace(3)
    topo, plans = _origin_triangle(), {}
    for _ in range(2):
        run_experiment(topo, catalog, trace,
                       SchemeSpec("lru", "inversecap", storage_ratio=1.0),
                       3600.0, plans=plans)
    assert checked == [id(topo.ic_routes)]
    run_experiment(topo, catalog, trace,
                   SchemeSpec("lru", "min-mlu-prior-day", storage_ratio=1.0),
                   3600.0, plans=plans)
    assert len(checked) == 3 and len(set(checked[1:])) == 2


def test_path_table_built_once_per_routing_object(monkeypatch):
    # a routing's Routes are built with its conservation check, not per
    # day or per run: the InverseCap routes (day 0's routing and every
    # day's transit) get one table per topology, each min-MLU routing
    # one, and the planner's routing, the same object on every day and
    # in every run on the plan table, one
    import cdnte.engine as engine_mod
    import cdnte.topology as topo_mod
    built = []
    real = engine_mod.path_table

    def counted(topo, routing):
        built.append(id(routing))
        return real(topo, routing)

    monkeypatch.setattr(engine_mod, "path_table", counted)
    monkeypatch.setattr(topo_mod, "path_table", counted)
    catalog, trace = _daily_trace(4)
    topo, plans = _origin_triangle(), {}
    run_experiment(topo, catalog, trace,
                   SchemeSpec("lru", "min-mlu-prior-day", storage_ratio=1.0,
                              transit=TransitSpec({(0, 1): 2e3},
                                                  "inversecap")),
                   3600.0, plans=plans)
    assert len(built) == 4 and len(set(built)) == 4
    assert built[0] == id(topo.ic_routes)
    for _ in range(2):  # every day's demand, so every day's plan, is one
        run_experiment(topo, catalog, trace,
                       SchemeSpec("future", "min-mlu-future",
                                  storage_ratio=1.0), 3600.0, plans=plans)
    assert len(built) == 5 and len(set(built)) == 5
    run_experiment(topo, catalog, trace,
                   SchemeSpec("lru", "inversecap", storage_ratio=1.0), 3600.0)
    assert len(built) == 5


def test_future_day_replay_is_the_planners_rule_without_the_origin_bit():
    # a `future` + `closest` day with no cache: replay's realized matrix is
    # redirect_closest over the day's demand pairs with the placement's
    # holder table, and the planner's induced matrix is the same call with
    # each chunk's origin bit set; on this day the bit changes servers
    rng = random.Random(83)
    topo = random_symmetric_topology(8, 83, extra_link_prob=0.3)
    catalog, reqs = _random_requests(rng, topo, 1, 30, 400, own_origins=True)
    trace = trace_from_rows(reqs)
    scheme = SchemeSpec("future", "inversecap", "closest", storage_ratio=2.0)
    rep = run_experiment(topo, catalog, trace, scheme, 3600.0,
                         collect_placements=True, collect_matrices=True)
    realized = defaultdict(float)
    for matrix in rep.interval_matrices:
        for key, nbytes in matrix.items():
            realized[key] += nbytes
    realized = {k: b * 8.0 / 86400.0 for k, b in realized.items()}

    chunks, origins, _, cache_budgets = scheme_inputs(topo, catalog, scheme)
    assert not any(cache_budgets.values())
    dm = aggregate_demand(trace, (0.0, 86400.0), chunks)
    placement = Placement()
    for _, pop, chunk in rep.placements:
        placement.stored.setdefault(pop, set()).add(chunk)
    at, pops = topo.pop_at, topo.pops
    pairs = sorted(k for k, nbytes in dm.demand.items() if nbytes > 0)
    chunk_at = {c: i for i, c in enumerate(sorted({c for c, _ in pairs}))}
    origin_of = [at[origins[c[0]]] for c in chunk_at]
    masks = placed_masks(placement.stored, at, chunk_at)
    clients = np.array([at[p] for _, p in pairs])
    rows = np.array([chunk_at[c] for c, _ in pairs])

    def served(origin_bit):
        ids, table = holder_table([m | origin_bit << o
                                   for m, o in zip(masks, origin_of)],
                                  len(pops))
        origin = np.array(origin_of)[rows]
        servers = redirect_closest(clients, origin, ids[rows], table,
                                   topo.ic_order)
        tm = {}
        for pair, s, c, o in zip(pairs, servers.tolist(), clients.tolist(),
                                 origin.tolist()):
            # a client that is the chunk's origin serves itself
            if s != c and c != o:
                key = (pops[s], pops[c])
                tm[key] = tm.get(key, 0.0) \
                    + dm.demand[pair] * 8.0 / dm.window_seconds
        return tm

    replay_rule, planner_rule = served(0), served(1)
    assert realized.keys() == replay_rule.keys()
    for key, rate in replay_rule.items():
        assert realized[key] == pytest.approx(rate, rel=1e-12, abs=0)
    assert induced_traffic_matrix(dm, placement, origins, topo) == planner_rule
    assert replay_rule != planner_rule
