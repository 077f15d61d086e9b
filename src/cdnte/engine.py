"""Day-loop simulator: per epoch compute each scheme's placement and
routing, replay the day's requests in array passes (chunk expansion, the
cache pass, the server pass and integer byte sums), accumulate traffic
matrices and link loads, and report MLU statistics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import lp as lp_mod
from .placement import (CacheState, Placement, induced_traffic_matrix,
                        plan_placement_optimized, replay_caches, split_hybrid)
from .redirection import (holder_table, placed_masks, redirect_closest,
                          redirect_utilization_aware, serve_reason)
from .traffic import (Routes, RoutingSolution, TrafficMatrix, byte_sums,
                      check_flow_conservation, exact_total, link_loads,
                      path_table, validate_traffic_matrix)
from .workload import (DAY_SECONDS, Catalog, ChunkId, ChunkMap, DemandMatrix,
                       Trace, aggregate_demand)

PLACEMENTS = ("lru", "optimized", "future", "hybrid")
ROUTINGS = ("inversecap", "min-mlu-prior-day", "min-mlu-future")
REDIRECTIONS = ("closest", "utilization-aware")
TRANSIT_MODES = ("inversecap", "combined")


class ValidationError(ValueError):
    pass


@dataclass
class TransitSpec:
    tm: TrafficMatrix
    mode: str = "inversecap"  # inversecap | combined


@dataclass
class SchemeSpec:
    placement: str
    routing: str
    redirection: str = "closest"
    storage_ratio: float = 1.0
    chunk_size: Optional[int] = None
    hybrid_reserve: float = 0.1
    transit: Optional[TransitSpec] = None
    name: Optional[str] = None

    def validate(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValidationError(f"unknown placement {self.placement!r}")
        if self.routing not in ROUTINGS:
            raise ValidationError(f"unknown routing {self.routing!r}")
        if self.redirection not in REDIRECTIONS:
            raise ValidationError(f"unknown redirection {self.redirection!r}")
        if not self.storage_ratio > 0:
            raise ValidationError("storage_ratio must be positive")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValidationError("chunk_size must be positive")
        if not 0.0 <= self.hybrid_reserve <= 1.0:
            raise ValidationError("hybrid reserve must be in [0, 1]")
        if self.placement in ("lru", "hybrid") and self.routing == "min-mlu-future":
            raise ValidationError(
                "min-mlu-future routing needs a plannable placement "
                "(the realized matrix would depend on cache evolution)")
        if self.transit is not None and self.transit.mode not in TRANSIT_MODES:
            raise ValidationError(f"unknown transit mode {self.transit.mode!r}")
        if self.name is not None and "," in self.name:
            # the label is a field of every CSV row the scheme writes
            raise ValidationError(f"bad scheme option name={self.name!r}: "
                                  "a name must not contain a comma")

    def label(self) -> str:
        if self.name:
            return self.name
        parts = [self.placement, self.routing, self.redirection,
                 f"r{self.storage_ratio:g}"]
        if self.placement == "hybrid":
            parts.append(f"h{self.hybrid_reserve:g}")
        if self.chunk_size:
            parts.append(f"c{self.chunk_size}")
        return "+".join(parts)


@dataclass
class DayStats:
    day: int
    p99_mlu: float
    mean_mlu: float
    hit_ratio: float
    origin_fraction: float


@dataclass
class MluReport:
    """One run's per-interval MLUs and per-day statistics, and the first
    run's decisions, placements and interval matrices if collected."""
    scheme: str
    # (day, start_s, mlu)
    intervals: List[Tuple[int, float, float]] = field(default_factory=list)
    days: List[DayStats] = field(default_factory=list)
    decisions: List[Tuple[float, int, str, int, str]] = field(default_factory=list)
    placements: List[Tuple[int, int, ChunkId]] = field(default_factory=list)
    interval_matrices: List[Dict[Tuple[int, int], int]] = field(default_factory=list)

    def mean_daily_p99(self) -> float:
        if not self.days:
            return 0.0
        return sum(d.p99_mlu for d in self.days) / len(self.days)


def p99_and_mean(mlus: List[float]) -> Tuple[float, float]:
    """A day's MLU statistics from its interval MLUs (at least one): the
    nearest-rank 99th percentile and the mean."""
    ordered = sorted(mlus)
    return (ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)],
            sum(mlus) / len(mlus))


def _chunk_label(chunk: ChunkId) -> str:
    return f"{chunk[0]}#{chunk[1]}"


def scheme_inputs(topo, catalog: Catalog, scheme: SchemeSpec
                  ) -> Tuple[ChunkMap, Dict[str, int], Dict[int, int], Dict[int, int]]:
    """What a scheme's plans are built from: the chunk map, each object's
    origin PoP (the catalog's, else the topology's; it must be a PoP), and
    the planned-store and LRU-cache budgets per PoP. `split_hybrid` splits
    each PoP's budget, ratio * total chunked catalog bytes / pop count:
    `lru` caches all of it, `hybrid` its reserve, the others none of it."""
    chunks = ChunkMap(catalog, scheme.chunk_size)
    pop_set = set(topo.pops)
    origins = {}
    for cid, obj in catalog.items():
        origin = obj.origin if obj.origin is not None else topo.origin_pop
        if origin not in pop_set:
            raise ValidationError(f"content {cid}: origin pop {origin} unknown")
        origins[cid] = origin
    budget = scheme.storage_ratio * chunks.total_bytes / len(topo.pops)
    if not math.isfinite(budget):
        raise ValidationError(f"bad storage ratio {scheme.storage_ratio:g}: "
                              "its per-pop budget is not finite")
    budget = int(budget)
    cached = {"lru": 1.0, "hybrid": scheme.hybrid_reserve}.get(scheme.placement, 0.0)
    return (chunks, origins, *split_hybrid({p: budget for p in topo.pops}, cached))


# Plans, each day's demand and the routings already checked, with their
# Routes, shared by the runs on one trace: `_plan`, `_demand` and
# `_check_routing` each key their entries by what the entry is a pure
# function of, so the kinds never collide.
PlanTable = Dict[tuple, tuple]


def _demand(plans: PlanTable, trace: Trace, day: int,
            chunks: ChunkMap) -> DemandMatrix:
    """aggregate_demand over day `day`, looked up first in `plans` under
    the trace, the day and the chunk size. For a valid catalog the chunk
    size alone fixes how a request expands into chunks. The entry keeps
    the trace, so no other trace can take its id while the entry exists."""
    key = ("demand", id(trace), day, chunks.chunk_size)
    if key not in plans:
        window = (day * DAY_SECONDS, (day + 1) * DAY_SECONDS)
        plans[key] = (trace, aggregate_demand(trace, window, chunks))
    return plans[key][1]


def _plan(plans: PlanTable, dm: DemandMatrix, topo, budgets: Dict[int, int],
          chunks: ChunkMap, origins: Dict[str, int]
          ) -> Tuple[Placement, RoutingSolution]:
    """plan_placement_optimized, looked up first in `plans` under the
    contents it is a pure function of: the topology's pops, links and
    capacities, the demand and its window, the budgets, the chunk sizes
    and the origins. Callers only read the returned placement and routing,
    so one stored plan serves every run that asks for it."""
    key = (topo.pops,
           tuple((l.id, l.src, l.dst, l.capacity) for l in topo.links),
           dm.window_seconds, tuple(sorted(dm.demand.items())),
           tuple(sorted(budgets.items())), tuple(sorted(chunks.sizes.items())),
           tuple(sorted(origins.items())))
    if key not in plans:
        plans[key] = plan_placement_optimized(dm, topo, budgets, chunks,
                                              origins)
    return plans[key]


def _check_routing(plans: PlanTable, topo, routing: RoutingSolution,
                   what: str) -> Routes:
    """check_flow_conservation, then the routing's `Routes`, once per
    routing object and topology in `plans` (the InverseCap routes' are the
    topology's own): routings are only read, so one that passed still
    does. The entry keeps both, so no other object can take their ids. A
    routing that fails exits with SimplexError: `what`, then the commodity."""
    key = ("checked", id(routing), id(topo))
    if key not in plans:
        try:
            check_flow_conservation(routing, topo)
        except ValueError as exc:
            raise lp_mod.SimplexError(f"{what}: {exc}") from None
        plans[key] = (routing, topo, topo.ic_paths
                      if routing is topo.ic_routes else
                      path_table(topo, routing))
    return plans[key][2]


# A day is replayed in blocks of whole intervals, of about this many rows
# and at most this many intervals, so that the block's arrays stay small.
_BLOCK_ROWS = 1 << 14
_BLOCK_INTERVALS = 256


class _Replay:
    """One run's replay, a day at a time. Each block of the day's rows is
    expanded into chunk accesses, the accesses run through the PoP caches
    in trace order (`replay_caches`: a hit or a planned holder is local,
    a miss is admitted), each miss gets its server (`redirect_closest`
    for the whole block, `redirect_utilization_aware` interval by
    interval), and the bytes are summed per (interval, server, client) as
    integers. Only the caches and their `cached` masks outlive a day; the
    planned holders come from each day's placement (`placed_masks`). PoPs
    are held by position in `topo.pops`, chunks by index in the ChunkMap."""

    def __init__(self, topo, trace: Trace, scheme: SchemeSpec,
                 chunks: ChunkMap, origins: Dict[str, int],
                 cache_budgets: Dict[int, int], interval_s: float,
                 collect_decisions: bool, collect_matrices: bool):
        self.topo, self.trace, self.chunks = topo, trace, chunks
        self.interval_s = interval_s
        self.use_util_aware = scheme.redirection == "utilization-aware"
        self.collect_decisions = collect_decisions
        self.collect_matrices = collect_matrices
        self.sizes = list(chunks.sizes.values())
        self.caches: Optional[List[CacheState]] = None
        if any(cache_budgets.values()):
            self.caches = [CacheState(p, cache_budgets[p]) for p in topo.pops]
        self.cached = [0] * len(self.sizes)  # per chunk, pops caching it
        self.origin_of = np.array([topo.pop_at[origins[cid]]
                                   for cid in trace.content_ids],
                                  dtype=np.int64)
        self.labels = [_chunk_label(c) for c in chunks.sizes] \
            if collect_decisions else []
        self.order = topo.ic_order

    def day(self, day: int, placement: Placement, routes: Routes,
            transit: np.ndarray, report: MluReport) -> TrafficMatrix:
        """Replay one day on `routes`, with the `transit` loads by link
        position. Appends its intervals and its `DayStats`, and its
        decisions and interval matrices if collected, to `report`; a day
        that served no bytes has hit ratio 1 and origin fraction 0.
        Returns the realized matrix in bit/s."""
        topo, n_pops = self.topo, len(self.topo.pops)
        # the day's planned holders of each chunk, as a holder table when
        # there are no caches
        planned = placed_masks(placement.stored, topo.pop_at,
                               self.chunks.index)
        if self.caches is None:
            planned = holder_table(planned, n_pops)
        tables = (routes, planned, transit)

        # today's interval boundaries as floats; the last may be shorter
        n_intervals = int(math.ceil(DAY_SECONDS / self.interval_s))
        starts = [day * DAY_SECONDS + iv * self.interval_s
                  for iv in range(n_intervals)]
        ends = [min(start + self.interval_s, (day + 1) * DAY_SECONDS)
                for start in starts]
        rows = self.trace.span(day * DAY_SECONDS, (day + 1) * DAY_SECONDS)
        row_ends = (rows.start + np.searchsorted(
            self.trace.timestamps[rows], ends)).tolist()

        day_mlus: List[float] = []
        served = from_origin = 0
        commodities, sums = [], []
        first, begin = 0, rows.start
        for iv, end in enumerate(row_ends):
            if (end - begin < _BLOCK_ROWS and iv - first + 1 < _BLOCK_INTERVALS
                    and iv < n_intervals - 1):
                continue
            mlus, b_served, b_origin, b_commodities, b_sums = self._block(
                day, slice(begin, end), starts[first:iv + 1],
                ends[first:iv + 1], tables, report)
            day_mlus += mlus
            served += b_served
            from_origin += b_origin
            commodities.append(b_commodities)
            sums.append(b_sums)
            first, begin = iv + 1, end

        if served > 0:
            shares = ((served - from_origin) / served, from_origin / served)
        else:
            shares = (1.0, 0.0)
        report.days.append(DayStats(day, *p99_and_mean(day_mlus), *shares))

        # the realized matrix: the day's bytes per (server, client)
        keys, realized = byte_sums(np.concatenate(commodities),
                                   np.concatenate(sums))
        ids = topo.pops
        pairs = (divmod(k, n_pops) for k in keys.tolist())
        return {(ids[s], ids[c]): b * 8.0 / DAY_SECONDS
                for (s, c), b in zip(pairs, realized.tolist())}

    def _block(self, day: int, rows: slice, starts: List[float],
               ends: List[float], tables: tuple, report: MluReport):
        """Replay the rows of the intervals that start at `starts` and end
        at `ends`, on the day's `tables`: its routes, its planned holders
        (`placed_masks`' list, or its holder table when there are no
        caches) and its transit loads by link position. Returns their
        MLUs, the bytes served and served by the origin, and the byte sums
        per (server, client) commodity, as server position * pop count +
        client position."""
        routes, planned, transit = tables
        trace, ids = self.trace, self.topo.pops
        n_pops, n_intervals = len(ids), len(starts)
        lengths = [end - start for start, end in zip(starts, ends)]

        # expand: the chunk accesses in trace order
        codes = trace.contents[rows]
        row, chunk, nbytes = self.chunks.expand(trace.content_ids, codes,
                                                trace.nbytes[rows])
        client = np.searchsorted(ids, trace.pops[rows])[row]
        origin = self.origin_of[codes][row]

        # cache pass: the misses, and the holders each one saw
        away = np.flatnonzero(client != origin)
        if self.caches is None:
            holder_ids, holder_sets = planned
            holder_ids = holder_ids[chunk[away]]
            missed = ~holder_sets[holder_ids, client[away]]
            miss, holder_ids = away[missed], holder_ids[missed]
        else:
            missed, masks = replay_caches(
                self.caches, client[away].tolist(), chunk[away].tolist(),
                self.sizes, planned, self.cached)
            miss = away[np.array(missed, dtype=np.int64)]
            holder_ids, holder_sets = holder_table(masks, n_pops)
        m_client, m_origin, m_bytes = client[miss], origin[miss], nbytes[miss]
        m_iv = np.searchsorted(ends, trace.timestamps[rows],
                               side="right")[row[miss]]

        # server pass
        if self.use_util_aware:
            rates = m_bytes * 8.0 / np.array(lengths)[m_iv]
            servers = np.empty(len(miss), dtype=np.int64)
            bounds = np.searchsorted(m_iv, np.arange(n_intervals + 1)).tolist()
            for lo, hi in zip(bounds, bounds[1:]):
                if lo < hi:
                    servers[lo:hi] = redirect_utilization_aware(
                        m_client[lo:hi], m_origin[lo:hi], holder_ids[lo:hi],
                        holder_sets, rates[lo:hi], transit.tolist(), routes,
                        self.order)
        else:
            servers = redirect_closest(m_client, m_origin, holder_ids,
                                       holder_sets, self.order)

        # integer bytes per (interval, server, client), in sorted order
        n_pairs = n_pops * n_pops
        keys, sums = byte_sums((m_iv * n_pops + servers) * n_pops + m_client,
                               m_bytes)
        key_iv, commodities = keys // n_pairs, keys % n_pairs

        # each interval's loads, the commodities in sorted order, then the
        # transit loads: the floats of apply_routing and mlu
        loads = np.zeros((n_intervals, len(routes.capacities)))
        routes.add_loads(loads, commodities,
                         sums * 8.0 / np.array(lengths)[key_iv], key_iv)
        mlus = ((loads + transit) / routes.capacities).max(axis=1).tolist()
        report.intervals.extend(zip([day] * n_intervals, starts, mlus))
        if self.collect_matrices:
            bounds = np.searchsorted(key_iv, np.arange(n_intervals + 1))
            for lo, hi in zip(bounds, bounds[1:]):
                report.interval_matrices.append(
                    {(ids[k // n_pops], ids[k % n_pops]): b for k, b in zip(
                        commodities[lo:hi].tolist(), sums[lo:hi].tolist())})

        if self.collect_decisions:
            server_of = client.copy()
            server_of[miss] = servers
            report.decisions.extend(
                (ts, ids[c], self.labels[k], ids[s], serve_reason(c, s, o))
                for ts, c, k, s, o in zip(
                    trace.timestamps[rows][row].tolist(), client.tolist(),
                    chunk.tolist(), server_of.tolist(), origin.tolist()))

        from_origin = exact_total(m_bytes[servers == m_origin])
        return mlus, exact_total(nbytes), from_origin, commodities, sums


def run_experiment(topo, catalog: Catalog, trace: Trace,
                   scheme: SchemeSpec, interval_s: float = 300.0,
                   collect_decisions: bool = False,
                   collect_placements: bool = False,
                   collect_matrices: bool = False,
                   plans: Optional[PlanTable] = None) -> MluReport:
    """Replay a trace under one scheme, a day at a time: plan, route,
    replay. The report holds every interval's MLU and each day's
    `DayStats` (p99 and mean MLU, hit ratio and origin fraction of the
    day's bytes), plus the request decisions, the daily placements and
    the per-interval byte matrices when `collect_decisions`,
    `collect_placements` and `collect_matrices` ask for them.
    Deterministic for identical inputs.

    Each day's placement and routing follow one rule:

    * Placement: `optimized` and `hybrid` plan from yesterday's demand and
      have an empty placement on day 0; `future` plans from today's
      demand; `lru` plans nothing.
    * Routing: `inversecap`, and `min-mlu-prior-day` on day 0, use the
      InverseCap ECMP routes. Otherwise min-MLU routing runs on the
      placement's nearest-replica matrix of today's demand
      (`min-mlu-future`) or of yesterday's demand (`min-mlu-prior-day`
      with a placement planned from yesterday), else on yesterday's
      realized matrix. A `combined` transit matrix is added to it. When
      that is the matrix the planner routed (same demand, no `combined`
      transit), the planner's routing is used as it is.
    * Transit: routed once a day, on the InverseCap routes in
      `inversecap` mode and on the day's routing in `combined` mode.

    Every routing used is checked for flow conservation first, once per
    routing object; a routing that fails exits the run with SimplexError
    naming the commodity.

    `plans` is a table of plans, day demands and checked routings shared
    with other runs (see `_plan`, `_demand` and `_check_routing`); without
    one the run keeps its own.
    """
    scheme.validate()
    if not 0 < interval_s < math.inf:
        raise ValidationError("interval_s must be positive and finite")
    if len(topo.pops) < 2 or not topo.links:
        raise ValidationError("topology must have at least 2 pops and links")
    if not len(trace):
        raise ValidationError("empty trace")
    pop_set = set(topo.pops)
    known = np.array([cid in catalog for cid in trace.content_ids])
    bad_pop = ~np.isin(trace.pops, topo.pops)
    bad = bad_pop | ~known[trace.contents]
    if bad.any():
        k = int(bad.argmax())  # the first bad row
        if bad_pop[k]:
            raise ValidationError(
                f"request pop {int(trace.pops[k])} not in topology")
        content = trace.content_ids[trace.contents[k]]
        raise ValidationError(f"request content {content!r} not in catalog")

    chunks, origins, planned_budgets, cache_budgets = scheme_inputs(topo, catalog, scheme)
    if plans is None:
        plans = {}

    needs_prior = (scheme.placement in ("optimized", "hybrid")
                   or scheme.routing == "min-mlu-prior-day")
    if needs_prior and trace.days < 2:
        raise ValidationError(
            "prior-day schemes need a trace spanning at least 2 days")

    if scheme.transit is not None:
        validate_traffic_matrix(scheme.transit.tm)
        for (s, t) in scheme.transit.tm:
            if s not in pop_set or t not in pop_set:
                raise ValidationError(f"transit commodity {(s, t)} not in topology")

    replay = _Replay(topo, trace, scheme, chunks, origins, cache_budgets,
                     interval_s, collect_decisions, collect_matrices)
    combined_transit = (scheme.transit is not None
                        and scheme.transit.mode == "combined")
    transit_tm = scheme.transit.tm if scheme.transit is not None else {}
    report = MluReport(scheme.label())
    prev_dm: Optional[DemandMatrix] = None  # yesterday's; None for lru
    prev_realized: TrafficMatrix = {}

    for day in range(trace.days):
        dm: Optional[DemandMatrix] = None
        if scheme.placement != "lru":
            dm = _demand(plans, trace, day, chunks)

        # the day's placement and routing, by the rule in the docstring
        plan_dm = dm if scheme.placement == "future" else prev_dm
        placement, planner_routing = Placement(), None
        if plan_dm is not None:
            placement, planner_routing = _plan(
                plans, plan_dm, topo, planned_budgets, chunks, origins)
        if scheme.routing == "inversecap" or (
                scheme.routing == "min-mlu-prior-day" and day == 0):
            routing = topo.ic_routes
        else:
            if scheme.routing == "min-mlu-future":
                route_dm = dm
            elif scheme.placement in ("optimized", "hybrid"):
                route_dm = prev_dm
            else:
                route_dm = None  # route on yesterday's realized matrix
            if route_dm is not None and route_dm is plan_dm \
                    and not combined_transit:
                routing = planner_routing
            else:
                tm = prev_realized if route_dm is None else \
                    induced_traffic_matrix(route_dm, placement, origins, topo)
                if combined_transit:
                    tm = dict(tm)
                    for k, rate in scheme.transit.tm.items():
                        tm[k] = tm.get(k, 0.0) + rate
                routing = lp_mod.solve_min_mlu_routing(topo, tm)
        routes = _check_routing(plans, topo, routing, f"day {day} routing")
        transit = link_loads(topo, routes if combined_transit
                             else topo.ic_paths, transit_tm)
        if collect_placements:
            report.placements.extend(placement_rows(day, placement))
        prev_realized = replay.day(day, placement, routes, transit, report)
        prev_dm = dm
    return report


def distinct_labels(schemes: List[SchemeSpec]) -> List[SchemeSpec]:
    """`schemes`, each named "<label>#<position>" if two share a label."""
    labels = [s.label() for s in schemes]
    if len(set(labels)) == len(labels):
        return list(schemes)
    return [dataclasses.replace(s, name=f"{lab}#{i}")
            for i, (s, lab) in enumerate(zip(schemes, labels))]


def compare_schemes(topo, catalog: Catalog, trace: Trace,
                    schemes: List[SchemeSpec], interval_s: float = 300.0,
                    jobs: int = 1, collect_decisions: bool = False,
                    collect_placements: bool = False,
                    plans: Optional[PlanTable] = None) -> List[MluReport]:
    """Run every scheme on the identical trace: one report per scheme, in
    order, from min(jobs, runs) worker processes if above 1. Only the
    first run collects decisions and placements. Runs in this process
    share `plans` (a new table if None); each worker process plans for
    itself, which gives the same results. Labels are made distinct by
    `distinct_labels`."""
    if not schemes:
        raise ValidationError("need at least one scheme")
    # run_experiment's positional arguments, one tuple per run
    runs = [(topo, catalog, trace, s, interval_s,
             collect_decisions and i == 0, collect_placements and i == 0)
            for i, s in enumerate(distinct_labels(schemes))]
    # the pool starts all its workers at once, needed or not
    workers = min(jobs, len(runs))
    if workers > 1:
        from concurrent import futures
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_experiment, *zip(*runs)))
    plans = {} if plans is None else plans
    return [run_experiment(*run, plans=plans) for run in runs]


def sweep_runs(template: SchemeSpec, ratios: List[float]) -> List[SchemeSpec]:
    """The scheme template once per storage ratio, named
    "<label>@r<ratio>", and "#<position>" after that if two share a
    name; per-PoP budget is ratio * total chunked catalog bytes / pop
    count."""
    if not ratios:
        raise ValidationError("storage ratio list must not be empty")
    if any(r <= 0 for r in ratios):
        raise ValidationError("storage ratios must be positive")
    if list(ratios) != sorted(ratios):
        raise ValidationError("storage ratios must be ascending")
    return distinct_labels([
        dataclasses.replace(template, storage_ratio=ratio,
                            name=f"{template.label()}@r{ratio:g}")
        for ratio in ratios])


# ---------------------------------------------------------------------------
# CSV emission (plot-ready formats), derived from the runs' reports

REPORT_HEADER = "scheme,day,interval_start_s,mlu"


def report_csv(reports: List[MluReport]) -> str:
    lines = [REPORT_HEADER]
    for rep in reports:
        for day, start, value in rep.intervals:
            lines.append(f"{rep.scheme},{day},{start:.10g},{value:.10g}")
    return "\n".join(lines) + "\n"


def summary_csv(reports: List[MluReport]) -> str:
    lines = ["scheme,day,p99_mlu,mean_mlu,hit_ratio,origin_fraction"]
    for rep in reports:
        for d in rep.days:
            lines.append(f"{rep.scheme},{d.day},{d.p99_mlu:.10g},"
                         f"{d.mean_mlu:.10g},{d.hit_ratio:.10g},"
                         f"{d.origin_fraction:.10g}")
    return "\n".join(lines) + "\n"


def comparison_csv(reports: List[MluReport]) -> str:
    """Each day's p99 MLU of every run side by side, each with its ratio
    to the first run's (1 where both are 0, inf where only that is)."""
    head = ["day"]
    for rep in reports:
        head += [f"p99[{rep.scheme}]", f"ratio[{rep.scheme}]"]
    lines = [",".join(head)]
    for i, base in enumerate(reports[0].days):
        row = [str(base.day)]
        for rep in reports:
            val, ref = rep.days[i].p99_mlu, base.p99_mlu
            if ref > 0:
                ratio = val / ref
            else:
                ratio = 1.0 if val == 0 else math.inf
            row += [f"{val:.10g}", f"{ratio:.10g}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_csv(rows: List[Tuple[str, float, MluReport]]) -> str:
    """One line per swept run, from (template label, ratio, report)."""
    lines = ["scheme,storage_ratio,mean_daily_p99_mlu"]
    for label, ratio, rep in rows:
        lines.append(f"{label},{ratio:.10g},{rep.mean_daily_p99():.10g}")
    return "\n".join(lines) + "\n"


def placement_rows(epoch: int, placement: Placement
                   ) -> List[Tuple[int, int, ChunkId]]:
    """One epoch's `placements_csv` rows: (epoch, pop, chunk), sorted."""
    return [(epoch, pop, chunk) for pop in sorted(placement.stored)
            for chunk in sorted(placement.stored[pop])]


def placements_csv(rows: List[Tuple[int, int, ChunkId]]) -> str:
    lines = ["epoch,pop_id,chunk_id"]
    for epoch, pop, chunk in rows:
        lines.append(f"{epoch},{pop},{_chunk_label(chunk)}")
    return "\n".join(lines) + "\n"


def decisions_csv(report: MluReport) -> str:
    lines = ["timestamp_s,client_pop,chunk_id,server_pop,reason"]
    for ts, client, chunk, server, reason in report.decisions:
        lines.append(f"{ts:.3f},{client},{chunk},{server},{reason}")
    return "\n".join(lines) + "\n"
