"""Day-loop simulator: per epoch compute each scheme's placement and
routing, replay requests interval by interval through redirection,
accumulate traffic matrices and link loads, and report MLU statistics.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import lp as lp_mod
from . import topology as topo_mod
from .placement import (CacheState, Placement, induced_traffic_matrix,
                        plan_placement_optimized, split_hybrid)
from .redirection import (LOCAL_HIT, ORIGIN, RedirectDecision,
                          redirect_closest, redirect_utilization_aware)
from .traffic import (LinkLoads, RoutingSolution, TrafficMatrix,
                      apply_routing, mlu, validate_traffic_matrix)
from .workload import (DAY_SECONDS, Catalog, ChunkId, ChunkMap, DemandMatrix,
                       Request, aggregate_demand, chunk_objects)

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
    scheme: str
    interval_s: float
    intervals: List[Tuple[int, float, float]]  # (day, start_s, mlu)
    days: List[DayStats]
    hit_ratio: float
    origin_fraction: float
    mean_mlu: float
    decisions: List[Tuple[float, int, str, int, str]] = field(default_factory=list)
    placements: List[Tuple[int, int, ChunkId]] = field(default_factory=list)
    interval_matrices: List[Dict[Tuple[int, int], int]] = field(default_factory=list)

    def mean_daily_p99(self) -> float:
        if not self.days:
            return 0.0
        return sum(d.p99_mlu for d in self.days) / len(self.days)


def percentile_99(values: List[float]) -> float:
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[idx]


def _chunk_label(chunk: ChunkId) -> str:
    return f"{chunk[0]}#{chunk[1]}"


class _HolderIndex:
    """Which PoPs can serve each chunk: static planned stores overlaid
    with live cache contents."""

    def __init__(self, placement: Placement, caches: Dict[int, CacheState]):
        self.planned: Dict[ChunkId, Set[int]] = {}
        for pop, stored in placement.stored.items():
            for chunk in stored:
                self.planned.setdefault(chunk, set()).add(pop)
        self.cached: Dict[ChunkId, Set[int]] = {}
        for pop, cache in caches.items():
            for chunk in cache.resident:
                self.cached.setdefault(chunk, set()).add(pop)

    def holders(self, chunk: ChunkId) -> Set[int]:
        out = set(self.planned.get(chunk, ()))
        out.update(self.cached.get(chunk, ()))
        return out

    def admit(self, pop: int, chunk: ChunkId) -> None:
        self.cached.setdefault(chunk, set()).add(pop)

    def evict(self, pop: int, chunk: ChunkId) -> None:
        pops = self.cached.get(chunk)
        if pops is not None:
            pops.discard(pop)
            if not pops:
                del self.cached[chunk]


def scheme_inputs(topo, catalog: Catalog, scheme: SchemeSpec
                  ) -> Tuple[ChunkMap, Dict[str, int], Dict[int, int]]:
    """What a scheme's plans are built from: the chunk map, each object's
    origin PoP (the catalog's, else the topology's; it must be a PoP) and
    the per-PoP budget, ratio * total chunked catalog bytes / pop count."""
    chunks = chunk_objects(catalog, scheme.chunk_size)
    pop_set = set(topo.pops)
    origins = {}
    for cid, obj in catalog.items():
        origin = obj.origin if obj.origin is not None else topo.origin_pop
        if origin not in pop_set:
            raise ValidationError(f"content {cid}: origin pop {origin} unknown")
        origins[cid] = origin
    budget = int(scheme.storage_ratio * chunks.total_bytes / len(topo.pops))
    return chunks, origins, {p: budget for p in topo.pops}


PlanTable = Dict[tuple, Tuple[Placement, RoutingSolution]]


def _plan(plans: PlanTable, dm: DemandMatrix, topo, budgets: Dict[int, int],
          chunks: ChunkMap, origins: Dict[str, int], ic_routes, dists
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
                                              origins, ic_routes=ic_routes,
                                              dists=dists)
    return plans[key]


def run_experiment(topo, catalog: Catalog, requests: List[Request],
                   scheme: SchemeSpec, interval_s: float = 300.0,
                   collect_decisions: bool = False,
                   collect_placements: bool = False,
                   collect_matrices: bool = False,
                   plans: Optional[PlanTable] = None) -> MluReport:
    """Replay a trace under one scheme and report per-interval MLU plus
    daily statistics. Deterministic for identical inputs.

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

    `plans` is a plan table shared with other runs on the same trace (see
    `_plan`); without one the run keeps its own.
    """
    scheme.validate()
    if interval_s <= 0:
        raise ValidationError("interval_s must be positive")
    if len(topo.pops) < 2 or not topo.links:
        raise ValidationError("topology must have at least 2 pops and links")
    if not requests:
        raise ValidationError("empty trace")
    pop_set = set(topo.pops)
    for r in requests:
        if r.pop not in pop_set:
            raise ValidationError(f"request pop {r.pop} not in topology")
        if r.content not in catalog:
            raise ValidationError(f"request content {r.content!r} not in catalog")

    chunks, origins, budgets = scheme_inputs(topo, catalog, scheme)
    if plans is None:
        plans = {}
    if scheme.placement == "lru":
        planned_budgets = {p: 0 for p in topo.pops}
        cache_budgets = budgets
    elif scheme.placement == "hybrid":
        planned_budgets, cache_budgets = split_hybrid(budgets,
                                                      scheme.hybrid_reserve)
    else:
        planned_budgets = budgets
        cache_budgets = {p: 0 for p in topo.pops}

    requests = sorted(requests, key=lambda r: r.timestamp)
    n_days = int(requests[-1].timestamp // DAY_SECONDS) + 1
    needs_prior = (scheme.placement in ("optimized", "hybrid")
                   or scheme.routing == "min-mlu-prior-day")
    if needs_prior and n_days < 2:
        raise ValidationError(
            "prior-day schemes need a trace spanning at least 2 days")

    if scheme.transit is not None:
        validate_traffic_matrix(scheme.transit.tm)
        for (s, t) in scheme.transit.tm:
            if s not in pop_set or t not in pop_set:
                raise ValidationError(f"transit commodity {(s, t)} not in topology")

    ic_w = topo_mod.inverse_cap_weights(topo)
    ic_routes = topo_mod.shortest_path_routes(topo, ic_w)
    dists = topo_mod.all_pairs_distances(topo, ic_w)
    capacities = {l.id: l.capacity for l in topo.links}

    caches: Dict[int, CacheState] = {}
    if any(cache_budgets.values()):
        caches = {p: CacheState(p, cache_budgets[p]) for p in topo.pops}

    by_day: Dict[int, List[Request]] = defaultdict(list)
    for r in requests:
        by_day[int(r.timestamp // DAY_SECONDS)].append(r)

    use_util_aware = scheme.redirection == "utilization-aware"
    combined_transit = (scheme.transit is not None
                        and scheme.transit.mode == "combined")
    report = MluReport(scheme.label(), interval_s, [], [], 0.0, 0.0, 0.0)
    total_served = total_origin = 0
    prev_dm: Optional[DemandMatrix] = None  # yesterday's; None for lru
    prev_realized: TrafficMatrix = {}

    for day in range(n_days):
        day_reqs = by_day.get(day, [])
        dm: Optional[DemandMatrix] = None
        if scheme.placement != "lru":
            dm = aggregate_demand(
                day_reqs, (day * DAY_SECONDS, (day + 1) * DAY_SECONDS), chunks)

        # the day's placement and routing, by the rule in the docstring
        plan_dm = dm if scheme.placement == "future" else prev_dm
        placement, planner_routing = Placement(), None
        if plan_dm is not None:
            placement, planner_routing = _plan(
                plans, plan_dm, topo, planned_budgets, chunks, origins,
                ic_routes, dists)
        if scheme.routing == "inversecap" or (
                scheme.routing == "min-mlu-prior-day" and day == 0):
            routing = ic_routes
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
                    induced_traffic_matrix(route_dm, placement, origins, dists)
                if combined_transit:
                    tm = dict(tm)
                    for k, rate in scheme.transit.tm.items():
                        tm[k] = tm.get(k, 0.0) + rate
                routing = lp_mod.solve_min_mlu_routing(topo, tm,
                                                       ic_routes=ic_routes)
        transit_loads: LinkLoads = {}
        if scheme.transit is not None:
            transit_loads = apply_routing(
                routing if combined_transit else ic_routes, scheme.transit.tm)

        if collect_placements:
            report.placements.extend(placement_rows(day, placement))

        holder_index = _HolderIndex(placement, caches)
        day_mlus: List[float] = []
        day_served = day_origin = 0
        realized_day: Dict[Tuple[int, int], int] = defaultdict(int)

        n_intervals = int(math.ceil(DAY_SECONDS / interval_s))
        req_pos = 0
        for iv in range(n_intervals):
            iv_start = day * DAY_SECONDS + iv * interval_s
            iv_end = min(iv_start + interval_s, (day + 1) * DAY_SECONDS)
            iv_len = iv_end - iv_start  # the day's last interval may be shorter
            commodity_bytes: Dict[Tuple[int, int], int] = {}
            live_loads: LinkLoads = dict(transit_loads) if use_util_aware else {}

            while req_pos < len(day_reqs) and day_reqs[req_pos].timestamp < iv_end:
                r = day_reqs[req_pos]
                req_pos += 1
                client = r.pop
                cache = caches.get(client)
                for chunk, nbytes in chunks.request_chunks(r.content, r.nbytes):
                    origin = origins[r.content]
                    decision: Optional[RedirectDecision] = None
                    if client == origin:
                        reason = LOCAL_HIT
                    elif cache is not None and chunk in cache:
                        cache.access(chunk, chunks.sizes[chunk])
                        reason = LOCAL_HIT
                    elif placement.holds(client, chunk):
                        reason = LOCAL_HIT
                    else:
                        holders = holder_index.holders(chunk)
                        if use_util_aware:
                            rate = nbytes * 8.0 / iv_len
                            decision = redirect_utilization_aware(
                                chunk, client, holders, origin, live_loads,
                                routing, rate, capacities, dists)
                            path = routing[(decision.server, client)]
                            for link_id, frac in path.items():
                                live_loads[link_id] = live_loads.get(link_id, 0.0) \
                                    + frac * rate
                        else:
                            decision = redirect_closest(chunk, client, holders,
                                                        origin, dists)
                        reason = decision.reason
                        key = (decision.server, client)
                        commodity_bytes[key] = commodity_bytes.get(key, 0) + nbytes
                        realized_day[key] += nbytes
                        # pull-through admission at the client
                        if cache is not None:
                            _, evicted = cache.access(chunk, chunks.sizes[chunk])
                            for gone in evicted:
                                holder_index.evict(client, gone)
                            if chunk in cache:
                                holder_index.admit(client, chunk)
                    day_served += nbytes
                    if reason == ORIGIN:
                        day_origin += nbytes
                    if collect_decisions:
                        server = client if decision is None else decision.server
                        report.decisions.append(
                            (r.timestamp, client, _chunk_label(chunk), server,
                             reason))

            tm: TrafficMatrix = {k: b * 8.0 / iv_len
                                 for k, b in sorted(commodity_bytes.items())}
            loads = apply_routing(routing, tm)
            for link_id, extra in transit_loads.items():
                loads[link_id] = loads.get(link_id, 0.0) + extra
            value = mlu(loads, topo)
            day_mlus.append(value)
            report.intervals.append((day, iv_start, value))
            if collect_matrices:
                report.interval_matrices.append(dict(sorted(commodity_bytes.items())))

        if day_served > 0:
            hit_ratio = (day_served - day_origin) / day_served
            origin_fraction = day_origin / day_served
        else:
            hit_ratio, origin_fraction = 1.0, 0.0
        report.days.append(DayStats(day, percentile_99(day_mlus),
                                    sum(day_mlus) / len(day_mlus),
                                    hit_ratio, origin_fraction))
        total_served += day_served
        total_origin += day_origin
        prev_dm = dm
        prev_realized = {k: b * 8.0 / DAY_SECONDS
                         for k, b in sorted(realized_day.items())}

    if total_served > 0:
        report.hit_ratio = (total_served - total_origin) / total_served
        report.origin_fraction = total_origin / total_served
    else:
        report.hit_ratio, report.origin_fraction = 1.0, 0.0
    all_mlus = [v for _, _, v in report.intervals]
    report.mean_mlu = sum(all_mlus) / len(all_mlus) if all_mlus else 0.0
    return report


def _run_task(task, plans: Optional[PlanTable] = None) -> MluReport:
    topo, catalog, requests, scheme, interval_s, decisions, placements = task
    return run_experiment(topo, catalog, requests, scheme, interval_s,
                          collect_decisions=decisions,
                          collect_placements=placements, plans=plans)


def _run_all(topo, catalog: Catalog, requests: List[Request],
             schemes: List[SchemeSpec], interval_s: float, jobs: int,
             collect_decisions: bool, collect_placements: bool,
             plans: Optional[PlanTable]) -> List[MluReport]:
    """One report per scheme, in order, from `jobs` worker processes when
    jobs > 1. Only the first run collects decisions and placements. With
    jobs = 1 the runs share `plans` (a new table if None); each worker
    process plans for itself, which gives the same results."""
    tasks = [(topo, catalog, requests, s, interval_s,
              collect_decisions and i == 0, collect_placements and i == 0)
             for i, s in enumerate(schemes)]
    if jobs > 1:
        from concurrent import futures
        with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_task, tasks))
    plans = {} if plans is None else plans
    return [_run_task(t, plans) for t in tasks]


@dataclass
class ComparisonTable:
    schemes: List[str]
    days: List[int]
    p99: Dict[str, List[float]]          # scheme label -> per-day p99
    ratio_vs_first: Dict[str, List[float]]
    reports: List[MluReport]


def compare_schemes(topo, catalog: Catalog, requests: List[Request],
                    schemes: List[SchemeSpec], interval_s: float = 300.0,
                    jobs: int = 1, collect_decisions: bool = False,
                    collect_placements: bool = False) -> ComparisonTable:
    """Run every scheme on the identical trace and align per-day p99 MLU
    columns plus ratios against the first scheme. The collect flags apply
    to the first scheme's run."""
    if not schemes:
        raise ValidationError("need at least one scheme")
    labels = [s.label() for s in schemes]
    if len(set(labels)) != len(labels):
        labels = [f"{lab}#{i}" for i, lab in enumerate(labels)]
        for s, lab in zip(schemes, labels):
            s.name = lab
    reports = _run_all(topo, catalog, requests, schemes, interval_s, jobs,
                       collect_decisions, collect_placements, None)
    days = [d.day for d in reports[0].days]
    p99 = {rep.scheme: [d.p99_mlu for d in rep.days] for rep in reports}
    base = p99[reports[0].scheme]
    ratios = {}
    for rep in reports:
        row = []
        for val, ref in zip(p99[rep.scheme], base):
            if ref > 0:
                row.append(val / ref)
            else:
                row.append(1.0 if val == 0 else math.inf)
        ratios[rep.scheme] = row
    return ComparisonTable([rep.scheme for rep in reports], days, p99,
                           ratios, reports)


@dataclass
class SweepRow:
    ratio: float
    mean_daily_p99: float
    report: MluReport


def sweep_storage_ratio(topo, catalog: Catalog, requests: List[Request],
                        template: SchemeSpec, ratios: List[float],
                        interval_s: float = 300.0, jobs: int = 1,
                        collect_decisions: bool = False,
                        collect_placements: bool = False,
                        plans: Optional[PlanTable] = None) -> List[SweepRow]:
    """Run the scheme template once per storage ratio; per-PoP budget is
    ratio * total chunked catalog bytes / pop count. The collect flags
    apply to the run at the first ratio. Sweeps on the same trace may
    share one plan table, `plans`."""
    if not ratios:
        raise ValidationError("storage ratio list must not be empty")
    if any(r <= 0 for r in ratios):
        raise ValidationError("storage ratios must be positive")
    if list(ratios) != sorted(ratios):
        raise ValidationError("storage ratios must be ascending")
    schemes = []
    for ratio in ratios:
        s = SchemeSpec(template.placement, template.routing,
                       template.redirection, storage_ratio=ratio,
                       chunk_size=template.chunk_size,
                       hybrid_reserve=template.hybrid_reserve,
                       transit=template.transit,
                       name=f"{template.label()}@r{ratio:g}")
        schemes.append(s)
    reports = _run_all(topo, catalog, requests, schemes, interval_s, jobs,
                       collect_decisions, collect_placements, plans)
    return [SweepRow(ratio, rep.mean_daily_p99(), rep)
            for ratio, rep in zip(ratios, reports)]


# ---------------------------------------------------------------------------
# CSV emission (plot-ready formats)


def report_csv(reports: List[MluReport]) -> str:
    lines = ["scheme,day,interval_start_s,mlu"]
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


def comparison_csv(table: ComparisonTable) -> str:
    head = ["day"]
    for scheme in table.schemes:
        head.append(f"p99[{scheme}]")
        head.append(f"ratio[{scheme}]")
    lines = [",".join(head)]
    for i, day in enumerate(table.days):
        row = [str(day)]
        for scheme in table.schemes:
            row.append(f"{table.p99[scheme][i]:.10g}")
            row.append(f"{table.ratio_vs_first[scheme][i]:.10g}")
        lines.append(",".join(row))
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
