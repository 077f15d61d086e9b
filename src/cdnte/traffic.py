"""Traffic matrices, routing solutions and link loads.

Value conventions used throughout the package:

* a traffic matrix maps an ordered PoP pair ``(src, dst)`` to a rate in
  bits/sec; diagonal entries are forbidden (local traffic never touches
  the backbone),
* a routing solution maps each commodity ``(src, dst)`` to per-link flow
  fractions (fraction of the commodity's rate carried by that link),
* link loads map a link id to bits/sec.

Everything here is a pure transformation over those plain dicts.
"""

from __future__ import annotations

from typing import Dict, Tuple

Commodity = Tuple[int, int]
TrafficMatrix = Dict[Commodity, float]
RoutingSolution = Dict[Commodity, Dict[int, float]]
LinkLoads = Dict[int, float]

CONSERVATION_TOL = 1e-7


def validate_traffic_matrix(tm: TrafficMatrix) -> None:
    for (src, dst), rate in tm.items():
        if src == dst:
            raise ValueError(f"traffic matrix has diagonal entry for pop {src}")
        if rate < 0:
            raise ValueError(f"negative rate {rate} for commodity {src}->{dst}")


def apply_routing(routing: RoutingSolution, tm: TrafficMatrix) -> LinkLoads:
    """Per-link loads induced by routing a traffic matrix.

    load(l) = sum over commodities of rate(k) * frac(k, l). Commodities are
    accumulated in sorted order so repeated runs produce bit-identical floats.
    Raises KeyError if a positive-rate commodity is missing from the routing.
    """
    loads: LinkLoads = {}
    for commodity in sorted(tm):
        rate = tm[commodity]
        if rate == 0:
            continue
        if commodity not in routing:
            raise KeyError(f"routing has no entry for commodity {commodity}")
        for link_id, frac in routing[commodity].items():
            loads[link_id] = loads.get(link_id, 0.0) + rate * frac
    return loads


def mlu(loads: LinkLoads, topo) -> float:
    """Maximum link utilization: max over links of load/capacity.

    Overload (> 1) is reported as-is, never clamped. An empty network or
    all-zero loads give 0.
    """
    worst = 0.0
    for link in topo.links:
        util = loads.get(link.id, 0.0) / link.capacity
        if util > worst:
            worst = util
    return worst


def check_flow_conservation(routing: RoutingSolution, topo,
                            tol: float = CONSERVATION_TOL) -> None:
    """Assert per-commodity conservation: net out-fraction 1 at the source,
    1 into the sink, 0 elsewhere; fractions within [0, 1] up to tol.
    Raises ValueError on violation."""
    for (src, dst), fracs in routing.items():
        net = {pop: 0.0 for pop in topo.pops}
        for link_id, frac in fracs.items():
            if frac < -tol:
                raise ValueError(f"negative fraction {frac} on link {link_id} "
                                 f"for commodity {(src, dst)}")
            if frac > 1.0 + tol:
                raise ValueError(f"fraction {frac} > 1 on link {link_id} "
                                 f"for commodity {(src, dst)}")
            link = topo.link_by_id[link_id]
            net[link.src] += frac
            net[link.dst] -= frac
        for pop, value in net.items():
            want = 1.0 if pop == src else (-1.0 if pop == dst else 0.0)
            if abs(value - want) > tol:
                raise ValueError(
                    f"conservation violated for {(src, dst)} at pop {pop}: "
                    f"net {value}, expected {want}")


def read_traffic_matrix(text: str) -> TrafficMatrix:
    """Parse the traffic-matrix CSV: header src_pop,dst_pop,rate_mbps."""
    tm: TrafficMatrix = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[:3] == ["src_pop", "dst_pop", "rate_mbps"]:
            continue
        if len(parts) != 3:
            raise ValueError(f"traffic matrix line {lineno}: expected 3 fields")
        try:
            src, dst, mbps = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"traffic matrix line {lineno}: {exc}") from None
        if src == dst:
            raise ValueError(f"traffic matrix line {lineno}: diagonal entry")
        if mbps < 0:
            raise ValueError(f"traffic matrix line {lineno}: negative rate")
        key = (src, dst)
        tm[key] = tm.get(key, 0.0) + mbps * 1e6
    return tm


def write_traffic_matrix(tm: TrafficMatrix) -> str:
    lines = ["src_pop,dst_pop,rate_mbps"]
    for (src, dst) in sorted(tm):
        lines.append(f"{src},{dst},{tm[(src, dst)] / 1e6:.9g}")
    return "\n".join(lines) + "\n"
