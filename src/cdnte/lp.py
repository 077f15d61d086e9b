"""Linear programming core: model type, a certified HiGHS solve, and the
program builders for min-MLU routing and joint placement+routing.

All programs are minimizations. Variables have a finite lower bound
(default 0) and an optional finite upper bound. Constraint senses are
"<=", "=", ">=".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from . import topology as topo_mod
from .traffic import RoutingSolution, TrafficMatrix

FEAS_TOL = 1e-7     # constraint satisfaction, after row scaling
DUAL_TOL = 1e-6     # relative duality gap at reported optima
# HiGHS's own primal and dual feasibility tolerances (its default is 1e-7),
# tightened so that its answers pass the 1e-9 absolute bound check in
# _verify_solution and a zero optimum does not come back as 2e-8
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                  "dual_feasibility_tolerance": 1e-9}

LE, EQ, GE = "<=", "=", ">="


class SimplexError(RuntimeError):
    """Solver failure or a failed optimality certificate; never a silent
    wrong answer."""


class LinearProgram:
    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: List[str] = []
        self.obj: List[float] = []
        self.lo: List[float] = []
        self.hi: List[Optional[float]] = []
        self.rows: List[Tuple[Dict[int, float], str, float]] = []
        self.meta: Dict = {}
        self._names: Set[str] = set()

    @property
    def num_vars(self) -> int:
        return len(self.obj)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_var(self, name: str, lo: float = 0.0, hi: Optional[float] = None,
                obj: float = 0.0) -> int:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if not math.isfinite(lo):
            raise ValueError(f"variable {name!r}: lower bound must be finite")
        if hi is not None and (not math.isfinite(hi) or hi < lo):
            raise ValueError(f"variable {name!r}: bad upper bound")
        if not math.isfinite(obj):
            raise ValueError(f"variable {name!r}: objective must be finite")
        idx = len(self.obj)
        self.var_names.append(name)
        self.obj.append(obj)
        self.lo.append(lo)
        self.hi.append(hi)
        self._names.add(name)
        return idx

    def add_constraint(self, coeffs: Dict[int, float], sense: str,
                       rhs: float) -> int:
        if sense not in (LE, EQ, GE):
            raise ValueError(f"bad sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError("rhs must be finite")
        clean = {}
        for idx, coef in coeffs.items():
            if not 0 <= idx < self.num_vars:
                raise ValueError(f"coefficient references unknown variable {idx}")
            if not math.isfinite(coef):
                raise ValueError("coefficients must be finite")
            if coef != 0.0:
                clean[idx] = clean.get(idx, 0.0) + coef
        self.rows.append((clean, sense, rhs))
        return len(self.rows) - 1


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    objective: Optional[float]
    array: Optional[np.ndarray]       # per-variable values, lp order
    names: List[str] = field(default_factory=list)
    duality_gap: Optional[float] = None
    iterations: int = 0
    backend: str = "highs"            # the HiGHS method that solved it

    def value(self, name: str) -> float:
        return float(self.array[self.names.index(name)])


def _program_arrays(lp: LinearProgram):
    """The program as linprog takes it: (A_ub, b_ub, A_eq, b_eq), with
    ">=" rows negated into "<=" rows and None for a block with no rows."""
    n = lp.num_vars
    ub_data, ub_ri, ub_ci, b_ub = [], [], [], []
    eq_data, eq_ri, eq_ci, b_eq = [], [], [], []
    for coeffs, sense, rhs in lp.rows:
        if sense == EQ:
            row = len(b_eq)
            for j, c in coeffs.items():
                eq_data.append(c)
                eq_ri.append(row)
                eq_ci.append(j)
            b_eq.append(rhs)
        else:
            flip = 1.0 if sense == LE else -1.0
            row = len(b_ub)
            for j, c in coeffs.items():
                ub_data.append(flip * c)
                ub_ri.append(row)
                ub_ci.append(j)
            b_ub.append(flip * rhs)
    A_ub = sp.csr_matrix((ub_data, (ub_ri, ub_ci)), shape=(len(b_ub), n)) \
        if b_ub else None
    A_eq = sp.csr_matrix((eq_data, (eq_ri, eq_ci)), shape=(len(b_eq), n)) \
        if b_eq else None
    return A_ub, b_ub, A_eq, b_eq


def _verify_solution(lp: LinearProgram, x: np.ndarray, arrays) -> None:
    """Certify primal feasibility of `x` on the program's
    `_program_arrays`: every bound within 1e-9 (then x is clipped onto its
    bounds in place) and every row within FEAS_TOL times its scale,
    max(1, largest |coefficient|, |rhs|). Raises SimplexError naming the
    first violating variable, else the first violating row."""
    lo = np.array(lp.lo, dtype=float)
    hi = np.array([np.inf if h is None else h for h in lp.hi], dtype=float)
    bad = np.flatnonzero((x < lo - 1e-9) | (x > hi + 1e-9))
    if bad.size:
        j = bad[0]
        raise SimplexError(
            f"variable {lp.var_names[j]} violates its bounds: {x[j]}")
    np.clip(x, lo, hi, out=x)
    A_ub, b_ub, A_eq, b_eq = arrays
    ub_rows = [r for r, (_, sense, _) in enumerate(lp.rows) if sense != EQ]
    eq_rows = [r for r, (_, sense, _) in enumerate(lp.rows) if sense == EQ]
    violated = []
    for A, b, rows, eq in ((A_ub, b_ub, ub_rows, False),
                           (A_eq, b_eq, eq_rows, True)):
        if A is None:
            continue
        b = np.array(b, dtype=float)
        resid = A @ x - b
        scale = np.maximum(1.0, np.maximum(
            abs(A).max(axis=1).toarray().ravel(), np.abs(b)))
        over = np.abs(resid) if eq else resid
        first = np.flatnonzero(over > FEAS_TOL * scale)[:1]
        violated += [(rows[k], resid[k]) for k in first]
    if violated:
        r, resid = min(violated)
        sense = lp.rows[r][1]
        if sense == GE:
            resid = -resid  # the row was negated into A_ub
        raise SimplexError(f"row {r} violated by {resid:.3e} (sense {sense})")


# ---------------------------------------------------------------------------
# HiGHS solve


def solve_lp(lp: LinearProgram, method: str = "highs") -> LpSolution:
    """Solve with HiGHS through scipy.optimize.linprog and certify the
    optimum: every bound and row holds within FEAS_TOL (after row
    scaling), and the primal and dual objectives agree within DUAL_TOL.
    A failed certificate raises SimplexError, never a silent wrong answer."""
    from scipy.optimize import linprog

    n = lp.num_vars
    arrays = _program_arrays(lp)
    A_ub, b_ub, A_eq, b_eq = arrays
    bounds = [(lp.lo[j], lp.hi[j]) for j in range(n)]
    res = linprog(np.array(lp.obj), A_ub=A_ub, b_ub=b_ub or None,
                  A_eq=A_eq, b_eq=b_eq or None, bounds=bounds, method=method,
                  options=_HIGHS_OPTIONS)
    if res.status == 2:
        return LpSolution("infeasible", None, None, list(lp.var_names),
                          backend=method)
    if res.status == 3:
        return LpSolution("unbounded", None, None, list(lp.var_names),
                          backend=method)
    if res.status != 0:
        raise SimplexError(f"linprog failed: {res.message}")
    x = np.array(res.x, dtype=float)
    _verify_solution(lp, x, arrays)
    dual = 0.0
    if b_ub:
        dual += float(np.dot(b_ub, res.ineqlin.marginals))
    if b_eq:
        dual += float(np.dot(b_eq, res.eqlin.marginals))
    for j in range(n):
        dual += lp.lo[j] * float(res.lower.marginals[j])
        if lp.hi[j] is not None:
            dual += lp.hi[j] * float(res.upper.marginals[j])
    primal = float(res.fun)
    gap = abs(primal - dual) / max(1.0, abs(primal))
    if gap > DUAL_TOL:
        raise SimplexError(f"duality gap {gap:.3e} exceeds {DUAL_TOL}")
    nit = int(getattr(res, "nit", 0))
    return LpSolution("optimal", float(np.dot(lp.obj, x)), x,
                      list(lp.var_names), duality_gap=gap, iterations=nit,
                      backend=method)


# very large programs solve much faster with the interior-point method
_IPM_MIN_ROWS = 8000


def solve_lp_auto(lp: LinearProgram) -> LpSolution:
    """solve_lp with the HiGHS method chosen from the program's size."""
    method = "highs-ipm" if lp.num_rows > _IPM_MIN_ROWS else "highs"
    return solve_lp(lp, method=method)

def write_lp_text(lp: LinearProgram) -> str:
    """Human-readable LP-format dump for cross-checking with other solvers."""
    def clean(name):
        return "".join(ch if ch.isalnum() or ch in "_." else "_" for ch in name)

    names = [f"{clean(n)}_{i}" for i, n in enumerate(lp.var_names)]
    out = [f"\\ {lp.name}", "Minimize"]
    terms = [f"{lp.obj[j]:+.12g} {names[j]}" for j in range(lp.num_vars)
             if lp.obj[j] != 0.0]
    out.append(" obj: " + (" ".join(terms) if terms else "0"))
    out.append("Subject To")
    for r, (coeffs, sense, rhs) in enumerate(lp.rows):
        lhs = " ".join(f"{c:+.12g} {names[j]}" for j, c in sorted(coeffs.items()))
        op = {LE: "<=", EQ: "=", GE: ">="}[sense]
        out.append(f" c{r}: {lhs or '0'} {op} {rhs:.12g}")
    out.append("Bounds")
    for j in range(lp.num_vars):
        if lp.hi[j] is None:
            out.append(f" {names[j]} >= {lp.lo[j]:.12g}")
        else:
            out.append(f" {lp.lo[j]:.12g} <= {names[j]} <= {lp.hi[j]:.12g}")
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# program builders


def build_min_mlu_lp(topo, tm: TrafficMatrix) -> LinearProgram:
    """Multicommodity-flow program minimizing the maximum link utilization.

    One flow-fraction variable per (commodity, link): the fraction of the
    commodity's rate on that link. Conservation rows at every node except
    the sink (whose row is implied); per-link load <= alpha * capacity.
    Zero-demand commodities are dropped.
    """
    commodities = sorted(k for k, rate in tm.items() if rate > 0)
    rates = {k: tm[k] for k in commodities}
    lp = LinearProgram("min-mlu")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    flow: Dict[Tuple[Tuple[int, int], int], int] = {}
    for (s, t) in commodities:
        for link in topo.links:
            flow[((s, t), link.id)] = lp.add_var(f"f[{s}->{t}]@{link.id}")
    for (s, t) in commodities:
        for u in topo.pops:
            if u == t:
                continue
            coeffs: Dict[int, float] = {}
            for link in topo.out_links[u]:
                coeffs[flow[((s, t), link.id)]] = coeffs.get(
                    flow[((s, t), link.id)], 0.0) + 1.0
            for link in topo.in_links[u]:
                coeffs[flow[((s, t), link.id)]] = coeffs.get(
                    flow[((s, t), link.id)], 0.0) - 1.0
            lp.add_constraint(coeffs, EQ, 1.0 if u == s else 0.0)
    for link in topo.links:
        coeffs = {flow[(k, link.id)]: rates[k] / link.capacity
                  for k in commodities}
        coeffs[alpha] = coeffs.get(alpha, 0.0) - 1.0
        lp.add_constraint(coeffs, LE, 0.0)
    lp.meta = {"alpha": alpha, "flow": flow, "commodities": commodities,
               "rates": rates}
    return lp


def build_joint_lp(topo, dm, budgets: Dict[int, int], chunks,
                   origins: Dict[str, int]) -> LinearProgram:
    """Joint placement + routing relaxation.

    Variables: x(c,j) in [0,1] = fraction of chunk c stored at pop j
    (fixed to 1 at the chunk's origin and excluded from its budget),
    y(c,i,j) >= 0 = fraction of pop i's demand for c served from j,
    f(i,l) >= 0 = delivery flow toward client pop i on link l (in units
    of the largest demand rate), and alpha. Flows toward the same client
    are aggregated across serving pops and chunks: each pop j injects
    sum_c rate(c,i)*y(c,i,j) of client i's flow, which is equivalent to
    per-(server, client) commodities because flows to a common
    destination may always merge. Demand is converted to average rates
    over the demand window.
    """
    window = dm.window_seconds
    rates: Dict[Tuple, float] = {}
    for (chunk, pop), nbytes in dm.demand.items():
        if nbytes > 0:
            rates[(chunk, pop)] = nbytes * 8.0 / window
    demanded = sorted(rates)
    chunk_list = sorted({chunk for chunk, _ in demanded})
    clients = sorted({pop for _, pop in demanded})
    store_pops = sorted(p for p in topo.pops if budgets.get(p, 0) > 0)
    server_pops = sorted(set(store_pops)
                         | {origins[c[0]] for c in chunk_list})
    rate_scale = max(rates.values(), default=1.0)

    lp = LinearProgram("joint-placement-routing")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    x: Dict[Tuple, int] = {}
    for chunk in chunk_list:
        for j in store_pops:
            if j == origins[chunk[0]]:
                continue
            x[(chunk, j)] = lp.add_var(f"x[{chunk[0]}#{chunk[1]}@{j}]",
                                       lo=0.0, hi=1.0)
    y: Dict[Tuple, int] = {}
    y_by_client: Dict[Tuple, List[Tuple]] = {}
    for (chunk, i) in demanded:
        for j in server_pops:
            if j != origins[chunk[0]] and (chunk, j) not in x:
                continue
            y[(chunk, i, j)] = lp.add_var(
                f"y[{chunk[0]}#{chunk[1]}:{i}<-{j}]")
            if j != i:
                y_by_client.setdefault((i, j), []).append((chunk, i, j))
    flow: Dict[Tuple, int] = {}
    for i in clients:
        for link in topo.links:
            flow[(i, link.id)] = lp.add_var(f"f[->{i}]@{link.id}")

    # every demanded (chunk, client) fully assigned to servers
    for (chunk, i) in demanded:
        coeffs = {y[(chunk, i, j)]: 1.0 for j in server_pops
                  if (chunk, i, j) in y}
        lp.add_constraint(coeffs, EQ, 1.0)
    # service only from pops that store the chunk
    for (chunk, i, j), yi in y.items():
        if j == origins[chunk[0]]:
            continue
        lp.add_constraint({yi: 1.0, x[(chunk, j)]: -1.0}, LE, 0.0)
    # per-pop storage budgets
    for j in store_pops:
        coeffs = {}
        for chunk in chunk_list:
            if (chunk, j) in x:
                coeffs[x[(chunk, j)]] = chunks.sizes[chunk] / budgets[j]
        if coeffs:
            lp.add_constraint(coeffs, LE, 1.0)
    # delivery flow conservation per client at every node but the client:
    # node u feeds in what it serves remotely to i
    for i in clients:
        for u in topo.pops:
            if u == i:
                continue
            coeffs = {}
            for link in topo.out_links[u]:
                idx = flow[(i, link.id)]
                coeffs[idx] = coeffs.get(idx, 0.0) + 1.0
            for link in topo.in_links[u]:
                idx = flow[(i, link.id)]
                coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
            for key in y_by_client.get((i, u), ()):
                coeffs[y[key]] = coeffs.get(y[key], 0.0) \
                    - rates[(key[0], i)] / rate_scale
            lp.add_constraint(coeffs, EQ, 0.0)
    # per-link load bounded by alpha * capacity (in rate_scale units)
    for link in topo.links:
        coeffs = {flow[(i, link.id)]: 1.0 for i in clients}
        coeffs[alpha] = coeffs.get(alpha, 0.0) - link.capacity / rate_scale
        lp.add_constraint(coeffs, LE, 0.0)

    lp.meta = {"alpha": alpha, "x": x, "y": y, "flow": flow,
               "rates": rates, "rate_scale": rate_scale,
               "chunks": chunk_list, "clients": clients}
    return lp


def solve_min_mlu_routing(topo, tm: TrafficMatrix,
                          ic_routes: Optional[RoutingSolution] = None
                          ) -> RoutingSolution:
    """Demand-aware routing: min-MLU flow fractions for positive-rate
    commodities, InverseCap shortest paths for everything else (so every
    ordered pair has a defined route).

    Two stages on one program: the first finds the least alpha; the
    second caps alpha there and minimizes the InverseCap-weighted sum of
    all flow fractions. The weights are positive, so the second optimum
    sends no commodity around a cycle, every fraction stays within
    [0, 1], and flow off the bottleneck takes InverseCap-short paths."""
    weights = topo_mod.inverse_cap_weights(topo)
    if ic_routes is None:
        ic_routes = topo_mod.shortest_path_routes(topo, weights)
    routing: RoutingSolution = {k: dict(v) for k, v in ic_routes.items()}
    positive = {k: r for k, r in tm.items() if r > 0}
    if not positive:
        return routing
    lp = build_min_mlu_lp(topo, positive)
    alpha = lp.meta["alpha"]
    flow = lp.meta["flow"]
    sol = solve_lp_auto(lp)
    if sol.status != "optimal":
        raise SimplexError(f"min-MLU program ended {sol.status}")
    lp.hi[alpha] = float(sol.array[alpha]) * (1.0 + 1e-9)
    lp.obj = [0.0] * lp.num_vars
    for (_, link_id), idx in flow.items():
        lp.obj[idx] = weights[link_id]
    sol = solve_lp_auto(lp)
    if sol.status != "optimal":
        raise SimplexError(f"min-MLU second stage ended {sol.status}")
    for k in lp.meta["commodities"]:
        fracs = {}
        for link in topo.links:
            v = float(sol.array[flow[(k, link.id)]])
            if v > 1e-12:
                fracs[link.id] = v
        routing[k] = fracs
    return routing
