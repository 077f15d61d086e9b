"""Linear programming core: model type, a certified HiGHS solve, and the
program builders for min-MLU routing and joint placement+routing.

All programs are minimizations. Variables have a finite lower bound
(default 0) and an optional finite upper bound. Constraint senses are
"<=", "=", ">=".

scipy is imported where a program is first turned into a matrix or
solved, so a run that solves no program never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .traffic import RoutingSolution, TrafficMatrix, split_by_source

if TYPE_CHECKING:
    import scipy.sparse as sp

FEAS_TOL = 1e-7     # constraint satisfaction, after row scaling
# duality gap at reported optima, relative to the larger of the primal and
# dual objectives, or to GAP_FLOOR where both are smaller (a zero optimum)
DUAL_TOL = 1e-6
GAP_FLOOR = 1e-9
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
    """A program's rows are one sparse matrix, stored as COO triplets
    (row, column, coefficient) with one sense and one right-hand side per
    row. The builders, the solve and the certificate all read it."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: List[str] = []
        self.obj: List[float] = []
        self.lo: List[float] = []
        self.hi: List[Optional[float]] = []
        self.senses: List[str] = []
        self.rhs: List[float] = []
        self.meta: Dict = {}
        self._names: Set[str] = set()
        self._coo = [(np.empty(0, np.int64), np.empty(0, np.int64),
                      np.empty(0))]
        self._csr: Optional[sp.csr_matrix] = None

    @property
    def num_vars(self) -> int:
        return len(self.obj)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    @property
    def rows(self) -> Iterator[Tuple[Dict[int, float], str, float]]:
        """Read-only view: (coefficients by column, sense, rhs) per row."""
        A = self.matrix()
        cols, coefs = A.indices.tolist(), A.data.tolist()
        for r, (sense, rhs) in enumerate(zip(self.senses, self.rhs)):
            span = slice(A.indptr[r], A.indptr[r + 1])
            yield dict(zip(cols[span], coefs[span])), sense, rhs

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

    def add_rows(self, rows, cols, coefs, sense: str, rhs) -> int:
        """Append one row of sense `sense` per entry of `rhs`; entry k puts
        coefs[k] in column cols[k] of new row rows[k] (counted from 0).
        Zero coefficients are dropped. Returns the first new row's index."""
        if sense not in (LE, EQ, GE):
            raise ValueError(f"bad sense {sense!r}")
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise ValueError("rhs must be finite")
        cols = np.asarray(cols, dtype=np.int64)
        unknown = cols[(cols < 0) | (cols >= self.num_vars)]
        if unknown.size:
            raise ValueError(f"coefficient references unknown variable {unknown[0]}")
        coefs = np.asarray(coefs, dtype=float)
        if not np.isfinite(coefs).all():
            raise ValueError("coefficients must be finite")
        first, keep = self.num_rows, coefs != 0.0
        self._coo.append((np.asarray(rows, dtype=np.int64)[keep] + first,
                          cols[keep], coefs[keep]))
        self.senses += [sense] * rhs.size
        self.rhs += rhs.tolist()
        return first

    def add_constraint(self, coeffs: Dict[int, float], sense: str,
                       rhs: float) -> int:
        """One row, from {column: coefficient}."""
        return self.add_rows([0] * len(coeffs), list(coeffs),
                             list(coeffs.values()), sense, [rhs])

    def matrix(self) -> sp.csr_matrix:
        """The rows as one num_rows x num_vars CSR matrix."""
        shape = (self.num_rows, self.num_vars)
        if self._csr is None or self._csr.shape != shape:
            import scipy.sparse as sp

            rows, cols, coefs = map(np.concatenate, zip(*self._coo))
            self._csr = sp.csr_matrix((coefs, (rows, cols)), shape=shape)
        return self._csr


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    objective: Optional[float]
    array: Optional[np.ndarray]       # per-variable values, lp order
    duality_gap: Optional[float] = None
    iterations: int = 0
    backend: str = "highs"            # the HiGHS method that solved it


def _verify_solution(lp: LinearProgram, x: np.ndarray) -> None:
    """Certify primal feasibility of `x`: every bound within 1e-9 (then x
    is clipped onto its bounds in place) and every row, by its own sense,
    within FEAS_TOL times its scale, max(1, largest |coefficient|, |rhs|).
    Raises SimplexError naming the first violating variable, else the
    first violating row."""
    lo = np.array(lp.lo, dtype=float)
    hi = np.array([np.inf if h is None else h for h in lp.hi], dtype=float)
    bad = np.flatnonzero((x < lo - 1e-9) | (x > hi + 1e-9))
    if bad.size:
        j = bad[0]
        raise SimplexError(f"variable {lp.var_names[j]} violates its bounds: {x[j]}")
    np.clip(x, lo, hi, out=x)
    A, b, sense = lp.matrix(), np.array(lp.rhs), np.array(lp.senses, str)
    resid = A @ x - b
    over = np.where(sense == EQ, np.abs(resid),
                    np.where(sense == GE, -resid, resid))
    scale = np.maximum(1.0, np.maximum(
        abs(A).max(axis=1).toarray().ravel(), np.abs(b)))
    bad = np.flatnonzero(over > FEAS_TOL * scale)
    if bad.size:
        r = bad[0]
        raise SimplexError(f"row {r} violated by {resid[r]:.3e} (sense {sense[r]})")


# ---------------------------------------------------------------------------
# HiGHS solve


def solve_lp(lp: LinearProgram, method: str = "highs") -> LpSolution:
    """Solve with HiGHS through scipy.optimize.linprog and certify the
    optimum: every bound and row holds within FEAS_TOL (after row
    scaling), and the primal and dual objectives agree within DUAL_TOL
    of the larger one (of GAP_FLOOR at a zero optimum).
    A failed certificate raises SimplexError, never a silent wrong answer."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    # linprog takes "<=" rows and "=" rows; ">=" rows go in negated
    A, sense = lp.matrix(), np.array(lp.senses, str)
    flip = np.where(sense == GE, -1.0, 1.0)
    A_le = sp.csr_matrix((A.data * np.repeat(flip, np.diff(A.indptr)),
                          A.indices, A.indptr), shape=A.shape)
    b_le = flip * np.array(lp.rhs)
    ub, eq = np.flatnonzero(sense != EQ), np.flatnonzero(sense == EQ)
    res = linprog(np.array(lp.obj),
                  A_ub=A_le[ub] if ub.size else None,
                  b_ub=b_le[ub] if ub.size else None,
                  A_eq=A_le[eq] if eq.size else None,
                  b_eq=b_le[eq] if eq.size else None,
                  bounds=list(zip(lp.lo, lp.hi)), method=method,
                  options=_HIGHS_OPTIONS)
    if res.status in (2, 3):
        status = "infeasible" if res.status == 2 else "unbounded"
        return LpSolution(status, None, None, backend=method)
    if res.status != 0:
        raise SimplexError(f"linprog failed: {res.message}")
    x = np.array(res.x, dtype=float)
    _verify_solution(lp, x)
    hi = np.array([0.0 if h is None else h for h in lp.hi])
    dual = float(b_le[ub] @ res.ineqlin.marginals
                 + b_le[eq] @ res.eqlin.marginals
                 + np.dot(lp.lo, res.lower.marginals)
                 + hi @ res.upper.marginals)
    primal = float(res.fun)
    gap = abs(primal - dual) / max(abs(primal), abs(dual), GAP_FLOOR)
    if gap > DUAL_TOL:
        raise SimplexError(f"duality gap {gap:.3e} exceeds {DUAL_TOL}")
    return LpSolution("optimal", float(np.dot(lp.obj, x)), x, duality_gap=gap,
                      iterations=int(res.nit), backend=method)


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
    A = lp.matrix()
    cols, coefs = A.indices.tolist(), A.data.tolist()
    for r, (sense, rhs) in enumerate(zip(lp.senses, lp.rhs)):
        span = sorted(range(A.indptr[r], A.indptr[r + 1]), key=cols.__getitem__)
        lhs = " ".join(f"{coefs[k]:+.12g} {names[cols[k]]}" for k in span)
        out.append(f" c{r}: {lhs or '0'} {sense} {rhs:.12g}")
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


def _node_row(k, u, sink, n_pops):
    """Commodity k's conservation row at pop position u (none at its sink)."""
    return k * (n_pops - 1) + u - (u > sink)


def _add_flow_rows(lp, topo, sinks, first_col, extra, rhs, load, alpha_coef):
    """Flow rows, where commodity k ends at pop position sinks[k] and its
    flow on link position l is column first_col + k * len(topo.links) + l.
    At each pop but the sink: out-flow - in-flow + `extra` (rows, columns,
    coefficients) = rhs. Per link: load-weighted flow + alpha_coef *
    alpha (column 0) <= 0."""
    ends = np.array([[topo.pop_at[l.src] for l in topo.links],
                     [topo.pop_at[l.dst] for l in topo.links]])
    k, links = np.arange(len(sinks))[:, None, None], np.arange(len(topo.links))
    sink = np.asarray(sinks, dtype=np.int64)[:, None, None]
    rows = _node_row(k, ends, sink, len(topo.pops))  # (k, out/in, link)
    flow = first_col + k * links.size + links        # (k, 1, link)
    keep = ends != sink
    lp.add_rows(np.r_[rows[keep], extra[0]],
                np.r_[np.broadcast_to(flow, rows.shape)[keep], extra[1]],
                np.r_[np.broadcast_to([[1.0], [-1.0]], rows.shape)[keep],
                      extra[2]], EQ, rhs)
    lp.add_rows(np.tile(links, len(sinks) + 1),
                np.r_[flow.ravel(), np.zeros(links.size, np.int64)],
                np.r_[np.broadcast_to(load, (len(sinks), links.size)).ravel(),
                      alpha_coef], LE, np.zeros(links.size))


def build_min_mlu_lp(topo, tm: TrafficMatrix) -> LinearProgram:
    """Program minimizing the maximum link utilization, with one commodity
    per destination.

    Flows toward the same destination may merge, so one flow per (sink,
    link) reaches the same least alpha as one per (source, sink) pair.
    Alpha is column 0, and the flow toward the k-th sink (sorted) on link
    position l is column 1 + k * len(topo.links) + l, in units of the
    largest rate. Each pop but the sink supplies its rate toward the
    sink; per link, load <= alpha * capacity. Zero-rate commodities are
    dropped.
    """
    positive = sorted(k for k, rate in tm.items() if rate > 0)
    sinks = sorted({t for _, t in positive})
    scale = max((tm[k] for k in positive), default=1.0)
    lp = LinearProgram("min-mlu")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    for t in sinks:
        for link in topo.links:
            lp.add_var(f"f[->{t}]@{link.id}")
    n, pos = len(topo.pops), topo.pop_at
    sink_at = {t: k for k, t in enumerate(sinks)}
    rhs = np.zeros(len(sinks) * (n - 1))
    rhs[[_node_row(sink_at[t], pos[s], pos[t], n) for s, t in positive]] = \
        [tm[k] / scale for k in positive]
    cap = np.array([link.capacity for link in topo.links], dtype=float)
    _add_flow_rows(lp, topo, [pos[t] for t in sinks], 1, ([], [], []), rhs,
                   1.0, -cap / scale)
    lp.meta = {"alpha": alpha, "sinks": sinks}
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
    rates = dm.rates()
    demanded = list(rates)
    chunk_list = sorted({chunk for chunk, _ in demanded})
    clients = sorted({pop for _, pop in demanded})
    store_pops = sorted(p for p in topo.pops if budgets.get(p, 0) > 0)
    server_pops = sorted(set(store_pops)
                         | {origins[c[0]] for c in chunk_list})
    rate_scale = max(rates.values(), default=1.0)
    n, pos = len(topo.pops), topo.pop_at
    client_of = {i: k for k, i in enumerate(clients)}

    lp = LinearProgram("joint-placement-routing")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    x: Dict[Tuple, int] = {}
    for chunk in chunk_list:
        for j in store_pops:
            if j != origins[chunk[0]]:
                x[(chunk, j)] = lp.add_var(f"x[{chunk[0]}#{chunk[1]}@{j}]",
                                           lo=0.0, hi=1.0)
    # per y column: (demanded pair, column); (column, x column) unless
    # served from the origin; its conservation entry if served remotely
    assigned, stored, remote = [], [], ([], [], [])
    for r, (chunk, i) in enumerate(demanded):
        for j in server_pops:
            at_origin = j == origins[chunk[0]]
            if not at_origin and (chunk, j) not in x:
                continue
            col = lp.add_var(f"y[{chunk[0]}#{chunk[1]}:{i}<-{j}]")
            assigned.append((r, col))
            if not at_origin:
                stored.append((col, x[(chunk, j)]))
            if j != i:
                remote[0].append(_node_row(client_of[i], pos[j], pos[i], n))
                remote[1].append(col)
                remote[2].append(-rates[(chunk, i)] / rate_scale)
    first_flow = lp.num_vars
    for i in clients:
        for link in topo.links:
            lp.add_var(f"f[->{i}]@{link.id}")

    # every demanded (chunk, client) fully assigned to servers
    rows, cols = np.array(assigned, dtype=np.int64).reshape(-1, 2).T
    lp.add_rows(rows, cols, np.ones(cols.size), EQ, np.ones(len(demanded)))
    # service only from pops that store the chunk
    ys, xs = np.array(stored, dtype=np.int64).reshape(-1, 2).T
    m = np.arange(ys.size)
    lp.add_rows(np.tile(m, 2), np.r_[ys, xs], np.repeat([1.0, -1.0], m.size),
                LE, np.zeros(m.size))
    # per-pop storage budgets, at every pop that may store a chunk
    holders = {j: k for k, j in enumerate(sorted({j for _, j in x}))}
    lp.add_rows([holders[j] for _, j in x], list(x.values()),
                [chunks.sizes[c] / budgets[j] for c, j in x], LE,
                np.ones(len(holders)))
    # delivery flow toward each client: node u feeds in what it serves
    # remotely to i, and each link's load is at most alpha * capacity (in
    # rate_scale units)
    cap = np.array([link.capacity for link in topo.links], dtype=float)
    _add_flow_rows(lp, topo, [pos[i] for i in clients], first_flow, remote,
                   np.zeros(len(clients) * (n - 1)), 1.0, -cap / rate_scale)
    lp.meta = {"alpha": alpha, "x": x}
    return lp


def _unit_hash(a: int, b: int) -> float:
    """A fixed number in [0, 1) for the integer pair (a, b): splitmix64's
    finalizer of the pair packed into 64 bits. Unlike hash(), it does not
    depend on PYTHONHASHSEED."""
    mask = (1 << 64) - 1
    z = (((a & 0xFFFFFFFF) << 32 | (b & 0xFFFFFFFF)) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) / float(1 << 53)


# relative size of the stage-2 cost perturbation; a stage-2 flow (in
# units of the largest rate) within HiGHS's primal tolerance is noise
_PERTURBATION = 1e-6
_FLOW_NOISE = _HIGHS_OPTIONS["primal_feasibility_tolerance"]


def solve_min_mlu_routing(topo, tm: TrafficMatrix) -> RoutingSolution:
    """Demand-aware routing: min-MLU flow fractions for positive-rate
    commodities, InverseCap shortest paths for everything else (so every
    ordered pair has a defined route).

    Two stages on the per-destination program: the first finds the least
    alpha; the second caps alpha at alpha * (1 + 1e-9) and minimizes the
    InverseCap-weighted flow (so each commodity's cost counts its rate),
    each weight w_l toward sink t scaled by 1 + 1e-6 * r(link id, t) for
    a fixed hash r in [0, 1). The weights are positive, so the second
    optimum has no cycle, and flow off the bottleneck takes InverseCap-
    short paths. The perturbation leaves one optimal vertex (Charnes,
    Econometrica 1952), so every HiGHS method returns the same routing.
    Flows at solver-noise level are dropped, and each sink's flow is then
    split among its sources by `traffic.split_by_source`, so loads on the
    matrix are the program's flows."""
    routing: RoutingSolution = {k: dict(v) for k, v in topo.ic_routes.items()}
    positive = {k: r for k, r in tm.items() if r > 0}
    if not positive:
        return routing
    # A supply row may miss by FEAS_TOL, so rates at most FEAS_TOL times
    # the largest are below what the certified program resolves; they
    # keep their InverseCap routes too.
    floor = FEAS_TOL * max(positive.values())
    positive = {k: r for k, r in positive.items() if r > floor}
    lp = build_min_mlu_lp(topo, positive)
    alpha, sinks = lp.meta["alpha"], lp.meta["sinks"]
    sol = solve_lp_auto(lp)
    if sol.status != "optimal":
        raise SimplexError(f"min-MLU program ended {sol.status}")
    lp.hi[alpha] = float(sol.array[alpha]) * (1.0 + 1e-9)
    # the builder's column layout: alpha, then each sink's links
    lp.obj = [0.0] + [topo.ic_weights[link.id]
                      * (1.0 + _PERTURBATION * _unit_hash(link.id, t))
                      for t in sinks for link in topo.links]
    sol = solve_lp_auto(lp)
    if sol.status != "optimal":
        raise SimplexError(f"min-MLU second stage ended {sol.status}")
    flows = sol.array[1:].reshape(len(sinks), len(topo.links))
    flows = np.where(flows > _FLOW_NOISE, flows, 0.0)
    for t, flow in zip(sinks, flows):
        try:
            routing.update(split_by_source(
                topo, t, flow, sorted(s for s, d in positive if d == t),
                key=topo.pop_at.__getitem__))
        except ValueError as exc:
            raise SimplexError(f"min-MLU {exc}") from None
    return routing

