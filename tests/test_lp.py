import random

import numpy as np
import pytest

from cdnte import lp as L
from cdnte import parse_topology
from cdnte.engine import SchemeSpec, run_experiment
from cdnte.placement import induced_traffic_matrix
from cdnte.topology import (all_pairs_distances, inverse_cap_weights,
                            shortest_path_routes)
from cdnte.traffic import apply_routing, check_flow_conservation, mlu
from cdnte.workload import (ChunkMap, ContentObject, DemandMatrix,
                            SynthParams, generate_synthetic_trace)

from conftest import (MERGE_AND_SPLIT, make_parallel_paths, make_triangle,
                      make_two_pop,
                      random_digraph, random_symmetric_topology,
                      random_traffic_matrix)


def test_basic_bounded():
    lp = L.LinearProgram()
    x = lp.add_var("x", obj=1.0)
    lp.add_constraint({x: 1.0}, L.GE, 3.0)
    lp.add_constraint({x: 1.0}, L.LE, 10.0)
    sol = L.solve_lp(lp)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.array[x] == pytest.approx(3.0, abs=1e-9)
    assert sol.duality_gap is not None and sol.duality_gap <= 1e-6


def test_unbounded():
    lp = L.LinearProgram()
    lp.add_var("x", obj=-1.0)
    assert L.solve_lp(lp).status == "unbounded"


def test_infeasible():
    lp = L.LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: 1.0}, L.GE, 2.0)
    lp.add_constraint({x: 1.0}, L.LE, 1.0)
    assert L.solve_lp(lp).status == "infeasible"


def test_construction_errors():
    lp = L.LinearProgram()
    lp.add_var("x")
    with pytest.raises(ValueError, match="unknown variable"):
        lp.add_constraint({3: 1.0}, L.LE, 1.0)
    with pytest.raises(ValueError, match="finite"):
        lp.add_constraint({0: 1.0}, L.LE, float("inf"))
    with pytest.raises(ValueError, match="duplicate"):
        lp.add_var("x")
    with pytest.raises(ValueError, match="bad upper bound"):
        lp.add_var("y", lo=2.0, hi=1.0)


def test_rows_drop_explicit_zeros():
    lp = L.LinearProgram()
    x, y = lp.add_var("x"), lp.add_var("y")
    assert lp.add_constraint({x: 0.0, y: 2.0}, L.LE, 1.0) == 0
    assert lp.add_rows([0, 1, 1], [x, x, y], [0.0, 3.0, -1.0], L.EQ,
                       [0.0, 4.0]) == 1
    assert lp.matrix().nnz == 3
    assert list(lp.rows) == [({y: 2.0}, L.LE, 1.0), ({}, L.EQ, 0.0),
                             ({x: 3.0, y: -1.0}, L.EQ, 4.0)]


def test_fixed_variable_and_shifted_bounds():
    lp = L.LinearProgram()
    x = lp.add_var("x", lo=2.0, hi=2.0, obj=1.0)
    y = lp.add_var("y", lo=-1.0, hi=4.0, obj=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, L.GE, 2.5)
    sol = L.solve_lp(lp)
    assert sol.array[x] == pytest.approx(2.0, abs=1e-9)
    assert sol.array[y] == pytest.approx(0.5, abs=1e-9)


def _certificate_program():
    lp = L.LinearProgram()
    a = lp.add_var("a", hi=10.0)
    b = lp.add_var("b", hi=10.0)
    c = lp.add_var("c", lo=-5.0)
    lp.add_constraint({a: 1.0, b: 1.0}, L.LE, 5.0)      # row 0, scale 5
    lp.add_constraint({a: 3.0, c: -1.0}, L.GE, -2.0)    # row 1, scale 3
    lp.add_constraint({b: 1.0, c: 4.0}, L.EQ, 12.0)     # row 2, scale 12
    return lp


def _certify(lp, x):
    L._verify_solution(lp, x)


def test_certificate_names_first_variable_off_its_bounds():
    lp = _certificate_program()
    x = np.array([-5e-10, 4.0, 2.0])  # inside the 1e-9 slack: clipped
    _certify(lp, x)
    assert x[0] == 0.0
    with pytest.raises(L.SimplexError,
                       match=r"^variable b violates its bounds: 10\.000000002$"):
        _certify(lp, np.array([1.0, 10.0 + 2e-9, -5.0 - 2e-9]))


def test_certificate_names_first_violated_row():
    lp = _certificate_program()
    tol = L.FEAS_TOL
    # row 2 off by twice its scaled tolerance
    with pytest.raises(L.SimplexError,
                       match=r"^row 2 violated by 2\.400e-06 \(sense =\)$"):
        _certify(lp, np.array([1.0, 2.0 + 2 * tol * 12, 2.5]))
    # rows 1 (">=", negated for the solver) and 2 both off: row 1 is named
    c = 2.0 + 2 * tol * 3
    with pytest.raises(L.SimplexError,
                       match=r"^row 1 violated by -6\.000e-07 \(sense >=\)$"):
        _certify(lp, np.array([0.0, 12.0 - 4 * c + 2 * tol * 12, c]))
    # rows 0 and 1 (one block for the solver) and 2 all off: row 0 is named
    with pytest.raises(L.SimplexError,
                       match=r"^row 0 violated by 1\.000e-06 \(sense <=\)$"):
        _certify(lp, np.array([0.0, 5.0 + 2 * tol * 5, c]))


def test_redundant_rows_tolerated():
    lp = L.LinearProgram()
    x = lp.add_var("x", obj=1.0)
    y = lp.add_var("y", obj=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, L.EQ, 4.0)
    lp.add_constraint({x: 2.0, y: 2.0}, L.EQ, 8.0)  # dependent duplicate
    sol = L.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-7)


def test_beale_cycling_instance():
    # classic degenerate instance that cycles under naive Dantzig pricing;
    # its known optimum is -0.05
    lp = L.LinearProgram()
    x1 = lp.add_var("x1", obj=-0.75)
    x2 = lp.add_var("x2", obj=150.0)
    x3 = lp.add_var("x3", obj=-0.02)
    x4 = lp.add_var("x4", obj=6.0)
    lp.add_constraint({x1: 0.25, x2: -60.0, x3: -0.04, x4: 9.0}, L.LE, 0.0)
    lp.add_constraint({x1: 0.5, x2: -90.0, x3: -0.02, x4: 3.0}, L.LE, 0.0)
    lp.add_constraint({x3: 1.0}, L.LE, 1.0)
    sol = L.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_duality_gap_is_relative_to_the_objective(monkeypatch):
    # a ~1e-4 optimum, the size of plan-joint's alpha: a dual objective
    # off by 1e-8 is a gap of 1e-4 relative, far above DUAL_TOL, though
    # below it as an absolute difference
    import scipy.optimize

    lp = L.LinearProgram()
    x = lp.add_var("x", obj=1.0)
    lp.add_constraint({x: 1.0}, L.GE, 1e-4)
    sol = L.solve_lp(lp)
    assert sol.objective == pytest.approx(1e-4, rel=1e-12)
    assert sol.duality_gap <= L.DUAL_TOL
    linprog = scipy.optimize.linprog

    def dual_off(*args, **kwargs):
        res = linprog(*args, **kwargs)
        # the row's dual value 1 + 1e-4 lifts the dual objective by 1e-8
        res.ineqlin.marginals = res.ineqlin.marginals * (1 + 1e-4)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", dual_off)
    with pytest.raises(L.SimplexError,
                       match=r"^duality gap 9\.999e-05 exceeds"):
        L.solve_lp(lp)


def test_solve_lp_auto_method_by_size():
    small = L.LinearProgram()
    x = small.add_var("x", obj=1.0)
    small.add_constraint({x: 1.0}, L.GE, 3.0)
    sol = L.solve_lp_auto(small)
    assert sol.backend == "highs"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    big = L.LinearProgram()
    for j in range(L._IPM_MIN_ROWS + 1):
        big.add_constraint({big.add_var(f"v{j}", obj=1.0): 1.0}, L.GE, 1.0)
    sol = L.solve_lp_auto(big)
    assert sol.backend == "highs-ipm"
    assert sol.objective == pytest.approx(L._IPM_MIN_ROWS + 1, rel=1e-9)


def test_write_lp_text():
    lp = L.LinearProgram("demo")
    x = lp.add_var("f[0->1]@2", hi=1.0, obj=1.0)
    lp.add_constraint({x: 1.0}, L.GE, 0.5)
    text = L.write_lp_text(lp)
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert ">= 0.5" in text


# ---------------------------------------------------------------------------
# min-MLU builder


def test_min_mlu_single_link():
    topo = make_two_pop(cap_mbps=10)
    sol = L.solve_lp(L.build_min_mlu_lp(topo, {(0, 1): 7e6}))
    assert sol.objective == pytest.approx(0.7, abs=1e-9)


def test_min_mlu_parallel_paths_brute_force_oracle():
    topo = make_parallel_paths(cap_mbps=10)
    demand = 10e6
    # oracle: sweep the split fraction between the two disjoint relay paths
    best = min(max(x * demand, (1 - x) * demand) / 10e6
               for x in np.linspace(0, 1, 2001))
    sol = L.solve_lp(L.build_min_mlu_lp(topo, {(0, 1): demand}))
    assert sol.objective == pytest.approx(best, abs=1e-6)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_min_mlu_triangle_analytic():
    topo = make_triangle()
    # min over x of max(x, 9-x)/10 = 0.45 at x = 4.5
    sol = L.solve_lp(L.build_min_mlu_lp(topo, {(0, 1): 9e6}))
    assert sol.objective == pytest.approx(0.45, abs=1e-9)


def test_min_mlu_homogeneity():
    rng = random.Random(37)
    for _ in range(8):
        topo = random_digraph(rng.randint(4, 7), rng)
        tm = random_traffic_matrix(topo, rng)
        base = L.solve_lp_auto(L.build_min_mlu_lp(topo, tm)).objective
        k = rng.uniform(0.3, 4.0)
        scaled = L.solve_lp_auto(L.build_min_mlu_lp(
            topo, {key: k * v for key, v in tm.items()})).objective
        assert scaled == pytest.approx(k * base, rel=1e-6)


def test_min_mlu_capacity_scaling():
    rng = random.Random(41)
    topo = random_digraph(5, rng)
    tm = random_traffic_matrix(topo, rng)
    base = L.solve_lp_auto(L.build_min_mlu_lp(topo, tm)).objective
    bigger = parse_topology("\n".join(
        [f"pop {p} N{p}" for p in topo.pops]
        + [f"arc {l.src} {l.dst} {l.capacity * 2 // 1_000_000}" for l in topo.links]
        + ["origin 0"]))
    scaled = L.solve_lp_auto(L.build_min_mlu_lp(bigger, tm)).objective
    assert scaled == pytest.approx(base / 2, rel=1e-6)


def test_solve_min_mlu_routing_extraction(parallel_paths):
    routing = L.solve_min_mlu_routing(parallel_paths, {(0, 1): 10e6})
    check_flow_conservation(routing, parallel_paths, tol=1e-7)
    by_pair = {(l.src, l.dst): l.id for l in parallel_paths.links}
    assert routing[(0, 1)][by_pair[(0, 2)]] == pytest.approx(0.5, abs=1e-7)
    assert routing[(0, 1)][by_pair[(0, 3)]] == pytest.approx(0.5, abs=1e-7)
    # LP optimum equals the applied MLU of the extracted routing
    loads = apply_routing(routing, {(0, 1): 10e6})
    assert mlu(loads, parallel_paths) == pytest.approx(0.5, abs=1e-7)


def test_min_mlu_routing_second_stage_random_instances():
    # criterion 2's generator. The second stage keeps the first stage's
    # alpha, leaves no cycle (every fraction within [0, 1]), and sends a
    # commodity that fits on its InverseCap shortest path without touching
    # the bottleneck along a path of InverseCap length
    rng = random.Random(2024)
    off_bottleneck = 0
    for _ in range(60):
        topo = random_digraph(rng.randint(4, 10), rng)
        tm = random_traffic_matrix(topo, rng,
                                   n_commodities=rng.randint(2, len(topo.pops)))
        w = inverse_cap_weights(topo)
        ic = shortest_path_routes(topo, w)
        dist = all_pairs_distances(topo, w)
        alpha = L.solve_lp_auto(L.build_min_mlu_lp(topo, tm)).objective
        routing = L.solve_min_mlu_routing(topo, tm)
        check_flow_conservation(routing, topo, tol=1e-7)
        loads = apply_routing(routing, tm)
        assert abs(mlu(loads, topo) - alpha) <= 1e-7
        caps = {l.id: l.capacity for l in topo.links}
        for k, rate in tm.items():
            # loads after moving k onto its InverseCap route: skip k if a
            # link that gains load comes near alpha
            moved = dict(loads)
            for lid, frac in routing[k].items():
                moved[lid] -= frac * rate
            for lid, frac in ic[k].items():
                moved[lid] = moved.get(lid, 0.0) + frac * rate
            if any(moved[lid] > loads.get(lid, 0.0) and
                   moved[lid] > alpha * (1 - 1e-3) * caps[lid]
                   for lid in moved):
                continue
            off_bottleneck += 1
            cost = sum(w[lid] * frac for lid, frac in routing[k].items())
            assert cost == pytest.approx(dist[k], rel=1e-6)
    assert off_bottleneck >= 20


def test_solve_min_mlu_routing_single_path(two_pop):
    routing = L.solve_min_mlu_routing(two_pop, {(0, 1): 1e6})
    link = [l for l in two_pop.links if l.src == 0][0]
    assert routing[(0, 1)] == {link.id: pytest.approx(1.0, abs=1e-9)}


def test_solve_min_mlu_routing_empty_matrix_is_inversecap(triangle):
    ic = shortest_path_routes(triangle, inverse_cap_weights(triangle))
    routing = L.solve_min_mlu_routing(triangle, {})
    assert routing == ic


def _criterion_2_instances():
    rng = random.Random(2024)
    for _ in range(200):
        topo = random_digraph(rng.randint(4, 10), rng)
        yield topo, random_traffic_matrix(
            topo, rng, n_commodities=rng.randint(2, len(topo.pops)))


def _criterion_3_matrices():
    """The distinct matrices criterion 3 routes: the nearest-replica
    matrix of every integral placement of its instances."""
    from test_acceptance import _integral_placements, _tiny_instances
    seen = {}
    for topo, _, chunks, origins, dm, budgets in _tiny_instances(
            random.Random(3030), 50):
        for placement in _integral_placements(topo, chunks, origins, budgets):
            tm = induced_traffic_matrix(dm, placement, origins, topo)
            if tm:
                seen.setdefault((topo.pops, tuple(sorted(tm.items()))),
                                (topo, tm))
    return list(seen.values())


def _realized_day_with_transit():
    """Day 0's realized matrix of `lru` on the 20-pop backbone, plus a
    transit matrix, as `min-mlu-prior-day` routes it on day 1."""
    topo = random_symmetric_topology(20, seed=42)
    catalog, trace = generate_synthetic_trace(
        SynthParams(requests_per_day=4000, days=1, seed=42), topo)
    rep = run_experiment(topo, catalog, trace,
                         SchemeSpec("lru", "inversecap", "closest"), 3600.0,
                         collect_matrices=True)
    tm = {}
    for matrix in rep.interval_matrices:
        for k, nbytes in matrix.items():
            tm[k] = tm.get(k, 0.0) + nbytes * 8.0 / 86400.0
    rng = random.Random(42)
    for _ in range(12):
        k = tuple(rng.sample(topo.pops, 2))
        tm[k] = tm.get(k, 0.0) + rng.uniform(2e6, 8e6)
    return topo, tm


def test_min_mlu_routing_same_for_every_highs_method(monkeypatch):
    # the perturbed second stage has one optimal vertex, so each HiGHS
    # method returns the same routing: the same links for every commodity
    # and fractions within 1e-8 (alpha itself differs by method in its
    # last digits, and the second stage's cap with it)
    cases = list(_criterion_2_instances()) + _criterion_3_matrices() \
        + [_realized_day_with_transit()]
    assert len(cases) > 250 and len(cases[-1][1]) > 300
    by_method = []
    for method in ("highs", "highs-ds", "highs-ipm"):
        monkeypatch.setattr(L, "solve_lp_auto",
                            lambda lp, method=method: L.solve_lp(lp, method))
        by_method.append([L.solve_min_mlu_routing(topo, tm)
                          for topo, tm in cases])
    first = by_method[0]
    for other in by_method[1:]:
        for (topo, tm), a, b in zip(cases, first, other):
            assert a.keys() == b.keys()
            for k in a:
                assert a[k].keys() == b[k].keys(), (topo.pops, k)
                for lid, frac in a[k].items():
                    assert abs(frac - b[k][lid]) <= 1e-8, (topo.pops, k, lid)


def test_min_mlu_routing_drops_flow_noise_and_fails_on_bad_flow(
        tmp_path, monkeypatch, capsys):
    # a stage-2 flow at solver-noise level neither routes nor closes a
    # cycle; a flow that strands a source or has a cycle is a failure
    # (exit 2), named by its sink
    from cdnte.cli import main
    topo = parse_topology(MERGE_AND_SPLIT)
    at = {(l.src, l.dst): topo.link_at[l.id] for l in topo.links}
    flow = np.zeros(1 + len(topo.links))  # alpha, then links toward pop 5
    flow[[1 + at[(0, 2)], 1 + at[(2, 3)], 1 + at[(3, 5)]]] = 1.0
    flow[[1 + at[(5, 0)], 1 + at[(1, 2)]]] = 1e-10
    monkeypatch.setattr(L, "solve_lp_auto", lambda lp: L.LpSolution(
        "optimal", 1.0, flow.copy()))
    routing = L.solve_min_mlu_routing(topo, {(0, 5): 1.0})
    assert routing[(0, 5)] == {topo.links[at[a]].id: 1.0
                               for a in ((0, 2), (2, 3), (3, 5))}
    with pytest.raises(L.SimplexError, match=r"\(1, 5\) does not reach its sink"):
        L.solve_min_mlu_routing(topo, {(0, 5): 1.0, (1, 5): 1.0})
    flow[1 + at[(5, 0)]] = 0.5
    with pytest.raises(L.SimplexError, match="toward pop 5 has a cycle"):
        L.solve_min_mlu_routing(topo, {(0, 5): 1.0})
    topo_path = tmp_path / "topo.txt"
    topo_path.write_text(MERGE_AND_SPLIT, encoding="utf-8")
    matrix = tmp_path / "tm.csv"
    matrix.write_text("src_pop,dst_pop,rate_mbps\n0,5,1\n", encoding="utf-8")
    assert main(["solve-routing", str(topo_path), str(matrix)]) == 2
    assert "cycle" in capsys.readouterr().err


def test_min_mlu_routing_leaves_unresolved_rates_on_inversecap():
    # a rate within FEAS_TOL of the largest is below what the certified
    # program resolves: it keeps its InverseCap route, and the routing
    # still conserves flow
    topo = random_symmetric_topology(20, seed=42)
    tm = {(0, 5): 1e9, (12, 5): 5e8, (3, 7): 10.0}
    routing = L.solve_min_mlu_routing(topo, tm)
    assert routing[(3, 7)] == topo.ic_routes[(3, 7)]
    check_flow_conservation(routing, topo, tol=1e-7)
    alpha = L.solve_lp(L.build_min_mlu_lp(topo, {k: tm[k] for k in tm
                                                 if k != (3, 7)})).objective
    assert mlu(apply_routing(routing, tm), topo) == pytest.approx(alpha,
                                                                  rel=1e-7)


# ---------------------------------------------------------------------------
# joint builder


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


def test_joint_two_chunk_instance():
    topo = _origin_triangle()
    cat = {"A": ContentObject("A", 100), "B": ContentObject("B", 100)}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    dm = DemandMatrix(0.0, 86400.0, {(("A", 0), 0): 10**6, (("B", 0), 1): 10**6})
    budgets = {0: 100, 1: 100, 2: 100}
    lp = L.build_joint_lp(topo, dm, budgets, chunks, origins)
    sol = L.solve_lp(lp)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.array[lp.meta["x"][(("A", 0), 0)]] == pytest.approx(1.0, abs=1e-7)
    assert sol.array[lp.meta["x"][(("B", 0), 1)]] == pytest.approx(1.0, abs=1e-7)


def test_joint_full_storage_zero_alpha():
    topo = _origin_triangle()
    cat = {"A": ContentObject("A", 100), "B": ContentObject("B", 70)}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    dm = DemandMatrix(0.0, 3600.0, {(("A", 0), 0): 500, (("B", 0), 0): 300,
                                    (("A", 0), 1): 200})
    budgets = {p: 1000 for p in topo.pops}
    sol = L.solve_lp(L.build_joint_lp(topo, dm, budgets, chunks, origins))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_joint_zero_storage_reduces_to_origin_min_mlu():
    topo = _origin_triangle()
    cat = {"A": ContentObject("A", 100), "B": ContentObject("B", 70)}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    dm = DemandMatrix(0.0, 3600.0, {(("A", 0), 0): 5 * 10**8,
                                    (("B", 0), 1): 3 * 10**8,
                                    (("A", 0), 1): 2 * 10**8})
    joint = L.solve_lp(L.build_joint_lp(topo, dm, {0: 0, 1: 0, 2: 0},
                                        chunks, origins))
    tm = {}
    for (chunk, pop), nbytes in dm.demand.items():
        if pop != 2:
            tm[(2, pop)] = tm.get((2, pop), 0.0) + nbytes * 8.0 / 3600.0
    direct = L.solve_lp(L.build_min_mlu_lp(topo, tm))
    assert joint.objective == pytest.approx(direct.objective, rel=1e-9)


def _build_joint_per_pair_reference(topo, dm, budgets, chunks, origins):
    """Reference formulation with one flow commodity per (server, client)
    pair, used to check that the per-client aggregation in build_joint_lp
    preserves the optimum."""
    window = dm.window_seconds
    rates = {(c, p): nb * 8.0 / window for (c, p), nb in dm.demand.items()
             if nb > 0}
    demanded = sorted(rates)
    chunk_list = sorted({c for c, _ in demanded})
    clients = sorted({p for _, p in demanded})
    store_pops = sorted(p for p in topo.pops if budgets.get(p, 0) > 0)
    server_pops = sorted(set(store_pops) | {origins[c[0]] for c in chunk_list})
    R = max(rates.values(), default=1.0)
    lp = L.LinearProgram("joint-per-pair-reference")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    x, y = {}, {}
    for c in chunk_list:
        for j in store_pops:
            if j != origins[c[0]]:
                x[(c, j)] = lp.add_var(f"x{c}{j}", hi=1.0)
    for (c, i) in demanded:
        for j in server_pops:
            if j == origins[c[0]] or (c, j) in x:
                y[(c, i, j)] = lp.add_var(f"y{c}{i}{j}")
    commodities = sorted((j, i) for i in clients for j in server_pops if j != i)
    f = {(k, l.id): lp.add_var(f"f{k}{l.id}")
         for k in commodities for l in topo.links}
    for (c, i) in demanded:
        lp.add_constraint({y[(c, i, j)]: 1.0 for j in server_pops
                           if (c, i, j) in y}, L.EQ, 1.0)
    for (c, i, j), yi in y.items():
        if j != origins[c[0]]:
            lp.add_constraint({yi: 1.0, x[(c, j)]: -1.0}, L.LE, 0.0)
    for j in store_pops:
        coeffs = {x[(c, j)]: chunks.sizes[c] / budgets[j]
                  for c in chunk_list if (c, j) in x}
        if coeffs:
            lp.add_constraint(coeffs, L.LE, 1.0)
    for (j, i) in commodities:
        for u in topo.pops:
            if u == i:
                continue
            coeffs = {}
            for link in topo.out_links[u]:
                coeffs[f[((j, i), link.id)]] = coeffs.get(
                    f[((j, i), link.id)], 0.0) + 1.0
            for link in topo.in_links[u]:
                coeffs[f[((j, i), link.id)]] = coeffs.get(
                    f[((j, i), link.id)], 0.0) - 1.0
            if u == j:
                for (c, ii, jj), yi in y.items():
                    if ii == i and jj == j:
                        coeffs[yi] = coeffs.get(yi, 0.0) - rates[(c, i)] / R
            lp.add_constraint(coeffs, L.EQ, 0.0)
    for link in topo.links:
        coeffs = {f[(k, link.id)]: 1.0 for k in commodities}
        coeffs[alpha] = -link.capacity / R
        lp.add_constraint(coeffs, L.LE, 0.0)
    return lp


def _aggregation_instances():
    rng = random.Random(61)
    for _ in range(8):
        topo = _origin_triangle()
        cat = {f"o{i}": ContentObject(f"o{i}", rng.randint(10, 100))
               for i in range(3)}
        chunks = ChunkMap(cat, None)
        origins = {cid: 2 for cid in cat}
        demand = {}
        for cid in cat:
            for pop in (0, 1, 2):
                if rng.random() < 0.6:
                    demand[((cid, 0), pop)] = rng.randint(10**5, 10**7)
        if not demand:
            continue
        dm = DemandMatrix(0.0, 3600.0, demand)
        budgets = {0: rng.randint(0, 150), 1: rng.randint(0, 150), 2: 0}
        yield topo, dm, budgets, chunks, origins


def test_joint_client_aggregation_matches_per_pair_reference():
    for topo, dm, budgets, chunks, origins in _aggregation_instances():
        mine = L.solve_lp_auto(L.build_joint_lp(topo, dm, budgets, chunks,
                                                origins))
        ref = L.solve_lp_auto(_build_joint_per_pair_reference(
            topo, dm, budgets, chunks, origins))
        assert mine.objective == pytest.approx(ref.objective, rel=1e-6,
                                               abs=1e-9)


def test_joint_relaxation_lower_bound_single_instance():
    # one unit-storage instance checked against exhaustive placements
    topo = _origin_triangle()
    cat = {c: ContentObject(c, 1) for c in ("A", "B")}
    chunks = ChunkMap(cat, None)
    origins = {"A": 2, "B": 2}
    dm = DemandMatrix(0.0, 1.0, {(("A", 0), 0): 8, (("B", 0), 0): 4,
                                 (("A", 0), 1): 6})
    budgets = {0: 1, 1: 1, 2: 0}
    from cdnte.placement import induced_traffic_matrix, Placement
    from itertools import combinations, product
    all_chunks = list(chunks.sizes)
    best = None
    options = []
    for pop in (0, 1):
        opts = [frozenset()]
        for k in range(1, budgets[pop] + 1):
            opts += [frozenset(c) for c in combinations(all_chunks, k)]
        options.append(opts)
    for choice in product(*options):
        placement = Placement({0: set(choice[0]), 1: set(choice[1])})
        tm = induced_traffic_matrix(dm, placement, origins, topo)
        value = L.solve_lp(L.build_min_mlu_lp(topo, tm)).objective if tm else 0.0
        best = value if best is None else min(best, value)
    relax = L.solve_lp(L.build_joint_lp(topo, dm, budgets, chunks, origins))
    assert relax.objective <= best + 1e-6


# ---------------------------------------------------------------------------
# array-built programs against row-by-row references


class _RowsGiven(L.LinearProgram):
    """A program that also keeps each row as add_constraint was given it."""

    def __init__(self, name):
        super().__init__(name)
        self.given = []

    def add_constraint(self, coeffs, sense, rhs):
        self.given.append((dict(coeffs), sense, rhs))
        return super().add_constraint(coeffs, sense, rhs)


def _min_mlu_by_rows(topo, tm):
    """build_min_mlu_lp written one add_constraint call per row: one flow
    per (sink, link), in units of the largest rate."""
    positive = sorted(k for k, rate in tm.items() if rate > 0)
    sinks = sorted({t for _, t in positive})
    scale = max(tm[k] for k in positive)
    lp = _RowsGiven("min-mlu")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    flow = {}
    for t in sinks:
        for link in topo.links:
            flow[(t, link.id)] = lp.add_var(f"f[->{t}]@{link.id}")
    for t in sinks:
        for u in topo.pops:
            if u == t:
                continue
            coeffs = {}
            for link in topo.out_links[u]:
                coeffs[flow[(t, link.id)]] = 1.0
            for link in topo.in_links[u]:
                coeffs[flow[(t, link.id)]] = -1.0
            lp.add_constraint(coeffs, L.EQ, tm.get((u, t), 0.0) / scale)
    for link in topo.links:
        coeffs = {flow[(t, link.id)]: 1.0 for t in sinks}
        coeffs[alpha] = -link.capacity / scale
        lp.add_constraint(coeffs, L.LE, 0.0)
    lp.meta = {"alpha": alpha, "sinks": sinks}
    return lp


def _joint_by_rows(topo, dm, budgets, chunks, origins):
    """build_joint_lp written one add_constraint call per row."""
    rates = {key: nb * 8.0 / dm.window_seconds
             for key, nb in dm.demand.items() if nb > 0}
    demanded = sorted(rates)
    chunk_list = sorted({c for c, _ in demanded})
    clients = sorted({p for _, p in demanded})
    store_pops = sorted(p for p in topo.pops if budgets.get(p, 0) > 0)
    server_pops = sorted(set(store_pops) | {origins[c[0]] for c in chunk_list})
    scale = max(rates.values(), default=1.0)
    lp = _RowsGiven("joint-placement-routing")
    alpha = lp.add_var("alpha", lo=0.0, obj=1.0)
    x, y, by_client, flow = {}, {}, {}, {}
    for c in chunk_list:
        for j in store_pops:
            if j != origins[c[0]]:
                x[(c, j)] = lp.add_var(f"x[{c[0]}#{c[1]}@{j}]", hi=1.0)
    for (c, i) in demanded:
        for j in server_pops:
            if j == origins[c[0]] or (c, j) in x:
                y[(c, i, j)] = lp.add_var(f"y[{c[0]}#{c[1]}:{i}<-{j}]")
                if j != i:
                    by_client.setdefault((i, j), []).append((c, i, j))
    for i in clients:
        for link in topo.links:
            flow[(i, link.id)] = lp.add_var(f"f[->{i}]@{link.id}")
    for (c, i) in demanded:
        lp.add_constraint({y[(c, i, j)]: 1.0 for j in server_pops
                           if (c, i, j) in y}, L.EQ, 1.0)
    for (c, i, j), yi in y.items():
        if j != origins[c[0]]:
            lp.add_constraint({yi: 1.0, x[(c, j)]: -1.0}, L.LE, 0.0)
    for j in store_pops:
        coeffs = {x[(c, j)]: chunks.sizes[c] / budgets[j]
                  for c in chunk_list if (c, j) in x}
        if coeffs:
            lp.add_constraint(coeffs, L.LE, 1.0)
    for i in clients:
        for u in topo.pops:
            if u == i:
                continue
            coeffs = {flow[(i, link.id)]: 1.0 for link in topo.out_links[u]}
            coeffs.update({flow[(i, link.id)]: -1.0
                           for link in topo.in_links[u]})
            for key in by_client.get((i, u), ()):
                coeffs[y[key]] = -rates[(key[0], i)] / scale
            lp.add_constraint(coeffs, L.EQ, 0.0)
    for link in topo.links:
        coeffs = {flow[(i, link.id)]: 1.0 for i in clients}
        coeffs[alpha] = -link.capacity / scale
        lp.add_constraint(coeffs, L.LE, 0.0)
    lp.meta = {"alpha": alpha, "x": x}
    return lp


def _assert_same_program(mine, ref):
    assert (mine.name, mine.var_names, mine.meta) == \
        (ref.name, ref.var_names, ref.meta)
    assert (mine.obj, mine.lo, mine.hi) == (ref.obj, ref.lo, ref.hi)
    assert (mine.senses, mine.rhs) == (ref.senses, ref.rhs)
    a, b = mine.matrix(), ref.matrix()
    assert a.shape == b.shape == (mine.num_rows, mine.num_vars)
    for part in ("indptr", "indices", "data"):
        assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
    assert list(mine.rows) == ref.given


def test_min_mlu_arrays_match_row_by_row_reference():
    # criterion 2's instances
    rng = random.Random(2024)
    for n in range(200):
        topo = random_digraph(rng.randint(4, 10), rng)
        tm = random_traffic_matrix(topo, rng,
                                   n_commodities=rng.randint(2, len(topo.pops)))
        mine, ref = L.build_min_mlu_lp(topo, tm), _min_mlu_by_rows(topo, tm)
        _assert_same_program(mine, ref)
        if n == 0:
            assert L.write_lp_text(mine) == L.write_lp_text(ref)


def _chunked_uneven_instance():
    rng = random.Random(5)
    topo = random_digraph(5, rng)
    cat = {f"o{i}": ContentObject(f"o{i}", rng.randint(1, 90), origin=i % 3)
           for i in range(6)}
    chunks = ChunkMap(cat, 25)
    demand = {(chunk, pop): rng.randint(1, 10**6)
              for chunk in sorted(chunks.sizes) for pop in topo.pops
              if rng.random() < 0.5}
    budgets = {0: 40, 1: 0, 2: 75, 3: 25, 4: 130}
    return topo, DemandMatrix(0.0, 900.0, demand), budgets, chunks, \
        {cid: obj.origin for cid, obj in cat.items()}


def test_joint_arrays_match_row_by_row_reference():
    instances = list(_aggregation_instances()) + [_chunked_uneven_instance()]
    for args in instances:
        _assert_same_program(L.build_joint_lp(*args), _joint_by_rows(*args))
    mine, ref = L.build_joint_lp(*instances[-1]), _joint_by_rows(*instances[-1])
    assert mine.num_rows > 100 and len(mine.meta["x"]) > 10
    assert L.write_lp_text(mine) == L.write_lp_text(ref)
