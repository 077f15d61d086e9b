"""Spans and counts recorded around the simulator's public functions.

`Tracer.wrap(name, fn)` returns a function that times each call of `fn`
as a span: name, start, end and the enclosing span. A span's self time is
its duration minus the time covered by the spans it encloses. Per-request
functions (cache accesses, redirection, link loads) run millions of times,
so their spans are only aggregated into call counts and times; the other
spans are also kept as records and written out at the end of the run.

`install(tracer)` patches every layer's public functions at each place
the simulator looks them up: the module that defines a function and the
modules that import it by name. `install_captures(capture)` patches only
the three functions whose inputs and outputs the property checks read,
without timing them, for untraced rounds.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id)
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()    # work counts other than calls
        self._stack = []           # [span id or None, child seconds]

    def wrap(self, name, fn, keep=True, after=None):
        """Time every call of `fn` under `name`. `after(result, args,
        kwargs)` runs after the span has ended, so its cost is charged to
        the enclosing span only."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(self.spans) if keep else None, 0.0]
            if keep:
                self.spans.append(None)  # reserve the id; filled below
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if keep:
                    self.spans[frame[0]] = (
                        frame[0], name, start, end,
                        parent[0] if parent is not None else None)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _patch(modules, attr, wrapper):
    for module in modules:
        if hasattr(module, attr):
            setattr(module, attr, wrapper)


def _with_after(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return wrapper


def install_captures(capture) -> None:
    """Feed `capture` (a Captures) from every joint solve, min-MLU
    routing and plan, with no spans or counts."""
    from cdnte import cli, engine, lp, placement

    users = (cli, engine, lp, placement)
    _patch(users, "solve_lp_auto", _with_after(
        lp.solve_lp_auto, lambda r, a, kw: capture.on_solve(a[0], r)))
    _patch(users, "solve_min_mlu_routing",
           _with_after(lp.solve_min_mlu_routing, capture.on_routing))
    _patch(users, "plan_placement_optimized",
           _with_after(placement.plan_placement_optimized, capture.on_plan))


def install(tracer: Tracer, capture=None) -> None:
    """Wrap the public functions of workload, topology, lp, placement,
    redirection, traffic and engine. `capture` (a Captures) receives the
    inputs and outputs the property checks need."""
    import scipy.optimize

    from cdnte import cli, engine, lp, placement, redirection, topology
    from cdnte import traffic, workload

    users = (cli, engine, lp, placement, redirection, topology, traffic,
             workload)

    def wrap_everywhere(module, attr, name, keep=True, after=None):
        wrapper = tracer.wrap(name, getattr(module, attr), keep, after)
        _patch(users, attr, wrapper)

    # workload
    wrap_everywhere(workload, "parse_trace", "workload.parse_trace")
    wrap_everywhere(workload, "parse_catalog", "workload.parse_catalog")
    wrap_everywhere(workload, "aggregate_demand", "workload.aggregate_demand")

    # topology
    for attr in ("inverse_cap_weights", "shortest_path_routes",
                 "all_pairs_distances"):
        wrap_everywhere(topology, attr, f"topology.{attr}")

    # lp
    def count_program(result, args, kwargs):
        program = args[0]
        tracer.counts["lp.programs"] += 1
        tracer.counts["lp.rows"] += program.num_rows
        tracer.counts["lp.cols"] += program.num_vars
        tracer.counts["lp.nnz"] += sum(len(c) for c, _, _ in program.rows)
        if result.backend == "bundled":
            tracer.counts["lp.bundled_iterations"] += result.iterations
        if capture is not None:
            capture.on_solve(program, result)

    def count_highs(result, args, kwargs):
        tracer.counts["lp.highs_iterations"] += int(getattr(result, "nit", 0))

    wrap_everywhere(lp, "build_joint_lp", "lp.build_joint_lp")
    wrap_everywhere(lp, "build_min_mlu_lp", "lp.build_min_mlu_lp")
    wrap_everywhere(lp, "solve_lp_auto", "lp.solve_lp_auto", after=count_program)
    wrap_everywhere(lp, "solve_lp", "lp.bundled")
    scipy.optimize.linprog = tracer.wrap("lp.highs", scipy.optimize.linprog,
                                         after=count_highs)
    wrap_everywhere(lp, "solve_min_mlu_routing", "lp.solve_min_mlu_routing",
                    after=capture.on_routing if capture else None)

    # placement: the future planner is an alias that calls the optimized
    # one through the placement module, so each plan is counted once
    plan = tracer.wrap("placement.plan", placement.plan_placement_optimized,
                       after=capture.on_plan if capture else None)
    _patch((engine, placement, cli), "plan_placement_optimized", plan)
    wrap_everywhere(placement, "induced_traffic_matrix", "placement.induced")
    placement.CacheState.access = tracer.wrap(
        "placement.cache_access", placement.CacheState.access, keep=False)

    # redirection
    wrap_everywhere(redirection, "redirect_closest", "redirection.closest",
                    keep=False)
    wrap_everywhere(redirection, "redirect_utilization_aware",
                    "redirection.util_aware", keep=False)

    # traffic
    wrap_everywhere(traffic, "apply_routing", "traffic.apply_routing",
                    keep=False)
    wrap_everywhere(traffic, "mlu", "traffic.mlu", keep=False)

    # engine
    wrap_everywhere(engine, "run_experiment", "engine.run_experiment")
    for attr in ("report_csv", "summary_csv", "comparison_csv"):
        wrap_everywhere(engine, attr, "engine.report")
