"""Runs `cdnte simulate` once in this process and writes what it measured.

    python3 launch.py --src SRC --config CFG --topology TOPO
                      --result OUT.json [--trace | --setup-only]

The simulator is imported from SRC and driven through its command-line
entry point, as a user runs it. Set-up time runs from the start of this
process to the start of the first scheme (interpreter imports, config,
topology, catalog and trace parsing); simulation time runs from there
until every report CSV is written. The planner's and router's inputs and
outputs are captured during the run and checked for the properties in
checks.py after it, against the network read from TOPO. With --trace,
every layer's public functions are also timed (see tracing.py). With
--setup-only, the process writes its set-up time and exits when the first
scheme starts.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class Captures:
    """Planner and router inputs and outputs, as plain data."""

    def __init__(self):
        self.scheme = None   # label of the scheme running now
        self.routings = []   # (scheme, matrix, routing)
        self.plans = []
        self._alpha = None

    def on_solve(self, program, solution):
        if program.name == "joint-placement-routing" and \
                solution.status == "optimal":
            self._alpha = float(solution.array[program.meta["alpha"]])

    def on_routing(self, routing, args, kwargs):
        self.routings.append((self.scheme, dict(args[1]), routing))

    def on_plan(self, result, args, kwargs):
        dm, _, budgets, chunks, origins = args[:5]
        placement, routing = result
        self.plans.append({
            "scheme": self.scheme, "demand": dict(dm.demand),
            "window_s": dm.window_seconds,
            "stored": {p: set(s) for p, s in placement.stored.items()},
            "budgets": dict(budgets), "sizes": dict(chunks.sizes),
            "origins": dict(origins), "routing": routing,
            "alpha": self._alpha})
        self._alpha = None


def property_checks(topology_text, captures):
    """Check every capture, then check that each kind of check rejects a
    corrupted copy of a real capture. Returns the failure messages, the
    schemes whose outputs a check rejected, the self-tests that a
    corrupted copy passed, and how much was checked."""
    import copy

    import checks

    net = checks.Network(topology_text)
    ic = net.inverse_cap_routes()
    failures, rejected, missed = [], set(), []

    def holds(scheme, fn, *args):
        try:
            fn(*args)
        except checks.CheckError as exc:
            failures.append(f"{scheme}: {exc}")
            rejected.add(scheme)

    def rejects(fn, *args):
        try:
            fn(*args)
        except checks.CheckError:
            return
        missed.append(f"{fn.__name__} accepted a corrupted copy "
                      f"({args[-1]})")

    for n, (scheme, tm, routing) in enumerate(captures.routings):
        holds(scheme, checks.check_conservation, net, routing, f"routing {n}")
        holds(scheme, checks.check_mlu_vs_inverse_cap, net, ic, tm, routing,
              f"routing {n}")
    for n, plan in enumerate(captures.plans):
        holds(plan["scheme"], checks.check_plan, net, plan, f"plan {n}")

    loaded = [(tm, r) for _, tm, r in captures.routings if any(tm.values())]
    if loaded:
        tm, routing = loaded[0]
        k = max((k for k in tm if tm[k] > 0), key=tm.get)
        lid = max(routing[k], key=routing[k].get)
        broken = dict(routing)
        broken[k] = {**routing[k], lid: routing[k][lid] * 0.5}
        rejects(checks.check_conservation, net, broken,
                "halved flow fraction")
        fwd = next(l for l in net.links if l[0] == lid)
        back = next(l[0] for l in net.links if l[1:3] == (fwd[2], fwd[1]))
        looped = dict(routing)
        looped[k] = {**routing[k], lid: routing[k][lid] + 1.0,
                     back: routing[k].get(back, 0.0) + 1.0}
        rejects(checks.check_conservation, net, looped,
                "one more lap around a two-link cycle")
        heavier = {key: {lid: 1.001 * f for lid, f in fr.items()}
                   for key, fr in ic.items()}
        rejects(checks.check_mlu_vs_inverse_cap, net, ic, tm, heavier,
                "InverseCap with every fraction 0.1% higher")
    stored = [p for p in captures.plans if p["stored"]]
    if stored:
        plan = copy.deepcopy(stored[0])
        pop = next(iter(plan["stored"]))
        for chunk in sorted(plan["sizes"], key=plan["sizes"].get, reverse=True):
            plan["stored"][pop].add(chunk)
        rejects(checks.check_plan, net, plan, "budget overrun")
    solved = [p for p in captures.plans if p["alpha"] is not None]
    if solved:
        plan = dict(solved[0])
        realized = net.mlu(plan["routing"],
                           checks.nearest_replica_matrix(net, plan))
        plan["alpha"] = realized * 1.001 + 1e-9
        rejects(checks.check_plan, net, plan,
                "relaxation alpha above the placement's MLU")
    counted = {"routings": len(captures.routings),
               "plans": len(captures.plans), "relaxations": len(solved)}
    return failures, sorted(rejected), missed, counted


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--topology", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    def write_result(result):
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)

    sys.path.insert(0, os.path.abspath(args.src))
    from cdnte import cli, engine

    if not os.path.abspath(engine.__file__).startswith(
            os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"cdnte imported from {engine.__file__}, "
                         f"not from {args.src}")

    import tracing

    tracer, captures = None, Captures()
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, captures)
    else:
        tracing.install_captures(captures)

    first_scheme = []
    run_experiment = engine.run_experiment

    def marked(*a, **kw):
        captures.scheme = a[3].label()
        if not first_scheme:
            first_scheme.append(time.perf_counter())
            if args.setup_only:
                write_result({"exit_code": 0, "setup_s": first_scheme[0] - T0})
                os._exit(0)
        return run_experiment(*a, **kw)

    engine.run_experiment = marked
    code = cli.main(["simulate", "--config", args.config])
    end = time.perf_counter()
    result = {
        "exit_code": code,
        "setup_s": (first_scheme[0] if first_scheme else end) - T0,
        "sim_s": end - first_scheme[0] if first_scheme else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = {
            "calls": dict(tracer.calls), "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}
        with open(os.path.join(os.path.dirname(args.result), "spans.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    if code == 0:
        with open(args.topology, encoding="utf-8") as fh:
            failures, rejected, missed, counted = property_checks(
                fh.read(), captures)
        result["property_failures"] = failures
        result["property_rejected"] = rejected
        result["property_self_test_missed"] = missed
        result["property_checked"] = counted
    write_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
