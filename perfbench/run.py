"""cdnte benchmark: `cdnte simulate` on generated workloads, timed end to
end, with every output checked against computations made apart from the
simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs (topology, trace, catalog, transit
matrix) are written into perfbench/_work/NAME/, from the seed on
replay-10x and from inputs.FIXED_SEED on the other two workloads. Each
round runs all of the workload's schemes in one fresh `simulate` process;
one scheme run is one operation, and it fails if `simulate` exits
non-zero or times out, or if a check rejects its output. Rounds repeat
while another one fits in S seconds.

--trace 0 prints the end-to-end metrics: medians over the rounds of
set-up time, simulation time and peak RSS. --trace 1 runs one untraced
and one traced round and prints per-layer times and counts from the
traced one. Every round's reports are checked against checks.py, and the
planner's and router's outputs for the properties in it. The last line of
output is one JSON object. See README.md for the workloads and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INTERVAL_S = 300.0
# A run ends within this many seconds of its start: a round still
# running then is stopped and its operations fail.
RUN_LIMIT_S = 170.0
# Set-up time is short and noisy, and a plan-joint run holds one round, so
# processes that stop when the first scheme starts bring each run's
# set-up sample to this size.
SETUP_SAMPLES = 3


class Scheme:
    """One `scheme =` line. `origin_days` are the days on which nothing
    but the origin holds content (hit ratio = origin PoP's byte share);
    `reference` marks the scheme replayed by the brute-force reference."""

    def __init__(self, name, spec, origin_days=(), reference=False):
        self.name = name
        self.spec = spec
        self.origin_days = origin_days
        self.reference = reference
        self.ratio = next(float(tok[len("ratio="):]) for tok in spec.split()
                          if tok.startswith("ratio="))


# Topology: the acceptance suite's 20-PoP backbone (seed 42) in every
# workload; Zipf alpha 0.8, churn 0.2, 1-16 MB objects, diurnal ratio 3.
# `seeded` workloads draw the request stream from --seed. The other two
# draw it, and the transit matrix, from inputs.FIXED_SEED: some of their
# HiGHS routings send flow around cycles on some inputs and not on
# others, and fixed inputs make the failed share the same in every run.
WORKLOADS = {
    # The replay loop, LRU caches, both redirection rules, chunk
    # expansion, link-load accounting and trace parsing; no LP at all.
    "replay-10x": dict(
        requests_per_day=150_000, days=2, transit=False, seeded=True,
        schemes=[
            Scheme("lru-closest", "lru inversecap closest ratio=1",
                   reference=True),
            Scheme("lru-util-aware",
                   "lru inversecap utilization-aware ratio=1 chunk_mb=4"),
        ]),
    # The joint placement LP (HiGHS IPM), rounding and swap search; the
    # two schemes solve the same program once (optimized on day 1 from
    # day 0's demand, future on day 0).
    "plan-joint": dict(
        requests_per_day=15_000, days=2, transit=False, seeded=False,
        schemes=[
            Scheme("optimized-ic", "optimized inversecap closest ratio=2",
                   origin_days=(0,)),
            Scheme("future-minmlu", "future min-mlu-future closest ratio=2"),
        ]),
    # Many small and medium min-MLU routing programs: the origin-only ones
    # on the bundled simplex, the realized-matrix plus transit ones on
    # HiGHS. Budgets are zero for the two planner schemes, so rounding and
    # swap search never run.
    "route-minmlu": dict(
        requests_per_day=15_000, days=7, transit=True, seeded=False,
        schemes=[
            Scheme("origin-prior", "optimized min-mlu-prior-day closest "
                   "ratio=1e-9", origin_days="all"),
            Scheme("origin-future", "future min-mlu-future closest ratio=1e-9",
                   origin_days="all"),
            Scheme("lru-transit", "lru min-mlu-prior-day closest ratio=1 "
                   "transit=transit.csv:combined"),
        ]),
}


def write_config(directory, workload) -> str:
    lines = ["topology = topo.txt", "trace = trace.csv",
             "catalog = catalog.csv", "out = out",
             f"interval_s = {INTERVAL_S:g}", "jobs = 1", "lp_backend = auto"]
    lines += [f"scheme = {s.spec} name={s.name}" for s in workload["schemes"]]
    path = os.path.join(directory, "exp.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def child_env():
    env = dict(os.environ)
    # The simulator's numpy work is on small arrays; one BLAS thread per
    # process keeps runs from competing for the box's cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(directory, config, deadline, trace=False,
              setup_only=False) -> dict:
    """One `simulate` process, stopped at `deadline` (perf_counter time);
    returns launch.py's result, or the exit status if the process failed."""
    result_path = os.path.join(directory, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--src", SRC,
           "--config", config, "--topology",
           os.path.join(directory, "topo.txt"), "--result", result_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout", "stderr": ""}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"exit_code": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


class OutputChecks:
    """Independent checks of one round's report.csv and summary.csv."""

    def __init__(self, workload, data, net):
        self.workload = workload
        self.days = workload["days"]
        day = data["ts_ms"] // int(inputs.DAY_SECONDS * 1000)
        nbytes = data["obj_sizes"][data["obj"]]
        at_origin = np.where(data["pop"] == net.origin, nbytes, 0)
        self.origin_share = {
            d: int(at_origin[day == d].sum()) / int(nbytes[day == d].sum())
            for d in range(self.days)}
        self.reference = None
        for scheme in workload["schemes"]:
            if not scheme.reference:
                continue
            first = day == 0
            requests = list(zip(
                (data["ts_ms"][first] / 1000.0).tolist(),
                data["pop"][first].tolist(),
                [f"obj{o:06d}" for o in data["obj"][first].tolist()],
                nbytes[first].tolist()))
            self.reference = checks.reference_replay_day0(
                net, requests, data["sizes"], scheme.ratio, INTERVAL_S)

    def scheme_checks(self, scheme):
        out = [("interval rows", lambda r, s: checks.check_intervals(
                    r, scheme.name, self.days, INTERVAL_S)),
               ("p99", lambda r, s: checks.check_p99(r, s, scheme.name)),
               ("hit+origin", lambda r, s: checks.check_hit_origin_sum(
                    s, scheme.name))]
        if scheme.origin_days:
            days = (range(self.days) if scheme.origin_days == "all"
                    else scheme.origin_days)
            out.append(("origin share", lambda r, s: checks.check_origin_share(
                s, scheme.name, self.origin_share, days)))
        if scheme.reference:
            out.append(("reference replay", lambda r, s:
                        checks.check_reference_mlus(r, scheme.name,
                                                    self.reference)))
        return out

    def run(self, out_dir):
        """Returns {scheme name: [failure messages]}."""
        report = checks.group_report(
            checks.read_csv(os.path.join(out_dir, "report.csv")))
        summary = checks.read_csv(os.path.join(out_dir, "summary.csv"))
        failures = {}
        for scheme in self.workload["schemes"]:
            for _, check in self.scheme_checks(scheme):
                try:
                    check(report, summary)
                except checks.CheckError as exc:
                    failures.setdefault(scheme.name, []).append(str(exc))
        return failures

    def self_test(self, out_dir):
        """Each check must reject a corrupted copy of this round's output.
        Returns the names of checks that did not."""
        report = checks.group_report(
            checks.read_csv(os.path.join(out_dir, "report.csv")))
        summary = checks.read_csv(os.path.join(out_dir, "summary.csv"))
        missed = []
        for scheme in self.workload["schemes"]:
            for name, check in self.scheme_checks(scheme):
                bad_report, bad_summary = corrupt(name, report, summary,
                                                  scheme)
                try:
                    check(bad_report, bad_summary)
                except checks.CheckError:
                    continue
                missed.append(f"{scheme.name}: {name}")
        return missed


def bump_last_digit(text: str) -> str:
    mantissa, _, exponent = text.partition("e")
    digit = (int(mantissa[-1]) + 1) % 10
    return mantissa[:-1] + str(digit) + (("e" + exponent) if exponent else "")


def corrupt(check_name, report, summary, scheme):
    """A copy of the output with one fault the named check must catch."""
    report = {k: {d: list(rows) for d, rows in v.items()}
              for k, v in report.items()}
    summary = [list(row) for row in summary]
    day0 = next(i for i, row in enumerate(summary)
                if row[0] == scheme.name and int(row[1]) == 0)
    if check_name == "interval rows":
        report[scheme.name][0].pop()
    elif check_name == "p99":
        summary[day0][2] = bump_last_digit(summary[day0][2])
    elif check_name in ("hit+origin", "origin share"):
        summary[day0][4] = repr(float(summary[day0][4]) + 1e-6)
    elif check_name == "reference replay":
        start, value = report[scheme.name][0][100]
        report[scheme.name][0][100] = (start, bump_last_digit(value))
    return report, summary


class Tally:
    """Operations attempted and failed, and the rounds that completed.

    A check that rejects a scheme's output fails that operation. `correct`
    speaks of the operations that did not fail: it is false if a
    self-test found a check that accepts a corrupted copy, or if no
    operation completed."""

    def __init__(self, n_schemes, output_checks, out_dir):
        self.n_schemes = n_schemes
        self.output_checks = output_checks
        self.out_dir = out_dir
        self.attempted = self.failed = 0
        self.checks_sound = True
        self.rounds = []
        self.self_tested = False

    @property
    def correct(self):
        return self.checks_sound and self.failed < self.attempted

    def round(self, result, traced=False):
        """Checks one round's outputs; returns the result if it completed."""
        self.attempted += self.n_schemes
        if result["exit_code"] != 0:
            self.failed += self.n_schemes
            print(f"simulate failed with exit code {result['exit_code']}: "
                  f"{result.get('stderr', '')}", file=sys.stderr)
            return None
        bad = self.output_checks.run(self.out_dir)
        for scheme, messages in bad.items():
            print(f"check failed: {scheme}: {messages[0]}", file=sys.stderr)
        for message in result["property_failures"]:
            print(f"property check failed: {message}", file=sys.stderr)
        self.failed += len(set(bad) | set(result["property_rejected"]))
        missed = list(result["property_self_test_missed"])
        if not self.self_tested:
            missed += self.output_checks.self_test(self.out_dir)
            self.self_tested = True
        for name in missed:
            print(f"self-test: check accepted a corrupted copy: {name}",
                  file=sys.stderr)
        self.checks_sound &= not missed
        if not traced:
            self.rounds.append(result)
        return result


def mean_daily_p99(out_dir):
    per_scheme = {}
    for row in checks.read_csv(os.path.join(out_dir, "summary.csv")):
        per_scheme.setdefault(row[0], []).append(float(row[2]))
    return {k: sum(v) / len(v) for k, v in per_scheme.items()}


def layer_metrics(layers):
    total, self_s = layers["total_s"], layers["self_s"]
    calls, counts = layers["calls"], layers["counts"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    seconds = {
        "workload.parse_s": t("workload.parse_trace", "workload.parse_catalog"),
        "workload.aggregate_s": t("workload.aggregate_demand"),
        "topology.routes_s": t("topology.inverse_cap_weights",
                               "topology.shortest_path_routes",
                               "topology.all_pairs_distances"),
        "lp.build_s": t("lp.build_joint_lp", "lp.build_min_mlu_lp"),
        "lp.highs_s": t("lp.highs"),
        "lp.bundled_s": t("lp.bundled"),
        "lp.check_s": self_s.get("lp.solve_lp_auto", 0.0),
        "lp.routing_self_s": self_s.get("lp.solve_min_mlu_routing", 0.0),
        "placement.plan_self_s": self_s.get("placement.plan", 0.0),
        "placement.induced_s": t("placement.induced"),
        "placement.cache_s": t("placement.cache_access"),
        "redirection.closest_s": t("redirection.closest"),
        "redirection.util_aware_s": t("redirection.util_aware"),
        "traffic.apply_routing_s": t("traffic.apply_routing"),
        "traffic.mlu_s": t("traffic.mlu"),
        "engine.replay_self_s": self_s.get("engine.run_experiment", 0.0),
        "engine.report_s": t("engine.report"),
    }
    tallies = {
        "workload.aggregate_calls": calls.get("workload.aggregate_demand", 0),
        "lp.programs": counts.get("lp.programs", 0),
        "lp.rows": counts.get("lp.rows", 0),
        "lp.cols": counts.get("lp.cols", 0),
        "lp.nnz": counts.get("lp.nnz", 0),
        "lp.highs_iterations": counts.get("lp.highs_iterations", 0),
        "lp.bundled_iterations": counts.get("lp.bundled_iterations", 0),
        "placement.plans": calls.get("placement.plan", 0),
        "placement.cache_accesses": calls.get("placement.cache_access", 0),
        "redirection.closest_calls": calls.get("redirection.closest", 0),
        "redirection.util_aware_calls": calls.get("redirection.util_aware", 0),
        "traffic.apply_routing_calls": calls.get("traffic.apply_routing", 0),
        "engine.runs": calls.get("engine.run_experiment", 0),
    }
    metrics = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in tallies.items()})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cdnte", "cli.py")):
        print(f"error: no simulator sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    directory = os.path.join(HERE, "_work", args.workload)
    seed = args.seed if workload["seeded"] else inputs.FIXED_SEED
    data = inputs.write_inputs(directory, seed, workload["requests_per_day"],
                               workload["days"], workload["transit"])
    config = write_config(directory, workload)
    out_dir = os.path.join(directory, "out")
    output_checks = OutputChecks(workload, data,
                                 checks.Network(data["topology"]))

    tally = Tally(len(workload["schemes"]), output_checks, out_dir)
    hard_stop = started + RUN_LIMIT_S
    traced = None
    if args.trace == 1:
        if tally.round(run_round(directory, config, hard_stop)):
            traced = tally.round(run_round(directory, config, hard_stop,
                                           trace=True), traced=True)
    else:
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            tally.round(run_round(directory, config, hard_stop))
            longest = max(longest, time.perf_counter() - start)
            if time.perf_counter() + longest > min(deadline, hard_stop):
                break
    rounds = tally.rounds
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {}}
    if not rounds or (args.trace == 1 and traced is None):
        print("error: no round of simulate completed"
              + (" with tracing" if args.trace == 1 else ""), file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    for scheme, value in sorted(mean_daily_p99(out_dir).items()):
        print(f"mean daily p99 mlu  {scheme:16s} {value:.6g}")
    setups = [r["setup_s"] for r in rounds]
    while args.trace == 0 and len(setups) < SETUP_SAMPLES:
        probe = run_round(directory, config, hard_stop, setup_only=True)
        if probe["exit_code"] != 0:
            break
        setups.append(probe["setup_s"])
    sim = [r["sim_s"] for r in rounds]
    print(f"rounds {len(rounds)}  sim_s {['%.3f' % v for v in sim]}  "
          f"setup_s {['%.3f' % v for v in setups]}")
    if args.trace == 0:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sim_s": {"value": statistics.median(sim), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"]
                                                       for r in rounds),
                            "unit": "MB"},
        }
    else:
        metrics = layer_metrics(traced["layers"])
        metrics["trace.sim_s"] = {"value": traced["sim_s"], "unit": "s"}
        metrics["trace.untraced_sim_s"] = {"value": statistics.median(sim),
                                           "unit": "s"}
        result["metrics"] = metrics
        print(f"traced sim_s {traced['sim_s']:.3f} vs untraced "
              f"{statistics.median(sim):.3f}")
    print(f"property checks on {rounds[-1]['property_checked']} per round")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
