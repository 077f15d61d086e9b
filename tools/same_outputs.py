"""Checks that two source trees of cdnte write the same CSVs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are `src` directories (each holds the `cdnte`
package). Run from anywhere; the configs are:

* replay-10x, plan-joint and route-minmlu: the benchmark's inputs and
  configs, written by perfbench/inputs.py and perfbench/run.py (replay-10x
  from run.py's default seed);
* three-schemes: on plan-joint's inputs, a utilization-aware hybrid
  first (so its decisions are logged), a min-MLU hybrid and a chunked LRU;
* sweep: on plan-joint's inputs, two scheme templates swept over the
  storage ratios 1,1,2 with two jobs;
* routing-rules: on plan-joint's inputs with a transit matrix, one scheme
  per day-routing case the configs above leave out: min-MLU on
  yesterday's realized matrix, on today's demand over yesterday's
  placement, on the planner's matrix plus `combined` transit, and
  utilization-aware redirection with `inversecap` transit.

For each config, each tree runs `cdnte simulate --decision-log
--dump-placements` and then `cdnte report` on its report.csv, with one
BLAS thread and PYTHONHASHSEED=0. Every CSV either run writes is compared
byte for byte. Exits 0 when all are identical, 1 naming the first CSV
that differs, and 2 if a run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402

CSVS = ("report.csv", "summary.csv", "comparison.csv", "sweep.csv",
        "placements.csv", "decisions.csv", "summary_rederived.csv")
BENCHMARK_SEED = 42  # run.py's default --seed

# Configs of this tool's own, on plan-joint's inputs.
EXTRA = {
    "three-schemes": [
        "scheme = hybrid inversecap utilization-aware ratio=2 reserve=0.3 "
        "chunk_mb=4",
        "scheme = hybrid min-mlu-prior-day closest ratio=1 reserve=0.5",
        "scheme = lru inversecap closest ratio=0.5 chunk_mb=2"],
    "sweep": [
        "scheme = lru inversecap utilization-aware chunk_mb=4",
        "scheme = optimized min-mlu-prior-day closest",
        "storage_ratios = 1,1,2", "jobs = 2"],
    "routing-rules": [
        "scheme = future min-mlu-prior-day closest ratio=2",
        "scheme = optimized min-mlu-future closest ratio=2",
        "scheme = optimized min-mlu-prior-day closest ratio=2 "
        "transit=transit.csv:combined",
        "scheme = lru inversecap utilization-aware ratio=1 "
        "transit=transit.csv:inversecap"],
}
WITH_TRANSIT = {"routing-rules"}  # EXTRA configs that read transit.csv


def write_configs(work: str) -> dict:
    """Inputs and config of every check config; returns {name: config}."""
    configs = {}
    for name in ("replay-10x", "plan-joint", "route-minmlu"):
        workload = run.WORKLOADS[name]
        directory = os.path.join(work, name)
        seed = BENCHMARK_SEED if workload["seeded"] else inputs.FIXED_SEED
        inputs.write_inputs(directory, seed, workload["requests_per_day"],
                            workload["days"], workload["transit"])
        configs[name] = run.write_config(directory, workload)
    joint = run.WORKLOADS["plan-joint"]
    for name, lines in EXTRA.items():
        directory = os.path.join(work, name)
        inputs.write_inputs(directory, inputs.FIXED_SEED,
                            joint["requests_per_day"], joint["days"],
                            name in WITH_TRANSIT)
        base = ["topology = topo.txt", "trace = trace.csv",
                "catalog = catalog.csv", f"interval_s = {run.INTERVAL_S:g}"]
        configs[name] = os.path.join(directory, "exp.cfg")
        with open(configs[name], "w", encoding="utf-8") as fh:
            fh.write("\n".join(base + lines) + "\n")
    return configs


def simulate(src: str, config: str, out: str) -> None:
    env = run.child_env()
    env["PYTHONPATH"] = os.path.abspath(src)
    cdnte = [sys.executable, "-m", "cdnte"]
    for args in (["simulate", "--config", config, "--out", out,
                  "--decision-log", "--dump-placements"],
                 ["report", os.path.join(out, "report.csv"), "--out", out]):
        proc = subprocess.run(cdnte + args, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            print(f"error: {args[0]} from {src} on {config} exited "
                  f"{proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            raise SystemExit(2)


def read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def compare(old_src: str, new_src: str, work: str) -> int:
    first = None
    for name, config in write_configs(work).items():
        outs = [os.path.join(work, name, side) for side in ("old", "new")]
        for src, out in zip((old_src, new_src), outs):
            simulate(src, config, out)
        for csv in CSVS:
            old, new = (read(os.path.join(out, csv)) for out in outs)
            if old is None and new is None:
                continue
            same = old == new
            print(f"{name:14s} {csv:22s} "
                  f"{'identical' if same else 'DIFFERS'}", flush=True)
            if not same and first is None:
                first = f"{name}/{csv}"
    if first is not None:
        print(f"first difference: {first}")
        return 1
    print("every CSV identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--work", help="keep inputs and outputs here "
                        "(default: a temporary directory, removed at exit)")
    args = parser.parse_args()
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "cdnte", "cli.py")):
            print(f"error: no cdnte package under {src}", file=sys.stderr)
            return 2
    if args.work:
        return compare(args.old_src, args.new_src, args.work)
    with tempfile.TemporaryDirectory() as work:
        return compare(args.old_src, args.new_src, work)


if __name__ == "__main__":
    sys.exit(main())
