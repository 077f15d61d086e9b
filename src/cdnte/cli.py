"""Command-line entry point.

Subcommands: gen-trace, simulate, solve-routing, solve-placement, report.
Exit codes: 0 success, 1 validation error, 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import engine as engine_mod
from . import lp as lp_mod
from . import topology as topo_mod
from .config import ConfigError, ExperimentConfig, load_config, resolve_pop_weights
from .engine import ValidationError, scheme_inputs
from .placement import Placement, induced_traffic_matrix, plan_placement
from .traffic import (finite_float, link_loads, path_table,
                      read_traffic_matrix)
from .workload import (DAY_SECONDS, aggregate_demand,
                       generate_synthetic_trace, parse_catalog, parse_trace,
                       write_catalog, write_trace)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write(out: str, name: str, text: str) -> str:
    """Write one output file `name` into the directory `out`; returns its
    path."""
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _echo_config(cfg: ExperimentConfig, out_dir: str) -> None:
    lines = [cfg.raw_text.rstrip("\n"), "", "# effective settings",
             f"seed = {cfg.seed}", f"jobs = {cfg.jobs}",
             f"interval_s = {cfg.interval_s:g}"]
    _write(out_dir, "config.txt", "\n".join(lines) + "\n")


def _load_workload(cfg: ExperimentConfig, topo):
    if cfg.trace_path is not None:
        if not os.path.exists(cfg.trace_path):
            raise ConfigError(f"trace file not found: {cfg.trace_path}")
        catalog = None
        if cfg.catalog_path is not None:
            with open(cfg.catalog_path, "r", encoding="utf-8") as fh:
                catalog = parse_catalog(fh.read())
        with open(cfg.trace_path, "r", encoding="utf-8") as fh:
            return parse_trace(fh.read(), pops=topo.pops, catalog=catalog)
    resolve_pop_weights(cfg, topo.pops)
    cfg.synth.seed = cfg.seed
    return generate_synthetic_trace(cfg.synth, topo)


def _load_topology(cfg: ExperimentConfig):
    if not os.path.exists(cfg.topology_path):
        raise ConfigError(f"topology file not found: {cfg.topology_path}")
    return topo_mod.load_topology(cfg.topology_path)


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            raise ConfigError(f"bad value for --jobs: {args.jobs} is below 1")
        cfg.jobs = args.jobs


def cmd_gen_trace(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if cfg.synth is None:
        raise ConfigError("gen-trace needs a synth.* block in the config")
    topo = _load_topology(cfg)
    catalog, trace = _load_workload(cfg, topo)
    out = _ensure_out(cfg.out_dir)
    _write(out, "trace.csv", write_trace(trace))
    _write(out, "catalog.csv", write_catalog(catalog))
    _echo_config(cfg, out)
    print(f"wrote {len(trace)} requests, {len(catalog)} objects to {out}")
    return 0


def _dump_lps(cfg: ExperimentConfig, topo, catalog, trace, out: str) -> None:
    """Debug dump: the day-0 joint program and the min-MLU program on the
    origin-to-client matrix, in LP text format."""
    chunks, origins, budgets, _ = scheme_inputs(topo, catalog, cfg.schemes[0])
    dm = aggregate_demand(trace, (0.0, DAY_SECONDS), chunks)
    joint = lp_mod.build_joint_lp(topo, dm, budgets, chunks, origins)
    tm = induced_traffic_matrix(dm, Placement(), origins, topo)
    minmlu = lp_mod.build_min_mlu_lp(topo, tm)
    _write(out, "joint_day0.lp", lp_mod.write_lp_text(joint))
    _write(out, "minmlu_day0.lp", lp_mod.write_lp_text(minmlu))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if not cfg.schemes:
        raise ConfigError("config declares no schemes")
    topo = _load_topology(cfg)
    catalog, trace = _load_workload(cfg, topo)
    out = _ensure_out(cfg.out_dir)
    _echo_config(cfg, out)
    if args.dump_lp:
        _dump_lps(cfg, topo, catalog, trace, out)

    # one list of runs: the schemes, or every scheme's sweep; the decision
    # and placement dumps describe the first run
    schemes = engine_mod.distinct_labels(cfg.schemes)
    if cfg.storage_ratios:
        sweeps = [(s.label(), ratio) for s in schemes
                  for ratio in cfg.storage_ratios]
        runs = [run for s in schemes
                for run in engine_mod.sweep_runs(s, cfg.storage_ratios)]
    else:
        runs = schemes
    reports = engine_mod.compare_schemes(
        topo, catalog, trace, runs, interval_s=cfg.interval_s, jobs=cfg.jobs,
        collect_decisions=args.decision_log,
        collect_placements=args.dump_placements)

    if cfg.storage_ratios:
        _write(out, "sweep.csv", engine_mod.sweep_csv(
            [(*run, rep) for run, rep in zip(sweeps, reports)]))
    else:
        _write(out, "comparison.csv", engine_mod.comparison_csv(reports))
    _write(out, "report.csv", engine_mod.report_csv(reports))
    _write(out, "summary.csv", engine_mod.summary_csv(reports))
    if args.decision_log:
        _write(out, "decisions.csv", engine_mod.decisions_csv(reports[0]))
    if args.dump_placements:
        _write(out, "placements.csv",
               engine_mod.placements_csv(reports[0].placements))
    print(f"wrote reports for {len(reports)} runs to {out}")
    return 0


def cmd_solve_routing(args) -> int:
    with open(args.topology, "r", encoding="utf-8") as fh:
        topo = topo_mod.parse_topology(fh.read())
    with open(args.matrix, "r", encoding="utf-8") as fh:
        tm = read_traffic_matrix(fh.read())
    for (s, t) in tm:
        if s not in topo.names or t not in topo.names:
            raise ValidationError(f"matrix references unknown pop in {(s, t)}")
    routes = path_table(topo, lp_mod.solve_min_mlu_routing(topo, tm))
    value = float((link_loads(topo, routes, tm) / routes.capacities).max())
    print(f"alpha = {value:.6g}")
    return 0


def cmd_solve_placement(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if not cfg.schemes:
        raise ConfigError("config declares no schemes")
    topo = _load_topology(cfg)
    catalog, trace = _load_workload(cfg, topo)
    chunks, origins, budgets, _ = scheme_inputs(topo, catalog, cfg.schemes[0])
    day = args.day
    if not 0 <= day < trace.days:
        raise ValidationError(f"--day {day} is outside the trace's days "
                              f"0..{trace.days - 1}")
    dm = aggregate_demand(trace, (day * DAY_SECONDS, (day + 1) * DAY_SECONDS),
                          chunks)
    placement = plan_placement(dm, topo, budgets, chunks, origins)
    out = _ensure_out(cfg.out_dir)
    _write(out, "placements.csv", engine_mod.placements_csv(
        engine_mod.placement_rows(day, placement)))
    stored = sum(len(v) for v in placement.stored.values())
    print(f"placed {stored} chunk copies across {len(placement.stored)} pops")
    return 0


def cmd_report(args) -> int:
    with open(args.intervals, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != engine_mod.REPORT_HEADER:
        raise ValidationError("not an interval report CSV")
    series = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"report line {lineno}: expected 4 fields")
        scheme, day, _, value = parts
        try:
            series.setdefault((scheme, int(day)), []).append(finite_float(value))
        except ValueError as exc:
            raise ValidationError(f"report line {lineno}: {exc}") from None
    out_lines = ["scheme,day,p99_mlu,mean_mlu"]
    for (scheme, day) in sorted(series):
        p99, mean = engine_mod.p99_and_mean(series[(scheme, day)])
        out_lines.append(f"{scheme},{day},{p99:.10g},{mean:.10g}")
    path = _write(_ensure_out(args.out or "."), "summary_rederived.csv",
                  "\n".join(out_lines) + "\n")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdnte",
        description="Content placement / redirection / routing simulator "
                    "for ISP backbones, scored by maximum link utilization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--jobs", type=int, help="parallel scheme runs")

    p = sub.add_parser("gen-trace", help="write a synthetic trace + catalog")
    common(p)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("simulate", help="run the configured schemes")
    common(p)
    p.add_argument("--dump-lp", action="store_true",
                   help="dump day-0 programs in LP text format")
    p.add_argument("--decision-log", action="store_true",
                   help="write per-request redirect decisions (first scheme)")
    p.add_argument("--dump-placements", action="store_true",
                   help="write per-epoch placements (first scheme)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve-routing",
                       help="min-MLU routing for a topology + traffic matrix")
    p.add_argument("topology")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_solve_routing)

    p = sub.add_parser("solve-placement",
                       help="one-shot planner dump for one demand day")
    common(p)
    p.add_argument("--day", type=int, default=0)
    p.set_defaults(func=cmd_solve_placement)

    p = sub.add_parser("report", help="re-derive summaries from interval CSVs")
    p.add_argument("intervals", help="report.csv produced by simulate")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
