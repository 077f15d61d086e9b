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
from .lp import SimplexError
from .placement import (Placement, induced_traffic_matrix,
                        plan_placement_optimized)
from .topology import TopologyError
from .traffic import apply_routing, mlu, read_traffic_matrix
from .workload import (DAY_SECONDS, TraceError, aggregate_demand,
                       generate_synthetic_trace, parse_catalog, parse_trace,
                       write_catalog, write_trace)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _echo_config(cfg: ExperimentConfig, out_dir: str) -> None:
    lines = [cfg.raw_text.rstrip("\n"), "", "# effective settings",
             f"seed = {cfg.seed}", f"jobs = {cfg.jobs}",
             f"interval_s = {cfg.interval_s:g}"]
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
        if cfg.synth is not None:
            cfg.synth.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs


def cmd_gen_trace(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if cfg.synth is None:
        raise ConfigError("gen-trace needs a synth.* block in the config")
    topo = _load_topology(cfg)
    catalog, requests = _load_workload(cfg, topo)
    out = _ensure_out(cfg.out_dir)
    with open(os.path.join(out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write(write_trace(requests))
    with open(os.path.join(out, "catalog.csv"), "w", encoding="utf-8") as fh:
        fh.write(write_catalog(catalog))
    _echo_config(cfg, out)
    print(f"wrote {len(requests)} requests, {len(catalog)} objects to {out}")
    return 0


def _dump_lps(cfg: ExperimentConfig, topo, catalog, requests, out: str) -> None:
    """Debug dump: the day-0 joint program and the min-MLU program on the
    origin-to-client matrix, in LP text format."""
    chunks, origins, budgets = scheme_inputs(topo, catalog, cfg.schemes[0])
    dm = aggregate_demand(requests, (0.0, DAY_SECONDS), chunks)
    joint = lp_mod.build_joint_lp(topo, dm, budgets, chunks, origins)
    dists = topo_mod.all_pairs_distances(topo, topo_mod.inverse_cap_weights(topo))
    tm = induced_traffic_matrix(dm, Placement(), origins, dists)
    minmlu = lp_mod.build_min_mlu_lp(topo, tm)
    with open(os.path.join(out, "joint_day0.lp"), "w", encoding="utf-8") as fh:
        fh.write(lp_mod.write_lp_text(joint))
    with open(os.path.join(out, "minmlu_day0.lp"), "w", encoding="utf-8") as fh:
        fh.write(lp_mod.write_lp_text(minmlu))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if not cfg.schemes:
        raise ConfigError("config declares no schemes")
    topo = _load_topology(cfg)
    catalog, requests = _load_workload(cfg, topo)
    out = _ensure_out(cfg.out_dir)
    _echo_config(cfg, out)
    if args.dump_lp:
        _dump_lps(cfg, topo, catalog, requests, out)

    # the decision and placement dumps describe the first run
    reports = []
    if cfg.storage_ratios:
        sweep_lines = ["scheme,storage_ratio,mean_daily_p99_mlu"]
        plans = {}  # shared by every sweep of this invocation
        for i, scheme in enumerate(cfg.schemes):
            rows = engine_mod.sweep_storage_ratio(
                topo, catalog, requests, scheme, cfg.storage_ratios,
                interval_s=cfg.interval_s, jobs=cfg.jobs,
                collect_decisions=args.decision_log and i == 0,
                collect_placements=args.dump_placements and i == 0,
                plans=plans)
            for row in rows:
                sweep_lines.append(f"{scheme.label()},{row.ratio:.10g},"
                                   f"{row.mean_daily_p99:.10g}")
                reports.append(row.report)
        with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(sweep_lines) + "\n")
    else:
        table = engine_mod.compare_schemes(
            topo, catalog, requests, cfg.schemes, interval_s=cfg.interval_s,
            jobs=cfg.jobs, collect_decisions=args.decision_log,
            collect_placements=args.dump_placements)
        reports = table.reports
        with open(os.path.join(out, "comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write(engine_mod.comparison_csv(table))

    with open(os.path.join(out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(engine_mod.report_csv(reports))
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(engine_mod.summary_csv(reports))
    if args.decision_log:
        with open(os.path.join(out, "decisions.csv"), "w", encoding="utf-8") as fh:
            fh.write(engine_mod.decisions_csv(reports[0]))
    if args.dump_placements:
        with open(os.path.join(out, "placements.csv"), "w", encoding="utf-8") as fh:
            fh.write(engine_mod.placements_csv(reports[0].placements))
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
    routing = lp_mod.solve_min_mlu_routing(topo, tm)
    value = mlu(apply_routing(routing, tm), topo)
    print(f"alpha = {value:.6g}")
    return 0


def cmd_solve_placement(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if not cfg.schemes:
        raise ConfigError("config declares no schemes")
    topo = _load_topology(cfg)
    catalog, requests = _load_workload(cfg, topo)
    chunks, origins, budgets = scheme_inputs(topo, catalog, cfg.schemes[0])
    day = args.day
    dm = aggregate_demand(requests, (day * DAY_SECONDS, (day + 1) * DAY_SECONDS),
                          chunks)
    placement, _ = plan_placement_optimized(dm, topo, budgets, chunks, origins)
    out = _ensure_out(cfg.out_dir)
    with open(os.path.join(out, "placements.csv"), "w", encoding="utf-8") as fh:
        fh.write(engine_mod.placements_csv(
            engine_mod.placement_rows(day, placement)))
    stored = sum(len(v) for v in placement.stored.values())
    print(f"placed {stored} chunk copies across {len(placement.stored)} pops")
    return 0


def cmd_report(args) -> int:
    with open(args.intervals, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "scheme,day,interval_start_s,mlu":
        raise ValidationError("not an interval report CSV")
    series = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"report line {lineno}: expected 4 fields")
        scheme, day, _, value = parts
        series.setdefault((scheme, int(day)), []).append(float(value))
    out_lines = ["scheme,day,p99_mlu,mean_mlu"]
    for (scheme, day) in sorted(series):
        vals = series[(scheme, day)]
        p99 = engine_mod.percentile_99(vals)
        out_lines.append(f"{scheme},{day},{p99:.10g},"
                         f"{sum(vals) / len(vals):.10g}")
    out = _ensure_out(args.out or ".")
    path = os.path.join(out, "summary_rederived.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out_lines) + "\n")
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
    except (ConfigError, ValidationError, TopologyError, TraceError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimplexError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
