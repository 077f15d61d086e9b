import os

import pytest

from cdnte.cli import main
from cdnte.config import ConfigError, parse_config

TOPO = """
pop 0 A
pop 1 B
pop 2 C
link 0 1 100
link 1 2 100
link 0 2 100
origin 0
"""

SYNTH_CFG = """
topology = topo.txt
out = results
interval_s = 1800
seed = 7
synth.catalog_size = 8
synth.zipf_alpha = 0.8
synth.requests_per_day = 300
synth.days = 2
synth.churn = 0.2
synth.size_min_mb = 0.001
synth.size_max_mb = 0.002
scheme = lru inversecap closest ratio=1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_minimal(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = parse_config(SYNTH_CFG, base_dir=str(tmp_path))
    assert cfg.interval_s == 1800.0
    assert cfg.seed == 7
    assert cfg.synth.catalog_size == 8
    assert len(cfg.schemes) == 1
    assert cfg.schemes[0].placement == "lru"
    assert cfg.schemes[0].storage_ratio == 1.0


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="topology"):
        parse_config("scheme = lru inversecap\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("topology = t\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("topology = t\ntrace = x\nsynth.days = 2\n")
    with pytest.raises(ConfigError, match="unknown synth key"):
        parse_config("topology = t\nsynth.bogus = 1\n")
    with pytest.raises(ConfigError, match="scheme option"):
        parse_config("topology = t\ntrace = x\nscheme = lru inversecap closest zap=1\n")


def test_lp_backend_only_auto_accepted(tmp_path, capsys):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = parse_config(SYNTH_CFG + "lp_backend = auto\n", base_dir=str(tmp_path))
    assert not hasattr(cfg, "lp_backend")
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG + "lp_backend = bundled\n")
    assert main(["simulate", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "lp_backend" in err and "bundled simplex was removed" in err


def test_gen_trace_deterministic(tmp_path, capsys):
    _write(tmp_path, "topo.txt", TOPO)
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["gen-trace", "--config", cfg_path, "--out", out1]) == 0
    assert main(["gen-trace", "--config", cfg_path, "--out", out2]) == 0
    t1 = open(os.path.join(out1, "trace.csv"), "rb").read()
    t2 = open(os.path.join(out2, "trace.csv"), "rb").read()
    assert t1 == t2
    assert open(os.path.join(out1, "catalog.csv"), "rb").read() == \
        open(os.path.join(out2, "catalog.csv"), "rb").read()


def test_gen_trace_days_zero_fails(tmp_path, capsys):
    _write(tmp_path, "topo.txt", TOPO)
    bad = SYNTH_CFG.replace("synth.days = 2", "synth.days = 0")
    cfg_path = _write(tmp_path, "exp.cfg", bad)
    assert main(["gen-trace", "--config", cfg_path]) == 1
    assert "days" in capsys.readouterr().err


def test_simulate_smoke_and_outputs(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_path, "--out", out,
                 "--dump-lp"]) == 0
    report = open(os.path.join(out, "report.csv")).read().splitlines()
    assert report[0] == "scheme,day,interval_start_s,mlu"
    assert len(report) > 1
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == "scheme,day,p99_mlu,mean_mlu,hit_ratio,origin_fraction"
    assert os.path.exists(os.path.join(out, "comparison.csv"))
    assert "lp_backend" not in open(os.path.join(out, "config.txt")).read()
    assert os.path.exists(os.path.join(out, "joint_day0.lp"))
    assert os.path.exists(os.path.join(out, "minmlu_day0.lp"))
    assert "Minimize" in open(os.path.join(out, "joint_day0.lp")).read()


def test_simulate_missing_topology_names_path(tmp_path, capsys):
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG)
    assert main(["simulate", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "topo.txt" in err


def test_simulate_trace_input_and_report_rederive(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    trace = "timestamp_s,pop_id,content_id,bytes\n"
    rows = []
    for day in range(2):
        for i in range(10):
            rows.append(f"{day * 86400 + i * 1000},{i % 3},obj{i % 2},5000")
    trace += "\n".join(rows) + "\n"
    _write(tmp_path, "trace.csv", trace)
    cfg = """
topology = topo.txt
trace = trace.csv
interval_s = 3600
scheme = lru inversecap closest ratio=1
scheme = optimized inversecap closest ratio=3 name=opt
"""
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    report_path = os.path.join(out, "report.csv")
    assert main(["report", report_path, "--out", out]) == 0
    rederived = open(os.path.join(out, "summary_rederived.csv")).read().splitlines()
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    # p99/mean re-derived from intervals match the engine's summary
    engine_rows = {tuple(r.split(",")[:2]): r.split(",")[2:4] for r in summary[1:]}
    for row in rederived[1:]:
        parts = row.split(",")
        assert engine_rows[(parts[0], parts[1])] == parts[2:4]


def test_simulate_sweep_mode(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG + "storage_ratios = 0.5,2\n"
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    out = str(tmp_path / "sweep")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    sweep = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert sweep[0] == "scheme,storage_ratio,mean_daily_p99_mlu"
    assert len(sweep) == 3


def test_simulate_decision_and_placement_dumps(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG.replace("scheme = lru inversecap closest ratio=1",
                            "scheme = optimized inversecap closest ratio=3")
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    out = str(tmp_path / "dumps")
    assert main(["simulate", "--config", cfg_path, "--out", out,
                 "--decision-log", "--dump-placements"]) == 0
    decisions = open(os.path.join(out, "decisions.csv")).read().splitlines()
    assert decisions[0] == "timestamp_s,client_pop,chunk_id,server_pop,reason"
    assert len(decisions) > 1
    placements = open(os.path.join(out, "placements.csv")).read().splitlines()
    assert placements[0] == "epoch,pop_id,chunk_id"
    assert len(placements) > 1


def test_solve_routing_cli(tmp_path, capsys):
    topo_path = _write(tmp_path, "pp.txt", """
pop 0 A
pop 1 B
pop 2 R1
pop 3 R2
link 0 2 10
link 2 1 10
link 0 3 10
link 3 1 10
origin 0
""")
    tm_path = _write(tmp_path, "tm.csv", "src_pop,dst_pop,rate_mbps\n0,1,10\n")
    assert main(["solve-routing", topo_path, tm_path]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.5" in out
    with pytest.raises(SystemExit):
        main(["solve-routing", topo_path, tm_path, "--lp-backend", "bundled"])
    capsys.readouterr()

    empty = _write(tmp_path, "empty.csv", "src_pop,dst_pop,rate_mbps\n")
    assert main(["solve-routing", topo_path, empty]) == 0
    assert "alpha = 0" in capsys.readouterr().out

    bad = _write(tmp_path, "bad.csv", "src_pop,dst_pop,rate_mbps\n0,zap\n")
    assert main(["solve-routing", topo_path, bad]) == 1


def test_solve_placement_cli(tmp_path, capsys):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG.replace("scheme = lru inversecap closest ratio=1",
                            "scheme = optimized inversecap closest ratio=3")
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    out = str(tmp_path / "plan")
    assert main(["solve-placement", "--config", cfg_path, "--out", out,
                 "--day", "0"]) == 0
    placements = open(os.path.join(out, "placements.csv")).read().splitlines()
    assert placements[0] == "epoch,pop_id,chunk_id"
    assert len(placements) > 1


def test_solve_placement_matches_future_dump(tmp_path):
    # solve-placement --day d plans what the future scheme places on day d
    _write(tmp_path, "topo.txt", TOPO + "pop 3 D\nlink 2 3 100\n")
    cfg = SYNTH_CFG.replace("synth.days = 2", "synth.days = 3").replace(
        "scheme = lru inversecap closest ratio=1",
        "scheme = future inversecap closest ratio=1.5 chunk_mb=0.0006")
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    plan, sim = str(tmp_path / "plan"), str(tmp_path / "sim")
    assert main(["solve-placement", "--config", cfg_path, "--out", plan,
                 "--day", "1"]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", sim,
                 "--dump-placements"]) == 0
    dumped = open(os.path.join(sim, "placements.csv")).read().splitlines()
    day1 = [row for row in dumped[1:] if row.startswith("1,")]
    assert len(day1) > 1 and len(day1) < len(dumped) - 1
    assert open(os.path.join(plan, "placements.csv")).read().splitlines() \
        == [dumped[0]] + day1


def test_explicit_pop_weights(tmp_path):
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG + "synth.pop_weights = 0.5,0.25,0.25\n"
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    out = str(tmp_path / "weighted")
    assert main(["gen-trace", "--config", cfg_path, "--out", out]) == 0
    trace = open(os.path.join(out, "trace.csv")).read().splitlines()[1:]
    pops = [int(line.split(",")[1]) for line in trace]
    # pop 0 carries about half the requests
    assert pops.count(0) > pops.count(1)
    assert pops.count(0) > pops.count(2)

    bad = SYNTH_CFG + "synth.pop_weights = 0.5,0.5\n"
    cfg_path = _write(tmp_path, "bad.cfg", bad)
    assert main(["gen-trace", "--config", cfg_path, "--out", out]) == 1


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    import cdnte.cli as cli_mod
    from cdnte.lp import SimplexError
    _write(tmp_path, "topo.txt", TOPO)
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG)

    def boom(*args, **kwargs):
        raise SimplexError("synthetic numeric breakdown")

    monkeypatch.setattr(cli_mod.engine_mod, "compare_schemes", boom)
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "x")]) == 2
    assert "numeric breakdown" in capsys.readouterr().err


def _bad_origin_inputs(tmp_path):
    """Two days of trace whose catalog puts obj1's origin at pop 99, which
    the topology does not have."""
    _write(tmp_path, "topo.txt", TOPO)
    rows = [f"{day * 86400 + i * 1000},{i % 3},obj{i % 2},5000"
            for day in range(2) for i in range(10)]
    _write(tmp_path, "trace.csv",
           "timestamp_s,pop_id,content_id,bytes\n" + "\n".join(rows) + "\n")
    _write(tmp_path, "catalog.csv",
           "content_id,size_bytes,origin_pop\nobj0,5000,0\nobj1,5000,99\n")
    return _write(tmp_path, "exp.cfg", """
topology = topo.txt
trace = trace.csv
catalog = catalog.csv
interval_s = 3600
scheme = optimized inversecap closest ratio=3
""")


def test_unknown_catalog_origin_rejected_by_every_command(tmp_path, capsys):
    cfg_path = _bad_origin_inputs(tmp_path)
    out = str(tmp_path / "plan")
    assert main(["solve-placement", "--config", cfg_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "obj1" in err and "99" in err
    assert not os.path.exists(os.path.join(out, "placements.csv"))

    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_path, "--out", out,
                 "--dump-lp"]) == 1
    err = capsys.readouterr().err
    assert "obj1" in err and "99" in err
    assert not [f for f in os.listdir(out) if f.endswith(".lp")]


def test_parse_config_rejects_unknown_keys(tmp_path, capsys):
    _write(tmp_path, "topo.txt", TOPO)
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'interval'"):
        parse_config("topology = t\ninterval = 60\ntrace = x\n")
    for key in ("feas_tol", "dual_tol"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(SYNTH_CFG + f"{key} = 1e-7\n")
    cfg_path = _write(tmp_path, "exp.cfg", SYNTH_CFG + "interval = 60\n")
    assert main(["simulate", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "line 14" in err and "'interval'" in err


def _schema_lines():
    import cdnte.config as config_mod
    doc = config_mod.__doc__.split("Schema", 1)[1]
    return [line.split("#", 1)[0].strip() for line in doc.splitlines()
            if line.startswith("    ") and "=" in line.split("#", 1)[0]]


def test_config_schema_docstring_lists_the_accepted_keys(tmp_path):
    from cdnte.config import KEYS
    lines = _schema_lines()
    assert {line.split("=", 1)[0].strip() for line in lines} == KEYS
    # every documented line parses, on either side of trace / synth.*
    _write(tmp_path, "topo.txt", TOPO)
    for drop in ("trace", "synth."):
        kept = [line for line in lines
                if not line.startswith(drop) and not line.startswith("catalog")]
        parse_config("\n".join(kept) + "\n", base_dir=str(tmp_path))


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    text = open(readme, encoding="utf-8").read()
    example = text.split("# exp.cfg\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.synth is not None and len(cfg.schemes) == 2


@pytest.mark.parametrize("sweep", [False, True])
def test_dumps_come_from_the_main_pass(tmp_path, monkeypatch, sweep):
    import cdnte.engine as engine_mod
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG.replace("scheme = lru inversecap closest ratio=1",
                            "scheme = optimized inversecap closest ratio=3\n"
                            "scheme = lru inversecap closest ratio=1")
    if sweep:
        cfg += "storage_ratios = 0.5,2\n"
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    runs = []
    real = engine_mod.run_experiment

    def counted(*args, **kwargs):
        runs.append(args[3].label())
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "run_experiment", counted)
    out = str(tmp_path / "dumps")
    assert main(["simulate", "--config", cfg_path, "--out", out,
                 "--decision-log", "--dump-placements"]) == 0
    assert len(runs) == (4 if sweep else 2)
    # the dumps describe the first run: in sweep mode the first scheme at
    # the first swept ratio, which report.csv contains
    from cdnte.config import load_config
    from cdnte.cli import _load_topology, _load_workload
    conf = load_config(cfg_path)
    topo = _load_topology(conf)
    catalog, requests = _load_workload(conf, topo)
    first = conf.schemes[0]
    if sweep:
        first.storage_ratio = 0.5
    ref = real(topo, catalog, requests, first, conf.interval_s,
               collect_decisions=True, collect_placements=True)
    assert open(os.path.join(out, "decisions.csv")).read() == \
        engine_mod.decisions_csv(ref)
    assert open(os.path.join(out, "placements.csv")).read() == \
        engine_mod.placements_csv(ref.placements)
    assert runs[0] in open(os.path.join(out, "report.csv")).read()


def test_simulate_sweeps_share_plans(tmp_path, monkeypatch):
    # one plan table serves every sweep of a simulate invocation: at each
    # ratio, optimized (days 1-2) and future (days 0-2) plan from three
    # distinct demand days
    import cdnte.engine as engine_mod
    from cdnte.cli import _load_topology, _load_workload
    from cdnte.config import load_config
    _write(tmp_path, "topo.txt", TOPO)
    cfg = SYNTH_CFG.replace("synth.days = 2", "synth.days = 3").replace(
        "scheme = lru inversecap closest ratio=1",
        "scheme = optimized min-mlu-prior-day closest\n"
        "scheme = future min-mlu-future closest\n"
        "storage_ratios = 1,2")
    cfg_path = _write(tmp_path, "exp.cfg", cfg)
    calls = []
    real = engine_mod.plan_placement_optimized

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "plan_placement_optimized", counted)
    out = str(tmp_path / "sweep")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    assert len(calls) == 2 * 3
    conf = load_config(cfg_path)
    topo = _load_topology(conf)
    catalog, requests = _load_workload(conf, topo)
    own = []
    for scheme in conf.schemes:
        for ratio in conf.storage_ratios:
            spec = engine_mod.SchemeSpec(
                scheme.placement, scheme.routing, scheme.redirection,
                storage_ratio=ratio, name=f"{scheme.label()}@r{ratio:g}")
            own.append(engine_mod.run_experiment(topo, catalog, requests,
                                                 spec, conf.interval_s))
    assert open(os.path.join(out, "report.csv")).read() == \
        engine_mod.report_csv(own)
    assert open(os.path.join(out, "summary.csv")).read() == \
        engine_mod.summary_csv(own)
