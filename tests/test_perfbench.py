"""Smoke test of the benchmark harness: `perfbench/launch.py` patches the
simulator's planner, router and LP entry points, so a change to their
names or results must show here and not only in the benchmark."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOPO = """
pop 0 A
pop 1 B
pop 2 C
link 0 1 1
link 1 2 1
link 0 2 1
origin 0
"""

CFG = """
topology = topo.txt
out = results
interval_s = 1800
seed = 7
synth.catalog_size = 8
synth.requests_per_day = 300
synth.days = 2
synth.size_min_mb = 1
synth.size_max_mb = 2
scheme = optimized inversecap closest ratio=1
scheme = future min-mlu-future closest ratio=1
scheme = lru min-mlu-prior-day closest ratio=1
scheme = hybrid min-mlu-prior-day utilization-aware ratio=1 reserve=0.5 chunk_mb=1
"""


@pytest.mark.parametrize("flags", [[], ["--trace"]], ids=["plain", "traced"])
def test_launch_runs_and_checks_every_scheme(tmp_path, flags):
    (tmp_path / "topo.txt").write_text(TOPO, encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(CFG, encoding="utf-8")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "launch.py"),
         "--src", os.path.join(ROOT, "src"),
         "--config", str(tmp_path / "exp.cfg"),
         "--topology", str(tmp_path / "topo.txt"),
         "--result", str(result), *flags],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text(encoding="utf-8"))
    assert got["exit_code"] == 0
    assert got["property_failures"] == []
    assert got["property_self_test_missed"] == []
    checked = got["property_checked"]
    assert checked["plans"] > 0 and checked["routings"] > 0
    assert checked["relaxations"] > 0
    if flags:
        # the tracer wraps the cache pass and both redirection rules
        calls = got["layers"]["calls"]
        for name in ("placement.cache_access", "redirection.closest",
                     "redirection.util_aware"):
            assert calls.get(name, 0) > 0, name
