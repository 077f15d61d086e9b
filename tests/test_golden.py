"""Golden outputs: `cdnte simulate` on a fixed synthetic config with only
`lru` schemes (no LP solver runs, so every float comes from Python
arithmetic) must write these exact bytes, both from the generator in
memory and from its workload written by `gen-trace` and read back through
`trace =` and `catalog =`. A change meant to keep behaviour keeps these
hashes; a change of results must update them on purpose."""

import hashlib
import os

from cdnte.cli import main

TOPO = """
pop 0 A
pop 1 B
pop 2 C
pop 3 D
pop 4 E
link 0 1 10
link 1 2 10
link 2 3 10
link 3 4 10
link 4 0 10
link 0 2 20
link 1 3 5
origin 0
"""

TRANSIT = """src_pop,dst_pop,rate_mbps
1,4,0.02
3,0,0.01
2,4,0.015
"""

CONFIG = """
topology = topo.txt
out = out
interval_s = 1800
seed = 11
synth.catalog_size = 16
synth.requests_per_day = 600
synth.days = 2
synth.size_min_mb = 0.5
synth.size_max_mb = 4
scheme = lru inversecap utilization-aware ratio=0.5 chunk_mb=1 transit=tm.csv:inversecap name=ua-chunk-transit
scheme = lru inversecap closest ratio=1 name=closest
scheme = lru inversecap utilization-aware ratio=1.5 name=ua
scheme = lru inversecap closest ratio=0.3 chunk_mb=1 transit=tm.csv:inversecap name=closest-chunk-transit
"""

GOLDEN = {
    "report.csv":
        "ff8fd19e59126cac165b1ba9bd26e46c0af27e38c895311be5f78cd5ee86e643",
    "summary.csv":
        "66153e6ee931a1e4b3128e2f85a5472943688d303a26a8324ad9ddbba1778fcd",
    "decisions.csv":
        "ef5ff685c5e558b2e07e4eb06aa19381cf4c4beb29b6813d33863c254e034305",
}


def test_lru_outputs_match_golden_hashes(tmp_path):
    for name, text in (("topo.txt", TOPO), ("tm.csv", TRANSIT),
                       ("exp.cfg", CONFIG)):
        (tmp_path / name).write_text(text)
    assert main(["simulate", "--config", str(tmp_path / "exp.cfg"),
                 "--decision-log"]) == 0
    hashes = {}
    for name in GOLDEN:
        with open(os.path.join(tmp_path, "out", name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    assert hashes == GOLDEN


SCHEMES = "".join(line + "\n" for line in CONFIG.splitlines()
                  if line.startswith("scheme ="))

FILE_CONFIG = """
topology = topo.txt
trace = gen/trace.csv
catalog = gen/catalog.csv
out = out
interval_s = 1800
""" + SCHEMES


def test_lru_outputs_from_trace_files_match_golden_hashes(tmp_path):
    for name, text in (("topo.txt", TOPO), ("tm.csv", TRANSIT),
                       ("exp.cfg", CONFIG), ("files.cfg", FILE_CONFIG)):
        (tmp_path / name).write_text(text)
    assert main(["gen-trace", "--config", str(tmp_path / "exp.cfg"),
                 "--out", str(tmp_path / "gen")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "files.cfg"),
                 "--decision-log"]) == 0
    hashes = {}
    for name in GOLDEN:
        with open(os.path.join(tmp_path, "out", name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    # the same bytes as in memory: writing timestamps to the millisecond
    # moves no request of this workload across an interval boundary
    assert hashes == GOLDEN
