"""Experiment configuration: a flat key = value text file.

Schema (one key per line, `#` comments; a key not listed here is an
error; later duplicates win except `scheme`, which is repeatable). The LP
certificate tolerances are the fixed `lp.FEAS_TOL` and `lp.DUAL_TOL`.

    topology = topo.txt            # required: topology file path
    trace = trace.csv              # exactly one of trace / synth.* block
    catalog = catalog.csv          # optional explicit catalog for a trace
    out = results                  # output directory
    interval_s = 300
    seed = 42                      # feeds all randomness (synth generator)
    jobs = 1
    lp_backend = auto              # accepted for older configs; HiGHS only
    storage_ratios = 0.25,0.5,1,2,4   # presence switches simulate to sweep mode

    scheme = lru inversecap closest ratio=2
    scheme = future min-mlu-future closest ratio=2
    # scheme options: ratio=R chunk_mb=M reserve=F transit=tm.csv:mode name=N

    synth.catalog_size = 120
    synth.zipf_alpha = 0.8
    synth.requests_per_day = 30000
    synth.days = 7
    synth.churn = 0.2
    synth.size_min_mb = 4          # MB values, here and in chunk_mb, must
    synth.size_max_mb = 64         # come to whole bytes (10^6 per MB)
    synth.diurnal_peak_ratio = 3
    synth.pop_weights = uniform    # or comma-separated per sorted pop id
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .engine import SchemeSpec, TransitSpec, ValidationError
from .traffic import exact_millions, finite_float, read_traffic_matrix
from .workload import SynthParams


class ConfigError(ValidationError):
    pass


def _mb_bytes(text: str) -> int:
    nbytes = exact_millions(text, "byte")
    if abs(nbytes) >= 2 ** 63:
        raise ValueError(f"{text!r} MB is beyond int64 bytes")
    return nbytes


_SYNTH_FIELDS = {
    "synth.catalog_size": ("catalog_size", int),
    "synth.zipf_alpha": ("zipf_alpha", finite_float),
    "synth.requests_per_day": ("requests_per_day", int),
    "synth.days": ("days", int),
    "synth.churn": ("churn", finite_float),
    "synth.size_min_mb": ("size_min", _mb_bytes),
    "synth.size_max_mb": ("size_max", _mb_bytes),
    "synth.diurnal_peak_ratio": ("diurnal_peak_ratio", finite_float),
}

KEYS = frozenset({"topology", "trace", "catalog", "out", "interval_s", "seed",
                  "jobs", "lp_backend", "storage_ratios", "scheme",
                  "synth.pop_weights", *_SYNTH_FIELDS})


@dataclass
class ExperimentConfig:
    topology_path: str
    trace_path: Optional[str] = None
    catalog_path: Optional[str] = None
    synth: Optional[SynthParams] = None
    synth_pop_weights_raw: Optional[str] = None
    schemes: List[SchemeSpec] = field(default_factory=list)
    interval_s: float = 300.0
    storage_ratios: List[float] = field(default_factory=list)
    out_dir: str = "results"
    seed: int = 42
    jobs: int = 1
    raw_text: str = ""


def _parse_scheme(value: str, base_dir: str) -> SchemeSpec:
    tokens = value.split()
    if len(tokens) < 2:
        raise ConfigError(f"scheme needs placement and routing: {value!r}")
    placement, routing = tokens[0], tokens[1]
    redirection = "closest"
    rest = tokens[2:]
    if rest and "=" not in rest[0]:
        redirection = rest[0]
        rest = rest[1:]
    spec = SchemeSpec(placement, routing, redirection)
    for tok in rest:
        if "=" not in tok:
            raise ConfigError(f"bad scheme option {tok!r}")
        key, val = tok.split("=", 1)
        try:
            if key == "ratio":
                spec.storage_ratio = finite_float(val)
            elif key == "chunk_mb":
                spec.chunk_size = _mb_bytes(val)
            elif key == "reserve":
                spec.hybrid_reserve = finite_float(val)
            elif key == "name":
                spec.name = val
            elif key == "transit":
                if ":" in val:
                    path, mode = val.rsplit(":", 1)
                else:
                    path, mode = val, "inversecap"
                full = os.path.join(base_dir, path)
                with open(full, "r", encoding="utf-8") as fh:
                    tm = read_traffic_matrix(fh.read())
                spec.transit = TransitSpec(tm, mode)
            else:
                raise ConfigError(f"unknown scheme option {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad scheme option {tok!r}: {exc}") from None
    spec.validate()
    return spec


def parse_config(text: str, base_dir: str = ".") -> ExperimentConfig:
    values: Dict[str, str] = {}
    schemes: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            kind = "synth key" if key.startswith("synth.") else "key"
            raise ConfigError(f"config line {lineno}: unknown {kind} {key!r}")
        if key == "scheme":
            schemes.append(val)
        else:
            values[key] = val

    if "topology" not in values:
        raise ConfigError("config is missing the topology path")
    cfg = ExperimentConfig(topology_path=os.path.join(base_dir, values["topology"]),
                           raw_text=text)
    if "trace" in values:
        cfg.trace_path = os.path.join(base_dir, values["trace"])
    if "catalog" in values:
        cfg.catalog_path = os.path.join(base_dir, values["catalog"])
    if "out" in values:
        cfg.out_dir = os.path.join(base_dir, values["out"])

    def num(key, cast, default):
        if key not in values:
            return default
        try:
            return cast(values[key])
        except ValueError:
            raise ConfigError(f"bad value for {key}: {values[key]!r}") from None

    cfg.interval_s = num("interval_s", finite_float, cfg.interval_s)
    cfg.seed = num("seed", int, cfg.seed)
    cfg.jobs = num("jobs", int, cfg.jobs)
    if cfg.jobs < 1:
        raise ConfigError(f"bad value for jobs: {values['jobs']!r} is below 1")
    if values.get("lp_backend", "auto") != "auto":
        raise ConfigError(
            f"bad lp_backend {values['lp_backend']!r}: only auto is accepted; "
            "the bundled simplex was removed and HiGHS solves every program")
    if "storage_ratios" in values:
        # the key switches simulate to sweep mode, so every entry, and at
        # least one, must be a number
        try:
            cfg.storage_ratios = [finite_float(v) for v in
                                  values["storage_ratios"].split(",")]
        except ValueError:
            raise ConfigError("bad storage_ratios list") from None

    synth_keys = {k: v for k, v in values.items() if k.startswith("synth.")}
    if synth_keys:
        params = SynthParams(seed=cfg.seed)
        for key, val in synth_keys.items():
            if key == "synth.pop_weights":
                cfg.synth_pop_weights_raw = val
                continue
            attr, cast = _SYNTH_FIELDS[key]
            try:
                setattr(params, attr, cast(val))
            except ValueError:
                raise ConfigError(f"bad value for {key}: {val!r}") from None
        cfg.synth = params

    if (cfg.trace_path is None) == (cfg.synth is None):
        raise ConfigError("config needs exactly one of trace / synth.* block")

    for value in schemes:
        cfg.schemes.append(_parse_scheme(value, base_dir))
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def resolve_pop_weights(cfg: ExperimentConfig, pops) -> None:
    """Turn the raw pop_weights config value into the SynthParams field."""
    if cfg.synth is None or cfg.synth_pop_weights_raw is None:
        return
    raw = cfg.synth_pop_weights_raw.strip()
    if raw == "uniform":
        return
    try:
        weights = [finite_float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad synth.pop_weights list: {exc}") from None
    if any(w < 0 for w in weights):
        raise ConfigError("bad synth.pop_weights list: an entry is negative")
    pops = sorted(pops)
    if len(weights) != len(pops):
        raise ConfigError(f"synth.pop_weights needs {len(pops)} entries")
    cfg.synth.pop_weights = dict(zip(pops, weights))
