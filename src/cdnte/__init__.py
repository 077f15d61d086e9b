"""cdnte: trace-driven simulation of content placement, request
redirection and routing schemes on ISP backbone topologies, scored by
maximum link utilization."""

from .engine import (ComparisonTable, DayStats, MluReport, SchemeSpec,
                     SweepRow, TransitSpec, ValidationError, compare_schemes,
                     run_experiment, sweep_storage_ratio)
from .lp import (LinearProgram, LpSolution, SimplexError, build_joint_lp,
                 build_min_mlu_lp, solve_lp, solve_lp_auto,
                 solve_min_mlu_routing, write_lp_text)
from .placement import (CacheState, Placement, plan_placement_optimized,
                        split_hybrid)
from .redirection import (RedirectDecision, redirect_closest,
                          redirect_utilization_aware)
from .topology import (Link, Topology, TopologyError, all_pairs_distances,
                       inverse_cap_weights, load_topology, parse_topology,
                       path_distance, shortest_path_routes)
from .traffic import (apply_routing, check_flow_conservation, mlu,
                      read_traffic_matrix, write_traffic_matrix)
from .workload import (ContentObject, DemandMatrix, Request, SynthParams,
                       TraceError, aggregate_demand, chunk_objects,
                       generate_synthetic_trace, parse_catalog, parse_trace,
                       write_catalog, write_trace)

__version__ = "0.1.0"
