"""Flow-level machinery: optimal routing LP and the link-load simulator.

Two responsibilities, mirroring the environment dataflow in the paper's
Figure 1:

* :mod:`~repro.flows.lp` — the linear-programming oracle that computes the
  *optimal* maximum link utilisation for a demand matrix (the paper solved
  this with Google OR-Tools; we use scipy's HiGHS).  The reward denominator.
* :mod:`~repro.flows.simulator` — propagates a concrete routing strategy's
  splitting ratios to per-link loads and the achieved maximum utilisation.
  The reward numerator.
"""

from repro.flows.lp import (
    LinearProgramCache,
    LinearProgramStructure,
    LPOptimumStore,
    OptimalRouting,
    OptimalUtilisationCache,
    demand_destinations,
    direct_solver_available,
    network_fingerprint,
    shared_lp_cache,
    solve_optimal_average_utilisation,
    solve_optimal_max_utilisation,
    use_lp_cache,
)
from repro.flows.simulator import (
    average_link_utilisation,
    link_loads,
    max_link_utilisation,
    utilisation_ratio,
)

__all__ = [
    "OptimalRouting",
    "OptimalUtilisationCache",
    "LinearProgramCache",
    "LinearProgramStructure",
    "LPOptimumStore",
    "demand_destinations",
    "direct_solver_available",
    "network_fingerprint",
    "shared_lp_cache",
    "solve_optimal_max_utilisation",
    "solve_optimal_average_utilisation",
    "use_lp_cache",
    "link_loads",
    "max_link_utilisation",
    "average_link_utilisation",
    "utilisation_ratio",
]
