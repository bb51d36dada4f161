"""latalloc: split one unit of divisible demand across congestible resources.

Each resource charges a fixed activation cost plus a load-dependent latency
cost; the package provides the exact branch-and-bound solver, the
ordering-based relaxation bound, a primal heuristic seeded by the search's
root relaxation, instance generators (including a subset-sum reduction
showing the problem is NP-hard), independent oracles, and a small CLI.
"""

from .bnb import BnbNode, SolveOptions, SolveStats, branch_children, solve
from .heuristic import primal_heuristic
from .instances import (InstanceFormatError, generate_base, generate_random,
                        partition_reduction, read_instance, validate_nondominated,
                        write_instance)
from .kkt import (RestrictedResult, solve_constant_latency, solve_identical,
                  solve_restricted)
from .model import (Allocation, ConstantLatency, Instance, LatencyFamily,
                    PowerLatency, ResourceGroup, gamma)
from .oracle import brute_force_optimum, numeric_perspective, numeric_relaxation
from .relax import DualResult, continuous_relaxation_bound, ordering_algorithm

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BnbNode",
    "ConstantLatency",
    "DualResult",
    "Instance",
    "InstanceFormatError",
    "LatencyFamily",
    "PowerLatency",
    "ResourceGroup",
    "RestrictedResult",
    "SolveOptions",
    "SolveStats",
    "branch_children",
    "brute_force_optimum",
    "continuous_relaxation_bound",
    "gamma",
    "generate_base",
    "generate_random",
    "numeric_perspective",
    "numeric_relaxation",
    "ordering_algorithm",
    "partition_reduction",
    "primal_heuristic",
    "read_instance",
    "solve",
    "solve_constant_latency",
    "solve_identical",
    "solve_restricted",
    "validate_nondominated",
    "write_instance",
]
