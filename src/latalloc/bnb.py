"""Depth-first branch and bound over per-group activation counts.

Copies within a group are interchangeable, so a branching step commits a
whole group at once: choosing the costliest group with free copies and
emitting one child per number l of copies switched on (the rest switched
off) keeps permutations of identical copies out of the tree.  A binary mode
that fixes one copy at a time is retained purely for comparison; with all
multiplicities 1 the two trees coincide.

Nodes carry per-group (on, off) count arrays, never written once built.  A
child inherits its parent's bound until popped; it is then either pruned on
that inherited bound without any work, discarded as infeasible, or priced by
the perspective relaxation (``relax._node_relaxation``), which sees each
group as at most two classes: its copies switched on and its free copies.
It prices a free copy by the convex envelope of its fee plus latency,
linear with slope s up to a load t and the true cost beyond it.  Its sort
by s costs O(n log n) once per search; a node over n classes then costs
one pass per distinct exponent E of the instance, or, where E exceeds
n.bit_length(), one pass per bisection probe: O(n min(E, log n)).  When
every free copy of a node carries 0 or at least its t, its relaxation prices
every copy at its true cost, so the node is solved: re-solving the
restricted problem on the support tightens the incumbent and the node closes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .heuristic import primal_heuristic
from .kkt import _counts_solve, _counts_to_dense, solve_constant_latency
from .model import Allocation, Instance
from .relax import _node_classes, _node_relaxation

# A node is pruned when its bound cannot undercut the incumbent by more than
# this relative slack.
PRUNE_RTOL = 1e-9
# Rounding allowance, relative to t, when reading a free copy's load as 0 or >= t.
INTEGRAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BnbNode:
    """Subproblem: per-group count arrays of copies fixed on and fixed off.

    The first ``on_counts[g]`` copies of group g are on and the last
    ``off_counts[g]`` off; no code writes to the arrays after the node is
    built.  ``lower_bound`` is the best bound known for the node; children
    are created with the parent's bound and tightened when evaluated.
    """

    on_counts: np.ndarray
    off_counts: np.ndarray
    lower_bound: float
    depth: int


@dataclass
class SolveStats:
    nodes: int = 0
    bound_evals: int = 0
    incumbent_updates: int = 0
    wall_time: float = 0.0
    status: str = "optimal"


@dataclass(frozen=True)
class SolveOptions:
    """Search settings.

    ``node_limit`` >= 1 caps created nodes (the root plus every child pushed
    by branching, as in ``SolveStats.nodes``), not evaluated ones.
    ``time_limit`` >= 0 is in seconds; 0 stops before the root is evaluated.
    None leaves a limit off; a value out of range or NaN raises ValueError.
    """

    branching: str = "nary"          # "nary" | "binary"
    node_limit: int | None = None
    time_limit: float | None = None  # seconds
    trace: object | None = None      # file-like; one line per evaluated node

    def __post_init__(self):
        if self.branching not in ("nary", "binary"):
            raise ValueError(f"unknown branching mode {self.branching!r}")
        if self.node_limit is not None and not self.node_limit >= 1:
            raise ValueError(f"node limit must be >= 1, got {self.node_limit}")
        if self.time_limit is not None and not self.time_limit >= 0.0:
            raise ValueError(f"time limit must be >= 0 seconds, got {self.time_limit}")


def branch_children(node: BnbNode, instance: Instance, branching: str = "nary"):
    """Children of ``node``, most-active first.

    Picks the group with the largest fixed cost among those with free copies
    (ties to the lowest index) and fixes all its n free copies, emitting n+1
    children with (on, off) increments (n,0), (n-1,1), ..., (0,n).  Binary
    branching fixes a single copy instead (increments (1,0), (0,1)).  Count
    tuples are accepted too; the children always hold fresh arrays.
    """
    if branching not in ("nary", "binary"):
        raise ValueError(f"unknown branching mode {branching!r}")
    on = np.asarray(node.on_counts, dtype=np.intp)
    off = np.asarray(node.off_counts, dtype=np.intp)
    free = instance.group_multiplicities - on - off
    if not free.any():
        raise ValueError("node has no free copy to branch on")
    best = int(np.where(free > 0, instance.group_fixed_costs, -np.inf).argmax())
    n = 1 if branching == "binary" else int(free[best])
    children = []
    for l in range(n, -1, -1):
        kid_on, kid_off = on.copy(), off.copy()
        kid_on[best] += l
        kid_off[best] += n - l
        children.append(BnbNode(kid_on, kid_off, node.lower_bound, node.depth + 1))
    return children


def solve(instance: Instance, options: SolveOptions | None = None):
    """Exact minimizer of the activation-plus-latency cost.  Returns (Allocation, SolveStats).

    The incumbent starts from the primal heuristic; the search then prices
    nodes depth-first with the continuous relaxation and prunes anything
    that cannot improve the incumbent beyond a 1e-9 relative slack.
    Deterministic for fixed inputs and options whenever no time limit is set.
    All-constant-latency instances route to the closed-form fast path.
    """
    options = options or SolveOptions()
    t0 = time.perf_counter()

    if instance.all_constant:
        alloc = solve_constant_latency(instance)
        return alloc, SolveStats(nodes=1, bound_evals=1, incumbent_updates=1,
                                 wall_time=time.perf_counter() - t0, status="optimal")

    mult = instance.group_multiplicities
    node_classes = _node_classes(instance)
    # a free copy is read as carrying 0 up to zero_below and its t from at_t
    zero_below = INTEGRAL_TOL * node_classes.t
    at_t = (1.0 - INTEGRAL_TOL) * node_classes.t

    heur = primal_heuristic(instance)
    inc_value = heur.value
    cutoff = inc_value - PRUNE_RTOL * max(1.0, abs(inc_value))
    inc_x = np.asarray(heur.x, dtype=float).copy()
    stats = SolveStats(incumbent_updates=1)
    trace = options.trace

    nG = len(instance.groups)
    root = BnbNode(np.zeros(nG, dtype=np.intp), np.zeros(nG, dtype=np.intp), -np.inf, 0)
    stack = [root]
    stats.nodes = 1

    while stack:
        if (options.node_limit is not None and stats.nodes >= options.node_limit
                and stats.bound_evals >= 1):
            stats.status = "node_limit"
            break
        if options.time_limit is not None and time.perf_counter() - t0 > options.time_limit:
            stats.status = "time_limit"
            break
        node = stack.pop()
        if node.lower_bound >= cutoff:
            continue  # pruned on the inherited bound, no evaluation needed
        if not (node.off_counts < mult).any():
            continue  # every copy fixed off: infeasible subproblem
        _, loads, bound = _node_relaxation(instance, node_classes, node.on_counts,
                                           node.off_counts)
        stats.bound_evals += 1
        if trace is not None:
            trace.write(f"depth={node.depth} bound={bound:.12g} incumbent={inc_value:.12g}\n")
        if bound >= cutoff:
            continue
        x_free = loads[1]
        if not ((x_free > zero_below) & (x_free < at_t)).any():
            # every free copy is priced at its true cost: close the node by
            # re-solving exactly on its support, read by the same rule
            free = mult - node.on_counts - node.off_counts
            counts = (np.where(loads[0] > 0.0, node.on_counts, 0)
                      + np.where(x_free > zero_below, free, 0))
            _, x_groups, exact = _counts_solve(instance, counts)
            if exact < inc_value:
                inc_value = exact
                cutoff = inc_value - PRUNE_RTOL * max(1.0, abs(inc_value))
                inc_x = _counts_to_dense(instance, counts, x_groups)
                stats.incumbent_updates += 1
            continue
        node = BnbNode(node.on_counts, node.off_counts, bound, node.depth)
        children = branch_children(node, instance, options.branching)
        stats.nodes += len(children)
        stack.extend(reversed(children))

    stats.wall_time = time.perf_counter() - t0
    return Allocation.from_fractions(instance, inc_x), stats
