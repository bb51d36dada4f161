"""
One full solve, narrated
========================

Generate a random non-dominated instance, take the cheap shots first
(root bounds, primal heuristic), then run the exact search and compare.
The search's bound prices every free copy by the convex envelope of its fee
plus latency (perspective bound); the paper's priced bound charges the fee
per unit of load and sits further below the optimum.
"""

import io

from latalloc import (SolveOptions, continuous_relaxation_bound, generate_random,
                      ordering_algorithm, primal_heuristic, solve)

inst = generate_random(18, seed=7, multiplicity_range=(1, 4))
print(f"instance: {len(inst.groups)} groups, {inst.q} copies")
for g, grp in enumerate(inst.groups):
    print(f"  group {g}: fee {grp.fixed_cost:>5.1f}  slope {grp.latency.b:>5.1f}"
          f"  copies {grp.multiplicity}")

root = continuous_relaxation_bound(inst)
priced = ordering_algorithm(inst, inst.copy_fixed_cost)
heur = primal_heuristic(inst)
print(f"\nroot bound     {root.bound:.6f}   (perspective, the search's bound)")
print(f"priced bound   {priced.bound:.6f}   (the paper's bound)")
print(f"heuristic      {heur.value:.6f}   open copies {sorted(heur.active)}")

trace = io.StringIO()
alloc, stats = solve(inst, SolveOptions(trace=trace))
print(f"exact optimum  {alloc.value:.6f}   open copies {sorted(alloc.active)}")
print(f"root gap       perspective {1 - root.bound / alloc.value:.2%}, "
      f"priced {1 - priced.bound / alloc.value:.2%}")
print(f"search: {stats.nodes} nodes, {stats.bound_evals} bound evaluations, "
      f"{stats.incumbent_updates} incumbent updates, {1000 * stats.wall_time:.1f} ms")

gap = heur.value - alloc.value
print(f"heuristic gap  {gap:.2e}")

# first few trace lines show the bound tightening toward the incumbent
print("\nsearch trace head:")
for line in trace.getvalue().splitlines()[:5]:
    print(" ", line)
