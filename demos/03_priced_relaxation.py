"""
The ordering bound
==================

Dropping the on/off variables and charging each copy a price kappa_i per
unit of load leaves a convex problem the package solves by sorting: copies
join the support in price order while their price stays below the marginal
level of the copies before them.  Pricing with the true fees gives the
paper's root lower bound; the search prices its nodes by the tighter
perspective bound (demo 04).
"""

import numpy as np

from latalloc import generate_base, numeric_relaxation, ordering_algorithm, solve

inst = generate_base(6)
fees = inst.copy_fixed_cost

# scale the prices: expensive prices shrink the support, free prices
# spread load over every copy
print("price scale   support size   level      bound")
for scale in (4.0, 2.0, 1.0, 0.5, 0.1, 0.0):
    dual = ordering_algorithm(inst, scale * fees)
    print(f"{scale:<13} {len(dual.support):<14} {dual.lam:<10.4f} {dual.bound:.4f}")

dual = ordering_algorithm(inst, fees)
slow = numeric_relaxation(inst, fees)
print(f"\nsorting answer {dual.bound:.10f} vs projected gradient {slow:.10f}")

alloc, _ = solve(inst)
print(f"priced root bound {dual.bound:.4f} <= optimum {alloc.value:.4f}")

# the support is always a prefix of the price order
order = np.argsort(fees, kind="stable")
prefix = set(order[: len(dual.support)].tolist())
print(f"support is the cheapest-price prefix: {prefix == set(dual.support)}")
