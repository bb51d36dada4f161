"""Exact solvers for fixed activation patterns.

Once the set of activated copies is chosen, splitting the unit of demand is a
convex program whose stationarity conditions equalize the load-cost marginals
across used copies at a common level lam.  For a shared power exponent the
level has a closed form; mixed exponents bisect for it with the same
water-level kernel that solves the priced relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, Instance
from .relax import _ginv, _water_level


@dataclass(frozen=True, eq=False)
class RestrictedResult:
    """Optimal split over a fixed active set: dense fractions, marginal level, total cost."""

    x: np.ndarray
    lam: float
    value: float


def _counts_solve(instance: Instance, counts: np.ndarray):
    """Optimal split for ``counts[g]`` active copies per group.

    Identical copies share the load equally, so only per-group counts matter.
    Returns (lam, per-group fraction, total cost with fixed charges).
    """
    counts = np.asarray(counts, dtype=np.intp)
    active = counts > 0
    if not active.any():
        raise ValueError("active set must be nonempty")
    k = counts[active].astype(float)
    b = instance.group_b[active]
    p = instance.group_p[active]
    c = instance.group_fixed_costs[active]

    if np.all(p == p[0]):
        pe = float(p[0])
        w = (b * (1.0 + pe)) ** (-1.0 / pe)
        denom = float(k @ w)
        lam = denom ** (-pe)
        x_act = lam ** (1.0 / pe) * w
    else:
        # every active copy of group g carries g_inv(lam), so group g counts k_g times
        lam = _water_level(0.0, b, p, weight=k)
        x_act = _ginv(lam, b, p)
        # remove the bisection residual from the simplex constraint
        x_act *= 1.0 / float(k @ x_act)

    value = float(k @ c + k @ (b * x_act ** (1.0 + p)))
    x_groups = np.zeros(len(instance.groups))
    x_groups[active] = x_act
    return float(lam), x_groups, value


def _counts_to_dense(instance: Instance, counts, x_groups) -> np.ndarray:
    """Dense per-copy fractions with the first ``counts[g]`` copies of each group active."""
    counts = np.asarray(counts, dtype=np.intp)
    x = np.where(instance.copy_pos < counts[instance.copy_group],
                 np.asarray(x_groups)[instance.copy_group], 0.0)
    return x


def solve_restricted(instance: Instance, active_copies) -> RestrictedResult:
    """Optimal demand split given that exactly ``active_copies`` are switched on.

    ``active_copies`` is a nonempty set of expanded copy indices.  The
    returned fractions are dense over all q copies, positive exactly on the
    given set.
    """
    idx = np.asarray(sorted(set(int(i) for i in active_copies)), dtype=np.intp)
    if idx.size == 0:
        raise ValueError("active set must be nonempty")
    if idx[0] < 0 or idx[-1] >= instance.q:
        raise ValueError(f"copy index out of range [0, {instance.q})")
    counts = np.bincount(instance.copy_group[idx], minlength=len(instance.groups))
    lam, x_groups, value = _counts_solve(instance, counts)
    x = np.zeros(instance.q)
    x[idx] = x_groups[instance.copy_group[idx]]
    return RestrictedResult(x=x, lam=lam, value=value)


def solve_identical(fixed_cost: float, family, q: int):
    """Best number of copies to activate when all q resources are identical.

    Using k copies costs F(k) = f(1/k) + k * c, which is discretely unimodal,
    so a binary search on the sign of the first difference finds the
    minimizer; ties resolve to the smaller k.  A constant family makes F
    nondecreasing, so it gets k = 1.  Returns (k, F(k)).
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if fixed_cost < 0:
        raise ValueError(f"fixed cost must be >= 0, got {fixed_cost}")

    def F(k):
        return family.f(1.0 / k) + k * fixed_cost

    lo, hi = 1, q
    while lo < hi:
        mid = (lo + hi) // 2
        if F(mid + 1) >= F(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, float(F(lo))


def solve_constant_latency(instance: Instance) -> Allocation:
    """All demand on one cheapest copy when every latency is load-independent.

    Splitting never helps here: each activated copy pays its full fixed cost
    while the latency term is linear in the split, so the argmin of c + f
    takes everything.  Ties go to the lowest group index.
    """
    if not instance.all_constant:
        raise ValueError("solve_constant_latency needs every family to be constant")
    best_g = 0
    best_total = None
    for g, grp in enumerate(instance.groups):
        total = grp.fixed_cost + grp.latency.value
        if best_total is None or total < best_total:
            best_total = total
            best_g = g
    x = np.zeros(instance.q)
    x[instance.group_offsets[best_g]] = 1.0
    return Allocation.from_fractions(instance, x)
