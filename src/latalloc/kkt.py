"""Exact solvers for fixed activation patterns.

Once the set of activated copies is chosen, splitting the unit of demand is a
convex program whose stationarity conditions equalize the load-cost marginals
across used copies at a common level lam.  For a shared power exponent P the
level has a closed form, by the rule of the perspective interior (``relax``):
fills k g1, g1 = (b(1+P))^(-1/P), summed in unit 1 or, where that overflows,
in units of 2^-128; loads scaled fill over scaled sum, lam = (unit / sum)^P.
As b g1^(1+P) = g1/(1+P), the value is k c + lam/(1+P) (``_counts_pricer``).
Mixed exponents solve for it with the level kernel of the priced relaxation:
every active group is one class priced at 0 whose weight is its count, so the
support search is empty and the kernel's Newton iteration in fill units
finds the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Allocation, Instance, ResourceGroup
from .relax import _level


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

    if (p == p[0]).all():
        pe = float(p[0])
        g1 = (b * (1.0 + pe)) ** (-1.0 / pe)
        # vdot, unlike @, does not warn where the sum overflows; the loads are
        # formed apart from lam, which can leave the float range where they do not
        for unit in (1.0, 2.0 ** -128):
            fill = g1 * unit
            total = float(np.vdot(k, fill))
            if total < math.inf:
                break
        x_act = fill / total
        lam = (unit / total) ** pe
    else:
        # every active copy of group g carries the same load, so group g is one
        # class of weight k_g
        lam, x_act = _level(np.zeros(k.size), b, p, k)
        # remove the residual of the last Newton step from the simplex constraint
        x_act *= 1.0 / float(k @ x_act)

    value = float(k @ c + k @ (b * x_act ** (1.0 + p)))
    x_groups = np.zeros(len(instance.groups))
    x_groups[active] = x_act
    return float(lam), x_groups, value


def _counts_pricer(instance: Instance):
    """``counts -> _counts_solve(instance, counts)[2]`` up to rounding, from one product.

    The product of the rows c and g1 with k gives k c and S = k g1; lam/(1+P)
    = b_g (g1_g / S)^P is read off the group g with the largest share
    k_g g1_g, exact for one active copy at any P.  Mixed exponents, and
    fills that overflow with every copy on, take ``_counts_solve`` itself.
    """
    pe = instance.shared_exponent
    if pe is not None:
        b = instance.group_b
        rows = np.stack([instance.group_fixed_costs, (b * (1.0 + pe)) ** (-1.0 / pe)])
        with np.errstate(over="ignore"):
            # no fill sum exceeds the one with every copy on
            bounded = rows.dot(instance.group_multiplicities)[1] < math.inf
    if pe is None or not bounded:
        return lambda counts: _counts_solve(instance, counts)[2]
    fill, b = rows[1], b.tolist()

    def price(counts):
        kc, total = rows.dot(counts).tolist()
        g = int((counts * fill).argmax())
        return kc + b[g] * (float(fill[g]) / total) ** pe
    return price


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
    ResourceGroup(fixed_cost, family, q)  # raises ValueError on the inputs it rejects

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
