"""Exact solvers for fixed activation patterns.

Once the set of activated copies is chosen, splitting the unit of demand is a
convex program whose stationarity conditions equalize the load-cost marginals
across used copies at a common level lam.  Every active copy is priced at 0, so
the split depends on one fill sum per exponent (``_zero_price_split``, also
used by the heuristic's pricer and by the interior of the node bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .model import Allocation, Instance, ResourceGroup


@dataclass(frozen=True, eq=False)
class RestrictedResult:
    """Optimal split over a fixed active set: dense fractions, marginal level, total cost."""

    x: np.ndarray
    lam: float
    value: float


# Fills are counted in unit 1 or, by a call whose sums overflow in unit 1, in
# units of 2**-128 (g1 for b near 1e-308 at p = 1)
FILL_UNITS = (1.0, 2.0 ** -128)


def _zero_price_split(exponents, sums, unit):
    """Load divisor of each exponent when copies priced at 0 share ``unit``.

    ``sums[j]`` is F_P = sum w unit g1 over the copies of P = ``exponents[j]``,
    g1 = (b(1+P))^(-1/P).  The level lam solves sum_P F_P lam^(1/P) = unit; in
    z = lam^(1/big), big the largest P with copies, the shares F_P lam^(1/P)
    at z = z0 t, z0 = min_P (unit/F_P)^(P/big), sum to a convex increasing
    function of t that is >= 1 at t = 1, so Newton from t = 1 needs no
    bracket.  Returns (d, i, w): a copy of P carries its scaled fill over
    d_P = F_P / share_P, formed without lam, which can leave the float range
    where the loads do not; i is the exponent with the largest share,
    lam = (unit / d_i)^P_i, and as b g1^(1+P) = g1/(1+P) the copies' latency
    is w lam/(1+P_i).  With one exponent t = 1 is the root: d is ``sums``, w 1.
    """
    if len(sums) == 1:
        return sums, 0, 1.0
    return _newton_split(exponents, sums, unit)


def _newton_split(exponents, sums, unit):
    # apart from _zero_price_split, whose one-exponent return thus skips the
    # cells these comprehensions take before Python 3.12
    big = max(P for P, F in zip(exponents, sums) if F > 0.0)
    zs = [(unit / F) ** (P / big) if F > 0.0 else math.inf for P, F in zip(exponents, sums)]
    z0 = min(zs)
    powers = [big / P for P in exponents]
    rho = [(z0 / z) ** m for z, m in zip(zs, powers)]
    t, share, f = 1.0, rho, sum(rho) - 1.0
    while f > 0.0:
        t_next = t - f * t / sum(map(mul, share, powers))
        share_next = [r * t_next ** m for r, m in zip(rho, powers)]
        f_next = sum(share_next) - 1.0
        if not (t_next > 0.0 and f_next < f):
            break
        t, share, f = t_next, share_next, f_next
    i = share.index(max(share))
    w = sum(s * (1.0 + exponents[i]) / (1.0 + P) for P, s in zip(exponents, share))
    return np.array([F / s if s > 0.0 else math.inf for F, s in zip(sums, share)]), i, w


def _counts_solve(instance: Instance, counts: np.ndarray):
    """Optimal split for ``counts[g]`` active copies per group.

    Identical copies share the load equally, so only per-group counts matter.
    Returns (lam, per-group fraction, total cost with fixed charges).
    """
    k = np.asarray(counts, dtype=float)
    act = k.nonzero()[0]
    if not act.size:
        raise ValueError("active set must be nonempty")
    for unit in FILL_UNITS:
        # vdot, unlike dot, does not warn where a sum overflows
        sums = [float(np.vdot(row, k * unit)) for row in instance.exponent_fills]
        if math.inf not in sums:
            break
    d, i, _ = _zero_price_split(instance.exponents, sums, unit)
    lam = float((unit / d[i]) ** instance.exponents[i])
    x = unit * instance.group_g1[act] / np.asarray(d)[instance.group_exponent[act]]
    x_groups = np.zeros(len(instance.groups))
    x_groups[act] = x
    k, latency = k[act], instance.group_b[act] * x ** (1.0 + instance.group_p[act])
    # vdot, and a sum of Python floats, overflow quietly
    value = float(np.vdot(k, instance.group_fixed_costs[act])) + float(np.vdot(k, latency))
    return lam, x_groups, value


def _counts_pricer(instance: Instance):
    """``counts -> _counts_solve(instance, counts)[2]`` up to rounding, without forming the split.

    One product with k gives the fill sums and k c.  The split's latency is
    w lam/(1+P_i) (``_zero_price_split``), with lam/(1+P_i) = b_g x_g^P_i
    read off the group g with the largest fill of exponent P_i: exact for one
    active copy at any P.
    """
    exponents, g1 = instance.exponents, instance.group_g1.tolist()
    b, p = instance.group_b.tolist(), instance.group_p.tolist()
    # no fill sum and no k c exceeds its sum over every copy, which vdot
    # forms without a warning
    mult = instance.group_multiplicities
    bounded = (np.vdot(instance.group_g1, mult) < math.inf
               and np.vdot(instance.group_fixed_costs, mult) < math.inf)
    tables = []
    for unit in FILL_UNITS[:1] if bounded else FILL_UNITS:
        rows = np.vstack((instance.exponent_fills * unit, instance.group_fixed_costs))
        tables.append((unit, rows, list(rows)))

    def price(counts):
        for unit, rows, fills in tables:
            sums = rows.dot(counts).tolist()
            kc = sums.pop()
            if math.inf not in sums:
                break
        d, i, w = _zero_price_split(exponents, sums, unit)
        g = int((counts * fills[i]).argmax())
        return kc + b[g] * (g1[g] * unit / d[i]) ** p[g] * w
    # a product that can overflow must do so quietly
    return price if bounded else np.errstate(over="ignore")(price)


def _counts_to_dense(instance: Instance, counts, x_groups) -> np.ndarray:
    """Dense per-copy fractions with the first ``counts[g]`` copies of each group active."""
    counts = np.asarray(counts, dtype=np.intp)
    x = np.where(instance.copy_pos < counts[instance.copy_group],
                 np.asarray(x_groups)[instance.copy_group], 0.0)
    return x


def _copy_mask(instance: Instance, indices):
    """Mask of the copies in ``indices``; raises ValueError on an index out of range."""
    try:
        idx = (np.asarray(indices, dtype=np.intp) if isinstance(indices, np.ndarray)
               else np.fromiter(indices, dtype=np.intp))
    except OverflowError:
        raise ValueError(f"copy index too large, out of range [0, {instance.q})") from None
    if idx.size and not 0 <= idx.min() <= idx.max() < instance.q:
        bad = idx[(idx < 0) | (idx >= instance.q)][0]
        raise ValueError(f"copy index {bad} out of range [0, {instance.q})")
    mask = np.zeros(instance.q, dtype=bool)
    mask[idx] = True
    return mask


def solve_restricted(instance: Instance, active_copies) -> RestrictedResult:
    """Optimal demand split given that exactly ``active_copies`` are switched on.

    ``active_copies`` is a nonempty set of expanded copy indices.  The
    returned fractions are dense over all q copies, positive exactly on the
    given set.
    """
    mask = _copy_mask(instance, active_copies)
    counts = np.bincount(instance.copy_group[mask], minlength=len(instance.groups))
    lam, x_groups, value = _counts_solve(instance, counts)
    x = np.where(mask, x_groups[instance.copy_group], 0.0)
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
