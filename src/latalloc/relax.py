"""Lower bounds from the continuous relaxation, solved by kappa-ordering.

Replacing each activation charge c_i * y_i by a per-unit price kappa_i * x_i
leaves a convex splitting problem whose optimum prices every used copy at a
common marginal level lam, with copy i used iff kappa_i < lam.  Subtracting
the cheapest price from every price moves the objective by exactly that
constant on the simplex, so both kernels solve in shifted prices (the
cheapest copy at 0) and add the shift back to lam.

With linear latencies copy i carries (lam - kappa_i)/(2 b_i), so raising
the level from kappa_{h-1} to kappa_h over the h cheapest copies pours
W_{h-1} (kappa_h - kappa_{h-1}) of demand, where W_h = sum_{i<=h} 1/(2 b_i).
The demand D_h needed to reach kappa_h is nondecreasing in h, so the support
is the prefix with D_h < 1, ties included, and the level is
kappa_h + (1 - D_h)/W_h on its last copy: one prefix-sum pass after the
single sort.  The offsets lam - kappa_i are built from that share, not from
lam, so they keep their precision even where lam dwarfs them.  Other
exponents bisect for the clamped level over all available copies
(``_water_level``); the restricted solves in ``kkt`` reuse the same kernel
for mixed exponents.

Pricing free copies at kappa_i = c_i and already-activated copies at 0 makes
the same machinery a node bound for branch and bound (``_node_relaxation``,
the one place that rule is written); at the root this equals the best
Lagrangean dual bound, which is attained at multipliers equal to the fixed
costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance


@dataclass(frozen=True, eq=False)
class DualResult:
    """Relaxation optimum: marginal level, support, dense fractions, objective value."""

    lam: float
    support: frozenset
    x: np.ndarray
    bound: float
    h: int


def _stable_argsort(values):
    return np.argsort(values, kind="stable")


def _ginv(t, b, p):
    """Vectorized marginal inverse for power families, clamped at zero."""
    t = np.maximum(t, 0.0)
    return (t / (b * (1.0 + p))) ** (1.0 / p)


def _scan_linear(kap_s, b_s):
    """Level lam and offsets lam - kappa for linear copies sorted by shifted price.

    ``kap_s`` is ascending with ``kap_s[0] == 0``, so the first copy always
    passes.  Copy h passes iff the demand D_h poured before the level reaches
    kappa_h is below 1; the first failing copy and every later one get
    offset 0.
    """
    with np.errstate(over="ignore"):
        # sums past the first failing copy may overflow; the scan never reads them
        fill = (0.5 / b_s).cumsum()
        demand = (fill[:-1] * (kap_s[1:] - kap_s[:-1])).cumsum()
    # demand is nondecreasing, so the first failing copy is found by bisection
    h = int(demand.searchsorted(1.0))
    rest = (1.0 - (demand[h - 1] if h else 0.0)) / fill[h]
    gap = np.zeros(kap_s.size)
    gap[:h + 1] = (kap_s[h] - kap_s[:h + 1]) + rest
    return float(kap_s[h] + rest), gap


def _water_level(kap, b, p, weight=1.0):
    """Level lam at which sum weight * ginv(lam - kap) over all copies reaches 1.

    ``kap`` holds shifted prices, min kap == 0.  The sum is continuous and
    nondecreasing in lam, zero at 0, and at least 1 at max b(1+p), where the
    cheapest copy alone carries a full unit (every weight is >= 1).
    Bisection on that bracket runs until the midpoint no longer lies
    strictly between the ends, i.e. to float resolution; an absolute width
    would be finer than the float spacing once lam is large and would never
    be reached.  Returns the upper end.
    """
    curve = b * (1.0 + p)
    lo = 0.0
    hi = float(np.max(curve))
    scale = 1.0 / curve
    root = 1.0 / p
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if float((weight * (np.maximum(mid - kap, 0.0) * scale) ** root).sum()) < 1.0:
            lo = mid
        else:
            hi = mid


def _solve_relaxation(instance: Instance, kappa, avail_mask):
    """Core relaxation solve over the available copies.

    Returns (lam, dense fractions, objective sum of x*f(x) + kappa*x).
    Performs exactly one stable sort of the available kappa entries.
    """
    idx = np.flatnonzero(avail_mask)
    if idx.size == 0:
        raise ValueError("no available resource can carry the demand")
    kap = np.asarray(kappa, dtype=float)[idx]
    order = _stable_argsort(kap)
    kap_s = kap[order]
    sel = idx[order]
    b_s = instance.copy_b[sel]
    p_s = instance.copy_p[sel]
    shift = kap_s[0]
    rel = kap_s - shift

    if np.all(p_s == 1.0):
        lam, gap = _scan_linear(rel, b_s)
    else:
        lam = _water_level(rel, b_s, p_s)
        gap = lam - rel
    # the clamp zeroes every copy priced at or above the level
    x_s = _ginv(gap, b_s, p_s)
    obj = float((b_s * x_s ** (1.0 + p_s) + kap_s * x_s).sum())

    x = np.zeros(instance.q)
    x[sel] = x_s
    return lam + shift, x, obj


def _copy_mask(instance: Instance, indices):
    """Mask of the copies in ``indices``; raises ValueError on an index out of range."""
    mask = np.zeros(instance.q, dtype=bool)
    for i in indices:
        if not 0 <= int(i) < instance.q:
            raise ValueError(f"copy index {i} out of range [0, {instance.q})")
        mask[int(i)] = True
    return mask


def ordering_algorithm(instance: Instance, kappa, available=None) -> DualResult:
    """Solve the priced relaxation min sum x_i f_i(x_i) + kappa_i x_i over the simplex.

    ``kappa`` is a length-q vector of nonnegative per-copy prices;
    ``available`` restricts the splitting to a subset of copy indices
    (default: all).  The support of the optimum is the set of copies whose
    price lies strictly below the returned marginal level.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (instance.q,):
        raise ValueError(f"kappa must have length {instance.q}, got {kappa.shape}")
    mask = np.ones(instance.q, bool) if available is None else _copy_mask(instance, available)
    if np.any(~np.isfinite(kappa[mask])) or np.any(kappa[mask] < 0.0):
        raise ValueError("kappa must be finite and >= 0 on available copies")
    lam, x, obj = _solve_relaxation(instance, kappa, mask)
    support = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
    return DualResult(lam=float(lam), support=support, x=x, bound=obj, h=len(support))


def _node_relaxation(instance: Instance, on_mask, avail_mask):
    """Priced relaxation of a node; returns (lam, dense fractions, bound).

    Copies in ``on_mask`` are already paid for: priced at 0, their fixed
    costs added to the bound.  Every other copy in ``avail_mask`` is priced
    at its own fixed cost.
    """
    fees = instance.copy_fixed_cost
    lam, x, obj = _solve_relaxation(instance, np.where(on_mask, 0.0, fees), avail_mask)
    return lam, x, obj + float(fees @ on_mask)


def continuous_relaxation_bound(instance: Instance, fixed_on=(), fixed_off=()) -> DualResult:
    """Node lower bound: activation charges already committed plus priced free copies.

    Copies in ``fixed_on`` are paid for (price 0, their c added to the bound),
    copies in ``fixed_off`` are excluded, and every remaining free copy is
    priced at its own fixed cost.  The bound is monotone in both sets, and at
    the root (both empty) it equals the Lagrangean dual optimum.
    """
    on_mask = _copy_mask(instance, fixed_on)
    off_mask = _copy_mask(instance, fixed_off)
    if np.any(on_mask & off_mask):
        raise ValueError(f"copies fixed both on and off: {np.flatnonzero(on_mask & off_mask)}")
    lam, x, bound = _node_relaxation(instance, on_mask, ~off_mask)
    support = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
    return DualResult(lam=float(lam), support=support, x=x, bound=bound, h=len(support))
