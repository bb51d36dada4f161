"""Lower bounds from the continuous relaxation, solved by kappa-ordering.

Replacing each activation charge c_i * y_i by a per-unit price kappa_i * x_i
leaves a convex splitting problem whose optimum prices every used copy at a
common marginal level lam, with copy i used iff kappa_i < lam.  Subtracting
the cheapest price from every price moves the objective by exactly that
constant on the simplex, so both kernels solve in shifted prices (the
cheapest copy at 0) and add the shift back to lam; the level offsets
lam - kappa_i then keep their precision however large the prices are.

With linear latencies the level of the h cheapest copies is
lam_h = (1 + sum kappa_i/(2 b_i)) / sum 1/(2 b_i), a convex combination of
lam_{h-1} and kappa_h.  Hence kappa_h < lam_h holds exactly on a prefix of
the sorted copies, ties included, and one prefix-sum pass after the single
sort finds the support.  Other
exponents bisect for the clamped level over all available copies
(``_water_level``); the restricted solves in ``kkt`` reuse the same kernel
for mixed exponents.

Pricing free copies at kappa_i = c_i and already-activated copies at 0 makes
the same machinery a node bound for branch and bound; at the root this equals
the best Lagrangean dual bound, which is attained at multipliers equal to the
fixed costs.
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
    """Level lam for linear copies sorted by shifted price.

    ``kap_s`` is ascending with ``kap_s[0] == 0``, so the first copy always
    passes.  Copy h passes iff kappa_h < lam_{h-1}, which is the same test as
    kappa_h < lam_h but reads only sums over passed copies; the first failing
    copy and every later one then price at or above lam and get no load.
    """
    inv2b = 0.5 / b_s
    with np.errstate(over="ignore", invalid="ignore"):
        # sums past the first failing copy may overflow; the scan never reads them
        lam_all = (1.0 + np.cumsum(kap_s * inv2b)) / np.cumsum(inv2b)
    fails = kap_s[1:] >= lam_all[:-1]
    h = 1 + int(np.argmax(fails)) if fails.any() else kap_s.size
    return float(lam_all[h - 1])


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
    b = instance.copy_b[idx]
    p = instance.copy_p[idx]
    kap = np.asarray(kappa, dtype=float)[idx]

    order = _stable_argsort(kap)
    kap_s = kap[order]
    b_s = b[order]
    p_s = p[order]
    shift = kap_s[0]
    rel = kap_s - shift

    if np.all(p_s == 1.0):
        lam = _scan_linear(rel, b_s)
    else:
        lam = _water_level(rel, b_s, p_s)
    # the clamp zeroes every copy priced at or above the level
    x_s = _ginv(lam - rel, b_s, p_s)
    obj = float((b_s * x_s ** (1.0 + p_s) + kap_s * x_s).sum())

    x = np.zeros(instance.q)
    x[idx[order]] = x_s
    return lam + shift, x, obj


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
    if available is None:
        mask = np.ones(instance.q, dtype=bool)
    else:
        mask = np.zeros(instance.q, dtype=bool)
        for i in available:
            if not 0 <= int(i) < instance.q:
                raise ValueError(f"copy index {i} out of range [0, {instance.q})")
            mask[int(i)] = True
    if np.any(~np.isfinite(kappa[mask])) or np.any(kappa[mask] < 0.0):
        raise ValueError("kappa must be finite and >= 0 on available copies")
    lam, x, obj = _solve_relaxation(instance, kappa, mask)
    support = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
    return DualResult(lam=float(lam), support=support, x=x, bound=obj, h=len(support))


def continuous_relaxation_bound(instance: Instance, fixed_on=(), fixed_off=()) -> DualResult:
    """Node lower bound: activation charges already committed plus priced free copies.

    Copies in ``fixed_on`` are paid for (price 0, their c added to the bound),
    copies in ``fixed_off`` are excluded, and every remaining free copy is
    priced at its own fixed cost.  The bound is monotone in both sets, and at
    the root (both empty) it equals the Lagrangean dual optimum.
    """
    on = frozenset(int(i) for i in fixed_on)
    off = frozenset(int(i) for i in fixed_off)
    if on & off:
        raise ValueError(f"copies fixed both on and off: {sorted(on & off)}")
    for i in on | off:
        if not 0 <= i < instance.q:
            raise ValueError(f"copy index {i} out of range [0, {instance.q})")
    kappa = instance.copy_fixed_cost.copy()
    on_idx = np.asarray(sorted(on), dtype=np.intp)
    kappa[on_idx] = 0.0
    mask = np.ones(instance.q, dtype=bool)
    mask[np.asarray(sorted(off), dtype=np.intp)] = False
    if not mask.any():
        raise ValueError("no available resource can carry the demand")
    lam, x, obj = _solve_relaxation(instance, kappa, mask)
    support = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
    bound = obj + float(instance.copy_fixed_cost[on_idx].sum())
    return DualResult(lam=float(lam), support=support, x=x, bound=bound, h=len(support))

