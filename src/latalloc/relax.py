"""Lower bounds from the continuous relaxation, solved over sorted weighted classes.

Replacing each activation charge c_i * y_i by a per-unit price kappa_i * x_i
leaves a convex splitting problem whose optimum prices every used copy at a
common marginal level lam, with copy i used iff kappa_i < lam.  Copies with
the same price and latency carry the same load, so the solver works on
classes (price kappa, b, p, weight = number of copies) sorted by price.
Subtracting the cheapest price from every price moves the objective by
exactly that constant on the simplex, so the kernels solve in shifted prices
(the cheapest class at 0) and add the shift back to lam.

The demand D_m poured before the level reaches breakpoint kappa_m is
nondecreasing in m, so the support is the prefix of classes with D_m < 1,
ties included.  With linear latencies class i carries (lam - kappa_i)/(2 b_i)
per copy, so D_m is a prefix sum and the level on the last interval has a
closed form: one pass after the sort (``_scan_linear``).  Other exponents
(``_level``) find the last class h of the support by bisecting over the class
index, one pass over the prefix per probe, then solve the last interval by
Newton in z, where lam = kappa_h + u z^P:

* P is the largest exponent in the support.  With d_i = kappa_h - kappa_i,
  class i carries ((d_i + u z^P) / (b_i(1+p_i)))^(1/p_i) per copy, a power
  P/p_i >= 1 of the P-norm of (d_i^(1/P), u^(1/P) z), so the demand is convex
  and increasing in z.  Newton started where the demand is >= 1 moves down
  onto the root and crosses it only by rounding; it needs no bracket.
* u, the fill unit, is the least b_i(1+p_i) - d_i over the support.  At z = 1
  one copy of some class carries a full unit on its own and no copy carries
  more.  So z stays in [0, 1], nothing overflows, and the loads are read
  from z^P u / (b_i(1+p_i)), which stays in range where a tiny u makes
  lam - kappa_h underflow.

Together with the sort that is O(n log n) per bound.  Both kernels build the
offsets lam - kappa_i from the share poured into the last interval, not from
lam, so the loads keep their precision where lam dwarfs them.  The restricted
solves in ``kkt`` reuse ``_level`` for mixed exponents.

Pricing free copies at kappa_i = c_i and already-activated copies at 0 makes
the same machinery a node bound for branch and bound (``_node_relaxation``,
the one place that rule is written).  There a group is at most two classes,
its on copies and its free copies, laid out by ``_node_classes`` in a fee
order sorted once per search.  At the root this equals the best Lagrangean dual bound, which is
attained at multipliers equal to the fixed costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance

_TINY = math.ulp(0.0)


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


def _scan_linear(kap, b, w, unit=1.0):
    """Level lam and per-copy loads of the support for linear classes sorted by shifted price.

    ``kap`` is ascending with ``kap[0] == 0``, so the first class always
    passes.  Class h passes iff the demand D_h poured before the level
    reaches kappa_h is below 1; the loads cover the classes up to the last
    passing one, every later class carries 0.  The demand is counted in
    ``unit``; where a fill w / (2b) of the support passes the float range the
    scan repeats in units of 2**-128, a power-of-two scaling.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # sums past the first failing class may overflow; the scan never reads them
        fill = (w * (0.5 * unit) / b).cumsum()
        demand = (fill[:-1] * (kap[1:] - kap[:-1])).cumsum()
    # demand is nondecreasing, so the first failing class is found by bisection
    h = int(demand.searchsorted(unit))
    if fill[h] == math.inf and unit == 1.0:
        return _scan_linear(kap, b, w, 2.0 ** -128)
    rest = (unit - (demand[h - 1] if h else 0.0)) / fill[h]
    return float(kap[h] + rest), ((kap[h] - kap[:h + 1]) + rest) / (2.0 * b[:h + 1])


def _level(kap, b, p, w):
    """Level lam where sum w * ginv(lam - kap) reaches 1, and the support's per-copy loads.

    ``kap`` holds shifted prices in ascending order, ``kap[0] == 0``, and
    every weight is >= 1.  Class i alone carries w_i >= 1 once the level
    reaches kappa_i + b_i(1+p_i), so no class priced above the least such
    level is in the support; one priced at it is probed, as that sum may
    round down to its price.  Below that the last class h of the support
    is found by bisection over the breakpoint demands; classes tied with
    the cheapest one pass without a probe.  The last interval is solved by
    Newton from above in fill units (module docstring); it starts at the
    least of z = 1, the next breakpoint and the point where the tied classes
    of exponent P alone pour the rest of the unit, and stops once the demand
    is <= 1 or a step no longer lowers both z and the demand.
    """
    curve = b * (1.0 + p)
    scale = 1.0 / curve
    root = 1.0 / p
    top = int(kap.searchsorted((kap + curve).min(), "right"))
    h = int(kap.searchsorted(0.0, "right")) - 1
    fail, poured = top, 0.0
    while fail - h > 1:
        m = (h + fail) // 2
        demand = float((w[:m] * ((kap[m] - kap[:m]) * scale[:m]) ** root[:m]).sum())
        if demand < 1.0:
            h, poured = m, demand
        else:
            fail = m
    n = h + 1
    d, s, r, w = kap[h] - kap[:n], scale[:n], root[:n], w[:n]
    tied = d == 0.0
    big_p = float(p[:n].max())
    unit = float((curve[:n] - d).min())
    if not unit > 0.0:
        # the support search let through a class whose offset rounds past
        # its curve; a tied class still fills one copy at its own curve
        unit = float(curve[:n][tied].min())
    ds, su = d * s, unit * s
    # the demand is >= 1 at each bound; tied classes of exponent P carry
    # z * su**(1/P) per copy
    z = 1.0
    if n < kap.size:
        z = min(z, (float(kap[n] - kap[h]) / unit) ** (1.0 / big_p))
    lead = tied & (p[:n] == big_p)
    lin = float((w * lead) @ su ** (1.0 / big_p))
    if lin > 0.0:
        z = min(z, (1.0 - poured) / lin)
    w_root = w * r
    step_z, f = z, math.inf
    while True:
        fill = step_z ** big_p * su
        g = ds + fill
        x_step = g ** r
        f_step = float(w @ x_step) - 1.0
        if not f_step < f:
            break
        z, x, f = step_z, x_step, f_step
        if f <= 0.0:
            break
        # the slope term fill / g is <= 1; g is 0 only where fill underflows,
        # and such a class adds no slope
        step_z = z - f * z / (big_p * float(w_root @ (x * (fill / np.maximum(g, _TINY)))))
        if not 0.0 < step_z < z:
            break
    return float(kap[h] + unit * z ** big_p), x


def _solve_classes(kap, b, p, w):
    """Relaxation over classes sorted by price.

    Returns (lam, per-copy loads of the support, objective); the support is
    the first ``len(loads)`` classes.
    """
    if kap.size == 0:
        raise ValueError("no available resource can carry the demand")
    shift = kap[0]
    # every p is >= 1, so the classes are linear iff the largest p is 1
    if p.max() == 1.0:
        lam, x = _scan_linear(kap - shift, b, w)
    else:
        lam, x = _level(kap - shift, b, p, w)
    n = x.size
    obj = float(w[:n] @ (b[:n] * x ** (1.0 + p[:n]) + kap[:n] * x))
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
    price lies strictly below the returned marginal level.  Each copy is
    one class of weight 1.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (instance.q,):
        raise ValueError(f"kappa must have length {instance.q}, got {kappa.shape}")
    mask = np.ones(instance.q, bool) if available is None else _copy_mask(instance, available)
    if np.any(~np.isfinite(kappa[mask])) or np.any(kappa[mask] < 0.0):
        raise ValueError("kappa must be finite and >= 0 on available copies")
    idx = np.flatnonzero(mask)
    sel = idx[_stable_argsort(kappa[idx])]
    lam, x_s, obj = _solve_classes(kappa[sel], instance.copy_b[sel], instance.copy_p[sel],
                                   np.ones(sel.size))
    x = np.zeros(instance.q)
    x[sel[:x_s.size]] = x_s
    support = frozenset(np.flatnonzero(x > 0.0).tolist())
    return DualResult(lam=float(lam), support=support, x=x, bound=obj, h=len(support))


def _node_classes(instance: Instance):
    """The 2 * n_groups classes of a node relaxation, sorted by price once per search.

    Class g < n_groups holds the copies of group g already switched on,
    priced at 0; class n_groups + j the free copies of the group with the
    j-th smallest fixed cost (ties in group order), priced at that cost.
    Returns (order, slot, price, b, p): the groups in fee order, and per
    class its place in the flattened loads of ``_node_relaxation``.
    """
    n = len(instance.groups)
    order = np.argsort(instance.group_fixed_costs, kind="stable")
    group = np.concatenate((np.arange(n), order))
    slot = np.concatenate((np.arange(n), n + order))
    price = np.concatenate((np.zeros(n), instance.group_fixed_costs[order]))
    return order, slot, price, instance.group_b[group], instance.group_p[group]


def _node_relaxation(instance: Instance, classes, on_counts, off_counts):
    """Priced relaxation of a node over the ``classes`` of ``_node_classes(instance)``.

    The ``on_counts[g]`` copies of group g that are on are already paid
    for: priced at 0, their fixed costs added to the bound.  Its free
    copies, neither on nor off, are priced at the group's fixed cost.
    Returns (lam, loads, bound): ``loads[0, g]`` is the load on each on
    copy of group g, ``loads[1, g]`` the load on each of its free copies.
    """
    order, slot, price, b, p = classes
    on = np.asarray(on_counts, dtype=np.intp)
    free = instance.group_multiplicities - on - off_counts
    weights = np.concatenate((on, free[order]))
    live = weights.nonzero()[0]
    lam, x, obj = _solve_classes(price[live], b[live], p[live], weights[live])
    loads = np.zeros(2 * on.size)
    loads[slot[live[:x.size]]] = x
    return lam, loads.reshape(2, on.size), obj + float(instance.group_fixed_costs @ on)


def continuous_relaxation_bound(instance: Instance, fixed_on=(), fixed_off=()) -> DualResult:
    """Node lower bound: activation charges already committed plus priced free copies.

    Copies in ``fixed_on`` are paid for (price 0, their c added to the bound),
    copies in ``fixed_off`` are excluded, and every remaining free copy is
    priced at its own fixed cost.  Only the number of copies per group in
    each set matters.  The bound is monotone in both sets, and at the root
    (both empty) it equals the Lagrangean dual optimum.
    """
    on_mask = _copy_mask(instance, fixed_on)
    off_mask = _copy_mask(instance, fixed_off)
    if (on_mask & off_mask).any():
        raise ValueError(f"copies fixed both on and off: {np.flatnonzero(on_mask & off_mask)}")
    group = instance.copy_group
    n_groups = len(instance.groups)
    lam, loads, bound = _node_relaxation(
        instance, _node_classes(instance), np.bincount(group[on_mask], minlength=n_groups),
        np.bincount(group[off_mask], minlength=n_groups))
    x = np.where(on_mask, loads[0, group], np.where(off_mask, 0.0, loads[1, group]))
    support = frozenset(np.flatnonzero(x > 0.0).tolist())
    return DualResult(lam=float(lam), support=support, x=x, bound=bound, h=len(support))
