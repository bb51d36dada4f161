"""Lower bounds from continuous relaxations, solved over sorted weighted classes.

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
ties included.  ``_level``, the kernel of the priced relaxation for every
exponent, finds the last class h of the support by bisection (``_last_below``,
one pass per probe: D_m sums powers of the offsets kappa_m - kappa_i, which
no prefix sum carries from one m to the next), then solves the last interval
by Newton in z, where lam = kappa_h + u z^P:

* P is the largest exponent in the support.  With d_i = kappa_h - kappa_i,
  class i carries ((d_i + u z^P) / (b_i(1+p_i)))^(1/p_i) per copy, a power
  P/p_i >= 1 of the P-norm of (d_i^(1/P), u^(1/P) z), so the demand is convex
  and increasing in z.  Newton started where the demand is >= 1 moves down
  onto the root and crosses it only by rounding; it needs no bracket.
* u, the fill unit, is the least b_i(1+p_i) - d_i over the support.  At z = 1
  one copy of some class carries a full unit on its own and no copy carries
  more.  So z stays in [0, 1], nothing overflows, and the loads are read
  from z^P u / (b_i(1+p_i)), which stays in range where a tiny u makes
  lam - kappa_h underflow.  A class tied with h carries z^(P/p_i)
  (u / (b_i(1+p_i)))^(1/p_i) per copy, formed without its x^p, which can
  pass below the float range where x does not.

With linear latencies (P = 1) the demand is linear in z, so Newton reaches
the root in one step, up to rounding.  Together with the sort that is
O(n log n) per bound.  The loads are built from the offsets kappa_h - kappa_i
and the fill, not from lam, so they keep their precision where lam dwarfs
them.

Pricing every copy at its fee, kappa_i = c_i, gives the paper's root bound
(``ordering_algorithm(instance, instance.copy_fixed_cost)``), which equals
the best Lagrangean dual bound, attained at multipliers equal to the fixed
costs.  It leaves a wide gap, so branch and bound prices its nodes by the
tighter perspective bound (``_node_relaxation``, the one place that rule is
written).  There a group is at most two classes, its copies already on and
its free copies, laid out by ``_node_classes`` in an order sorted once per
search, so a node costs O(n log n) at most (below).  Copies already on are
paid for and carry their true latency.  A free copy is priced by the
convex envelope h of c 1[x>0] + b x^(p+1) on [0, 1].  With
theta = max(1, (p b / c)^(1/(p+1))) and t = 1/theta, h is linear with slope
s up to t and the true cost beyond: s = c theta (1+p)/p when theta > 1 (the
tangent from the origin), s = c + b and t = 1 when theta = 1, s = t = 0
when c = 0.  Copies already on are classes with s = t = 0 and no fee.
Minimizing h(x) - lam x, a free copy carries 0 below lam = s and at s jumps
onto its unshifted curve ginv(lam) = (lam / (b(1+p)))^(1/p) >= t.

The classes are sorted by s, ties in group order, and scanned with
cumulative tie semantics: when the level reaches s_k every earlier class in
sort order has made its full jump, ties included, so the demand D(s_k+) is
nondecreasing in k and the first class k with D(s_k+) >= 1 settles the
level.  The w copies of a class on its curve carry s_k^(1/p) w g1, with
g1 = (b(1+p))^(-1/p) the load of one copy at level 1, so D(s_k+) is the sum
over the E distinct exponents P of s_k^(1/P) times the prefix sum of the
fills w g1 of exponent P: E passes give it at every k and one
``searchsorted`` finds k.  Where E exceeds the n.bit_length() probes of a
bisection over k, ``_last_below`` probes D(s_m+) instead, one pass each, so
a node costs O(n min(E, log n)).  The fills are counted in unit 1, and again
in units of 2^-128 only where their sum overflows.  If the classes before k
already pour 1 just below s_k, lam lies inside that interval, on their
curves as if priced at 0: ``kkt._zero_price_split`` of the fill sums per
exponent the settle pass holds at k - 1.  Otherwise lam = s_k and class k
carries the rest of the unit.
Loading only the last of several tied classes, or counting a tie as active
only strictly above its slope, breaks that monotonicity and gives wrong
optima on partition embeddings, where every class ties at s = W.

The bound is the Lagrangean value L(lam) = lam + sum w min_x (h(x) - lam x)
plus the fees of the copies already on, valid at any lam.  It is never below
the priced bound, and it is exact for a node whose free copies each carry 0
or at least their t: then every copy is priced at its true cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kkt import FILL_UNITS, _copy_mask, _zero_price_split
from .model import Instance

_TINY = math.ulp(0.0)


@dataclass(frozen=True, eq=False)
class DualResult:
    """Relaxation optimum: marginal level, support, dense fractions, objective value."""

    lam: float
    support: frozenset
    x: np.ndarray
    bound: float


def _stable_argsort(values):
    return np.argsort(values, kind="stable")


def _last_below(demand, lo, hi):
    """Last class index m in [lo, hi) with demand(m) < 1, and that demand, by bisection.

    ``demand`` is nondecreasing in m and reads 0 at ``lo``, which is not
    probed (it may be -1, before the first class); every m >= ``hi`` is taken
    to fail.  One call of ``demand`` per probe.
    """
    below = 0.0
    while hi - lo > 1:
        m = (lo + hi) // 2
        demand_m = demand(m)
        if demand_m < 1.0:
            lo, below = m, demand_m
        else:
            hi = m
    return lo, below


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
    with np.errstate(over="ignore"):
        # a price near the float max reaches +inf, which bounds nothing
        top = int(kap.searchsorted((kap + curve).min(), "right"))
    h, poured = _last_below(
        lambda m: float((w[:m] * ((kap[m] - kap[:m]) * scale[:m]) ** root[:m]).sum()),
        int(kap.searchsorted(0.0, "right")) - 1, top)
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
    # a tied class carries z**(P/p) (u/(b(1+p)))**(1/p) per copy, formed
    # without its x**p, which can pass below the float range where x does not
    tied_x = np.where(tied, unit ** r * s ** r, 0.0)
    tied_z = big_p * r
    # the demand is >= 1 at each bound; tied classes of exponent P carry
    # z * tied_x per copy
    z = 1.0
    if n < kap.size:
        z = min(z, (float(kap[n] - kap[h]) / unit) ** (1.0 / big_p))
    lin = float((w * (p[:n] == big_p)) @ tied_x)
    if lin > 0.0:
        z = min(z, (1.0 - poured) / lin)
    w_root = w * r
    step_z, f = z, math.inf
    while True:
        fill = step_z ** big_p * su
        g = ds + fill
        x_step = np.where(tied, step_z ** tied_z * tied_x, g ** r)
        f_step = float(w @ x_step) - 1.0
        if not f_step < f:
            break
        z, x, f = step_z, x_step, f_step
        if f <= 0.0:
            break
        # the slope term fill / g is <= 1, and 1 on tied classes; g is 0
        # elsewhere only where fill underflows, and such a class adds no slope
        slope = np.where(tied, 1.0, fill / np.maximum(g, _TINY))
        step_z = z - f * z / (big_p * float(w_root @ (x * slope)))
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
    lam, x = _level(kap - shift, b, p, w)
    n = x.size
    obj = float(w[:n] @ (b[:n] * x ** (1.0 + p[:n]) + kap[:n] * x))
    return lam + shift, x, obj


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
    return DualResult(lam=float(lam), support=support, x=x, bound=obj)


def _envelope(c, b, p):
    """Slope s and end t of the linear piece of the convex envelope of c 1[x>0] + b x**(p+1) on [0, 1].

    The tangent from the origin touches the curve at t = (c / (p b))**(1/(p+1))
    with slope s = c (1+p) / (p t); where that t passes 1 the envelope is the
    chord to x = 1, s = c + b and t = 1.  A fee of 0 gives s = t = 0.  The
    two factors of t are formed apart so that neither c / (p b) nor its
    root leaves the float range.
    """
    with np.errstate(over="ignore"):
        # either factor of t may pass 1 far enough to overflow; t is capped at 1
        t = np.minimum(1.0, (c / p) ** (1.0 / (p + 1.0)) * b ** (-1.0 / (p + 1.0)))
        s = np.where(t < 1.0, c / np.maximum(t, _TINY) * ((1.0 + p) / p), c + b)
    return s, t


def _perspective(s, c, b, p, g1, w, exponents):
    """Level, per-copy loads of the support and Lagrangean bound over classes sorted by slope.

    Class j has envelope slope ``s[j]`` (ascending), fee ``c[j]`` (0 for copies
    already on), latency b x**(p+1), ``g1[j] = (b(1+p))**(-1/p)`` (the load of
    one copy at level 1) and weight ``w[j] >= 1``; ``exponents`` lists every
    distinct p, ascending.  The settling class k is the first whose jump makes
    the cumulative demand D(s_k+) reach 1 (module docstring).  Returns (lam,
    x, bound); the support is the first ``len(x)`` classes, and with a jump
    the last of them is the settling class carrying the rest of the unit.
    """
    n = s.size
    if n == 0:
        raise ValueError("no available resource can carry the demand")
    with np.errstate(over="ignore", invalid="ignore"):
        # products past the settling class may overflow; none is read.  The
        # fills w g1 are counted in unit = 1, and again in units of 2**-128
        # where the one read passes the float range (``kkt.FILL_UNITS``)
        for unit in FILL_UNITS:
            fill = w * unit * g1
            prefix = fill.cumsum()
            # per exponent, the fill sum of the classes before k; per class,
            # the index e of its exponent and the power 1 + p of its curve
            if len(exponents) == 1:
                # the pass below with E = 1 costs 1.5x this scalar form on ladder and partition
                k = int((s ** (1.0 / exponents[0]) * prefix).searchsorted(unit))
                sums, e, power = [prefix[k - 1]], 0, 1.0 + exponents[0]
            elif len(exponents) <= n.bit_length():
                exps = np.array(exponents)
                parts = np.where(p == exps[:, None], fill, 0.0).cumsum(axis=1)
                k = int((s ** (1.0 / exps[:, None]) * parts).sum(axis=0).searchsorted(unit))
                sums, e, power = parts[:, k - 1], exps.searchsorted(p[:k]), 1.0 + p[:k]
            else:
                # a bisection over k takes fewer passes than there are
                # exponents; no class settles at slope 0, where it pours 0
                k = _last_below(lambda m: s[m] ** (1.0 / p[:m + 1]) @ fill[:m + 1] / unit,
                                int(s.searchsorted(0.0, "right")) - 1, n)[0] + 1
                e, power = np.searchsorted(exponents, p[:k]), 1.0 + p[:k]
                sums = np.bincount(e, fill[:k], len(exponents))
            if prefix[min(k, n - 1)] < math.inf:
                break
        if k < n:
            # the loads of the classes before k at lam = s_k
            x = s[k] ** (1.0 / p[:k]) * g1[:k]
            pour = float(w[:k] @ x)
    if k < n and pour < 1.0:
        lam, loads = float(s[k]), np.concatenate((x, [(1.0 - pour) / w[k]]))
    else:
        # the level lies below s_k, where the classes before k all sit on their curves
        d, i, _ = _zero_price_split(exponents, sums, unit)
        lam, x = float((unit / d[i]) ** exponents[i]), unit * g1[:k] / d[e]
        pour, loads = float(w[:k] @ x), x
    return lam, loads, float(w[:k] @ (c[:k] + b[:k] * x ** power)) + lam * (1.0 - pour)


class NodeClasses(NamedTuple):
    """Class layout of the node relaxations of one search (``_node_classes``)."""

    order: np.ndarray   # flattened (on, free) slot of each class, in slope order
    table: np.ndarray   # ``_perspective`` arguments per class, one row each, in slope order
    t: np.ndarray       # per group: least load a free copy carries at its true cost
    exponents: list     # the instance's distinct exponents, ascending


def _node_classes(instance: Instance) -> NodeClasses:
    """The 2 * n_groups classes of a node relaxation, sorted by envelope slope once per search.

    Slot g < n_groups holds the copies of group g already switched on, slot
    n_groups + g its free copies.  On copies have slope 0 and come first;
    ties stay in group order.
    """
    n = len(instance.groups)
    fee, b, p = instance.group_fixed_costs, instance.group_b, instance.group_p
    slope, t = _envelope(fee, b, p)
    zeros = np.zeros(n)
    slope = np.concatenate((zeros, slope))
    order = np.argsort(slope, kind="stable")
    b, p = b[order % n], p[order % n]
    table = np.stack((slope[order], np.concatenate((zeros, fee))[order], b, p,
                      (b * (1.0 + p)) ** (-1.0 / p)))
    return NodeClasses(order, table, t, instance.exponents)


def _node_relaxation(instance: Instance, classes: NodeClasses, on_counts, off_counts):
    """Perspective relaxation of a node over the ``classes`` of ``_node_classes(instance)``.

    The ``on_counts[g]`` copies of group g that are on are already paid
    for: their latency is priced at its true cost and their fixed costs are
    added to the bound.  Its free copies, neither on nor off, are priced by
    their convex envelope.  Returns (lam, loads, bound): ``loads[0, g]`` is
    the load on each on copy of group g, ``loads[1, g]`` the load on each of
    its free copies.
    """
    on = np.asarray(on_counts, dtype=np.intp)
    free = instance.group_multiplicities - on - off_counts
    weights = np.concatenate((on, free))[classes.order]
    live = weights.nonzero()[0]
    lam, x, value = _perspective(*classes.table[:, live], weights[live],
                                  classes.exponents)
    loads = np.zeros(2 * on.size)
    loads[classes.order[live[:x.size]]] = x
    # vdot, unlike @, does not warn where the fees of the on copies overflow
    return lam, loads.reshape(2, on.size), value + float(np.vdot(instance.group_fixed_costs, on))


def continuous_relaxation_bound(instance: Instance, fixed_on=(), fixed_off=()) -> DualResult:
    """Node lower bound: activation charges already committed plus free copies priced by their envelopes.

    Copies in ``fixed_on`` are paid for (their c added to the bound), copies
    in ``fixed_off`` are excluded, and every remaining free copy is priced
    by the convex envelope of its fee plus latency (the perspective bound of
    the search).  Only the number of copies per group in each set matters.
    The bound is monotone in both sets and never below the paper's priced
    bound, ``ordering_algorithm`` with the free copies at their fees.
    """
    on_mask = _copy_mask(instance, fixed_on)
    off_mask = _copy_mask(instance, fixed_off)
    if (on_mask & off_mask).any():
        raise ValueError(f"copies fixed both on and off: {np.flatnonzero(on_mask & off_mask)}")
    group = instance.copy_group
    n_groups = len(instance.groups)
    lam, loads, value = _node_relaxation(
        instance, _node_classes(instance),
        np.bincount(group[on_mask], minlength=n_groups),
        np.bincount(group[off_mask], minlength=n_groups))
    x = np.where(on_mask, loads[0, group], np.where(off_mask, 0.0, loads[1, group]))
    support = frozenset(np.flatnonzero(x > 0.0).tolist())
    return DualResult(lam=float(lam), support=support, x=x, bound=value)
