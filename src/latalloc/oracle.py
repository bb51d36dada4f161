"""Slow, independent reference solvers used to validate the fast paths.

The exhaustive oracle enumerates activation counts per group (copy identity
never matters) and solves each pattern by its own bisection on the marginal
level (``restricted_split``), sharing no code with ``kkt``.  The numeric
relaxation oracles minimize the priced objective and the perspective
(convex-envelope) node objective by projected gradient on the simplex,
sharing neither the sort, the level kernels nor the envelope formula with
the fast relaxation code.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Allocation, Instance

# Exhaustive enumeration guard.
BRUTE_FORCE_MAX_Q = 20
PG_MAX_ITERS = 200000


def restricted_split(instance: Instance, counts):
    """Level, per-group loads and value of the best split over ``counts[g]`` copies per group.

    At level lam each active copy of group g carries (lam / (b(1+p)))**(1/p);
    the level where the copies carry the unit is bisected in Python floats
    from [0, least b(1+p)], where one copy alone carries the whole unit,
    until the midpoint stops moving.  The loads are read at the upper end.
    """
    active = [(g, k, grp.latency.b * (1.0 + grp.latency.p), 1.0 / grp.latency.p)
              for g, (k, grp) in enumerate(zip(counts, instance.groups)) if k > 0]
    if not active:
        raise ValueError("active set must be nonempty")
    lo, hi = 0.0, min(curve for _, _, curve, _ in active)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if sum(k * (mid / curve) ** r for _, k, curve, r in active) < 1.0:
            lo = mid
        else:
            hi = mid
    loads = [0.0] * len(instance.groups)
    value = 0.0
    for g, k, curve, r in active:
        grp = instance.groups[g]
        loads[g] = (hi / curve) ** r
        value += k * (grp.fixed_cost + grp.latency.b * loads[g] ** (1.0 + grp.latency.p))
    return hi, loads, value


def brute_force_optimum(instance: Instance) -> Allocation:
    """Global optimum by enumerating every per-group activation count vector.

    Patterns are visited in lexicographic count order and each is priced by
    ``restricted_split``, so ties resolve to the pattern seen first.  Guarded
    to q <= 20.
    """
    if instance.q > BRUTE_FORCE_MAX_Q:
        raise ValueError(f"brute force is guarded to q <= {BRUTE_FORCE_MAX_Q}, got {instance.q}")
    if instance.has_constant:
        raise ValueError("brute force covers power instances; use solve_constant_latency")
    best_value = None
    best = None
    for counts in itertools.product(*(range(m + 1) for m in instance.multiplicities)):
        if not any(counts):
            continue
        _, loads, value = restricted_split(instance, counts)
        if best_value is None or value < best_value:
            best_value = value
            best = (counts, loads)
    counts, loads = best
    # the first counts[g] copies of each group g carry its load
    x = [loads[g] if i < k else 0.0
         for g, (k, grp) in enumerate(zip(counts, instance.groups)) for i in range(grp.multiplicity)]
    return Allocation.from_fractions(instance, x)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the standard simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, v.size + 1)
    rho = np.max(j[u - css / j > 0.0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _minimize_on_simplex(grad, lip, size):
    """Projected gradient with constant step 1/``lip`` from the simplex centre.

    Iterates until the point stops moving (or PG_MAX_ITERS); ``grad`` maps a
    point to the objective's gradient, ``lip`` bounds its Lipschitz constant.
    """
    step = 1.0 / max(lip, 1e-12)
    x = np.full(size, 1.0 / size)
    for _ in range(PG_MAX_ITERS):
        x_next = project_simplex(x - step * grad(x))
        if float(np.abs(x_next - x).max()) < 1e-15:
            return x_next
        x = x_next
    return x


def numeric_relaxation(instance: Instance, kappa) -> float:
    """Priced-relaxation optimum min sum b_i x_i**(p+1) + kappa_i x_i by projected gradient.

    Constant step 1/L with L the largest gradient Lipschitz constant on
    [0, 1], iterated until the point stops moving.  Deliberately shares no
    logic with the ordering-based solver.
    """
    if instance.has_constant:
        raise ValueError("numeric relaxation covers power instances")
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (instance.q,):
        raise ValueError(f"kappa must have length {instance.q}, got {kappa.shape}")
    b = instance.copy_b
    p = instance.copy_p
    x = _minimize_on_simplex(lambda x: b * (1.0 + p) * x ** p + kappa,
                             float((b * p * (1.0 + p)).max()), instance.q)
    return float((b * x ** (1.0 + p) + kappa * x).sum())


def numeric_perspective(instance: Instance, fixed_on=(), fixed_off=()) -> float:
    """Perspective node bound by projected gradient over the copies not fixed off.

    A copy in ``fixed_on`` costs b x**(p+1) plus its fee, paid up front; a
    free copy costs the convex envelope of c 1[x>0] + b x**(p+1) on [0, 1]:
    with theta = max(1, (p b / c)**(1/(p+1))) it is linear with slope
    c theta + b theta**-p up to x = 1/theta and c + b x**(p+1) beyond (just
    b x**(p+1) when c = 0).  The envelope is continuously differentiable
    with the same Lipschitz bound as the curve, so the step rule of
    ``numeric_relaxation`` applies.  Shares no logic with ``relax``.
    """
    if instance.has_constant:
        raise ValueError("numeric relaxation covers power instances")
    on = np.zeros(instance.q, dtype=bool)
    on[list(fixed_on)] = True
    keep = np.ones(instance.q, dtype=bool)
    keep[list(fixed_off)] = False
    if (on & ~keep).any():
        raise ValueError("copies fixed both on and off")
    b, p, c = instance.copy_b[keep], instance.copy_p[keep], instance.copy_fixed_cost[keep]
    free = ~on[keep] & (c > 0.0)
    theta = np.ones(b.size)
    theta[free] = np.maximum(1.0, (p[free] * b[free] / c[free]) ** (1.0 / (p[free] + 1.0)))
    slope = c * theta + b * theta ** -p
    # where the linear piece ends; with theta = 1 it covers all of [0, 1]
    end = np.where(free, np.where(theta > 1.0, 1.0 / theta, np.inf), 0.0)

    def grad(x):
        return np.where(x < end, slope, b * (1.0 + p) * x ** p)

    x = _minimize_on_simplex(grad, float((b * p * (1.0 + p)).max()), b.size)
    cost = np.where(x < end, slope * x, np.where(free, c, 0.0) + b * x ** (1.0 + p))
    paid = float(instance.copy_fixed_cost[on].sum())
    return float(cost.sum()) + paid
