"""Slow, independent reference solvers used to validate the fast paths.

The exhaustive oracle enumerates activation counts per group (copy identity
never matters) and exact-solves each pattern.  The numeric relaxation oracle
minimizes the priced objective by projected gradient on the simplex, sharing
neither the kappa sort nor the prefix scan with the fast relaxation code.
"""

from __future__ import annotations

import itertools

import numpy as np

from .kkt import _counts_solve, _counts_to_dense
from .model import Allocation, Instance

# Exhaustive enumeration guard.
BRUTE_FORCE_MAX_Q = 20
PG_MAX_ITERS = 200000


def brute_force_optimum(instance: Instance) -> Allocation:
    """Global optimum by enumerating every per-group activation count vector.

    Patterns are visited in lexicographic count order and each is priced by
    the restricted exact solver, so ties resolve to the pattern seen first.
    Guarded to q <= 20.
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
        arr = np.asarray(counts, dtype=np.intp)
        _, x_groups, value = _counts_solve(instance, arr)
        if best_value is None or value < best_value:
            best_value = value
            best = (arr, x_groups)
    counts, x_groups = best
    return Allocation.from_fractions(instance, _counts_to_dense(instance, counts, x_groups))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the standard simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, v.size + 1)
    rho = np.max(j[u - css / j > 0.0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


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
    lip = float((b * p * (1.0 + p)).max())
    step = 1.0 / max(lip, 1e-12)
    x = np.full(instance.q, 1.0 / instance.q)
    for _ in range(PG_MAX_ITERS):
        grad = b * (1.0 + p) * x ** p + kappa
        x_next = project_simplex(x - step * grad)
        if float(np.abs(x_next - x).max()) < 1e-15:
            x = x_next
            break
        x = x_next
    return float((b * x ** (1.0 + p) + kappa * x).sum())
