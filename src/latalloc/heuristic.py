"""Dual-seeded primal heuristic.

The support of the root relaxation (free copies priced at their own fixed
costs) is an excellent activation guess; greedy single-copy removals and
additions from there land on a local optimum.  Which resource to propose is
criterion-driven: the plain rule targets the largest (removal) or smallest
(addition) fixed cost, while the power-latency rule also weighs the
stand-alone cost c + b and the mixed key c + b**(1/(p+1)).  The two rules
descend into opposite corners of the landscape - cheap-activation sets with
shared load versus a few fast resources paid for up front - so for power
instances both walks run, along with a third started from the best prefix
of the stand-alone-cost order, and the cheapest endpoint wins.
"""

from __future__ import annotations

import numpy as np

from .kkt import _counts_solve, _counts_to_dense
from .model import Allocation, Instance
from .relax import ordering_algorithm

STRATEGIES = ("auto", "fixed_cost", "power")


class _Walker:
    """Greedy remove/add local search over per-group activation counts."""

    def __init__(self, instance, keys):
        self.instance = instance
        self.keys = keys
        self.mult = np.asarray(instance.multiplicities, dtype=np.intp)

    def _candidates(self, counts, removing):
        # one candidate per key, deduplicated, strongest key value first
        out = []
        for key in self.keys:
            if removing:
                masked = np.where(counts > 0, key, -np.inf)
                g = int(np.argmax(masked))
                ok = np.isfinite(masked[g])
            else:
                masked = np.where(counts < self.mult, key, np.inf)
                g = int(np.argmin(masked))
                ok = np.isfinite(masked[g])
            if ok and g not in [gg for _, gg in out]:
                out.append((key[g], g))
        out.sort(key=lambda t: -t[0] if removing else t[0])
        return [g for _, g in out]

    def run(self, counts, value, x_groups, accepted_values=None):
        counts = counts.copy()
        improved = True
        while improved:
            improved = False
            if counts.sum() > 1:
                for g in self._candidates(counts, removing=True):
                    trial = counts.copy()
                    trial[g] -= 1
                    _, xg, v = _counts_solve(self.instance, trial)
                    if v < value:
                        counts, value, x_groups = trial, v, xg
                        improved = True
                        if accepted_values is not None:
                            accepted_values.append(value)
                        break
            for g in self._candidates(counts, removing=False):
                trial = counts.copy()
                trial[g] += 1
                _, xg, v = _counts_solve(self.instance, trial)
                if v < value:
                    counts, value, x_groups = trial, v, xg
                    improved = True
                    if accepted_values is not None:
                        accepted_values.append(value)
                    break
        return counts, value, x_groups


def _dual_seed(instance):
    """Activation counts of the root relaxation support."""
    root = ordering_algorithm(instance, instance.copy_fixed_cost)
    support = np.asarray(sorted(root.support), dtype=np.intp)
    return np.bincount(instance.copy_group[support], minlength=len(instance.groups))


def _standalone_prefix_seed(instance, standalone):
    """Best activation counts over prefixes of the stand-alone-cost order.

    Copies are switched on one at a time, cheapest stand-alone cost
    c + f(1) first; the prefix with the lowest restricted value seeds a
    walk toward solutions built on a few strong resources.
    """
    order = np.argsort(standalone, kind="stable")
    counts = np.zeros(len(instance.groups), dtype=np.intp)
    best = None
    for g in order:
        for _ in range(instance.groups[g].multiplicity):
            counts[g] += 1
            _, xg, v = _counts_solve(instance, counts)
            if best is None or v < best[1]:
                best = (counts.copy(), v, xg)
    return best


def primal_heuristic(instance: Instance, strategy: str = "auto",
                     accepted_values: list | None = None) -> Allocation:
    """Feasible allocation from relaxation-support seeds plus local remove/add moves.

    ``strategy`` picks the proposal criterion.  "fixed_cost" is the always
    applicable rule: drop the active group with the largest fixed cost, add
    the inactive group with the smallest.  "power" (valid only when every
    latency is a power function) additionally ranks groups by c + b and
    c + b**(1/(p+1)), runs the plain walk, the ranked walk, and a walk
    seeded from the best stand-alone-cost prefix, and keeps the cheapest
    result.  "auto" selects "power" when available.  Moves change one copy
    at a time, never empty the active set, and are accepted only on strict
    improvement, so each walk terminates.  ``accepted_values``, if given,
    collects the value after every accepted move.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if strategy == "auto":
        strategy = "power"

    c = instance.group_fixed_costs
    seed = _dual_seed(instance)
    _, seed_x, seed_v = _counts_solve(instance, seed)

    counts, value, x_groups = _Walker(instance, (c,)).run(
        seed, seed_v, seed_x, accepted_values)

    if strategy == "power":
        b = instance.group_b
        p = instance.group_p
        keys = (c + b, c + b ** (1.0 / (p + 1.0)), c)
        for walk_seed in (
            (seed, seed_v, seed_x),
            _standalone_prefix_seed(instance, c + b),
        ):
            cnt, v, xg = _Walker(instance, keys).run(*walk_seed, accepted_values)
            if v < value:
                counts, value, x_groups = cnt, v, xg

    return Allocation.from_fractions(instance, _counts_to_dense(instance, counts, x_groups))
