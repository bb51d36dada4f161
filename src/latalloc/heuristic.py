"""Dual-seeded primal heuristic.

The support of the root relaxation (free copies priced at their own fixed
costs) is an excellent activation guess; greedy single-copy removals and
additions from there land on a local optimum.  Which group a move proposes
is key-driven: the plain key is the fixed cost c (drop the largest, add the
smallest), while the power keys also weigh the stand-alone cost c + b and
the mixed key c + b**(1/(p+1)).  The keys descend into opposite corners of
the landscape - cheap-activation sets with shared load versus a few fast
resources paid for up front - so three walks run: the plain key and the
power keys from the relaxation seed, and the power keys from the best
prefix of the stand-alone-cost order.  Trials are priced by
``kkt._counts_pricer``, which forms no split; each endpoint is re-solved by
``_counts_solve``, and the first cheapest by that value wins.
"""

from __future__ import annotations

import numpy as np

from .kkt import _counts_pricer, _counts_solve, _counts_to_dense
from .model import Allocation, Instance
from .relax import ordering_algorithm


def _walk(instance, price, keys, start, accepted_values=None):
    """Greedy single-copy local search from ``start`` = (counts, value).

    A round tries at most one removal (never emptying the active set), then
    at most one addition; a move is taken on strict improvement only, so the
    walk terminates.  Each key proposes one group to move: the largest key
    among groups with a copy on (removal) or the smallest among groups with
    a copy off (addition).  The first key to propose a group keeps its
    value, and the proposals are tried by value, ties in key order.
    ``price`` values each trial.  Returns the endpoint as (counts, value).
    """
    mult = instance.group_multiplicities
    # removal ranks by -key, so the strongest proposal is always the minimum
    signed = {step: step * np.stack(keys) for step in (-1, +1)}
    counts, value = start
    improved = True
    while improved:
        improved = False
        for step in (-1, +1):
            if step < 0 and counts.sum() <= 1:
                continue
            masked = np.where(counts > 0 if step < 0 else counts < mult, signed[step], np.inf)
            proposed = masked.argmin(axis=1)
            ranked = {}
            for rank, g in zip(masked.min(axis=1).tolist(), proposed.tolist()):
                if rank < np.inf:
                    ranked.setdefault(g, rank)
            for g in sorted(ranked, key=ranked.get):
                trial = counts.copy()
                trial[g] += step
                v = price(trial)
                if v < value:
                    counts, value, improved = trial, v, True
                    if accepted_values is not None:
                        accepted_values.append(value)
                    break
    return counts, value


def _dual_seed(instance):
    """Activation counts of the root relaxation support."""
    root = ordering_algorithm(instance, instance.copy_fixed_cost)
    support = np.asarray(sorted(root.support), dtype=np.intp)
    return np.bincount(instance.copy_group[support], minlength=len(instance.groups))


def _standalone_prefix_seed(instance, price, standalone):
    """Best (counts, value) over prefixes of the stand-alone-cost order.

    Copies are switched on one at a time, cheapest stand-alone cost
    c + f(1) first; the prefix with the lowest ``price`` seeds a walk
    toward solutions built on a few strong resources.
    """
    order = np.argsort(standalone, kind="stable")
    counts = np.zeros(len(instance.groups), dtype=np.intp)
    best = None
    for g in order:
        for _ in range(instance.groups[g].multiplicity):
            counts[g] += 1
            v = price(counts)
            if best is None or v < best[1]:
                best = (counts.copy(), v)
    return best


def primal_heuristic(instance: Instance, accepted_values: list | None = None) -> Allocation:
    """Feasible allocation from three seeded walks of single-copy remove/add moves.

    The walks are the plain key c from the relaxation seed, the power keys
    (c + b, c + b**(1/(p+1)), c) from the relaxation seed, and the power
    keys from the best stand-alone-cost prefix; the first endpoint cheapest
    by ``_counts_solve`` is kept.  ``accepted_values``, if given, collects
    the priced value after every accepted move, walk after walk.
    """
    c = instance.group_fixed_costs
    b = instance.group_b
    power_keys = (c + b, c + b ** (1.0 / (instance.group_p + 1.0)), c)
    price = _counts_pricer(instance)
    seed = _dual_seed(instance)
    relaxation_start = (seed, price(seed))
    walks = (((c,), relaxation_start),
             (power_keys, relaxation_start),
             (power_keys, _standalone_prefix_seed(instance, price, c + b)))
    ends = [_walk(instance, price, keys, start, accepted_values)[0] for keys, start in walks]
    solved = [_counts_solve(instance, counts) for counts in ends]
    best = min(range(len(ends)), key=lambda i: solved[i][2])
    x = _counts_to_dense(instance, ends[best], solved[best][1])
    return Allocation.from_fractions(instance, x)
