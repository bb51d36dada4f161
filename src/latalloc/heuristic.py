"""Dual-seeded primal heuristic.

The support of the root relaxation (free copies priced at their own fixed
costs) is an excellent activation guess; greedy single-copy removals and
additions from there land on a local optimum.  Which group a move proposes
is key-driven.  The plain walk removes the dearest fee c and adds the
cheapest.  The power walk tries to remove the dearest stand-alone cost
c + b, then the dearest mixed key c + b**(1/(p+1)), then the dearest fee,
and to add the cheapest fee, then the cheapest mixed key.  The keys descend
into opposite corners of the landscape - cheap-activation sets with shared
load versus a few fast resources paid for up front - so both walks run from
the relaxation seed, and the best prefix of the stand-alone-cost order is a
third endpoint as it is.  Trials are priced by ``kkt._counts_pricer``,
which forms no split; each endpoint is re-solved by ``_counts_solve``, and
the first cheapest by that value wins.

Each key orders the groups once per run, ties in group order: a lane.  A
walk keeps the position of each lane's first group that can move its way
(a copy on to drop, a copy off to add), which is the lane's proposal.  An
accepted move changes one group, so only that group can become movable,
pulling a head back to it, or stop being movable, sending the head forward
from where it was; a round is O(lanes) Python work plus the pricing.  A
trial changes the walk's float counts in place and is undone on rejection,
so no counts array is copied or cast per trial.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kkt import _counts_pricer, _counts_solve, _counts_to_dense
from .model import Allocation, Instance
from .relax import _solve_classes


class _Lane(NamedTuple):
    """One key's groups in the proposal order of one direction, built once per heuristic run."""

    order: list   # groups ascending by the signed key, ties in group order
    place: list   # place[g]: the position of group g in ``order``


def _lane(signed_key):
    """The lane of ``signed_key``: -key proposes the largest key, +key the smallest."""
    order = np.argsort(signed_key, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return _Lane(order.tolist(), place.tolist())


def _first_movable(lane, room, pos):
    """Position of the first group from ``pos`` on in ``lane`` with ``room`` to move."""
    order = lane.order
    while pos < len(order) and not room[order[pos]]:
        pos += 1
    return pos


def _walk(instance, price, lanes, start, accepted_values=None):
    """Greedy single-copy local search from ``start`` = (counts, value).

    A round tries at most one removal (never emptying the active set), then
    at most one addition; a move is taken on strict improvement only, so the
    walk terminates.  ``lanes[step]`` lists the lanes of one direction
    (-1 removes, +1 adds) in the order their proposals are tried; each lane
    proposes its first group with a copy to move, and a group proposed twice
    is tried once.

    The walk keeps, per lane, the position of that group; an accepted move
    changes one group, so each head moves back to it or scans forward from
    where it was.  A trial changes the float counts in place and a rejected
    one is undone.  ``price`` values each trial.  Returns the endpoint as
    (float counts, value).
    """
    counts, value = start
    counts = np.array(counts, dtype=float)
    held = counts.astype(np.intp)
    # room[step][g]: the copies of group g that a move by step can switch
    room = {-1: held.tolist(), +1: (instance.group_multiplicities - held).tolist()}
    heads = {step: [_first_movable(lane, room[step], 0) for lane in lanes[step]]
             for step in (-1, +1)}
    on = sum(room[-1])
    improved = True
    while improved:
        improved = False
        for step in (-1, +1):
            if step < 0 and on <= 1:
                continue
            proposals = [lane.order[head] for lane, head in zip(lanes[step], heads[step])
                         if head < len(lane.order)]
            for g in dict.fromkeys(proposals):
                counts[g] += step
                v = price(counts)
                if v < value:
                    value, improved, on = v, True, on + step
                    if accepted_values is not None:
                        accepted_values.append(value)
                    room[-1][g] += step
                    room[+1][g] -= step
                    for way in (-1, +1):
                        movable = room[way][g] > 0
                        for j, lane in enumerate(lanes[way]):
                            pos = lane.place[g]
                            if movable and pos < heads[way][j]:
                                heads[way][j] = pos
                            elif not movable and pos == heads[way][j]:
                                heads[way][j] = _first_movable(lane, room[way], pos + 1)
                    break
                counts[g] -= step
    return counts, value


def _dual_seed(instance):
    """Root relaxation support over group classes as counts: every copy of a loaded group is on."""
    mult = instance.group_multiplicities
    order = np.argsort(instance.group_fixed_costs, kind="stable")
    x = _solve_classes(instance.group_fixed_costs[order], instance.group_b[order],
                       instance.group_p[order], mult[order])[1]
    on = np.zeros(mult.size, dtype=bool)
    on[order[:x.size]] = x > 0.0
    return np.where(on, mult, 0)


def _standalone_prefix_seed(instance, price, standalone):
    """Best (counts, value) over prefixes of the stand-alone-cost order, switched on copy by copy."""
    order = np.argsort(standalone, kind="stable")
    counts = np.zeros(len(instance.groups))
    best = None
    for g in order:
        for _ in range(instance.groups[g].multiplicity):
            counts[g] += 1
            v = price(counts)
            if best is None or v < best[1]:
                best = (counts.copy(), v)
    return best


def primal_heuristic(instance: Instance, accepted_values: list | None = None) -> Allocation:
    """Feasible allocation from two walks of single-copy remove/add moves and a prefix.

    The plain walk (remove the dearest fee c, add the cheapest) and the power
    walk (remove the dearest c + b, c + b**(1/(p+1)), c in that order; add
    the cheapest c, then c + b**(1/(p+1))) start from the relaxation seed,
    and the best stand-alone-cost prefix is the third endpoint; the first
    cheapest by ``_counts_solve``, in that order, is kept.  ``accepted_values``,
    if given, collects the priced value after every accepted move, walk after walk.
    """
    c = instance.group_fixed_costs
    with np.errstate(over="ignore"):
        # a stand-alone cost past the float range is +inf: removed first
        standalone = c + instance.group_b
    mixed = c + instance.group_b ** (1.0 / (instance.group_p + 1.0))
    dearest, cheapest = _lane(-c), _lane(c)
    plain = {-1: (dearest,), +1: (cheapest,)}
    power = {-1: (_lane(-standalone), _lane(-mixed), dearest), +1: (cheapest, _lane(mixed))}
    price = _counts_pricer(instance)
    seed = _dual_seed(instance).astype(float)
    relaxation_start = (seed, price(seed))
    walked = [_walk(instance, price, lanes, relaxation_start, accepted_values)[0]
              for lanes in (plain, power)]
    prefix = _standalone_prefix_seed(instance, price, standalone)[0]
    ends = [counts.astype(np.intp) for counts in (*walked, prefix)]
    solved = [_counts_solve(instance, counts) for counts in ends]
    best = min(range(len(ends)), key=lambda i: solved[i][2])
    x = _counts_to_dense(instance, ends[best], solved[best][1])
    return Allocation.from_fractions(instance, x)
