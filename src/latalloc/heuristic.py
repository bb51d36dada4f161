"""Primal heuristic seeded by the search's own root relaxation.

The support of the perspective relaxation that bounds the search's root
node is an excellent activation guess; greedy single-copy removals and
additions from there land on a local optimum.  The plain walk removes a
copy of the group with the dearest fee c, the power walk one of the dearest
stand-alone cost c + b, and both add one of the cheapest fee.  The removal
keys descend into opposite corners of the landscape - cheap-activation sets
with shared load versus a few fast resources paid for up front - so both
walks run from the root seed, and the best prefix of the stand-alone-cost
order is a third endpoint as it is.  Trials are priced by
``kkt._counts_pricer``, which forms no split; each distinct endpoint is
solved once by ``_counts_solve``, and the first cheapest by that value wins.

Each key orders the groups once per run, ties in group order: a lane.  A
walk keeps the position of each lane's first group that can move its way
(a copy on to drop, a copy off to add), which is the lane's proposal.  An
accepted move changes one group, so only that group can become movable,
pulling a head back to it, or stop being movable, sending the head forward
from where it was; a round is little Python work beyond the pricing.  A trial
changes the walk's float counts in place and is undone on rejection, so no
counts array is copied or cast per trial.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kkt import _counts_pricer, _counts_solve, _counts_to_dense
from .model import Allocation, Instance
from .relax import _node_classes, _node_relaxation


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
    walk terminates.  ``lanes[-1]`` proposes the removal and ``lanes[+1]``
    the addition: each its first group with a copy to move.

    The walk keeps, per direction, the position of that group; an accepted
    move changes one group, so each head moves back to it or scans forward
    from where it was.  A trial changes the float counts in place and a
    rejected one is undone.  ``price`` values each trial.  Returns the
    endpoint as (float counts, value).
    """
    counts, value = start
    counts = np.array(counts, dtype=float)
    held = counts.astype(np.intp)
    # room[step][g]: the copies of group g that a move by step can switch
    room = {-1: held.tolist(), +1: (instance.group_multiplicities - held).tolist()}
    heads = {step: _first_movable(lanes[step], room[step], 0) for step in (-1, +1)}
    on = sum(room[-1])
    improved = True
    while improved:
        improved = False
        for step in (-1, +1):
            if (step < 0 and on <= 1) or heads[step] == len(lanes[step].order):
                continue
            g = lanes[step].order[heads[step]]
            counts[g] += step
            v = price(counts)
            if not v < value:
                counts[g] -= step
                continue
            value, improved, on = v, True, on + step
            if accepted_values is not None:
                accepted_values.append(value)
            room[-1][g] += step
            room[+1][g] -= step
            for way, lane in lanes.items():
                movable, pos = room[way][g] > 0, lane.place[g]
                if movable and pos < heads[way]:
                    heads[way] = pos
                elif not movable and pos == heads[way]:
                    heads[way] = _first_movable(lane, room[way], pos + 1)
    return counts, value


def _root_seed(instance):
    """Counts of the root perspective relaxation's support: each loaded group with every copy on."""
    none = np.zeros(len(instance.groups), dtype=np.intp)
    loads = _node_relaxation(instance, _node_classes(instance), none, none)[1]
    return np.where(loads[1] > 0.0, instance.group_multiplicities, 0)


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

    The plain walk and the power walk start from the root relaxation's
    support; with the best stand-alone-cost prefix they give three
    endpoints, and the first cheapest by ``_counts_solve``, in that order,
    is kept.  ``accepted_values``, if given, collects the priced value after
    every accepted move, walk after walk.
    """
    c = instance.group_fixed_costs
    with np.errstate(over="ignore"):
        # a stand-alone cost past the float range is +inf: removed first
        standalone = c + instance.group_b
    cheapest, price, seed = _lane(c), _counts_pricer(instance), _root_seed(instance)
    root_start = (seed, price(seed))
    ends = [_walk(instance, price, {-1: _lane(-key), +1: cheapest}, root_start,
                  accepted_values)[0] for key in (c, standalone)]
    ends.append(_standalone_prefix_seed(instance, price, standalone)[0])
    # a repeated endpoint is solved once; the first cheapest stays first
    distinct = {end.tobytes(): end for end in (counts.astype(np.intp) for counts in ends)}
    solved = {key: _counts_solve(instance, end) for key, end in distinct.items()}
    best = min(solved, key=lambda key: solved[key][2])
    x = _counts_to_dense(instance, distinct[best], solved[best][1])
    return Allocation.from_fractions(instance, x)
