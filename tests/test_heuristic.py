"""Primal heuristic: the three seeded walks and their improvement traces."""

import numpy as np
import pytest

from latalloc import generate_base, generate_random, primal_heuristic, solve
from latalloc import ConstantLatency, Instance, PowerLatency, ResourceGroup
from latalloc import Allocation, continuous_relaxation_bound, partition_reduction
from latalloc.heuristic import _dual_seed, _lane, _standalone_prefix_seed, _walk
from latalloc.kkt import _counts_pricer, _counts_solve, _counts_to_dense

from conftest import make_instance, random_corpus


def _relaxation_start(inst):
    seed = _dual_seed(inst)
    return seed, _counts_pricer(inst)(seed)


def _keyed_walk(inst, price, keys, start, accepted_values=None):
    """``_walk`` with a lane for each of ``keys`` = (removal keys, addition keys)."""
    removals, additions = keys
    lanes = {-1: [_lane(-key) for key in removals], +1: [_lane(key) for key in additions]}
    return _walk(inst, price, lanes, start, accepted_values)


def _plain_keys(inst):
    c = inst.group_fixed_costs
    return (c,), (c,)


def _power_keys(inst):
    c, b, p = inst.group_fixed_costs, inst.group_b, inst.group_p
    mixed = c + b ** (1.0 / (p + 1.0))
    with np.errstate(over="ignore"):
        return (c + b, mixed, c), (c, mixed)


def _plain_walk(inst, accepted_values=None):
    """Endpoint (counts, value) of the plain-key walk from the relaxation seed."""
    return _keyed_walk(inst, _counts_pricer(inst), _plain_keys(inst),
                       _relaxation_start(inst), accepted_values)


def _walks(inst):
    """(keys, start) of the plain, power-from-relaxation and power-from-prefix walks."""
    c, b = inst.group_fixed_costs, inst.group_b
    return [(_plain_keys(inst), _relaxation_start(inst)),
            (_power_keys(inst), _relaxation_start(inst)),
            (_power_keys(inst), _standalone_prefix_seed(inst, _counts_pricer(inst), c + b))]


def _walk_values(inst):
    """Endpoint values of the plain, power-from-relaxation and power-from-prefix walks."""
    return [_keyed_walk(inst, _counts_pricer(inst), keys, start)[1] for keys, start in _walks(inst)]


def test_frozen_walk_trace(ladder3):
    # seed is all three resources at 72/11; dropping c=3 gives 21/5, dropping
    # c=2 gives 4, and no further move improves
    acc = []
    counts, value = _plain_walk(ladder3, acc)
    assert acc == pytest.approx([4.2, 4.0], abs=1e-12)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert list(counts) == [0, 0, 1]
    # the full heuristic collects walk after walk; the prefix walk starts at
    # the optimum and makes no move
    acc = []
    a = primal_heuristic(ladder3, accepted_values=acc)
    assert acc == pytest.approx([4.2, 4.0, 4.2, 4.0], abs=1e-12)
    assert a.value == pytest.approx(4.0, abs=1e-12)
    assert a.active == frozenset({2})


def test_trace_strictly_decreasing(ladder3):
    for inst in random_corpus(20, 2, 12, 8800):
        acc = []
        _plain_walk(inst, acc)
        assert all(b < a for a, b in zip(acc, acc[1:]))


def test_single_resource():
    inst = make_instance([(2.5, 1.5)])
    a = primal_heuristic(inst)
    assert a.value == pytest.approx(4.0, abs=1e-12)
    assert a.active == frozenset({0})


def test_zero_cost_identical_uses_every_copy():
    inst = make_instance([(0, 2, 5)])
    a = primal_heuristic(inst)
    assert a.active == frozenset(range(5))
    assert a.value == pytest.approx(2.0 / 5.0, abs=1e-12)


def test_never_empty_and_feasible():
    for inst in random_corpus(25, 1, 10, 4400):
        a = primal_heuristic(inst)
        assert len(a.active) >= 1
        assert float(a.x.sum()) == pytest.approx(1.0, abs=1e-9)


def test_sandwich_against_exact_and_bound():
    for inst in random_corpus(25, 2, 20, 5500):
        h = primal_heuristic(inst)
        alloc, _ = solve(inst)
        root = continuous_relaxation_bound(inst)
        slack = 1e-9 * max(1.0, abs(alloc.value))
        assert h.value >= alloc.value - slack
        assert alloc.value >= root.bound - slack


def test_power_walks_reach_singleton_optimum():
    # best solution is the single fastest resource, which the plain walk
    # cannot reach from the cheap-activation seed
    inst = generate_random(12, seed=1001)
    alloc, _ = solve(inst)
    assert primal_heuristic(inst).value == pytest.approx(alloc.value, rel=1e-12)
    assert _plain_walk(inst)[1] > alloc.value + 1.0  # the plain key genuinely misses here


@pytest.mark.parametrize("q, seed, optimum, walk", [
    pytest.param(3, 2023, 54.0, 0, id="plain"),
    pytest.param(9, 2095, 78.5, 1, id="power-from-relaxation"),
    pytest.param(6, 2026, 104.0, 2, id="power-from-prefix"),
])
def test_each_walk_is_needed(q, seed, optimum, walk):
    # on each instance exactly one walk reaches the optimum, so dropping that
    # walk would change the heuristic's answer
    inst = generate_random(q, seed=seed)
    alloc, _ = solve(inst)
    assert alloc.value == pytest.approx(optimum, rel=1e-12)
    assert primal_heuristic(inst).value == pytest.approx(optimum, rel=1e-12)
    reached = [v <= optimum * (1.0 + 1e-12) for v in _walk_values(inst)]
    assert reached == [w == walk for w in range(3)]


def test_mixed_addition_key_is_needed():
    # here only the power walk from the relaxation seed reaches the
    # heuristic's value, and only by an addition that the mixed key
    # c + b**(1/(p+1)) proposes; without that key it stops at 25.74
    inst = generate_random(30, seed=3125)
    price, start = _counts_pricer(inst), _relaxation_start(inst)
    removals, additions = _power_keys(inst)
    value = _keyed_walk(inst, price, (removals, additions), start)[1]
    assert value == pytest.approx(23.410554561717, rel=1e-12)
    assert primal_heuristic(inst).value == pytest.approx(value, rel=1e-12)
    assert min(v for w, v in enumerate(_walk_values(inst)) if w != 1) > value + 1.0
    assert _keyed_walk(inst, price, (removals, additions[:1]), start)[1] > value + 2.0


def test_constant_family_rejected():
    inst = Instance.from_groups([ResourceGroup(1.0, ConstantLatency(2.0))])
    with pytest.raises(ValueError):
        primal_heuristic(inst)


def _reference_walk(inst, keys, start, price=None):
    """A walk that masks and argmins every key every round.

    ``keys`` = (removal keys, addition keys), each in proposal order.  Each
    key proposes one group: the largest key among groups with a copy on
    (removal), the smallest among groups with a copy off (addition), ties to
    the lowest group; a group proposed twice is tried once.  ``price``
    values each trial, by default ``_counts_solve``.  Returns the trial
    counts in order, the accepted values and the endpoint (counts, value).
    """
    if price is None:
        def price(counts):
            return _counts_solve(inst, counts)[2]
    mult = inst.group_multiplicities
    counts, value = start
    trials, accepted = [], []
    improved = True
    while improved:
        improved = False
        for step, step_keys in zip((-1, +1), keys):
            if step < 0 and counts.sum() <= 1:
                continue
            movable = np.flatnonzero(counts > 0 if step < 0 else counts < mult)
            proposals = []
            for key in step_keys:
                if movable.size:
                    g = int(movable[np.argmin(step * key[movable])])
                    if g not in proposals:
                        proposals.append(g)
            for g in proposals:
                trial = counts.copy()
                trial[g] += step
                trials.append(trial.tolist())
                v = price(trial)
                if v < value:
                    counts, value, improved = trial, v, True
                    accepted.append(value)
                    break
    return trials, accepted, (counts, value)


def _walk_trials(inst, keys, start):
    """Trial counts, in order, that ``_walk`` hands to its pricer."""
    trials = []
    price = _counts_pricer(inst)

    def recording(counts):
        trials.append(counts.tolist())
        return price(counts)

    _keyed_walk(inst, recording, keys, start)
    return trials


def _reference_heuristic(inst):
    """``primal_heuristic`` with every trial priced by ``_counts_solve``."""
    c, b = inst.group_fixed_costs, inst.group_b
    counts = np.zeros(len(inst.groups), dtype=np.intp)
    prefix = None
    for g in np.argsort(c + b, kind="stable"):
        for _ in range(inst.groups[g].multiplicity):
            counts[g] += 1
            v = _counts_solve(inst, counts)[2]
            if prefix is None or v < prefix[1]:
                prefix = (counts.copy(), v)
    seed = _dual_seed(inst)
    relaxation_start = (seed, _counts_solve(inst, seed)[2])
    best = None
    for keys, start in ((_plain_keys(inst), relaxation_start),
                        (_power_keys(inst), relaxation_start), (_power_keys(inst), prefix)):
        end = _reference_walk(inst, keys, start)[2]
        if best is None or end[1] < best[1]:
            best = end
    counts = best[0]
    x_groups = _counts_solve(inst, counts)[1]
    return Allocation.from_fractions(inst, _counts_to_dense(inst, counts, x_groups))


def _multiplicity_instances(n, seed):
    """Random instances of 2-6 groups with multiplicities 1-5; p shared or per group in {1, 1.5, 2}."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n):
        size = int(rng.integers(2, 7))
        exps = rng.choice([1.0, 1.5, 2.0], size=1 if rng.random() < 0.5 else size)
        yield Instance.from_groups([
            ResourceGroup(float(rng.uniform(1, 100)),
                          PowerLatency(float(rng.uniform(1, 100)), float(exps[g % exps.size])),
                          int(rng.integers(1, 6)))
            for g in range(size)])


def test_walk_tries_moves_in_reference_order():
    for inst in _multiplicity_instances(200, 9100):
        for keys, start in _walks(inst):
            assert _walk_trials(inst, keys, start) == _reference_walk(inst, keys, start)[0]


def test_proposals_are_tried_in_key_order_once():
    # from (1, 1), c + b proposes the second group (1.31 > 1.25) and the
    # mixed key the first (1.5 > 1.4): c + b is tried first, whatever the
    # values; ranking them by value would try the first group
    inst = make_instance([(1.0, 0.25), (1.3, 0.01)])
    counts = np.array([1, 1])
    start = counts, _counts_pricer(inst)(counts)
    assert _walk_trials(inst, _power_keys(inst), start)[0] == [1, 0]
    # A's stand-alone cost c + b passes the float range, and A is the
    # dearest under every removal key: it is removed first and tried once,
    # and no addition proposes it while B (the cheapest under both addition
    # keys) has a copy off.  From (0, 2, 0) every key proposes B; the
    # removal ties the value, so it is rejected, and the next trial is the
    # addition, not B's removal again
    inst = make_instance([(1.7e308, 1e307, 2), (1, 2, 3), (5, 0.5, 2)])
    price = _counts_pricer(inst)
    keys = _power_keys(inst)
    assert keys[0][0][0] == np.inf
    counts = np.array([2, 1, 2])
    trials = _walk_trials(inst, keys, (counts, price(counts)))
    assert trials[0] == [1, 1, 2]
    assert [t[0] for t in trials] == [1, 1] + [0] * (len(trials) - 2)
    assert trials == _reference_walk(inst, keys, (counts, price(counts)))[0]
    counts = np.array([0, 2, 0])
    assert price(counts) == price(np.array([0, 1, 0])) == 3.0
    assert _walk_trials(inst, keys, (counts, price(counts))) == [[0, 1, 0], [0, 3, 0]]


def test_heuristic_matches_reference_bit_for_bit():
    # ties between walk endpoints decide the winner on partition embeddings
    rng = np.random.Generator(np.random.PCG64(9300))
    embeddings = [partition_reduction(rng.integers(1, 20, int(rng.integers(3, 8))).tolist())
                  for _ in range(50)]
    for inst in [*_multiplicity_instances(150, 9200), *embeddings]:
        a, ref = primal_heuristic(inst), _reference_heuristic(inst)
        assert a.value == ref.value
        assert a.x.tobytes() == ref.x.tobytes()


def _equivalence_cases():
    """(id, instance, extra starts as counts) for the lane walk against ``_reference_walk``."""
    rng = np.random.Generator(np.random.PCG64(9400))
    # c ties twice, c + b five ways, c + sqrt(b) twice
    tied = make_instance([(4, 3, 2), (4, 1, 1), (2, 5, 2), (6, 1, 1), (5, 2, 1), (3, 4, 2)])
    yield "tied-keys", tied, [np.array([2, 1, 0, 1, 1, 0])]
    for s in range(8):
        size = int(rng.integers(3, 9))
        inst = Instance.from_groups([
            ResourceGroup(float(rng.uniform(1, 100)), PowerLatency(float(rng.uniform(1, 100)), 1.0),
                          int(rng.integers(1, 31)))
            for _ in range(size)])
        full = np.where(rng.random(size) < 0.5, inst.group_multiplicities, 0)
        full[0] = inst.group_multiplicities[0]
        yield f"full-multiplicity-{s}", inst, [full, inst.group_multiplicities]
    for s, inst in enumerate(random_corpus(6, 4, 30, 9500)):
        one = np.zeros(len(inst.groups), dtype=np.intp)
        one[s % len(inst.groups)] = 1
        yield f"one-copy-{s}", inst, [one]
    mixed = [inst for inst in _multiplicity_instances(40, 9600) if len(inst.exponents) > 1]
    for s, inst in enumerate(mixed):
        yield f"mixed-exponents-{s}", inst, []
    yield "ladder-220", generate_base(220), [np.ones(220, dtype=np.intp)]


@pytest.mark.parametrize("inst, starts", [pytest.param(inst, starts, id=name)
                                          for name, inst, starts in _equivalence_cases()])
def test_lane_walk_matches_matrix_walk(inst, starts):
    price = _counts_pricer(inst)
    c, b = inst.group_fixed_costs, inst.group_b
    starts = [_relaxation_start(inst), _standalone_prefix_seed(inst, price, c + b),
              *[(counts, price(counts)) for counts in starts]]
    for keys in (_plain_keys(inst), _power_keys(inst)):
        for start in starts:
            acc = []
            counts, value = _keyed_walk(inst, price, keys, start, acc)
            _, ref_acc, (ref_counts, ref_value) = _reference_walk(inst, keys, start, price)
            assert acc == ref_acc
            assert (counts.tolist(), value) == (ref_counts.tolist(), ref_value)
