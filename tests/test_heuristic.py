"""Primal heuristic: the two walks from the root relaxation seed, the prefix seed and their traces."""

import numpy as np
import pytest

from latalloc import generate_base, generate_random, primal_heuristic, solve
from latalloc import ConstantLatency, Instance, PowerLatency, ResourceGroup
from latalloc import Allocation, continuous_relaxation_bound, partition_reduction
from latalloc import heuristic
from latalloc.heuristic import _lane, _root_seed, _standalone_prefix_seed, _walk
from latalloc.kkt import _counts_pricer, _counts_solve, _counts_to_dense

from conftest import make_instance, random_corpus


def _relaxation_start(inst):
    seed = _root_seed(inst)
    return seed, _counts_pricer(inst)(seed)


def _keyed_walk(inst, price, keys, start, accepted_values=None):
    """``_walk`` with the lanes of ``keys`` = (removal key, addition key)."""
    removal, addition = keys
    return _walk(inst, price, {-1: _lane(-removal), +1: _lane(addition)}, start, accepted_values)


def _plain_keys(inst):
    c = inst.group_fixed_costs
    return c, c


def _power_keys(inst):
    c = inst.group_fixed_costs
    with np.errstate(over="ignore"):
        return c + inst.group_b, c


def _plain_walk(inst, accepted_values=None):
    """Endpoint (counts, value) of the plain-key walk from the relaxation seed."""
    return _keyed_walk(inst, _counts_pricer(inst), _plain_keys(inst),
                       _relaxation_start(inst), accepted_values)


def _walks(inst):
    """(keys, start) of the plain and the power walk, both from the relaxation seed."""
    return [(_plain_keys(inst), _relaxation_start(inst)),
            (_power_keys(inst), _relaxation_start(inst))]


def _walk_values(inst):
    """Endpoint values of the plain and the power walk, then the prefix seed's value."""
    price = _counts_pricer(inst)
    prefix = _standalone_prefix_seed(inst, price, inst.group_fixed_costs + inst.group_b)
    return [*(_keyed_walk(inst, price, keys, start)[1] for keys, start in _walks(inst)), prefix[1]]


def test_frozen_walk_trace(ladder3):
    # the root perspective loads c=3 and c=1 (1/3 and 2/3), so the seed is
    # those two at 19/4; dropping c=3 gives 4, and no further move improves
    assert _root_seed(ladder3).tolist() == [1, 0, 1]
    acc = []
    counts, value = _plain_walk(ladder3, acc)
    assert acc == pytest.approx([4.0], abs=1e-12)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert list(counts) == [0, 0, 1]
    # the full heuristic collects walk after walk, and both walks start at
    # the seed; the prefix (c=3 alone) ties at 4 and comes last
    acc = []
    a = primal_heuristic(ladder3, accepted_values=acc)
    assert acc == pytest.approx([4.0, 4.0], abs=1e-12)
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
    inst = generate_random(5, seed=2018)
    alloc, _ = solve(inst)
    assert primal_heuristic(inst).value == pytest.approx(alloc.value, rel=1e-12)
    assert _plain_walk(inst)[1] > alloc.value + 1.0  # the plain key genuinely misses here


@pytest.mark.parametrize("q, seed, optimum, walk", [
    pytest.param(3, 2023, 54.0, 0, id="plain"),
    pytest.param(8, 2176, 41.5, 1, id="power-from-relaxation"),
    pytest.param(6, 2025, 137.0, 2, id="prefix"),
])
def test_each_walk_is_needed(q, seed, optimum, walk):
    # on each instance exactly one walk, or the prefix seed, reaches the
    # optimum, so dropping it would change the heuristic's answer
    inst = generate_random(q, seed=seed)
    alloc, _ = solve(inst)
    assert alloc.value == pytest.approx(optimum, rel=1e-12)
    assert primal_heuristic(inst).value == pytest.approx(optimum, rel=1e-12)
    reached = [v <= optimum * (1.0 + 1e-12) for v in _walk_values(inst)]
    assert reached == [w == walk for w in range(3)]


def test_constant_family_rejected():
    inst = Instance.from_groups([ResourceGroup(1.0, ConstantLatency(2.0))])
    with pytest.raises(ValueError):
        primal_heuristic(inst)


def _reference_walk(inst, keys, start, price=None):
    """A walk that masks and argmins its keys every round.

    ``keys`` = (removal key, addition key).  Each proposes one group: the
    largest key among groups with a copy on (removal), the smallest among
    groups with a copy off (addition), ties to the lowest group.  ``price``
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
        for step, key in zip((-1, +1), keys):
            movable = np.flatnonzero(counts > 0 if step < 0 else counts < mult)
            if (step < 0 and counts.sum() <= 1) or not movable.size:
                continue
            trial = counts.copy()
            trial[movable[np.argmin(step * key[movable])]] += step
            trials.append(trial.tolist())
            v = price(trial)
            if v < value:
                counts, value, improved = trial, v, True
                accepted.append(value)
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


def _copy_seed(inst):
    """Counts of the per-copy support of the root perspective relaxation."""
    support = sorted(continuous_relaxation_bound(inst).support)
    return np.bincount(inst.copy_group[support], minlength=len(inst.groups))


def _reference_heuristic(inst):
    """``primal_heuristic`` with every trial priced by ``_counts_solve``, seeded per copy."""
    c, b = inst.group_fixed_costs, inst.group_b
    counts = np.zeros(len(inst.groups), dtype=np.intp)
    prefix = None
    for g in np.argsort(c + b, kind="stable"):
        for _ in range(inst.groups[g].multiplicity):
            counts[g] += 1
            v = _counts_solve(inst, counts)[2]
            if prefix is None or v < prefix[1]:
                prefix = (counts.copy(), v)
    seed = _copy_seed(inst)
    relaxation_start = (seed, _counts_solve(inst, seed)[2])
    ends = [_reference_walk(inst, keys, relaxation_start)[2]
            for keys in (_plain_keys(inst), _power_keys(inst))]
    counts = min([*ends, prefix], key=lambda end: end[1])[0]
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
    # A's stand-alone cost c + b passes the float range, so A is the dearest
    # removal: it is removed first and tried once, and no addition proposes
    # it while B (the cheapest fee) has a copy off.  From (0, 2, 0) both
    # lanes propose B; the removal ties the value, so it is rejected, and the
    # next trial is the addition, not B's removal again
    inst = make_instance([(1.7e308, 1e307, 2), (1, 2, 3), (5, 0.5, 2)])
    price = _counts_pricer(inst)
    keys = _power_keys(inst)
    assert keys[0][0] == np.inf
    counts = np.array([2, 1, 2])
    trials = _walk_trials(inst, keys, (counts, price(counts)))
    assert trials[0] == [1, 1, 2]
    assert [t[0] for t in trials] == [1, 1] + [0] * (len(trials) - 2)
    assert trials == _reference_walk(inst, keys, (counts, price(counts)))[0]
    counts = np.array([0, 2, 0])
    assert price(counts) == price(np.array([0, 1, 0])) == 3.0
    assert _walk_trials(inst, keys, (counts, price(counts))) == [[0, 1, 0], [0, 3, 0]]


def test_repeated_endpoint_is_solved_once(ladder3, monkeypatch):
    # both walks end at c=1 alone and the prefix at c=3 alone, a tie at 4:
    # two distinct endpoints take two solves, and the first cheapest is kept
    calls = []

    def counting(inst, counts):
        calls.append(counts.tolist())
        return _counts_solve(inst, counts)

    monkeypatch.setattr(heuristic, "_counts_solve", counting)
    a = primal_heuristic(ladder3)
    assert calls == [[0, 0, 1], [1, 0, 0]]
    assert a.active == frozenset({2})


def test_class_seed_matches_per_copy_support():
    rng = np.random.Generator(np.random.PCG64(9700))
    embeddings = [partition_reduction(rng.integers(1, 20, int(rng.integers(3, 8))).tolist())
                  for _ in range(50)]
    zero_fees = [make_instance([(0, b, m) for b, m in zip(rng.uniform(1, 100, size),
                                                           rng.integers(1, 6, size))])
                 for size in rng.integers(1, 6, 30)]
    mixed_fees = make_instance([(0, 3, 2), (0, 1, 4), (2, 0.5, 3), (2, 0.2, 1)])
    big = make_instance([(1, 2, 3000), (40, 1, 2), (0.5, 90, 3)])
    for inst in [*random_corpus(60, 2, 40, 9800), *random_corpus(20, 3, 30, 9900, exponent=2.0),
                 *_multiplicity_instances(100, 9950), *embeddings, *zero_fees, mixed_fees, big]:
        assert _root_seed(inst).tolist() == _copy_seed(inst).tolist()


def test_heuristic_matches_reference_bit_for_bit():
    # ties between walk endpoints decide the winner on partition embeddings
    rng = np.random.Generator(np.random.PCG64(9300))
    embeddings = [partition_reduction(rng.integers(1, 20, int(rng.integers(3, 8))).tolist())
                  for _ in range(50)]
    # multiplicities up to 30 at p = 2
    many_copies = generate_random(43, seed=7215, multiplicity_range=(1, 30), exponent=2.0)
    for inst in [*_multiplicity_instances(150, 9200), *embeddings, many_copies]:
        a, ref = primal_heuristic(inst), _reference_heuristic(inst)
        assert a.value == ref.value
        assert a.x.tobytes() == ref.x.tobytes()


def _equivalence_cases():
    """(id, instance, extra starts as counts) for the lane walk against ``_reference_walk``."""
    rng = np.random.Generator(np.random.PCG64(9400))
    # c ties twice, c + b five ways
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
