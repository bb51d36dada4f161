"""Primal heuristic: the three seeded walks and their improvement traces."""

import pytest

from latalloc import generate_random, primal_heuristic, solve
from latalloc import ConstantLatency, Instance, ResourceGroup
from latalloc import continuous_relaxation_bound
from latalloc.heuristic import _dual_seed, _standalone_prefix_seed, _walk
from latalloc.kkt import _counts_solve

from conftest import make_instance, random_corpus


def _relaxation_start(inst):
    seed = _dual_seed(inst)
    _, x, v = _counts_solve(inst, seed)
    return seed, v, x


def _plain_walk(inst, accepted_values=None):
    """Endpoint (counts, value, x_groups) of the plain-key walk from the relaxation seed."""
    return _walk(inst, (inst.group_fixed_costs,), _relaxation_start(inst), accepted_values)


def _walk_values(inst):
    """Endpoint values of the plain, power-from-relaxation and power-from-prefix walks."""
    c, b, p = inst.group_fixed_costs, inst.group_b, inst.group_p
    power_keys = (c + b, c + b ** (1.0 / (p + 1.0)), c)
    return [_plain_walk(inst)[1],
            _walk(inst, power_keys, _relaxation_start(inst))[1],
            _walk(inst, power_keys, _standalone_prefix_seed(inst, c + b))[1]]


def test_frozen_walk_trace(ladder3):
    # seed is all three resources at 72/11; dropping c=3 gives 21/5, dropping
    # c=2 gives 4, and no further move improves
    acc = []
    counts, value, _ = _plain_walk(ladder3, acc)
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


def test_constant_family_rejected():
    inst = Instance.from_groups([ResourceGroup(1.0, ConstantLatency(2.0))])
    with pytest.raises(ValueError):
        primal_heuristic(inst)
