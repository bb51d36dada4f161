"""Priced-relaxation solver (sorted prefix search) and the node bound built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latalloc.relax as relax
from latalloc import (
    Instance,
    PowerLatency,
    ResourceGroup,
    continuous_relaxation_bound,
    numeric_relaxation,
    ordering_algorithm,
    solve,
)

from conftest import assert_kkt, make_instance, random_corpus, run_isolated


class TestOrderingAlgorithm:
    def test_three_linear_resources_frozen(self):
        # prices (1,2,3) against slopes (3,2,1): level 38/11, split (9/22, 4/11, 5/22)
        inst = make_instance([(9, 3), (8, 2), (7, 1)])
        res = ordering_algorithm(inst, np.array([1.0, 2.0, 3.0]))
        assert res.lam == pytest.approx(38.0 / 11.0, abs=1e-12)
        assert res.x == pytest.approx([9.0 / 22.0, 4.0 / 11.0, 5.0 / 22.0], abs=1e-12)
        assert res.bound == pytest.approx(29.0 / 11.0, abs=1e-12)
        assert res.support == frozenset({0, 1, 2})
        assert res.h == 3

    def test_large_price_excluded(self):
        inst = make_instance([(1, 1), (1, 1)])
        res = ordering_algorithm(inst, np.array([0.0, 10.0]))
        assert res.lam == pytest.approx(2.0, abs=1e-12)
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert res.support == frozenset({0})

    def test_zero_prices_split_evenly(self):
        inst = make_instance([(5, 1, 2)])
        res = ordering_algorithm(inst, np.zeros(2))
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert res.x == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_equal_prices_never_split_across_the_level(self):
        # both kappa=1 resources must enter together even though one would cover demand
        inst = make_instance([(1, 1), (1, 1), (1, 5)])
        res = ordering_algorithm(inst, np.array([1.0, 1.0, 5.0]))
        assert res.support >= {0, 1}
        assert res.x[0] > 0 and res.x[1] > 0
        assert_kkt(inst, res.x, res.lam, kappa=[1.0, 1.0, 5.0])

    def test_single_sort_call(self, monkeypatch):
        calls = []
        orig = relax._stable_argsort

        def counting(values):
            calls.append(1)
            return orig(values)

        monkeypatch.setattr(relax, "_stable_argsort", counting)
        inst = make_instance([(1, 1), (2, 2), (3, 3), (4, 4)])
        ordering_algorithm(inst, np.array([3.0, 1.0, 2.0, 0.5]))
        assert len(calls) == 1

    def test_restricted_availability(self):
        inst = make_instance([(1, 1), (1, 1), (1, 1)])
        res = ordering_algorithm(inst, np.zeros(3), available=[1])
        assert res.x == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_validation(self):
        inst = make_instance([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            ordering_algorithm(inst, np.array([1.0]))
        with pytest.raises(ValueError):
            ordering_algorithm(inst, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            ordering_algorithm(inst, np.array([1.0, np.inf]))

    def test_mixed_exponents(self):
        inst = make_instance([(1, 2), (1, 3)], exponent=1.0)
        kap = np.array([0.3, 0.1])
        res = ordering_algorithm(inst, kap)
        assert_kkt(inst, res.x, res.lam, kappa=kap)

    @given(seed=st.integers(0, 10_000),
           exponents=st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=7, max_size=7),
           offset=st.sampled_from([0.0, 2.0 ** 40]))
    @settings(max_examples=60, deadline=None)
    def test_window_and_kkt_random(self, seed, exponents, offset):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(1, 8))
        inst = Instance.from_groups([
            ResourceGroup(0.0, PowerLatency(float(rng.uniform(0.2, 9.0)) + 0.001 * i,
                                            exponents[i]))
            for i in range(n)
        ])
        # multiples of 1/8: duplicated prices exercise ties, and adding the
        # offset stays exact
        kap = np.round(rng.uniform(0.0, 3.0, inst.q) * 8.0) / 8.0
        res = ordering_algorithm(inst, kap)
        # a common price offset moves the objective by exactly the offset on
        # the simplex and leaves the split alone
        lifted = ordering_algorithm(inst, kap + offset)
        assert lifted.x == pytest.approx(res.x, abs=1e-9)
        assert lifted.bound == pytest.approx(res.bound + offset, rel=1e-12)
        assert_kkt(inst, res.x, res.lam, kappa=kap)
        assert res.bound == pytest.approx(numeric_relaxation(inst, kap), abs=1e-6)
        # support is exactly the copies priced below the level
        for i in range(inst.q):
            if kap[i] < res.lam - 1e-9:
                assert i in res.support
            if kap[i] > res.lam + 1e-9:
                assert i not in res.support


class TestContinuousRelaxationBound:
    def test_root_bound_below_optimum(self, ladder3):
        root = continuous_relaxation_bound(ladder3)
        alloc, _ = solve(ladder3)
        assert root.bound <= alloc.value + 1e-12
        assert alloc.value == pytest.approx(4.0, abs=1e-12)

    def test_fixing_on_adds_charges(self, ladder3):
        root = continuous_relaxation_bound(ladder3)
        fixed = continuous_relaxation_bound(ladder3, fixed_on=[0])
        assert fixed.bound >= root.bound - 1e-12
        assert fixed.x[0] > 0.0  # a paid copy always carries load

    def test_fixing_off_excludes(self, ladder3):
        res = continuous_relaxation_bound(ladder3, fixed_off=[0, 1])
        assert res.x == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert res.bound == pytest.approx(4.0, abs=1e-12)

    def test_overlap_rejected(self, ladder3):
        with pytest.raises(ValueError):
            continuous_relaxation_bound(ladder3, fixed_on=[0], fixed_off=[0])
        with pytest.raises(ValueError):
            continuous_relaxation_bound(ladder3, fixed_on=[7])

    def test_bounds_monotone_under_fixing(self):
        for inst in random_corpus(15, 3, 9, 620):
            root = continuous_relaxation_bound(inst).bound
            for i in range(min(3, inst.q)):
                assert continuous_relaxation_bound(inst, fixed_on=[i]).bound >= root - 1e-9
                if inst.q > 1:
                    assert continuous_relaxation_bound(inst, fixed_off=[i]).bound >= root - 1e-9

    def test_large_level_returns(self):
        # lam passes 10 000 here, where floats are spaced wider than 1e-12; a
        # bisection stopping on that absolute width never returned
        code = (
            "from latalloc import Instance, PowerLatency, ResourceGroup, "
            "continuous_relaxation_bound\n"
            "inst = Instance.from_groups([ResourceGroup(20000.0, PowerLatency(1.0, 2.0)),\n"
            "                             ResourceGroup(10000.0, PowerLatency(5.0, 2.0))])\n"
            "print(repr(continuous_relaxation_bound(inst).bound))\n"
        )
        proc = run_isolated(["-c", code])
        assert proc.returncode == 0, proc.stderr
        # only the c=10000 group is priced below the level: bound 10000 + 5
        assert float(proc.stdout) == pytest.approx(10005.0, rel=1e-12)

    @pytest.mark.parametrize("rows, bound", [
        # b(1+p) = 2e-17 lies far below the float spacing at price 1
        ([(1.0, 1e-17), (2.0, 3e-17)], 1.0),
        # kappa/(2b) of the second copy overflows; the scan must stop before it
        ([(1.0, 1.0), (1e300, 1e-300)], 2.0),
    ], ids=["tiny-offsets", "overflow-past-support"])
    def test_whole_unit_on_the_cheaper_copy(self, rows, bound):
        res = continuous_relaxation_bound(make_instance(rows))
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert res.bound == pytest.approx(bound, rel=1e-12)
