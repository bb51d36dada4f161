"""Restricted solves over a fixed active set, identical-copy and constant fast paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latalloc import (
    ConstantLatency,
    Instance,
    PowerLatency,
    ResourceGroup,
    solve_constant_latency,
    solve_identical,
    solve_restricted,
)

from conftest import assert_kkt, make_instance, run_isolated


class TestSolveRestricted:
    def test_two_linear_resources_frozen(self, ladder3):
        # active copies 0 and 2: b=(1,3), lam=3/2, x=(3/4, 1/4), value 3+1+3/4
        res = solve_restricted(ladder3, {0, 2})
        assert res.lam == pytest.approx(1.5, abs=1e-12)
        assert res.x == pytest.approx([0.75, 0.0, 0.25], abs=1e-12)
        assert res.value == pytest.approx(4.75, abs=1e-12)

    def test_single_copy(self, ladder3):
        res = solve_restricted(ladder3, [1])
        assert res.x == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
        assert res.value == pytest.approx(2.0 + 2.0, abs=1e-15)

    def test_identical_pair_quadratic(self):
        # two copies of b=1, p=2: lam = 3/4, each carries 1/2, load cost 2*(1/2)^3
        inst = make_instance([(0.5, 1, 2)], exponent=2.0)
        res = solve_restricted(inst, [0, 1])
        assert res.lam == pytest.approx(0.75, abs=1e-12)
        assert res.x == pytest.approx([0.5, 0.5], abs=1e-12)
        assert res.value == pytest.approx(1.0 + 0.25, abs=1e-12)

    def test_mixed_exponents_bisection(self):
        # p=1 and p=2 together have no closed form; marginals must still equalize
        inst = Instance.from_groups([
            ResourceGroup(1.0, PowerLatency(2.0, 1.0)),
            ResourceGroup(1.0, PowerLatency(3.0, 2.0)),
        ])
        res = solve_restricted(inst, [0, 1])
        assert_kkt(inst, res.x, res.lam)
        g0 = inst.groups[0].latency.marginal(res.x[0])
        g1 = inst.groups[1].latency.marginal(res.x[1])
        assert g0 == pytest.approx(g1, abs=1e-9)

    def test_mixed_exponents_large_level_returns(self):
        # lam passes 20 000, where floats are spaced wider than 1e-12; a
        # bisection stopping on that absolute width never returned
        code = (
            "from latalloc import Instance, PowerLatency, ResourceGroup, solve_restricted\n"
            "inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(20000.0, 1.0)),\n"
            "                             ResourceGroup(1.0, PowerLatency(30000.0, 2.0))])\n"
            "res = solve_restricted(inst, [0, 1])\n"
            "print(res.lam, *res.x)\n"
        )
        proc = run_isolated(["-c", code])
        assert proc.returncode == 0, proc.stderr
        lam, x0, x1 = map(float, proc.stdout.split())
        assert x0 + x1 == pytest.approx(1.0, abs=1e-12)
        # both marginals sit at the level
        assert 40000.0 * x0 == pytest.approx(lam, rel=1e-9)
        assert 90000.0 * x1 ** 2 == pytest.approx(lam, rel=1e-9)

    def test_empty_active_set_rejected(self, ladder3):
        with pytest.raises(ValueError):
            solve_restricted(ladder3, [])

    def test_constant_family_rejected(self):
        inst = Instance.from_groups([
            ResourceGroup(1.0, ConstantLatency(1.0)),
            ResourceGroup(2.0, PowerLatency(1.0, 1.0)),
        ])
        with pytest.raises(ValueError):
            solve_restricted(inst, [0, 1])

    @given(st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_feasible_and_stationary(self, rows):
        # distinct b values so groups stay separate
        rows = [(c, b + 0.01 * i) for i, (c, b) in enumerate(rows)]
        inst = make_instance(rows)
        res = solve_restricted(inst, range(inst.q))
        assert_kkt(inst, res.x, res.lam)
        assert res.value >= 0.0


class TestSolveIdentical:
    def test_frozen_interior_minimum(self):
        k, value = solve_identical(0.02, PowerLatency(1.0, 1.0), 10)
        assert k == 7
        assert value == pytest.approx(0.28285714285714286, abs=1e-15)

    def test_high_cost_single_copy(self):
        # c=10 dominates any split: k=1, value c + b
        k, value = solve_identical(10.0, PowerLatency(1.0, 1.0), 8)
        assert k == 1
        assert value == pytest.approx(11.0, abs=1e-15)

    def test_zero_cost_uses_all(self):
        k, value = solve_identical(0.0, PowerLatency(1.0, 1.0), 6)
        assert k == 6
        assert value == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_tie_prefers_smaller_k(self):
        # c = b/2 makes F(1) = F(2) = 1.5 b exactly
        k, value = solve_identical(2.0, PowerLatency(4.0, 1.0), 5)
        assert k == 1
        assert value == pytest.approx(6.0, abs=1e-15)

    def test_matches_scan_random(self):
        # activating j copies costs F(j) = c*j + f(1/j); ties to smaller j
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            c = float(rng.uniform(0.0, 2.0))
            b = float(rng.uniform(0.1, 20.0))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            q = int(rng.integers(1, 60))
            fam = PowerLatency(b, p)
            k, value = solve_identical(c, fam, q)
            best_v, best_j = min((c * j + fam.f(1.0 / j), j) for j in range(1, q + 1))
            assert k == best_j
            assert value == pytest.approx(best_v, rel=1e-12)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            solve_identical(1.0, PowerLatency(1.0, 1.0), 0)

    def test_constant_family_takes_one_copy(self):
        # F(k) = 3 + 2k only grows with k
        assert solve_identical(2.0, ConstantLatency(3.0), 5) == (1, 5.0)


class TestSolveConstantLatency:
    def test_picks_cheapest_total(self):
        inst = Instance.from_groups([
            ResourceGroup(5.0, ConstantLatency(1.0)),
            ResourceGroup(2.0, ConstantLatency(3.0)),
            ResourceGroup(1.0, ConstantLatency(7.0)),
        ])
        a = solve_constant_latency(inst)
        assert a.value == pytest.approx(5.0, abs=1e-15)
        # group 1 wins: totals are 6, 5, 8
        assert inst.copy_group[next(iter(a.active))] == 1
        assert float(a.x.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_tie_lowest_group(self):
        inst = Instance.from_groups([
            ResourceGroup(4.0, ConstantLatency(2.0)),
            ResourceGroup(2.0, ConstantLatency(4.0)),
        ])
        a = solve_constant_latency(inst)
        assert a.value == pytest.approx(6.0, abs=1e-15)
        assert inst.copy_group[next(iter(a.active))] == 0

    def test_rejects_power_families(self, ladder3):
        with pytest.raises(ValueError):
            solve_constant_latency(ladder3)
