"""Restricted solves over a fixed active set, identical-copy and constant fast paths."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from latalloc.kkt import _counts_pricer, _counts_solve, _zero_price_split
from latalloc.model import MAX_EXPONENT
from latalloc.oracle import restricted_split

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

    def test_overflowing_slopes_split_finitely(self):
        # 1/(2b) of the two cheap copies sum past the float range; the split
        # follows the ratio of their slopes, 1/3e-309 : 1/4e-309 = 4 : 3
        inst = Instance.from_groups([
            ResourceGroup(1.0, PowerLatency(3e-309, 1.0)),
            ResourceGroup(2.0, PowerLatency(4e-309, 1.0)),
            ResourceGroup(3.0, PowerLatency(1.0, 1.0)),
        ])
        res = solve_restricted(inst, [0, 1])
        assert res.x == pytest.approx([4.0 / 7.0, 3.0 / 7.0, 0.0], rel=1e-12)
        assert res.value == pytest.approx(3.0, rel=1e-12)
        assert res.lam == pytest.approx(6e-309 * 4.0 / 7.0, rel=1e-9)

    def test_overflowing_copy_count_splits_finitely(self):
        # one copy's 1/(2b) = 5e305 is finite, the fill of 10 000 copies is
        # not; the split counts again in units of 2**-128
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1e-306, 1.0), 10000)])
        res = solve_restricted(inst, range(10000))
        assert res.x.tolist() == pytest.approx([1e-4] * 10000, rel=1e-14, abs=0.0)
        assert res.value == pytest.approx(10000.0, rel=1e-15)
        assert res.lam == pytest.approx(2e-310, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0], ids=["shared", "mixed"])
    def test_unit_chosen_per_count_vector(self, p):
        # the fills of every copy sum past the float range, the one copy of
        # b = 1e300 does not: its fill 5e-301 is counted in unit 1, where in
        # units of 2**-128 it would read 0
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1e-306, 1.0), 10000),
                                     ResourceGroup(0.0, PowerLatency(1e300, 1.0), 1),
                                     ResourceGroup(1.0, PowerLatency(1.0, p), 1)])
        counts = np.array([0, 1, 0])
        lam, x_groups, value = _counts_solve(inst, counts)
        assert (x_groups.tolist(), value) == ([0.0, 1.0, 0.0], 1e300)
        assert lam == pytest.approx(2e300, rel=1e-15)
        res = solve_restricted(inst, [10000])
        assert (res.x[10000], res.value) == (1.0, 1e300)
        assert _counts_pricer(inst)(counts) == 1e300

    def test_level_below_the_float_range(self):
        # 10 000 active copies of p = 100: the level 101 * 1e-400 underflows,
        # yet each copy carries 1e-4
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1.0, 100.0), 10000)])
        res = solve_restricted(inst, range(10000))
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        assert res.x.tolist() == pytest.approx([1e-4] * 10000, rel=1e-12)
        assert res.value == pytest.approx(10000.0, rel=1e-12)

    def test_empty_active_set_rejected(self, ladder3):
        with pytest.raises(ValueError):
            solve_restricted(ladder3, [])

    def test_copy_index_out_of_range_rejected(self, ladder3):
        # an index past the intp range raises ValueError, as in the
        # relaxations, not numpy's OverflowError
        for bad in ([-1], [0, 3], [2**70]):
            with pytest.raises(ValueError, match="out of range"):
                solve_restricted(ladder3, bad)

    def test_constant_family_rejected(self):
        inst = Instance.from_groups([
            ResourceGroup(1.0, ConstantLatency(1.0)),
            ResourceGroup(2.0, PowerLatency(1.0, 1.0)),
        ])
        with pytest.raises(ValueError):
            solve_restricted(inst, [0, 1])

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-6.0, 4.0), st.floats(1.0, 3.0),
                              st.integers(0, 10_000)), min_size=1, max_size=6,
                    unique_by=lambda row: (row[0], pow(10.0, row[1]), row[2])))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_oracle(self, rows):
        # up to six exponents, each group its own; the oracle bisects the
        # level in Python floats and shares no code with kkt
        counts = np.array([k for *_, k in rows])
        assume(counts.any())
        inst = Instance.from_groups([ResourceGroup(c, PowerLatency(10.0 ** e, p), max(k, 1))
                                     for c, e, p, k in rows])
        lam, x_groups, value = _counts_solve(inst, counts)
        assert value == pytest.approx(restricted_split(inst, counts)[2], rel=1e-12, abs=0.0)
        x = np.where(inst.copy_pos < counts[inst.copy_group], x_groups[inst.copy_group], 0.0)
        assert_kkt(inst, x, lam)

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


class TestCountsPricer:
    """``_counts_pricer`` values a count vector as ``_counts_solve`` does, up to rounding."""

    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.booleans(),
           st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-100.0, 100.0),
                              st.integers(1, 30)), min_size=2, max_size=8),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_counts_solve(self, p, mixed, groups, data):
        # ``mixed`` draws each group's exponent on its own
        exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0])
        inst = Instance.from_groups([
            ResourceGroup(c, PowerLatency(10.0 ** e, data.draw(exponents) if mixed else p), m)
            for c, e, m in groups])
        counts = np.array([data.draw(st.integers(0, m)) for m in inst.multiplicities])
        assume(counts.any())
        assert _counts_pricer(inst)(counts) == pytest.approx(
            _counts_solve(inst, counts)[2], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("counts", [[10000, 2], [10000, 0], [5000, 1], [1, 1], [1, 0],
                                        [0, 2], [0, 1], [10000, 0, 1], [10000, 2, 3],
                                        [1, 0, 3], [0, 0, 1]])
    def test_overflowing_fill_sums(self, counts):
        # 1/(2b) is 5e305 and 1.7e308: 10 000 copies of the first, or both
        # copies of the second, sum past the float range, one copy does not.
        # Rows of three counts add a p = 2 group
        groups = [ResourceGroup(1.0, PowerLatency(1e-306, 1.0), 10000),
                  ResourceGroup(2.0, PowerLatency(3e-309, 1.0), 2),
                  ResourceGroup(3.0, PowerLatency(1.0, 2.0), 3)]
        inst = Instance.from_groups(groups[:len(counts)])
        counts = np.array(counts)
        assert _counts_pricer(inst)(counts) == pytest.approx(
            _counts_solve(inst, counts)[2], rel=1e-14, abs=0.0)

    def test_level_read_off_the_largest_share(self):
        # the three copies of b = 1e300 carry 1e-315 each, far below the
        # normal float range, so their load would fix the level to 8 digits
        inst = Instance.from_groups([ResourceGroup(0.0, PowerLatency(1e300, 1.0), 3),
                                     ResourceGroup(0.0, PowerLatency(1e-15, 1.0), 1)])
        counts = np.array([3, 1])
        assert _counts_pricer(inst)(counts) == pytest.approx(
            _counts_solve(inst, counts)[2], rel=1e-14, abs=0.0)

    def test_largest_exponent(self):
        # at p = 1e6 the level S^-p from the fill sum would carry g1's
        # rounding a million times over; one active copy costs c + b exactly
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(3.0, MAX_EXPONENT), 3),
                                     ResourceGroup(2.0, PowerLatency(0.5, MAX_EXPONENT), 2)])
        price = _counts_pricer(inst)
        assert price(np.array([1, 0])) == 4.0
        assert price(np.array([0, 1])) == 2.5
        for counts in ([2, 0], [1, 1], [3, 2]):
            counts = np.array(counts)
            assert price(counts) == pytest.approx(_counts_solve(inst, counts)[2],
                                                  rel=1e-14, abs=0.0)

    def test_mixed_exponents_take_counts_solve(self):
        # on mixed exponents the pricer splits by the same zero-price split
        # as the restricted solve, so small cases take its value exactly
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(2.0, 1.0), 2),
                                     ResourceGroup(1.5, PowerLatency(3.0, 2.0), 3)])
        price = _counts_pricer(inst)
        for counts in ([1, 0], [0, 3], [2, 1], [1, 3]):
            counts = np.array(counts)
            assert price(counts) == _counts_solve(inst, counts)[2]


class TestZeroPriceSplit:
    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0), st.floats(1e-3, 1e3),
           st.sampled_from([1.0, 2.0 ** -128]))
    def test_one_exponent_is_the_general_case(self, p, other, fill, unit):
        # the early return for one exponent gives what the Newton pass gives
        # beside an exponent with no copies
        assume(p != other)
        d, i, w = _zero_price_split([p, other], [fill * unit, 0.0], unit)
        assert (d.tolist(), i, w) == ([fill * unit, np.inf], 0, 1.0)
        assert _zero_price_split([p], [fill * unit], unit) == ([fill * unit], 0, 1.0)

    @given(st.lists(st.tuples(st.floats(1.0, 3.0), st.floats(1e-3, 1e3)), min_size=2, max_size=6,
                    unique_by=lambda t: t[0]))
    def test_shares_pour_the_unit(self, terms):
        # lam = d_i**-P_i is the level where sum F_P lam**(1/P) reaches 1;
        # the shares F_P / d_P = F_P lam**(1/P) sum to 1, the largest is
        # i's, and the latency sum share_P lam / (1+P) is w lam / (1+P_i)
        exponents, sums = map(list, zip(*sorted(terms)))
        d, i, w = _zero_price_split(exponents, sums, 1.0)
        lam = (1.0 / d[i]) ** exponents[i]
        share = [F / dP for F, dP in zip(sums, d)]
        assert sum(share) == pytest.approx(1.0, abs=1e-14)
        assert share[i] == max(share)
        for P, s in zip(exponents, share):
            assert s == pytest.approx(sum(sums[j] for j in range(len(sums)) if exponents[j] == P)
                                      * lam ** (1.0 / P), rel=1e-12)
        assert w * lam / (1.0 + exponents[i]) == pytest.approx(
            sum(s * lam / (1.0 + P) for P, s in zip(exponents, share)), rel=1e-14)


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

    @pytest.mark.parametrize("fixed_cost, family", [
        (float("nan"), PowerLatency(1.0, 1.0)),
        (float("inf"), PowerLatency(1.0, 1.0)),
        (-1.0, PowerLatency(1.0, 1.0)),
        (1.0, None),
    ], ids=["nan-fee", "inf-fee", "negative-fee", "no-family"])
    def test_invalid_group(self, fixed_cost, family):
        # checked as ResourceGroup(fixed_cost, family, q) checks them; a NaN
        # or infinite fee once returned (5, nan) and (1, inf)
        with pytest.raises(ValueError):
            solve_identical(fixed_cost, family, 5)

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
