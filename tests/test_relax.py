"""Priced-relaxation solver (level kernel over sorted weighted classes) and the node bounds built on it."""

import itertools

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
    generate_random,
    numeric_perspective,
    numeric_relaxation,
    ordering_algorithm,
    partition_reduction,
    solve,
)

from conftest import (assert_kkt, exactness_instances, make_instance, priced_bound,
                      random_corpus, run_isolated)

# the search's perspective node bound and the paper's priced bound
BOUNDS = (continuous_relaxation_bound, priced_bound)


class TestOrderingAlgorithm:
    def test_three_linear_resources_frozen(self):
        # prices (1,2,3) against slopes (3,2,1): level 38/11, split (9/22, 4/11, 5/22)
        inst = make_instance([(9, 3), (8, 2), (7, 1)])
        res = ordering_algorithm(inst, np.array([1.0, 2.0, 3.0]))
        assert res.lam == pytest.approx(38.0 / 11.0, abs=1e-12)
        assert res.x == pytest.approx([9.0 / 22.0, 4.0 / 11.0, 5.0 / 22.0], abs=1e-12)
        assert res.bound == pytest.approx(29.0 / 11.0, abs=1e-12)
        assert res.support == frozenset({0, 1, 2})
        assert len(res.support) == 3

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
        with pytest.raises(ValueError, match="out of range"):
            ordering_algorithm(inst, np.ones(2), available=[2**70])

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
        with pytest.raises(ValueError, match="out of range"):
            continuous_relaxation_bound(ladder3, fixed_on=[2**70])

    def test_bounds_monotone_under_fixing(self):
        for inst, bound in itertools.product(random_corpus(15, 3, 9, 620), BOUNDS):
            root = bound(inst).bound
            for i in range(min(3, inst.q)):
                assert bound(inst, fixed_on=[i]).bound >= root - 1e-9
                if inst.q > 1:
                    assert bound(inst, fixed_off=[i]).bound >= root - 1e-9

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
        for kind in BOUNDS:
            res = kind(make_instance(rows))
            assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)
            assert res.bound == pytest.approx(bound, rel=1e-12)

    def test_overflowing_price_inside_support(self):
        # kappa/(2b) of the second copy overflows, yet that copy carries 95% of
        # the load; its offset lam - kappa (1.9e-300) vanishes next to lam = 1e299
        # (its envelope is the chord, so both bounds agree)
        for bound in BOUNDS:
            res = bound(make_instance([(0.0, 1e300), (1e299, 1e-300)]))
            assert res.x == pytest.approx([0.05, 0.95], rel=1e-12)
            assert res.lam == pytest.approx(1e299, rel=1e-12)
            # 1e300 * 0.05**2 + 1e-300 * 0.95**2 + 1e299 * 0.95
            assert res.bound == pytest.approx(9.75e298, rel=1e-12)


def _reference_level(kap, b, p, w):
    """Level where sum w ((lam - kap)+ / (b(1+p)))**(1/p) reaches 1, by plain bisection on lam."""
    curve = b * (1.0 + p)
    lo, hi = 0.0, float((kap + curve).min())
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if (w * (np.maximum(mid - kap, 0.0) / curve) ** (1.0 / p)).sum() < 1.0:
            lo = mid
        else:
            hi = mid


def _check_classes(kap, b, p, w, oracle=True):
    """The class kernel against the reference bisection and the projected-gradient oracle."""
    kap, b, p, w = (np.asarray(a, dtype=float) for a in (kap, b, p, w))
    lam, x, obj = relax._solve_classes(kap, b, p, w)
    assert lam == pytest.approx(_reference_level(kap, b, p, w), rel=1e-9)
    # the loads cover a prefix of the classes and fill exactly one unit
    n = x.size
    assert 1 <= n <= kap.size and np.all(x > 0.0)
    assert float(w[:n] @ x) == pytest.approx(1.0, abs=1e-12)
    # every class in the support sits at the level, every class priced below it is in
    marginal = b[:n] * (1.0 + p[:n]) * x ** p[:n] + kap[:n]
    assert marginal == pytest.approx(np.full(n, lam), rel=1e-9)
    assert np.all(kap[n:] >= lam * (1.0 - 1e-9))
    if not oracle:
        return
    # copies of a class are identical, so the oracle sees each class w times;
    # the oracle reads no fixed cost, which here only keeps the groups apart
    inst = Instance.from_groups([ResourceGroup(float(i), PowerLatency(float(b[i]), float(p[i])),
                                               int(w[i])) for i in range(kap.size)])
    assert obj == pytest.approx(numeric_relaxation(inst, np.repeat(kap, w.astype(int))),
                                rel=1e-9)


class TestClassKernel:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), wide=st.booleans(),
           linear=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_classes(self, seed, n, wide, linear):
        # ``linear`` draws p = 1 for every class, the sets the priced root
        # bound solves on linear instances
        rng = np.random.Generator(np.random.PCG64(seed))
        if wide:
            # coefficients and prices over many decades, steep exponents and up
            # to 40 classes, checked against the reference bisection and the
            # demand but not the oracle
            n = int(rng.integers(1, 41))
            kap = np.sort(10.0 ** rng.uniform(-12.0, 3.0, n))
            b = 10.0 ** rng.uniform(-6.0, 4.0, n)
            p = np.ones(n) if linear else rng.choice([1.0, 1.5, 2.0, 3.0, 7.0], n)
            _check_classes(kap, b, p, rng.integers(1, 5, n), oracle=False)
            return
        # multiples of 1/8 make tied prices common
        kap = np.sort(np.round(rng.uniform(0.0, 3.0, n) * 8.0) / 8.0)
        b = rng.uniform(0.2, 9.0, n)
        p = np.ones(n) if linear else rng.choice([1.0, 1.5, 2.0], n)
        _check_classes(kap - kap[0], b, p, rng.integers(1, 5, n))

    @pytest.mark.parametrize("kap, b, p, w", [
        # class 0 alone carries one unit at lam = b(1+p) = 2.5, the next price
        ([0.0, 2.5], [1.0, 3.0], [1.5, 2.0], [1, 2]),
        ([0.0, 3.0, 3.0], [1.0, 1.0, 2.0], [2.0, 1.0, 2.0], [1, 1, 1]),
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1.0, 1.5, 2.0], [2, 1, 3]),
        ([0.0], [2.0], [1.5], [3]),
        ([0.0, 0.01, 0.02, 0.03], [1.0, 1.0, 1.0, 1.0], [2.0, 1.5, 2.0, 1.0], [1, 2, 1, 1]),
        ([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0], [3, 1, 2, 1]),
    ], ids=["root-on-breakpoint", "root-on-tied-breakpoint", "mixed-ties-at-zero",
            "single-class", "all-in-support", "linear-weighted"])
    def test_cases(self, kap, b, p, w):
        _check_classes(kap, b, p, w)

    def test_root_on_breakpoint_is_exact(self):
        lam, x, _ = relax._solve_classes(np.array([0.0, 2.5]), np.array([1.0, 3.0]),
                                         np.array([1.5, 2.0]), np.array([1, 2]))
        assert lam == pytest.approx(2.5, rel=1e-15)
        assert x.tolist() == pytest.approx([1.0], rel=1e-15)

    def test_load_far_below_the_price_spacing(self):
        # the p=50 copy carries 0.336 at a level 1e-22 above its price 1, far
        # below the float spacing there; an absolute level gave it 0.443 and a
        # total load of 1.107
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1.0, 50.0)),
                                     ResourceGroup(2.0, PowerLatency(3.0, 1.0), 2),
                                     ResourceGroup(0.5, PowerLatency(2.0, 9.0))])
        res = priced_bound(inst)
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        assert res.bound == pytest.approx(numeric_relaxation(inst, inst.copy_fixed_cost),
                                          rel=1e-9)
        res = continuous_relaxation_bound(inst)
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        assert res.bound == pytest.approx(numeric_perspective(inst), rel=1e-9)

    def test_curve_below_the_price_spacing(self):
        # 0.5 + b(1+p) rounds to 0.5, the next price: the copies priced there
        # are still in the support and carry 0.25 each
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1e-20, 1.5), 3),
                                     ResourceGroup(0.5, PowerLatency(1.0, 1.0))])
        res = priced_bound(inst)
        assert res.x.tolist() == pytest.approx([0.25] * 4, rel=1e-12)
        assert res.bound == pytest.approx(numeric_relaxation(inst, inst.copy_fixed_cost),
                                          rel=1e-9)
        # the envelope of the p=1.5 copies is their chord, slope 1 + 1e-20,
        # below the other copy's slope sqrt(2): they carry the unit alone
        res = continuous_relaxation_bound(inst)
        assert res.x.tolist() == pytest.approx([1.0 / 3.0] * 3 + [0.0], rel=1e-12)
        assert res.bound == pytest.approx(numeric_perspective(inst), rel=1e-9)

    @pytest.mark.parametrize("groups", [
        [ResourceGroup(1.0, PowerLatency(1e-300, 50.0), 10)],
        [ResourceGroup(1.0, PowerLatency(1e-300, 50.0), 3),
         ResourceGroup(2.0, PowerLatency(1.0, 50.0))],
    ], ids=["level-offset-0", "level-offset-subnormal"])
    def test_level_offset_below_the_float_range(self, groups):
        # the level sits b(1+p) * k**-50 above the price, which underflows to
        # 0 for k = 10 copies and to a subnormal for k = 3; the loads must still
        # fill the unit on the cheap copies
        for bound in BOUNDS:
            res = bound(Instance.from_groups(groups))
            assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
            k = groups[0].multiplicity
            assert res.x[:k].tolist() == pytest.approx([1.0 / k] * k, rel=1e-12)
            assert res.bound == pytest.approx(1.0, rel=1e-12)

    def test_fill_below_the_float_range(self):
        # the second class's fill unit / (b(1+p)) = 2e-300 / 3e300 underflows
        # to 0, so its slope term would read 0 / 0; it carries nothing to
        # rounding, and the two copies of the first class split the unit
        lam, x, _ = relax._solve_classes(np.array([0.0, 0.0]), np.array([1e-300, 1e300]),
                                         np.array([1.0, 2.0]), np.array([2, 1]))
        assert x[0] == pytest.approx(0.5, rel=1e-12)
        assert lam == pytest.approx(1e-300, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_overflowing_group_fill(self, p, request):
        # the two cheap copies fill w/(2b) = 2/6e-309, past the float range;
        # each carries half the unit
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(3e-309, 1.0), 2),
                                     ResourceGroup(2.0, PowerLatency(1.0, p))])
        for bound in BOUNDS:
            res = bound(inst)
            assert res.x.tolist() == pytest.approx([0.5, 0.5, 0.0], rel=1e-12)
            assert res.bound == pytest.approx(1.0, rel=1e-12)
            assert bound(inst, [0, 1]).bound == pytest.approx(2.0, rel=1e-12)
        alloc, stats = solve(inst)
        assert alloc.value == pytest.approx(1.0, rel=1e-12) and stats.status == "optimal"
        request.getfixturevalue("priced_search")
        alloc, stats = solve(inst)
        assert alloc.value == pytest.approx(1.0, rel=1e-12) and stats.status == "optimal"


def _spread(rng, inst, on, off):
    """Copy sets with on[g] and off[g] copies of each group at random positions."""
    fixed_on, fixed_off = [], []
    for g, start in enumerate(inst.group_offsets[:-1]):
        pos = start + rng.permutation(inst.groups[g].multiplicity)
        fixed_on += pos[:on[g]].tolist()
        fixed_off += pos[on[g]:on[g] + off[g]].tolist()
    return fixed_on, fixed_off


def _one_class_per_copy(inst, fixed_on, fixed_off):
    """Per-copy loads and bound of the perspective node relaxation, every copy its own class."""
    on = np.zeros(inst.q, dtype=bool)
    on[fixed_on] = True
    keep = np.ones(inst.q, dtype=bool)
    keep[fixed_off] = False
    slope, _ = relax._envelope(inst.copy_fixed_cost, inst.copy_b, inst.copy_p)
    slope[on] = 0.0
    sel = np.flatnonzero(keep)[np.argsort(slope[keep], kind="stable")]
    b, p = inst.copy_b[sel], inst.copy_p[sel]
    _, x_s, bound = relax._perspective(slope[sel], np.where(on, 0.0, inst.copy_fixed_cost)[sel],
                                       b, p, (b * (1.0 + p)) ** (-1.0 / p), np.ones(sel.size))
    x = np.zeros(inst.q)
    x[sel[:x_s.size]] = x_s
    return x, bound + float(inst.copy_fixed_cost[on].sum())


def test_group_classes_match_one_class_per_copy():
    # the node bound works on per-group counts; pricing every copy as its own
    # class must give the same bound and the same load on each group's on and
    # free copies, wherever inside its group a fixed copy sits (copies of one
    # group tie in slope, so the settling group's load may split unevenly)
    rng = np.random.Generator(np.random.PCG64(66))
    for inst in exactness_instances():
        mult = inst.group_multiplicities
        on = rng.integers(0, mult + 1)
        off = np.minimum(rng.integers(0, mult + 1), mult - on)
        if not np.any(off < mult):
            off[0] -= 1
        group, pos = inst.copy_group, inst.copy_pos
        front = (np.flatnonzero(pos < on[group]).tolist(),
                 np.flatnonzero(pos >= (mult - off)[group]).tolist())
        for fixed_on, fixed_off in (front, _spread(rng, inst, on, off)):
            res = continuous_relaxation_bound(inst, fixed_on, fixed_off)
            x, bound = _one_class_per_copy(inst, fixed_on, fixed_off)
            assert res.bound == pytest.approx(bound, rel=1e-12)
            is_on = np.isin(np.arange(inst.q), fixed_on)
            for part in (is_on, ~is_on):
                assert np.bincount(group[part], res.x[part], mult.size) \
                    == pytest.approx(np.bincount(group[part], x[part], mult.size), abs=1e-12)


class TestPerspectiveBound:
    @pytest.mark.parametrize("c, b, p, s, t", [
        # theta = (p b / c)**(1/(p+1)) = 2: s = c theta (1+p)/p, t = 1/2
        (1.0, 4.0, 1.0, 4.0, 0.5),
        (2.0, 8.0, 2.0, 2.0 * 2.0 * 1.5, 0.5),
        # p b < c: theta = 1, the chord to x = 1, h(1) = c + b = 11
        (10.0, 1.0, 1.0, 11.0, 1.0),
        # no fee: the curve itself
        (0.0, 3.0, 1.5, 0.0, 0.0),
        # c / (p b) = 1e-600 leaves the float range, t = 1e-300 does not
        (1e-300, 1e300, 1.0, 2.0, 1e-300),
        # both factors of t overflow their product
        (1e308, 3e-309, 1.0, 1e308, 1.0),
    ], ids=["theta-2", "theta-2-quadratic", "chord", "no-fee", "tiny-ratio", "huge-ratio"])
    def test_envelope(self, c, b, p, s, t):
        got_s, got_t = relax._envelope(np.array([c]), np.array([b]), np.array([p]))
        assert got_s[0] == pytest.approx(s, rel=1e-12)
        assert got_t[0] == pytest.approx(t, rel=1e-12)

    def test_matches_the_projected_gradient_oracle(self):
        # root and random nodes, mixed multiplicities and exponents
        rng = np.random.Generator(np.random.PCG64(880))
        for s in range(45):
            inst = generate_random(2 + s % 11, seed=8800 + s, multiplicity_range=(1, 3),
                                   exponent=(1.0, 1.5, 2.0)[s % 3])
            for trial in range(3):
                perm = rng.permutation(inst.q)
                n_on = int(rng.integers(0, inst.q)) if trial else 0
                n_off = int(rng.integers(0, inst.q - n_on)) if trial else 0
                on, off = perm[:n_on].tolist(), perm[n_on:n_on + n_off].tolist()
                fast = continuous_relaxation_bound(inst, on, off)
                assert fast.bound == pytest.approx(numeric_perspective(inst, on, off), abs=1e-6)
                assert float(fast.x.sum()) == pytest.approx(1.0, abs=1e-12)
                priced = priced_bound(inst, on, off).bound
                assert fast.bound >= priced - 1e-12 * max(1.0, abs(priced))

    @pytest.mark.parametrize("weights", [(10, 89, 24, 3, 33, 11, 80, 2),
                                         (30, 69, 18, 11, 41, 53, 14, 70)])
    def test_tied_slopes_jump_together(self, weights):
        # every partition copy has envelope slope W, the weight total; at
        # lam = W each class before the settling one carries its full t =
        # 2w/W, the settling one the rest of the unit, later ones nothing,
        # and the bound is W
        inst = partition_reduction(weights)
        res = continuous_relaxation_bound(inst)
        W = float(sum(weights))
        t = 2.0 * np.asarray(weights) / W
        assert res.lam == pytest.approx(W, rel=1e-12)
        assert res.bound == pytest.approx(W, rel=1e-12)
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        full = np.isclose(res.x, t, rtol=1e-12, atol=0.0)
        partial = (res.x > 0.0) & ~full
        assert np.all(res.x[partial] < t[partial]) and partial.sum() <= 1

    def test_many_steep_copies_keep_their_load(self):
        # 10 000 copies of p = 100 each carry 1e-4, whose 100th power is below
        # the float range; the level kernel once read their loads as 0
        inst = Instance.from_groups([ResourceGroup(1.0, PowerLatency(1.0, 100.0), 10000)])
        res = ordering_algorithm(inst, inst.copy_fixed_cost)
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        res = continuous_relaxation_bound(inst)
        assert float(res.x.sum()) == pytest.approx(1.0, abs=1e-12)
        assert res.x.tolist() == pytest.approx([1e-4] * 10000, rel=1e-12)
