"""Reference solvers: exhaustive enumeration and projected-gradient relaxation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latalloc.kkt
from latalloc import (
    ConstantLatency,
    Instance,
    PowerLatency,
    ResourceGroup,
    brute_force_optimum,
    generate_random,
    numeric_relaxation,
    ordering_algorithm,
    solve,
)
from latalloc.oracle import project_simplex, restricted_split

from conftest import make_instance, random_corpus


class TestBruteForce:
    def test_ladder(self, ladder3):
        ref = brute_force_optimum(ladder3)
        assert ref.value == pytest.approx(4.0, abs=1e-12)
        assert ref.active == frozenset({2})

    def test_counts_multiplicities(self):
        # 3 copies of (0.02, 1): all three split the unit evenly,
        # latency 3 * (1/3)**2 beats using fewer (F(1)=1.02, F(2)=0.54)
        ref = brute_force_optimum(make_instance([(0.02, 1, 3)]))
        assert ref.active == frozenset({0, 1, 2})
        assert ref.value == pytest.approx(0.06 + 1.0 / 3.0, abs=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError, match="q <= 20"):
            brute_force_optimum(make_instance([(1, 1, 21)]))

    def test_rejects_constant(self):
        inst = Instance.from_groups([ResourceGroup(1.0, ConstantLatency(1.0))])
        with pytest.raises(ValueError):
            brute_force_optimum(inst)

    def test_shares_no_code_with_kkt(self, monkeypatch):
        # the exactness gate compares the search with this oracle, so an
        # oracle pricing patterns by the restricted solver under test could
        # not catch a mispricing
        corpus = ([generate_random(2 + s % 9, seed=3000 + s) for s in range(10)]
                  + [make_instance([(2.0, 1.0, 2), (1.0, 3.0, 1)], exponent=2.0),
                     Instance.from_groups([ResourceGroup(1.0, PowerLatency(2.0, 1.0), 2),
                                           ResourceGroup(1.5, PowerLatency(3.0, 2.0), 3)])])
        refs = [brute_force_optimum(inst) for inst in corpus]
        optima = [solve(inst)[0].value for inst in corpus]

        def unavailable(*args):
            raise AssertionError("the oracle called into kkt")

        for name in ("_counts_solve", "_counts_pricer", "_counts_to_dense", "_zero_price_split"):
            monkeypatch.setattr(latalloc.kkt, name, unavailable)
        for inst, ref, optimum in zip(corpus, refs, optima):
            alloc = brute_force_optimum(inst)
            assert alloc.value == ref.value
            assert alloc.x.tolist() == ref.x.tolist()
            assert alloc.value == pytest.approx(optimum, rel=1e-12)

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.1, 10.0),
                              st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(0, 5)),
                    min_size=1, max_size=5, unique_by=lambda row: row[:3]))
    @settings(max_examples=100, deadline=None)
    def test_restricted_split_equalizes_marginals(self, rows):
        # every active copy sits at the returned level and the unit is carried
        counts = [k for *_, k in rows]
        assume(any(counts))
        inst = Instance.from_groups([ResourceGroup(c, PowerLatency(b, p), max(k, 1))
                                     for c, b, p, k in rows])
        lam, loads, value = restricted_split(inst, counts)
        assert sum(k * x for k, x in zip(counts, loads)) == pytest.approx(1.0, abs=1e-12)
        for k, x, grp in zip(counts, loads, inst.groups):
            if k:
                assert grp.latency.marginal(x) == pytest.approx(lam, rel=1e-12)
        assert value == pytest.approx(sum(k * (grp.fixed_cost + x * grp.latency.f(x))
                                          for k, x, grp in zip(counts, loads, inst.groups)),
                                      rel=1e-12)


class TestProjectSimplex:
    def test_known_points(self):
        assert project_simplex(np.array([2.0, 0.0])).tolist() == [1.0, 0.0]
        assert project_simplex(np.array([1.0, 1.0])).tolist() == [0.5, 0.5]
        out = project_simplex(np.array([0.0, 0.0, 0.0]))
        assert out.tolist() == pytest.approx([1 / 3] * 3)

    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        assert project_simplex(v) == pytest.approx(v, abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_projection_properties(self, vals):
        v = np.array(vals)
        x = project_simplex(v)
        assert float(x.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(x.min()) >= -1e-12
        # no feasible point is closer than the projection (spot check corners)
        d_proj = float(((x - v) ** 2).sum())
        for k in range(v.size):
            e = np.zeros_like(v)
            e[k] = 1.0
            assert d_proj <= float(((e - v) ** 2).sum()) + 1e-9

    def test_order_preserved(self):
        v = np.array([3.0, 1.0, 2.0])
        x = project_simplex(v)
        assert x[0] >= x[2] >= x[1]


class TestNumericRelaxation:
    def test_matches_ordering_on_ladder(self, ladder3):
        kappa = ladder3.copy_fixed_cost
        fast = ordering_algorithm(ladder3, kappa)
        slow = numeric_relaxation(ladder3, kappa)
        assert slow == pytest.approx(fast.bound, abs=1e-6)

    def test_matches_ordering_random(self):
        for i, inst in enumerate(random_corpus(10, 2, 8, 9100)):
            rng = np.random.Generator(np.random.PCG64(9100 + i))
            kappa = rng.uniform(0.0, 50.0, size=inst.q)
            fast = ordering_algorithm(inst, kappa)
            slow = numeric_relaxation(inst, kappa)
            assert slow == pytest.approx(fast.bound, abs=1e-6)

    def test_zero_prices(self):
        inst = make_instance([(5, 2), (4, 2)])
        # no prices: load splits across equal coefficients, cost 2 * 0.5**2 * 2
        assert numeric_relaxation(inst, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-6)

    def test_higher_exponent(self):
        inst = make_instance([(3, 1), (2, 2)], exponent=2.0)
        kappa = inst.copy_fixed_cost
        fast = ordering_algorithm(inst, kappa)
        assert numeric_relaxation(inst, kappa) == pytest.approx(fast.bound, abs=1e-6)

    def test_bad_kappa_shape(self, ladder3):
        with pytest.raises(ValueError, match="length 3"):
            numeric_relaxation(ladder3, [1.0, 2.0])
