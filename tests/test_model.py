"""Latency families, resource groups, instance containers, allocations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latalloc import (
    Allocation,
    ConstantLatency,
    Instance,
    LatencyFamily,
    PowerLatency,
    ResourceGroup,
    gamma,
)

from conftest import make_instance


class TestPowerLatency:
    def test_value(self):
        f = PowerLatency(3.0, 2.0)
        assert f.f(0.5) == 3.0 * 0.25
        assert f.f(0.0) == 0.0
        assert f.f(1.0) == 3.0

    def test_marginal_frozen(self):
        # g(z) = b (1+p) z^p with b=3, p=1: 0, 3, 6 at z = 0, 0.5, 1
        f = PowerLatency(3.0, 1.0)
        assert f.marginal(0.0) == 0.0
        assert f.marginal(0.5) == 3.0
        assert f.marginal(1.0) == 6.0

    def test_marginal_inverse_frozen(self):
        f = PowerLatency(3.0, 1.0)
        assert f.marginal_inverse(0.0) == 0.0
        assert f.marginal_inverse(3.0) == pytest.approx(0.5, abs=1e-12)
        assert f.marginal_inverse(6.0) == pytest.approx(1.0, abs=1e-12)
        # nonpositive marginals clamp to zero
        assert f.marginal_inverse(-2.0) == 0.0

    def test_marginal_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerLatency(1.0, 1.0).marginal(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLatency(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerLatency(-1.0, 1.0)
        with pytest.raises(ValueError):
            PowerLatency(1.0, 0.5)

    @given(b=st.floats(0.1, 100.0), p=st.floats(1.0, 4.0), z=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_round_trip(self, b, p, z):
        f = PowerLatency(b, p)
        assert f.marginal_inverse(f.marginal(z)) == pytest.approx(z, abs=1e-10)

    @given(b=st.floats(0.1, 50.0), p=st.floats(1.0, 3.0), z=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_marginal_is_derivative_of_total_cost(self, b, p, z):
        # central difference of z*f(z)
        f = PowerLatency(b, p)
        h = 1e-6
        num = ((z + h) * f.f(z + h) - (z - h) * f.f(z - h)) / (2 * h)
        assert f.marginal(z) == pytest.approx(num, rel=1e-4, abs=1e-6)


class TestLatencyFamilyBase:
    def test_every_map_is_abstract(self):
        fam = LatencyFamily()
        for method, arg in ((fam.f, 0.5), (fam.marginal, 0.5), (fam.marginal_inverse, 1.0)):
            with pytest.raises(NotImplementedError):
                method(arg)


class TestConstantLatency:
    def test_value_and_errors(self):
        f = ConstantLatency(2.5)
        assert f.f(0.0) == 2.5
        assert f.f(1.0) == 2.5
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)
        with pytest.raises(ValueError):
            f.marginal(0.5)
        with pytest.raises(ValueError):
            f.marginal_inverse(1.0)


class TestResourceGroup:
    def test_validation(self):
        lat = PowerLatency(1.0, 1.0)
        with pytest.raises(ValueError):
            ResourceGroup(-1.0, lat)
        with pytest.raises(ValueError):
            ResourceGroup(1.0, lat, 0)
        g = ResourceGroup(0.0, lat, 3)
        assert g.multiplicity == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ResourceGroup(bad, PowerLatency(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            PowerLatency(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            PowerLatency(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            ConstantLatency(bad)

    def test_gamma_frozen(self):
        g = ResourceGroup(2.0, PowerLatency(3.0, 1.0))
        assert gamma(g, 0.0) == 0.0
        assert gamma(g, 0.5) == pytest.approx(2.75, abs=1e-15)
        assert gamma(g, 1.0) == 5.0
        with pytest.raises(ValueError):
            gamma(g, 1.5)
        with pytest.raises(ValueError):
            gamma(g, -0.1)


class TestInstance:
    def test_merges_identical_groups(self):
        inst = make_instance([(1, 1), (1, 1), (2, 1)])
        assert len(inst.groups) == 2
        assert inst.q == 3
        merged = [g for g in inst.groups if g.fixed_cost == 1.0][0]
        assert merged.multiplicity == 2

    def test_rejects_duplicate_groups_direct(self):
        lat = PowerLatency(1.0, 1.0)
        with pytest.raises(ValueError):
            Instance((ResourceGroup(1.0, lat), ResourceGroup(1.0, lat)))

    def test_copy_index_arrays(self):
        inst = make_instance([(3, 1, 2), (1, 5, 3)])
        assert inst.q == 5
        assert list(inst.copy_group) == [0, 0, 1, 1, 1]
        assert list(inst.copy_pos) == [0, 1, 0, 1, 2]
        assert list(inst.copy_fixed_cost) == [3, 3, 1, 1, 1]
        assert list(inst.copy_b) == [1, 1, 5, 5, 5]
        assert list(inst.group_offsets) == [0, 2, 5]

    def test_shared_exponent(self):
        assert make_instance([(1, 1), (2, 2)], exponent=2.0).shared_exponent == 2.0
        mixed = Instance.from_groups([
            ResourceGroup(1.0, PowerLatency(1.0, 1.0)),
            ResourceGroup(2.0, PowerLatency(1.0, 2.0)),
        ])
        assert mixed.shared_exponent is None

    def test_constant_flags(self):
        inst = Instance.from_groups([
            ResourceGroup(1.0, ConstantLatency(1.0)),
            ResourceGroup(2.0, PowerLatency(1.0, 1.0)),
        ])
        assert inst.has_constant and not inst.all_constant
        allc = Instance.from_groups([ResourceGroup(1.0, ConstantLatency(1.0))])
        assert allc.all_constant

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Instance.from_groups([])


class TestAllocation:
    def test_from_fractions_value(self, ladder3):
        x = np.zeros(3)
        x[2] = 1.0
        a = Allocation.from_fractions(ladder3, x)
        assert a.value == pytest.approx(4.0, abs=1e-12)
        assert a.active == frozenset({2})

    def test_from_fractions_validation(self, ladder3):
        with pytest.raises(ValueError):
            Allocation.from_fractions(ladder3, np.array([0.5, 0.5]))  # wrong length
        with pytest.raises(ValueError):
            Allocation.from_fractions(ladder3, np.array([0.7, 0.2, 0.2]))  # sums to 1.1
        with pytest.raises(ValueError):
            Allocation.from_fractions(ladder3, np.array([1.2, -0.2, 0.0]))

    def test_x_read_only(self, ladder3):
        a = Allocation.from_fractions(ladder3, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            a.x[0] = 0.5
