"""Instance families, dominance validation, the subset-sum reduction, file I/O."""

import math

import numpy as np
import pytest

from latalloc import (
    ConstantLatency,
    Instance,
    InstanceFormatError,
    PowerLatency,
    ResourceGroup,
    generate_base,
    generate_random,
    partition_reduction,
    read_instance,
    solve,
    validate_nondominated,
    write_instance,
)

from conftest import make_instance


class TestBase:
    def test_three(self):
        inst = generate_base(3)
        rows = [(g.fixed_cost, g.latency.b, g.multiplicity) for g in inst.groups]
        assert rows == [(3.0, 1.0, 1), (2.0, 2.0, 1), (1.0, 3.0, 1)]

    def test_single(self):
        inst = generate_base(1)
        assert [(g.fixed_cost, g.latency.b) for g in inst.groups] == [(1.0, 1.0)]

    def test_clean(self):
        assert validate_nondominated(generate_base(5)) == []

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            generate_base(0)
        with pytest.raises(ValueError):
            generate_base(2.5)


class TestRandom:
    def test_deterministic(self):
        a = generate_random(10, seed=42)
        b = generate_random(10, seed=42)
        assert [(g.fixed_cost, g.latency.b, g.multiplicity) for g in a.groups] == \
            [(g.fixed_cost, g.latency.b, g.multiplicity) for g in b.groups]

    def test_copies_sum_to_q(self):
        for s in range(8):
            inst = generate_random(4 + 3 * s, seed=100 + s)
            assert inst.q == 4 + 3 * s

    def test_respects_design_rules(self):
        for s in range(8):
            assert validate_nondominated(generate_random(12, seed=500 + s)) == []

    def test_integer_pairs_in_range(self):
        inst = generate_random(15, seed=7, c_range=(3, 9), b_range=(2, 40))
        for g in inst.groups:
            assert g.fixed_cost == int(g.fixed_cost) and 3 <= g.fixed_cost <= 9
            assert g.latency.b == int(g.latency.b) and 2 <= g.latency.b <= 40

    def test_exponent_forwarded(self):
        inst = generate_random(6, seed=3, exponent=2.0)
        assert inst.shared_exponent == 2.0

    def test_unit_multiplicity_regression(self):
        # restart logic must recover when an early pair boxes the stream in
        for s in range(10):
            inst = generate_random(12, seed=3000 + s, multiplicity_range=(1, 1))
            assert inst.q == 12
            assert all(g.multiplicity == 1 for g in inst.groups)

    def test_impossible_range_raises(self):
        with pytest.raises(ValueError, match="non-dominated"):
            generate_random(10, seed=0, c_range=(1, 2), b_range=(1, 2),
                            multiplicity_range=(1, 1))


class TestValidate:
    def test_domination_reported(self):
        inst = make_instance([(3, 2), (2, 2)])
        msgs = validate_nondominated(inst)
        assert any("dominates" in m for m in msgs)

    def test_total_below_max_fixed_cost(self):
        inst = make_instance([(5, 1), (2, 3)])
        msgs = validate_nondominated(inst)
        assert any("largest fixed cost" in m for m in msgs)

    def test_sort_order(self):
        inst = make_instance([(1, 3), (3, 1)])
        msgs = validate_nondominated(inst)
        assert any("nonincreasing" in m for m in msgs)
        assert any("nondecreasing" in m for m in msgs)

    def test_non_power_short_circuits(self):
        inst = Instance.from_groups([
            ResourceGroup(2.0, ConstantLatency(1.0)),
            ResourceGroup(1.0, PowerLatency(1.0, 1.0)),
        ])
        msgs = validate_nondominated(inst)
        assert len(msgs) == 1 and "ConstantLatency" in msgs[0]


class TestPartition:
    def test_coefficients(self):
        inst = partition_reduction((2, 3, 5, 4))
        W = 14.0
        assert [g.fixed_cost for g in inst.groups] == [2.0, 3.0, 5.0, 4.0]
        for g in inst.groups:
            assert g.latency.b == pytest.approx(W * W / (4.0 * g.fixed_cost), rel=1e-15)

    def test_perfect_split_reaches_weight_total(self):
        # 2 + 5 = 3 + 4 = 7, so the optimum hits W = 14 exactly
        alloc, _ = solve(partition_reduction((2, 3, 5, 4)))
        assert alloc.value == pytest.approx(14.0, abs=1e-9)

    def test_two_singletons(self):
        alloc, _ = solve(partition_reduction((1, 1)))
        assert alloc.value == pytest.approx(2.0, abs=1e-12)

    def test_odd_total_stays_above(self):
        # best subset sums to 3, giving 3 + 25/12
        alloc, _ = solve(partition_reduction((1, 1, 3)))
        assert alloc.value == pytest.approx(61.0 / 12.0, abs=1e-9)
        assert alloc.value > 5.0 + 1e-6

    def test_duplicate_weights_merge(self):
        inst = partition_reduction((1, 1, 3))
        assert [(g.fixed_cost, g.multiplicity) for g in inst.groups] == [(1.0, 2), (3.0, 1)]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            partition_reduction(())
        with pytest.raises(ValueError):
            partition_reduction((2, 0, 1))


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        inst = Instance.from_groups([
            ResourceGroup(0.1 + 0.2, PowerLatency(math.pi, 2.0), 3),
            ResourceGroup(1.0 / 3.0, PowerLatency(1e-7, 2.0)),
        ])
        path = tmp_path / "inst.txt"
        write_instance(inst, path, comments=("scratch", "two groups"))
        back = read_instance(path)
        # 17 significant digits round-trip doubles bit for bit
        assert [(g.fixed_cost, g.latency.b, g.latency.p, g.multiplicity)
                for g in back.groups] == \
            [(g.fixed_cost, g.latency.b, g.latency.p, g.multiplicity)
             for g in inst.groups]
        text = path.read_text()
        assert text.startswith("# scratch\n# two groups\n")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(
            "# leading comment\n\nlatalloc 1\n2 1  # inline\n5 1 1\n4 2 2\n")
        inst = read_instance(path)
        assert inst.q == 3

    def test_mixed_exponent_not_writable(self, tmp_path):
        inst = Instance.from_groups([
            ResourceGroup(2.0, PowerLatency(1.0, 1.0)),
            ResourceGroup(1.0, PowerLatency(1.0, 2.0)),
        ])
        with pytest.raises(ValueError):
            write_instance(inst, tmp_path / "x.txt")

    @pytest.mark.parametrize("body,fragment", [
        ("wrong 1\n1 1\n1 1 1\n", "bad header"),
        ("latalloc 9\n1 1\n1 1 1\n", "bad header"),
        ("latalloc 1\n", "missing"),
        ("latalloc 1\n2 1\n1 1 1\n", "declared 2 groups"),
        ("latalloc 1\n1 1\n1 1\n", "expected '<c> <b> <multiplicity>'"),
        ("latalloc 1\n1 1\n1 oops 1\n", "line 3"),
        ("latalloc 1\n1 1\n-1 1 1\n", "invalid resource"),
        ("latalloc 1\n0 1\n", "group count"),
    ])
    def test_malformed_files(self, tmp_path, body, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(InstanceFormatError, match=fragment):
            read_instance(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(InstanceFormatError, match="empty file"):
            read_instance(path)
