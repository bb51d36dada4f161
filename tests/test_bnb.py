"""Branch-and-bound driver: branching schemes, pruning, limits, statistics."""

import io
import math

import numpy as np
import pytest

import latalloc.bnb as bnb
from latalloc import (
    BnbNode,
    SolveOptions,
    SolveStats,
    branch_children,
    brute_force_optimum,
    continuous_relaxation_bound,
    generate_random,
    partition_reduction,
    primal_heuristic,
    solve,
    solve_constant_latency,
    solve_restricted,
)
from latalloc import ConstantLatency, Instance, PowerLatency, ResourceGroup

from conftest import exactness_instances, make_instance, priced_node_relaxation, random_corpus


def _cycled_exponents(inst):
    """``inst`` with the exponents 1, 1.5, 2, 3 given to its groups in turn."""
    return Instance.from_groups([
        ResourceGroup(g.fixed_cost, PowerLatency(g.latency.b, (1.0, 1.5, 2.0, 3.0)[i % 4]),
                      g.multiplicity)
        for i, g in enumerate(inst.groups)])


class TestBranchChildren:
    def test_group_branch_counts(self):
        # group 0 has the larger fixed cost in the first instance and the same
        # one as group 1 in the second (ties go to the lower index): all 3
        # free copies of group 0 get fixed either way
        for rows in ([(5, 1, 3), (1, 2, 2)], [(5, 1, 3), (5, 2, 2)]):
            inst = make_instance(rows)
            node = BnbNode(on_counts=(0, 0), off_counts=(0, 0), lower_bound=0.0, depth=0)
            kids = branch_children(node, inst)
            assert [(k.on_counts[0], k.off_counts[0]) for k in kids] == [
                (3, 0), (2, 1), (1, 2), (0, 3)]
            assert all(k.on_counts[1] == k.off_counts[1] == 0 for k in kids)
            assert all(k.depth == 1 for k in kids)

    @pytest.mark.parametrize("branching", ["nary", "binary"])
    def test_children_hold_fresh_arrays(self, branching):
        inst = make_instance([(5, 1, 3), (1, 2, 2)])
        on, off = np.array([1, 0], dtype=np.intp), np.array([0, 1], dtype=np.intp)
        node = BnbNode(on, off, 0.5, 2)
        kids = branch_children(node, inst, branching=branching)
        # the parent's arrays are untouched ...
        assert node.on_counts is on and node.off_counts is off
        assert on.tolist() == [1, 0] and off.tolist() == [0, 1]
        # ... and every child owns both of its arrays
        arrays = [on, off] + [a for k in kids for a in (k.on_counts, k.off_counts)]
        for i, a in enumerate(arrays):
            assert isinstance(a, np.ndarray) and a.dtype == np.intp
            for other in arrays[i + 1:]:
                assert not np.shares_memory(a, other)
        assert all(k.lower_bound == 0.5 and k.depth == 3 for k in kids)

    def test_binary_branch(self):
        inst = make_instance([(5, 1, 3), (1, 2, 2)])
        node = BnbNode((0, 0), (0, 0), 0.0, 0)
        kids = branch_children(node, inst, branching="binary")
        assert [(k.on_counts[0], k.off_counts[0]) for k in kids] == [(1, 0), (0, 1)]

    def test_partially_fixed_group(self):
        inst = make_instance([(5, 1, 4)])
        node = BnbNode((1,), (1,), 0.0, 2)
        kids = branch_children(node, inst)
        # two copies remain free
        assert [(k.on_counts[0], k.off_counts[0]) for k in kids] == [(3, 1), (2, 2), (1, 3)]

    def test_skips_exhausted_groups(self):
        inst = make_instance([(5, 1, 2), (1, 2, 2)])
        node = BnbNode((2, 0), (0, 0), 0.0, 1)
        kids = branch_children(node, inst)
        # group 0 fully fixed on, so branching moves to group 1
        assert [(k.on_counts[1], k.off_counts[1]) for k in kids] == [(2, 0), (1, 1), (0, 2)]

    def test_bad_mode(self):
        inst = make_instance([(1, 1)])
        with pytest.raises(ValueError):
            branch_children(BnbNode((0,), (0,), 0.0, 0), inst, branching="ternary")


class TestSolve:
    def test_ladder_optimum(self, ladder3):
        alloc, stats = solve(ladder3)
        assert alloc.value == pytest.approx(4.0, abs=1e-12)
        assert alloc.active == frozenset({2})
        assert stats.status == "optimal"
        assert stats.nodes >= 1 and stats.bound_evals >= 1

    def test_single_resource(self):
        alloc, stats = solve(make_instance([(2, 3)]))
        assert alloc.value == pytest.approx(5.0, abs=1e-12)
        assert stats.status == "optimal"

    def test_zero_cost_spreads_everything(self):
        alloc, stats = solve(make_instance([(0, 1, 4)]))
        assert alloc.active == frozenset(range(4))
        assert alloc.value == pytest.approx(0.25, abs=1e-12)

    def test_fees_near_float_max_solve_quietly(self):
        # c + b of the first group and the fees of its two copies pass the
        # float range; the suite turns an overflow warning into an error
        inst = make_instance([(1.7e308, 1e307, 2), (1, 2, 3), (5, 0.5, 2)])
        alloc, stats = solve(inst)
        assert (alloc.value, stats.status) == (3.0, "optimal")
        assert primal_heuristic(inst).value == 3.0
        assert continuous_relaxation_bound(inst).bound == pytest.approx(2.0 * 2.0 ** 0.5,
                                                                        rel=1e-12)
        # two copies of fee 1.7e308 price any split of them at +inf: the
        # value's fee sum overflows
        inst = make_instance([(1.7e308, 1, 1), (1.7e308, 2, 2)], exponent=2.0)
        alloc, stats = solve(inst)
        assert (alloc.value, stats.status) == (1.7e308, "optimal")
        assert primal_heuristic(inst).value == 1.7e308
        assert solve_restricted(inst, [0, 1]).value == math.inf

    def test_branching_modes_agree_in_value(self):
        for inst in random_corpus(15, 2, 10, 6600):
            va, _ = solve(inst)
            vb, _ = solve(inst, SolveOptions(branching="binary"))
            assert va.value == pytest.approx(vb.value, rel=1e-9)

    def test_multiplicity_one_trees_identical(self):
        # with one copy per group both schemes fix a single copy per branch
        for s in range(10):
            inst = generate_random(6 + s, seed=3000 + s, multiplicity_range=(1, 1))
            _, sn = solve(inst)
            _, sb = solve(inst, SolveOptions(branching="binary"))
            assert (sn.nodes, sn.bound_evals) == (sb.nodes, sb.bound_evals)

    def test_group_branching_saves_nodes_with_repeats(self, priced_search):
        # under the priced bound; the perspective bound closes this instance
        # at the root under both branchings
        inst = generate_random(12, seed=4321, multiplicity_range=(2, 4))
        _, sn = solve(inst)
        _, sb = solve(inst, SolveOptions(branching="binary"))
        assert sn.nodes < sb.nodes

    def test_node_limit(self, ladder3):
        alloc, stats = solve(ladder3, SolveOptions(node_limit=1))
        assert stats.status == "node_limit"
        assert stats.bound_evals >= 1
        # the incumbent is still a feasible allocation
        assert float(alloc.x.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_bad_branching_rejected_at_construction(self):
        # a one-group instance closes at the root, so only the constructor can catch it
        with pytest.raises(ValueError, match="ternary"):
            solve(make_instance([(2, 3)]), SolveOptions(branching="ternary"))

    @pytest.mark.parametrize("weights, optimum", [
        # every class ties at envelope slope W; loading only the last tied
        # class at the jump, or testing ties strictly, once gave 260.399
        ((10, 89, 24, 3, 33, 11, 80, 2), 252.0),
        # the root settles on a class carrying 1.1e-16, read as 0 by the
        # close rule; counting it in the support once gave 306.06
        ((30, 69, 18, 11, 41, 53, 14, 70), 306.0),
    ], ids=["tie-at-the-jump", "settling-class-at-zero"])
    @pytest.mark.parametrize("bound", ["perspective", "priced"])
    def test_partition_ties(self, weights, optimum, bound, request):
        if bound == "priced":
            request.getfixturevalue("priced_search")
        alloc, stats = solve(partition_reduction(weights))
        assert stats.status == "optimal"
        assert alloc.value == pytest.approx(optimum, rel=1e-12)

    def test_perspective_exact_and_above_priced_at_every_node(self, monkeypatch):
        # gate-1 corpus, repeat copies, mixed exponents and partition
        # embeddings against enumeration; at every evaluated node the
        # perspective bound is at least the priced one
        rng = np.random.Generator(np.random.PCG64(808))
        corpus = (exactness_instances()
                  + [generate_random(4 + s % 9, seed=4100 + s, multiplicity_range=(2, 4))
                     for s in range(40)]
                  + [_cycled_exponents(generate_random(4 + s % 9, seed=4200 + s,
                                                       multiplicity_range=(1, 4)))
                     for s in range(40)]
                  + [partition_reduction(rng.integers(1, 100, size=2 + s % 7).tolist())
                     for s in range(40)])
        below = []
        evaluate = bnb._node_relaxation

        def both(instance, classes, on, off):
            out = evaluate(instance, classes, on, off)
            priced = priced_node_relaxation(instance, on, off)[2]
            if out[2] < priced - 1e-12 * max(1.0, abs(priced)):
                below.append((instance.q, out[2], priced))
            return out

        monkeypatch.setattr(bnb, "_node_relaxation", both)
        for inst in corpus:
            ref = brute_force_optimum(inst).value
            alloc, stats = solve(inst)
            assert stats.status == "optimal"
            assert alloc.value == pytest.approx(ref, rel=1e-9)
            assert continuous_relaxation_bound(inst).bound <= ref + 1e-9 * max(1.0, abs(ref))
        assert not below

    @pytest.mark.parametrize("limits", [
        {"node_limit": 0}, {"node_limit": -5},
        {"time_limit": float("nan")}, {"time_limit": -1.0},
    ], ids=["nodes-0", "nodes-neg", "time-nan", "time-neg"])
    def test_bad_limits_rejected_at_construction(self, limits):
        with pytest.raises(ValueError, match="limit must be"):
            SolveOptions(**limits)

    def test_time_limit_zero(self, ladder3):
        alloc, stats = solve(ladder3, SolveOptions(time_limit=0.0))
        assert stats.status == "time_limit"
        assert float(alloc.x.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_trace_lines(self, ladder3):
        buf = io.StringIO()
        solve(ladder3, SolveOptions(trace=buf))
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) >= 1
        assert all("depth=" in ln and "bound=" in ln and "incumbent=" in ln for ln in lines)

    def test_all_constant_routes_to_fast_path(self):
        inst = Instance.from_groups([
            ResourceGroup(2.0, ConstantLatency(1.0)),
            ResourceGroup(1.0, ConstantLatency(1.5)),
        ])
        alloc, stats = solve(inst)
        ref = solve_constant_latency(inst)
        assert alloc.value == ref.value
        assert stats.nodes == 1 and stats.bound_evals == 1

    def test_stats_counts_consistent(self):
        for inst in random_corpus(10, 3, 12, 7700):
            _, stats = solve(inst)
            assert stats.bound_evals <= stats.nodes
            assert stats.incumbent_updates >= 1
            assert stats.wall_time >= 0.0
