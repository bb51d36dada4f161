"""Answer checks, run once per corpus instance outside the timed region.

Every solve must satisfy root bound <= optimum <= heuristic within a relative
slack of 1e-9, and re-pricing its active set with ``solve_restricted`` must
reproduce its value.  Partition embeddings are also compared with an
independent bitset subset-sum (optimum = W exactly when a perfect split
exists), and every instance small enough to enumerate with the enumeration
oracle.  A failed check is reported, never raised, so one bad answer cannot
stop the run.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import latalloc
from latalloc.oracle import BRUTE_FORCE_MAX_Q

RTOL = 1e-9
# Largest number of activation-count patterns handed to the enumeration oracle.
ORACLE_MAX_PATTERNS = 4096


@dataclass
class Answer:
    """What one solve of an instance reported, normalised across workloads."""

    value: float
    nodes: int
    bound_evals: int
    incumbent_updates: int
    root: float
    heuristic: float
    active: frozenset


def _close(a, b):
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def perfect_split_exists(weights) -> bool:
    """Bitset subset-sum: some subset of ``weights`` sums to exactly half the total."""
    total = sum(weights)
    if total % 2:
        return False
    reach = 1
    for w in weights:
        reach |= reach << w
    return bool(reach >> (total // 2) & 1)


def parse_cli_csv(text: str) -> dict:
    """The single data row of ``latalloc solve --format csv`` as a dict."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def library_answer(item, result) -> Answer:
    """Answer of a ``latalloc.solve`` call; root bound and heuristic computed here."""
    alloc, stats = result
    if stats.status != "optimal":
        raise ValueError(f"status {stats.status}")
    inst = item.instance
    return Answer(alloc.value, stats.nodes, stats.bound_evals, stats.incumbent_updates,
                  latalloc.continuous_relaxation_bound(inst).bound,
                  latalloc.primal_heuristic(inst).value, alloc.active)


def cli_answer(item, result) -> Answer:
    """Answer of a ``latalloc solve --format csv`` call.

    The CSV holds no allocation, so the file is solved once more through the
    library; its active set and incumbent count stand in for the CLI's, and
    its value must equal the CLI's optimum.
    """
    code, text = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    row = parse_cli_csv(text)
    if row["optimal_flag"] != "1":
        raise ValueError("CLI reported a non-optimal solve")
    value = float(row["optimum"])
    alloc, stats = latalloc.solve(latalloc.read_instance(item.path))
    if not _close(alloc.value, value):
        raise ValueError(f"CLI optimum {value!r} differs from library optimum {alloc.value!r}")
    return Answer(value, int(row["nodes"]), int(row["bound_evals"]), stats.incumbent_updates,
                  float(row["root_bound"]), float(row["heuristic"]), alloc.active)


def problems(item, ans: Answer) -> list:
    """Every check ``ans`` fails for ``item``; empty when the answer is right."""
    out = []
    slack = RTOL * max(1.0, abs(ans.value))
    if ans.root > ans.value + slack:
        out.append(f"root bound {ans.root!r} above optimum {ans.value!r}")
    if ans.value > ans.heuristic + slack:
        out.append(f"optimum {ans.value!r} above heuristic {ans.heuristic!r}")
    repriced = latalloc.solve_restricted(item.instance, ans.active).value
    if not _close(repriced, ans.value):
        out.append(f"re-priced active set gives {repriced!r}, solve gave {ans.value!r}")
    if item.weights is not None:
        total = float(sum(item.weights))
        if perfect_split_exists(item.weights) != _close(ans.value, total):
            out.append(f"optimum {ans.value!r} vs W={total:g} disagrees with subset-sum")
    inst = item.instance
    if inst.q <= BRUTE_FORCE_MAX_Q \
            and math.prod(m + 1 for m in inst.multiplicities) <= ORACLE_MAX_PATTERNS:
        brute = latalloc.brute_force_optimum(inst).value
        if not _close(brute, ans.value):
            out.append(f"enumeration optimum {brute!r}, solve gave {ans.value!r}")
    return out
