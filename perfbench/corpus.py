"""Seeded corpora for the four benchmark workloads, and their set-up.

Every corpus is a pure function of (workload, seed, size).  Different seeds
must give different inputs of about the same hardness, because runs made
with different seeds are compared, and a metric that spreads more between
them than its bound cannot flag a regression.  A corpus of freshly drawn random
instances does not meet that: one random instance's tree size has a
coefficient of variation of about 0.8, so nine of them spread 20% between
seeds.  Each workload therefore draws from a narrow window:

- ``ladder``: ``generate_base(q)`` with one q per slot, drawn by the seed
  from a window of five sizes above the slot's base size.
- ``curved`` and ``cli-files``: one fixed anchor instance per slot, built
  by ``generate_random`` from a slot-specific generator seed; the benchmark
  seed then scales every fixed cost and every coefficient by its own factor
  drawn from [1 - JITTER, 1 + JITTER].  The search tree changes from seed
  to seed, its size stays within a few percent.
- ``partition``: fresh weights from the seed on every slot.  Embeddings are
  cheap, so the corpus holds enough of them for the spread to average out.

Generator limit: ``generate_random`` raises "cannot supply enough mutually
non-dominated pairs" at q=200 with its default ranges (1, 100), and at q=300
even with (1, 1000).  ``curved`` and ``cli-files`` therefore stay at
q <= 100; ``ladder`` is the only large-q family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from latalloc import (Instance, PowerLatency, ResourceGroup, generate_base,
                      generate_random, partition_reduction, write_instance)

WORKLOADS = ("ladder", "curved", "partition", "cli-files")

# Relative half-width of the per-number jitter on anchored instances.
JITTER = 0.02
# Generator seeds of the anchor instances, one block per workload.
CURVED_ANCHOR_SEED = 1000
CLI_ANCHOR_SEED = 2000
# Largest q that generate_random can serve with its default ranges, with margin.
RANDOM_Q_MAX = 100

# Slot lists per size: "full" for benchmark runs, "tiny" for the smoke test.
LADDER_BASE_Q = {"full": (200, 250, 300, 350, 390), "tiny": (12, 20)}
LADDER_WINDOW = 5
CURVED_Q = {"full": (60, 75, 90), "tiny": (12,)}
CURVED_KINDS = (1.5, 2.0, "mixed")
PARTITION_SHAPE = {"full": (160, 8), "tiny": (3, 6)}      # (count, weights each)
CLI_Q = {"full": tuple(range(30, 80)), "tiny": (10, 14)}


@dataclass(frozen=True)
class Item:
    """One corpus entry: the instance, plus the file it was written to (cli-files)
    or the weights it embeds (partition)."""

    name: str
    instance: Instance
    path: str | None = None
    weights: tuple | None = None


def _jittered(instance: Instance, rng, exponents=None) -> Instance:
    """Copy of ``instance`` with each fixed cost and coefficient scaled by its own
    factor in [1 - JITTER, 1 + JITTER], optionally with per-group exponents."""
    groups = []
    for g, grp in enumerate(instance.groups):
        c_f, b_f = rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=2)
        p = grp.latency.p if exponents is None else float(exponents[g])
        groups.append(ResourceGroup(grp.fixed_cost * c_f,
                                    PowerLatency(grp.latency.b * b_f, p), grp.multiplicity))
    return Instance.from_groups(groups)


def _ladder(seed, size):
    rng = np.random.default_rng(seed)
    out = []
    for base in LADDER_BASE_Q[size]:
        q = base + int(rng.integers(0, LADDER_WINDOW))
        out.append(Item(f"ladder-q{q}", generate_base(q)))
    return out


def _curved(seed, size):
    rng = np.random.default_rng(seed)
    out = []
    slot = 0
    for kind in CURVED_KINDS:
        for q in CURVED_Q[size]:
            p = 2.0 if kind == "mixed" else kind
            anchor = generate_random(q, seed=CURVED_ANCHOR_SEED + slot, exponent=p)
            exponents = None
            if kind == "mixed":
                # per-group exponents are part of the anchor, not of the seed
                exponents = np.random.default_rng((CURVED_ANCHOR_SEED, slot)).choice(
                    (1.0, 1.5, 2.0), size=len(anchor.groups))
            out.append(Item(f"curved-{kind}-q{q}", _jittered(anchor, rng, exponents)))
            slot += 1
    return out


def _partition(seed, size):
    rng = np.random.default_rng(seed)
    count, n = PARTITION_SHAPE[size]
    out = []
    for k in range(count):
        weights = tuple(int(w) for w in rng.integers(1, 101, size=n))
        out.append(Item(f"partition-{k}", partition_reduction(weights), weights=weights))
    return out


def _cli_files(seed, size, workdir):
    rng = np.random.default_rng(seed)
    out = []
    for slot, q in enumerate(CLI_Q[size]):
        anchor = generate_random(q, seed=CLI_ANCHOR_SEED + slot)
        inst = _jittered(anchor, rng)
        path = f"{workdir}/cli-{slot:02d}-q{q}.txt"
        out.append(Item(f"cli-q{q}", inst, path=path))
    return out


def build(workload: str, seed: int, size: str, workdir: str):
    """Generate the corpus (and write its files); returns (items, generate seconds)."""
    t0 = time.perf_counter()
    if workload == "ladder":
        items = _ladder(seed, size)
    elif workload == "curved":
        items = _curved(seed, size)
    elif workload == "partition":
        items = _partition(seed, size)
    elif workload == "cli-files":
        items = _cli_files(seed, size, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    t1 = time.perf_counter()
    for item in items:
        if item.path is not None:
            write_instance(item.instance, item.path)
    return items, t1 - t0
