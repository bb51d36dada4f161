"""Shared builders and numeric checks for the test suite."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import latalloc
import latalloc.bnb as bnb
from latalloc import (Instance, PowerLatency, ResourceGroup, generate_base, generate_random,
                      ordering_algorithm)

# Wall-clock cap for calls that once looped forever; a regression fails the
# test through subprocess.TimeoutExpired instead of hanging the whole suite.
HANG_TIMEOUT_S = 30


def run_isolated(args):
    """Run ``python <args>`` against this latalloc checkout, killed after HANG_TIMEOUT_S."""
    src = str(Path(latalloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=HANG_TIMEOUT_S)


def make_instance(rows, exponent=1.0):
    """Rows of (fixed_cost, b) or (fixed_cost, b, multiplicity)."""
    groups = []
    for row in rows:
        c, b = row[0], row[1]
        m = row[2] if len(row) > 2 else 1
        groups.append(ResourceGroup(float(c), PowerLatency(float(b), float(exponent)), m))
    return Instance.from_groups(groups)


@pytest.fixture
def ladder3():
    # c=(3,2,1), b=(1,2,3), p=1; optimum activates the last group alone, value 4
    return make_instance([(3, 1), (2, 2), (1, 3)])


def assert_kkt(instance, x, lam, kappa=None, active_tol=1e-12):
    """Stationarity within 1e-8 on active copies and unit total within 1e-9."""
    x = np.asarray(x, dtype=float)
    assert abs(float(x.sum()) - 1.0) <= 1e-9
    kap = np.zeros(x.shape[0]) if kappa is None else np.asarray(kappa, dtype=float)
    for i in range(x.shape[0]):
        if x[i] <= active_tol:
            continue
        g = instance.groups[instance.copy_group[i]]
        marg = g.latency.marginal(float(x[i])) + kap[i]
        assert abs(marg - lam) <= 1e-8 * max(1.0, abs(lam))


def random_corpus(count, q_lo, q_hi, seed0, **kw):
    for s in range(count):
        q = q_lo + (s * 7) % (q_hi - q_lo + 1)
        yield generate_random(q, seed=seed0 + s, **kw)


def exactness_instances():
    """The gate-1 corpus: 200 random instances with q = 2..12 and the ladders q = 1..12."""
    return ([generate_random(2 + s % 11, seed=2000 + s) for s in range(200)]
            + [generate_base(q) for q in range(1, 13)])


def priced_bound(instance, fixed_on=(), fixed_off=()):
    """The paper's priced node bound, solved one class per copy by ``ordering_algorithm``.

    Copies in ``fixed_on`` are paid for (priced at 0, their fees added to the
    bound), copies in ``fixed_off`` are excluded, and every other copy is
    priced at its own fee.  Returns the ordering result with that bound.
    """
    fixed_on = list(fixed_on)
    kappa = instance.copy_fixed_cost.copy()
    kappa[fixed_on] = 0.0
    res = ordering_algorithm(instance, kappa, sorted(set(range(instance.q)) - set(fixed_off)))
    paid = float(instance.copy_fixed_cost[fixed_on].sum())
    return dataclasses.replace(res, bound=res.bound + paid)


def priced_node_relaxation(instance, on_counts, off_counts):
    """``priced_bound`` of a search node, as ``relax._node_relaxation`` returns it.

    The first ``on_counts[g]`` copies of group g are on and its last
    ``off_counts[g]`` off.  Returns (lam, loads, bound) with ``loads[0, g]``
    the load on each on copy of group g and ``loads[1, g]`` on each free one.
    """
    pos, group = instance.copy_pos, instance.copy_group
    on = pos < np.asarray(on_counts)[group]
    off = pos >= (instance.group_multiplicities - off_counts)[group]
    res = priced_bound(instance, np.flatnonzero(on), np.flatnonzero(off))
    loads = np.zeros((2, len(instance.groups)))
    loads[0, group[on]] = res.x[on]
    loads[1, group[~on & ~off]] = res.x[~on & ~off]
    return res.lam, loads, res.bound


@pytest.fixture
def priced_search(monkeypatch):
    """Make ``solve`` search under the paper's priced node bound.

    A free copy priced at its fee is at its true cost only when it carries
    0 or the whole unit, so every t of the close rule is 1.
    """
    monkeypatch.setattr(bnb, "_node_classes",
                        lambda instance: SimpleNamespace(t=np.ones(len(instance.groups))))
    monkeypatch.setattr(bnb, "_node_relaxation",
                        lambda instance, classes, on, off: priced_node_relaxation(instance, on, off))
