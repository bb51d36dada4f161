"""Shared builders and numeric checks for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latalloc
from latalloc import Instance, PowerLatency, ResourceGroup, generate_base, generate_random

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
