"""Spans around the calls into each latalloc layer, recorded from outside the package.

The solver looks some public functions up as module attributes at call
time, so replacing those attributes with timing wrappers puts a span at
each layer boundary without touching the package.  ``relax`` and ``kkt`` are
called privately inside ``solve``; for them the nodes that the wrapped
``branch_children`` saw are replayed afterwards through
``continuous_relaxation_bound`` and ``solve_restricted``.

Spans live in memory as (solve id, span id, parent id, name, start, end)
and are written out as JSON Lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

# (module, attribute) pairs wrapped during traced passes.
WRAPPED = (
    ("latalloc.bnb", "branch_children"),
    ("latalloc.bnb", "primal_heuristic"),
    ("latalloc.heuristic", "ordering_algorithm"),
    ("latalloc.cli", "read_instance"),
    ("latalloc.cli", "continuous_relaxation_bound"),
    ("latalloc.cli", "primal_heuristic"),
    ("latalloc.cli", "solve"),
)
BRANCH = "latalloc.bnb.branch_children"
HEURISTICS = ("latalloc.bnb.primal_heuristic", "latalloc.cli.primal_heuristic")
CLI_SOLVE = "latalloc.cli.solve"
# Nodes replayed per instance; enough for a stable median, cheap next to a pass.
REPLAY_NODES = 60


class Tracer:
    """Installs the wrappers for one traced pass at a time and keeps every span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1
        self.item = -1
        self.record_nodes = False
        self.nodes = {}          # item index -> evenly thinned BnbNodes seen by branch_children
        self._seen = {}          # item index -> [calls so far, keep every stride-th]
        self.missing = []        # "module.attr" names that could not be wrapped
        self._saved = []

    def install(self):
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        branch = name == BRANCH

        def wrapper(*args, **kwargs):
            if branch and self.record_nodes:
                self._record(args[0] if args else kwargs["node"])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (self.solve_id, sid, parent, name, t0, t1)

        return wrapper

    def _record(self, node):
        # keep at most 2 * REPLAY_NODES nodes per item, evenly spaced over the
        # search: a ladder tree holds tens of thousands of q-long count tuples
        seen = self._seen.setdefault(self.item, [0, 1])
        if seen[0] % seen[1] == 0:
            kept = self.nodes.setdefault(self.item, [])
            kept.append(node)
            if len(kept) == 2 * REPLAY_NODES:
                del kept[1::2]
                seen[1] *= 2
        seen[0] += 1

    def root(self, name, item, fn, *args):
        """Run ``fn(*args)`` as the root span of a new solve id; returns its result."""
        self.solve_id += 1
        self.item = item
        return self._wrap(name, fn)(*args)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for solve_id, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"solve": solve_id, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def node_copies(instance, node):
    """Copy indices fixed on and fixed off at a branch-and-bound node.

    The solver switches on the first ``on_counts[g]`` copies of group g and
    removes the last ``off_counts[g]``.
    """
    on = np.asarray(node.on_counts, dtype=np.intp)[instance.copy_group]
    off = np.asarray(node.off_counts, dtype=np.intp)[instance.copy_group]
    mult = np.asarray(instance.multiplicities, dtype=np.intp)[instance.copy_group]
    pos = instance.copy_pos
    return np.flatnonzero(pos < on), np.flatnonzero(pos >= mult - off)


def replay(items, nodes, bound_fn, restricted_fn):
    """Time the relax and kkt layers on recorded nodes, outside any solve.

    ``bound_fn`` is ``continuous_relaxation_bound`` and ``restricted_fn``
    ``solve_restricted``.  Returns, in microseconds, the root bound time per
    item, the node bound times per item, and the restricted-solve times on
    the relaxation support of the root and of each node, split by whether
    that support mixes exponents; last, the names of items where a replayed
    bound differs from the bound the solver stored on the node.
    """
    root_us, node_us = [], []
    kkt_us = {"single": [], "mixed": []}
    mismatched = set()
    for k, item in enumerate(items):
        inst = item.instance
        seen = nodes.get(k, [])
        picks = np.unique(np.linspace(0, len(seen) - 1, min(REPLAY_NODES, len(seen))).astype(int))
        times = []
        for node in [None] + [seen[i] for i in picks]:
            if node is None:
                t0 = time.perf_counter()
                res = bound_fn(inst)
                root_us.append((time.perf_counter() - t0) * 1e6)
            else:
                on, off = node_copies(inst, node)
                t0 = time.perf_counter()
                res = bound_fn(inst, on, off)
                times.append((time.perf_counter() - t0) * 1e6)
                if abs(res.bound - node.lower_bound) > 1e-9 * max(1.0, abs(node.lower_bound)):
                    mismatched.add(item.name)
            support = sorted(res.support)
            t0 = time.perf_counter()
            restricted_fn(inst, support)
            dt = (time.perf_counter() - t0) * 1e6
            kind = "mixed" if np.unique(inst.copy_p[support]).size > 1 else "single"
            kkt_us[kind].append(dt)
        node_us.append(times)
    return root_us, node_us, kkt_us, sorted(mismatched)
