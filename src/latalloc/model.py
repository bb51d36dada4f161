"""Domain types for latency-aware demand allocation.

A problem instance is a collection of resource groups.  Each group holds one
or more identical copies of a resource with a fixed activation charge c and a
per-unit latency function f.  One unit of divisible demand must be split
across activated copies; carrying fraction x on a copy costs c + x * f(x)
(nothing if the copy is unused).  The marginal of the load cost, the
derivative of z * f(z), drives every dual computation downstream, so the
latency families expose it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Feasibility tolerance on an allocation's total fraction.
SUM_TOL = 1e-9

# Largest accepted power exponent.  The perspective bound's Lagrangean term
# loses precision as p grows: over small random instances its root never
# passed the optimum up to p = 1e8, but overshot it by 6e-13 relative at
# p = 1e10, 6e-9 at p = 1e12 (past the search's prune tolerance) and 0.6%
# at p = 1e15.
MAX_EXPONENT = 1e6


class LatencyFamily:
    """Per-unit latency f of a resource as a function of its load.

    Subclasses supply ``f`` and ``marginal`` (the derivative of z * f(z),
    strictly increasing from 0).  The solvers take power families, and
    instances of constant families only go through ``solve_constant_latency``;
    any other subclass serves ``gamma`` and ``Allocation`` only.
    """

    def f(self, z):
        raise NotImplementedError

    def marginal(self, z):
        """Derivative of the load cost z * f(z) at load z."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLatency(LatencyFamily):
    """f(z) = b * z**p with b > 0 and 1 <= p <= MAX_EXPONENT, so f(0) = 0.

    The marginal scale b(1+p) and its reciprocal must both be finite: the
    solvers divide by one and bracket the marginal level with the other.
    """

    b: float
    p: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"power latency needs finite b > 0, got {self.b}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"power latency needs finite p >= 1, got {self.p}")
        if self.p > MAX_EXPONENT:
            raise ValueError(f"power latency needs p <= {MAX_EXPONENT:g}, got {self.p}")
        curve = self.b * (1.0 + self.p)
        if not (math.isfinite(curve) and math.isfinite(1.0 / curve)):
            raise ValueError(f"power latency needs finite b(1+p) and 1/(b(1+p)), "
                             f"got b={self.b}, p={self.p}")

    def f(self, z):
        return self.b * z ** self.p

    def marginal(self, z):
        if z < 0:
            raise ValueError(f"marginal undefined for negative load {z}")
        return self.b * (1.0 + self.p) * z ** self.p


@dataclass(frozen=True)
class ConstantLatency(LatencyFamily):
    """Load-independent per-unit latency.

    Note f(0) = value != 0, so none of the marginal machinery applies; only
    the dedicated constant-latency solver accepts instances built from this
    family.
    """

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"constant latency must be finite and >= 0, got {self.value}")

    def f(self, z):
        return self.value

    def marginal(self, z):
        raise ValueError("constant latency has no load marginal; use solve_constant_latency")


@dataclass(frozen=True)
class ResourceGroup:
    """``multiplicity`` identical copies of one resource type."""

    fixed_cost: float
    latency: LatencyFamily
    multiplicity: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.fixed_cost) and self.fixed_cost >= 0):
            raise ValueError(f"fixed cost must be finite and >= 0, got {self.fixed_cost}")
        if not isinstance(self.multiplicity, (int, np.integer)) or self.multiplicity < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {self.multiplicity}")
        if not isinstance(self.latency, LatencyFamily):
            raise ValueError(f"latency must be a LatencyFamily, got {type(self.latency).__name__}")


def gamma(group: ResourceGroup, x: float) -> float:
    """Cost of carrying fraction x on one copy of ``group``: 0 if idle, else c + x * f(x)."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return group.fixed_cost + x * group.latency.f(x)


@dataclass(frozen=True)
class Instance:
    """Canonical problem instance: an ordered tuple of distinct resource groups.

    Construct with :meth:`from_groups`, which merges equal (fixed_cost,
    latency) entries into one group with summed multiplicity so identical
    copies are always detected.  Expanded copies are indexed 0..q-1 in group
    order, copies of a group contiguous.
    """

    groups: tuple[ResourceGroup, ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("an instance needs at least one resource group")
        seen = set()
        for g in self.groups:
            key = (g.fixed_cost, g.latency)
            if key in seen:
                raise ValueError(
                    "duplicate resource type; build instances via Instance.from_groups"
                )
            seen.add(key)

    @classmethod
    def from_groups(cls, groups) -> "Instance":
        merged: dict = {}
        for g in groups:
            if not isinstance(g, ResourceGroup):
                raise ValueError(f"expected ResourceGroup, got {type(g).__name__}")
            key = (g.fixed_cost, g.latency)
            if key in merged:
                merged[key] = merged[key] + g.multiplicity
            else:
                merged[key] = g.multiplicity
        return cls(
            tuple(ResourceGroup(c, fam, m) for (c, fam), m in merged.items())
        )

    @cached_property
    def q(self) -> int:
        """Total number of resource copies."""
        return int(sum(g.multiplicity for g in self.groups))

    @cached_property
    def shared_exponent(self):
        """Common power exponent p if every group is a power family with equal p, else None."""
        ps = set()
        for g in self.groups:
            if not isinstance(g.latency, PowerLatency):
                return None
            ps.add(g.latency.p)
        return ps.pop() if len(ps) == 1 else None

    @cached_property
    def all_constant(self) -> bool:
        return all(isinstance(g.latency, ConstantLatency) for g in self.groups)

    @cached_property
    def has_constant(self) -> bool:
        return any(isinstance(g.latency, ConstantLatency) for g in self.groups)

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(int(g.multiplicity) for g in self.groups)

    @cached_property
    def group_multiplicities(self) -> np.ndarray:
        return np.array(self.multiplicities, dtype=np.intp)

    @cached_property
    def group_fixed_costs(self) -> np.ndarray:
        return np.array([g.fixed_cost for g in self.groups], dtype=float)

    @cached_property
    def group_b(self) -> np.ndarray:
        """Power coefficients per group; errors if any family is not a power family."""
        self._require_power()
        return np.array([g.latency.b for g in self.groups], dtype=float)

    @cached_property
    def group_p(self) -> np.ndarray:
        self._require_power()
        return np.array([g.latency.p for g in self.groups], dtype=float)

    @cached_property
    def exponents(self) -> list:
        """Distinct power exponents, ascending."""
        # sorted(set()) rather than np.unique, which imports numpy.ma
        return sorted(set(self.group_p.tolist()))

    @cached_property
    def group_exponent(self) -> np.ndarray:
        """Index of each group's exponent in ``exponents``."""
        return np.searchsorted(self.exponents, self.group_p)

    @cached_property
    def group_g1(self) -> np.ndarray:
        """Load of one copy of each group at marginal level 1, (b(1+p))**(-1/p)."""
        return (self.group_b * (1.0 + self.group_p)) ** (-1.0 / self.group_p)

    @cached_property
    def exponent_fills(self) -> np.ndarray:
        """Row i holds ``group_g1`` on the groups of exponent ``exponents[i]``, 0 elsewhere.

        A product with a count vector sums the fills per exponent.
        """
        rows = np.arange(len(self.exponents))[:, None]
        return np.where(self.group_exponent == rows, self.group_g1, 0.0)

    @cached_property
    def group_offsets(self) -> np.ndarray:
        """offsets[g]:offsets[g+1] is the copy-index range of group g."""
        return np.concatenate(([0], np.cumsum(self.multiplicities))).astype(np.intp)

    @cached_property
    def copy_group(self) -> np.ndarray:
        """Group index of each expanded copy."""
        return np.repeat(np.arange(len(self.groups), dtype=np.intp), self.multiplicities)

    @cached_property
    def copy_pos(self) -> np.ndarray:
        """Position of each copy within its group (0-based)."""
        return np.arange(self.q, dtype=np.intp) - self.group_offsets[self.copy_group]

    @cached_property
    def copy_fixed_cost(self) -> np.ndarray:
        return self.group_fixed_costs[self.copy_group]

    @cached_property
    def copy_b(self) -> np.ndarray:
        return self.group_b[self.copy_group]

    @cached_property
    def copy_p(self) -> np.ndarray:
        return self.group_p[self.copy_group]

    def _require_power(self):
        """The one check that turns non-power families away from the solvers."""
        for i, g in enumerate(self.groups):
            if not isinstance(g.latency, PowerLatency):
                raise ValueError(
                    f"group {i} has a {type(g.latency).__name__}; the solvers need "
                    "power latency families (constant ones: use solve_constant_latency)"
                )


@dataclass(frozen=True, eq=False)
class Allocation:
    """A feasible solution: the activated copies and the fraction carried by each.

    ``x[i] > 0`` exactly for ``i in active``; ``value`` is the total cost
    sum over active copies of c_i + x_i * f_i(x_i).
    """

    active: frozenset
    x: np.ndarray
    value: float

    @classmethod
    def from_fractions(cls, instance: Instance, x) -> "Allocation":
        x = np.asarray(x, dtype=float).copy()
        if x.shape != (instance.q,):
            raise ValueError(f"fraction vector must have length {instance.q}, got {x.shape}")
        if np.any(x < 0.0) or np.any(x > 1.0 + 1e-12):
            raise ValueError("fractions must lie in [0, 1]")
        if abs(float(x.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"fractions must sum to 1 within {SUM_TOL}, got {x.sum()!r}")
        active = np.flatnonzero(x > 0.0)
        value = 0.0
        for i in active:
            g = instance.groups[instance.copy_group[i]]
            value += gamma(g, min(float(x[i]), 1.0))
        x.setflags(write=False)
        return cls(frozenset(int(i) for i in active), x, float(value))
