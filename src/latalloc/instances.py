"""Instance families, the subset-sum reduction, dominance checks, and file I/O.

The random family mirrors the experimental setup used throughout: integer
(c, b) pairs with no resource dominating another, fixed costs nonincreasing
and latency coefficients nondecreasing, every c_i + b_i above the largest
fixed cost, and small multiplicities.  Draws come from numpy's PCG64 stream,
so a given seed produces the same instance on every platform.
"""

from __future__ import annotations

import numpy as np

from .model import Instance, PowerLatency, ResourceGroup

# Consecutive rejected draws after which the random generator abandons the
# partial pair set and starts over, and the number of such restarts allowed.
MAX_REDRAWS = 2000
MAX_RESTARTS = 50

FILE_MAGIC = "latalloc"
FILE_VERSION = 1


class InstanceFormatError(ValueError):
    """Malformed or invalid instance file; the message names the offending line."""


def generate_base(q: int) -> Instance:
    """Ladder family: group i of q has fixed cost q - i + 1 and linear latency slope i.

    Fixed costs strictly decrease while slopes strictly increase, so no
    resource dominates another and c_i + b_i = q + 1 clears the largest
    fixed cost q.  All multiplicities are 1.
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return Instance.from_groups(
        ResourceGroup(float(q - i + 1), PowerLatency(float(i), 1.0)) for i in range(1, q + 1)
    )


def _dominates(a, b):
    """Resource a strictly preferable to b: cheaper full-usage total at no larger fixed cost."""
    return a[0] + a[1] < b[0] + b[1] and a[0] <= b[0]


def _compatible(cand, accepted):
    c, b = cand
    for (co, bo) in accepted:
        if (c, b) == (co, bo):
            return False
        if _dominates(cand, (co, bo)) or _dominates((co, bo), cand):
            return False
        # every total must clear every fixed cost
        if c + b <= co or co + bo <= c:
            return False
    return True


def generate_random(q: int, seed: int = 0, c_range=(1, 100), b_range=(1, 100),
                    multiplicity_range=(1, 5), exponent: float = 1.0) -> Instance:
    """Random non-dominated instance with q expanded copies, deterministic per seed.

    Distinct integer (c, b) pairs are drawn uniformly from the ranges and
    rejected while they conflict with an accepted pair (domination either
    way, or a total c + b not above some fixed cost).  Each accepted pair
    receives a uniform multiplicity; the last one is truncated so the copies
    sum to exactly q.  An unlucky early pair can box the remaining draws in,
    so after a long run of rejections the partial set is discarded and the
    stream continues from scratch; the draw sequence stays a pure function
    of the seed.  Groups come out sorted by fixed cost nonincreasing,
    coefficient nondecreasing.
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_RESTARTS):
        accepted = []
        mults = []
        size = 0
        stuck = False
        while size < q and not stuck:
            for _ in range(MAX_REDRAWS):
                c = int(rng.integers(c_range[0], c_range[1] + 1))
                b = int(rng.integers(b_range[0], b_range[1] + 1))
                if _compatible((c, b), accepted):
                    break
            else:
                stuck = True
                break
            m = int(rng.integers(multiplicity_range[0], multiplicity_range[1] + 1))
            m = min(m, q - size)
            accepted.append((c, b))
            mults.append(m)
            size += m
        if not stuck:
            break
    else:
        raise ValueError(
            f"ranges c={c_range}, b={b_range} cannot supply enough "
            f"mutually non-dominated pairs for q={q}"
        )
    order = sorted(range(len(accepted)), key=lambda i: (-accepted[i][0], accepted[i][1]))
    return Instance.from_groups(
        ResourceGroup(float(accepted[i][0]), PowerLatency(float(accepted[i][1]), float(exponent)),
                      mults[i])
        for i in order
    )


def partition_reduction(weights) -> Instance:
    """Instance whose optimum is the weight total W exactly when a perfect partition exists.

    With fixed cost w_i and linear slope W**2 / (4 w_i), activating a subset S
    costs sum(S) + (W**2/4)/sum(S) >= W, with equality iff sum(S) = W/2.
    Deciding whether the optimum reaches W therefore decides an NP-complete
    question, which is why no polynomial exact algorithm is on offer.
    """
    w = [int(v) for v in weights]
    if not w:
        raise ValueError("need at least one weight")
    if any(v < 1 for v in w):
        raise ValueError(f"weights must be positive integers, got {w}")
    W = float(sum(w))
    return Instance.from_groups(
        ResourceGroup(float(v), PowerLatency(W * W / (4.0 * v), 1.0)) for v in w
    )


def validate_nondominated(instance: Instance):
    """Violations of the experimental-design conventions; empty list means clean.

    Checks pairwise domination (some resource i with c_i + b_i < c_j + b_j
    and c_i <= c_j), the sort order (fixed costs nonincreasing, coefficients
    nondecreasing), and that every c_i + b_i exceeds the largest fixed cost.
    """
    violations = []
    pairs = []
    for g, grp in enumerate(instance.groups):
        if not isinstance(grp.latency, PowerLatency):
            violations.append(
                f"group {g}: {type(grp.latency).__name__} has no coefficient; "
                "dominance is defined for power latencies"
            )
            return violations
        pairs.append((grp.fixed_cost, grp.latency.b))
    for g in range(len(pairs) - 1):
        if pairs[g][0] < pairs[g + 1][0]:
            violations.append(f"groups {g},{g + 1}: fixed costs must be nonincreasing")
        if pairs[g][1] > pairs[g + 1][1]:
            violations.append(f"groups {g},{g + 1}: coefficients must be nondecreasing")
    c_max = max(c for c, _ in pairs)
    for g, (c, b) in enumerate(pairs):
        if c + b <= c_max:
            violations.append(
                f"group {g}: total {c + b} does not exceed the largest fixed cost {c_max}"
            )
    for i, pi in enumerate(pairs):
        for j, pj in enumerate(pairs):
            if i != j and _dominates(pi, pj):
                violations.append(f"group {i} dominates group {j}")
    return violations


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_instance(instance: Instance, path, comments=()) -> None:
    """Write the canonical text form; requires a shared power exponent."""
    p = instance.shared_exponent
    if p is None:
        raise ValueError("the file format holds power instances with one shared exponent")
    lines = [f"# {c}" for c in comments]
    lines.append(f"{FILE_MAGIC} {FILE_VERSION}")
    lines.append(f"{len(instance.groups)} {_fmt(p)}")
    for grp in instance.groups:
        lines.append(f"{_fmt(grp.fixed_cost)} {_fmt(grp.latency.b)} {grp.multiplicity}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path) -> Instance:
    """Parse the text form; raises InstanceFormatError naming the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    data = []
    for no, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            data.append((no, body))
    if not data:
        raise InstanceFormatError("line 1: empty file, expected header "
                                  f"'{FILE_MAGIC} {FILE_VERSION}'")
    no, header = data[0]
    if header.split() != [FILE_MAGIC, str(FILE_VERSION)]:
        raise InstanceFormatError(
            f"line {no}: bad header {header!r}, expected '{FILE_MAGIC} {FILE_VERSION}'"
        )
    if len(data) < 2:
        raise InstanceFormatError(f"line {no}: missing '<group_count> <p>' line")
    no, counts_line = data[1]
    parts = counts_line.split()
    if len(parts) != 2:
        raise InstanceFormatError(f"line {no}: expected '<group_count> <p>', got {counts_line!r}")
    try:
        n_groups = int(parts[0])
        p = float(parts[1])
    except ValueError as err:
        raise InstanceFormatError(f"line {no}: {err}") from None
    if n_groups < 1:
        raise InstanceFormatError(f"line {no}: group count must be >= 1, got {n_groups}")
    rows = data[2:]
    if len(rows) != n_groups:
        raise InstanceFormatError(
            f"line {no}: declared {n_groups} groups but file has {len(rows)} data lines"
        )
    groups = []
    for no, row in rows:
        parts = row.split()
        if len(parts) != 3:
            raise InstanceFormatError(
                f"line {no}: expected '<c> <b> <multiplicity>', got {row!r}"
            )
        try:
            c = float(parts[0])
            b = float(parts[1])
            mult = int(parts[2])
        except ValueError as err:
            raise InstanceFormatError(f"line {no}: {err}") from None
        try:
            groups.append(ResourceGroup(c, PowerLatency(b, p), mult))
        except ValueError as err:
            raise InstanceFormatError(f"line {no}: invalid resource: {err}") from None
    return Instance.from_groups(groups)
