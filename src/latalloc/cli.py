"""Command-line front end: solve an instance file, generate one, or run a benchmark suite.

Exit codes: 0 solved to proven optimality (or requested artifact produced),
2 a node/time limit stopped the search early (or a benchmark was
interrupted; partial rows are flushed), 3 bad input, 4 an internal
invariant failed (a benchmark stops at the first job that breaks one; the rows
already written stay).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bnb import SolveOptions, SolveStats, solve
from .heuristic import primal_heuristic
from .instances import (generate_base, generate_random, partition_reduction, read_instance,
                        write_instance)
from .model import Instance
from .relax import continuous_relaxation_bound

EXIT_OK = 0
EXIT_LIMIT = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

CSV_COLUMNS = ["instance", "class", "q", "mode", "optimum", "heuristic", "root_bound",
               "nodes", "bound_evals", "wall_ms", "optimal_flag"]


class CliError(Exception):
    """Bad command line or bad input file."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # limit-reached code; route usage problems to the input-error exit instead
    def error(self, message):
        raise CliError(message)


@dataclass
class RunReport:
    instance: str
    klass: str
    q: int
    mode: str
    optimum: float | None
    heuristic: float
    root_bound: float
    active: dict
    x: dict
    nodes: int
    bound_evals: int
    incumbent_updates: int
    wall_ms: float
    status: str

    def text(self) -> str:
        lines = [
            f"instance:          {self.instance}",
            f"class:             {self.klass}  (q={self.q}, mode={self.mode})",
        ]
        if self.optimum is not None:
            lines.append(f"optimum:           {self.optimum:.12g}")
        lines += [
            f"heuristic:         {self.heuristic:.12g}",
            f"root bound:        {self.root_bound:.12g}",
            "active (group:copies): "
            + " ".join(f"{g}:{k}" for g, k in sorted(self.active.items())),
            "fractions (copy=x):    "
            + " ".join(f"{i}={v:.6g}" for i, v in sorted(self.x.items())),
            f"nodes:             {self.nodes}",
            f"bound evals:       {self.bound_evals}",
            f"incumbent updates: {self.incumbent_updates}",
            f"wall:              {self.wall_ms:.2f} ms",
            f"status:            {self.status}",
        ]
        return "\n".join(lines)

    def row(self) -> list:
        return [self.instance, self.klass, self.q, self.mode,
                "" if self.optimum is None else f"{self.optimum:.12g}",
                f"{self.heuristic:.12g}", f"{self.root_bound:.12g}",
                self.nodes, self.bound_evals, f"{self.wall_ms:.3f}",
                int(self.status == "optimal")]


class InvariantError(Exception):
    """A run broke root bound <= result <= heuristic."""


def checked_run(instance: Instance, name: str, klass: str,
                options: SolveOptions | None = None) -> RunReport:
    """Root bound, heuristic and, unless ``options`` is None, the search; checked and reported.

    With ``options`` None the heuristic allocation is the result (mode
    "heuristic").  Raises InvariantError unless root bound <= result <=
    heuristic within a 1e-9 relative slack, whatever the mode and status: an
    incumbent from a limit-stopped search is still feasible.
    """
    root = continuous_relaxation_bound(instance)
    heur = primal_heuristic(instance)
    if options is None:
        mode = "heuristic"
        alloc, stats = heur, SolveStats(nodes=1, bound_evals=1, incumbent_updates=1,
                                        status="heuristic")
    else:
        mode = options.branching
        alloc, stats = solve(instance, options)
    slack = 1e-9 * max(1.0, abs(alloc.value))
    if not root.bound - slack <= alloc.value <= heur.value + slack:
        raise InvariantError(f"{name}: root bound {root.bound:.12g} <= result "
                             f"{alloc.value:.12g} <= heuristic {heur.value:.12g} violated")
    return RunReport(
        instance=name, klass=klass, q=instance.q, mode=mode,
        optimum=alloc.value if stats.status == "optimal" else None,
        heuristic=heur.value, root_bound=root.bound,
        active=dict(Counter(int(instance.copy_group[i]) for i in sorted(alloc.active))),
        x={int(i): float(alloc.x[i]) for i in sorted(alloc.active)},
        nodes=stats.nodes, bound_evals=stats.bound_evals,
        incumbent_updates=stats.incumbent_updates,
        wall_ms=stats.wall_time * 1000.0, status=stats.status,
    )


def cmd_solve(args) -> int:
    try:
        instance = read_instance(args.path)
        # a malformed file and a bad limit both raise ValueError
        options = SolveOptions(
            branching="binary" if args.binary_branching else "nary",
            node_limit=args.node_limit,
            time_limit=args.time_limit,
            trace=sys.stderr if args.trace else None,
        )
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT

    name = str(args.path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        if instance.q > sys.maxsize:
            raise MemoryError("more copies than an array index can address")
        report = checked_run(instance, name, "file", None if args.heuristic_only else options)
    except InvariantError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as err:
        # the copy arrays of an instance with a huge multiplicity
        print(f"error: instance too large (q={instance.q}): {err}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.format)
    return EXIT_OK if report.status in ("optimal", "heuristic") else EXIT_LIMIT


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(report.row())
    else:
        print(report.text())


def _ints(key, values):
    """The counts of a suite entry under ``key``; a bool or a non-integral number raises."""
    if not isinstance(values, list) or not all(
            type(v) is int or type(v) is float and v.is_integer() for v in values):
        raise ValueError(f"{key}: expected integers, got {values!r}")
    return [int(v) for v in values]


def _sizes(entry):
    return _ints("sizes", entry["sizes"]) if "sizes" in entry else _ints("q", [entry["q"]])


def _seeds(entry):
    if "seeds" in entry:
        return _ints("seeds", entry["seeds"])
    return list(range(1, _ints("repetitions", [entry.get("repetitions", 1)])[0] + 1))


def _exponent_tag(p):
    """Label suffix of exponent p: none for 1, else p's shortest exact repr (``-p2``, ``-p1.5000001``)."""
    return "" if p == 1 else f"-p{float(p)!r}".removesuffix(".0")


# One row per instance class: the keys its suite entry may carry besides
# "class" and "modes" (generate's positional spec fills the first), and the
# expansion of an entry into (label, Instance) pairs.
INSTANCE_CLASSES = {
    "base": (("q", "sizes"), lambda e: [(f"b{q}", generate_base(q)) for q in _sizes(e)]),
    "random": (("q", "sizes", "seeds", "repetitions", "exponent"),
               lambda e: [(f"r{q}-s{s}{_exponent_tag(e.get('exponent', 1))}",
                           generate_random(q, s, exponent=e.get("exponent", 1)))
                          for q in _sizes(e) for s in _seeds(e)]),
    "partition": (("weights",), lambda e: [("p" + "+".join(map(str, w)), partition_reduction(w))
                                           for w in [_ints("weights", e["weights"])]]),
}


def entry_instances(entry) -> list:
    """The (label, Instance) pairs of one suite entry; ValueError names what is wrong with it."""
    if not isinstance(entry, dict):
        raise ValueError(f"an entry must be an object with a \"class\", got {entry!r}")
    klass = entry.get("class")
    if klass not in INSTANCE_CLASSES:
        raise ValueError(f"unknown instance class {klass!r}")
    keys, expand = INSTANCE_CLASSES[klass]
    if type(entry.get("exponent", 1)) not in (int, float):
        raise ValueError(f"exponent: expected a number, got {entry['exponent']!r}")
    if entry.get("exponent", 1) != 1 and "exponent" not in keys:
        raise ValueError(f"exponent applies to class random only; {klass} instances are "
                         f"linear, got exponent {entry['exponent']}")
    extra = sorted(set(entry) - {"class", "modes", "exponent", *keys})
    if extra:
        raise ValueError(f"class {klass} takes no key {extra[0]!r} (it takes {', '.join(keys)})")
    for many, one in (("sizes", "q"), ("seeds", "repetitions")):
        if many in entry and one in entry:
            raise ValueError(f"give {many} or {one}, not both")
    if not isinstance(entry.get("modes", []), list):
        raise ValueError(f"modes must be a list, got {entry['modes']!r}")
    return expand(entry)


def cmd_generate(args) -> int:
    keys = INSTANCE_CLASSES[args.klass][0]
    try:
        spec = int(args.spec) if keys[0] == "q" else [int(w) for w in args.spec.split()]
    except ValueError:
        raise CliError(f"expected an integer {keys[0]} for class {args.klass}, "
                       f"got {args.spec!r}") from None
    entry = {"class": args.klass, keys[0]: spec, "exponent": args.exponent}
    if args.seed is not None or "seeds" in keys:
        entry["seeds"] = [args.seed or 0]
    try:
        [(label, instance)] = entry_instances(entry)
        write_instance(instance, args.out, comments=[f"{label}: {json.dumps(entry)}"])
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {label}: {len(instance.groups)} groups, q={instance.q} -> {args.out}")
    return EXIT_OK


def _bench_jobs(suite):
    """The (Instance, label, class, SolveOptions) jobs of a suite, all built before any runs."""
    if not isinstance(suite, dict):
        raise ValueError('expected an object with an "entries" list')
    jobs = []
    for entry in suite.get("entries", []):
        pairs = entry_instances(entry)
        options = [SolveOptions(branching=mode) for mode in entry.get("modes", ["nary"])]
        jobs += [(inst, label, entry["class"], opts) for label, inst in pairs for opts in options]
    return jobs


def _run_job(job):
    return checked_run(*job)


def cmd_bench(args) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.suite, "r", encoding="utf-8") as fh:
            suite = json.load(fh)
        jobs = _bench_jobs(suite)
    except (OSError, ValueError, TypeError, KeyError) as err:
        why = f"missing key {err}" if isinstance(err, KeyError) else err
        print(f"error: bad suite spec: {why}", file=sys.stderr)
        return EXIT_INPUT
    if not jobs:
        print("error: suite spec contains no jobs", file=sys.stderr)
        return EXIT_INPUT

    # a fork-based pool starts every worker at the first submit, so never ask
    # for more than there are jobs
    workers = min(args.workers, len(jobs))
    reports = []
    interrupted = False
    failure = None
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write the CSV: {err}", file=sys.stderr)
        return EXIT_INPUT
    with fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
        try:
            for report in (map if pool is None else pool.map)(_run_job, jobs):
                reports.append(report)
                writer.writerow(report.row())
                fh.flush()
        except KeyboardInterrupt:
            interrupted = True
        except InvariantError as err:
            failure = err
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        # summary rows average per (exponent, class, size, mode); reports keep job order
        groups = {}
        for (inst, *_), r in zip(jobs, reports):
            groups.setdefault((inst.shared_exponent, r.klass, r.q, r.mode), []).append(r)
        for (p, klass, q, mode), rs in groups.items():
            n = len(rs)
            opt_vals = [r.optimum for r in rs if r.optimum is not None]
            writer.writerow([
                "average" + _exponent_tag(p), klass, q, mode,
                f"{sum(opt_vals) / len(opt_vals):.12g}" if opt_vals else "",
                f"{sum(r.heuristic for r in rs) / n:.12g}",
                f"{sum(r.root_bound for r in rs) / n:.12g}",
                f"{sum(r.nodes for r in rs) / n:.6g}",
                f"{sum(r.bound_evals for r in rs) / n:.6g}",
                f"{sum(r.wall_ms for r in rs) / n:.3f}",
                int(all(r.status == "optimal" for r in rs)),
            ])
    done = f"bench: {len(reports)}/{len(jobs)} jobs -> {args.out}"
    if failure is not None:
        print(f"{done} (stopped, partial)")
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_INTERNAL
    print(done + (" (interrupted, partial)" if interrupted else ""))
    return EXIT_LIMIT if interrupted else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latalloc",
                     description="Split one unit of demand across congestible resources "
                                 "with fixed activation charges.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file exactly")
    ps.add_argument("path")
    ps.add_argument("--binary-branching", action="store_true",
                    help="fix one copy per branch instead of a whole group")
    ps.add_argument("--heuristic-only", action="store_true",
                    help="report the heuristic allocation and root bound, skip the search")
    ps.add_argument("--trace", action="store_true",
                    help="log one line per evaluated node to stderr")
    ps.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    ps.add_argument("--node-limit", type=int, default=None, metavar="N")
    ps.add_argument("--format", choices=["text", "csv"], default="text")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="write an instance file")
    pg.add_argument("klass", choices=list(INSTANCE_CLASSES), metavar="class")
    pg.add_argument("spec", help="q for base/random, a quoted weight list for partition")
    pg.add_argument("--seed", type=int, default=None, help="seed of class random (default 0)")
    pg.add_argument("--exponent", type=float, default=1.0,
                    help="latency exponent p of class random (base and partition are linear)")
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench", help="run a JSON suite spec, write a CSV")
    pb.add_argument("suite")
    pb.add_argument("--out", required=True)
    pb.add_argument("--workers", type=int, default=1)
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
