"""latalloc benchmark: times the public solver API on one seeded workload.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/``.  The
workload's corpus is generated from the seed (several times, to time the
set-up), solved pass after pass for about ``--seconds`` seconds, and every
answer is checked once afterwards.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end figures; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
figures taken from spans around the calls into each module (see
``tracing.py``).  Spans are written to ``.perfbench-out/``.

One process, no worker pool.  ``--corpus tiny`` runs a few small instances
per workload, for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench-out"

MIN_PASSES = 3          # untraced passes per run, at least
MIN_TRACED_PAIRS = 2    # (untraced, traced) pass pairs per traced run, at least
SETUP_MIN_REPS = 3      # corpus set-ups per run, at least ...
SETUP_MIN_S = 1.0       # ... and until this much set-up time has been measured
SETUP_MAX_REPS = 200
# Name of the span the benchmark opens around each timed call, by "is a cli workload".
ROOT_SPAN = {False: "latalloc.bnb.solve", True: "latalloc.cli.main"}
# Median time of calibrate() on the machine the benchmark was defined on
# (2 vCPU shared VM, Python 3.11, numpy 2.4).  Reported times are scaled by
# CALIBRATION_REF_S / (calibrate() time around the measurement).
CALIBRATION_REF_S = 0.003
# Calibrations before and after a measurement whose median gives its speed.
CALIBRATION_WINDOW = 3


def _import_latalloc():
    """Import latalloc from this checkout's ``src``; exit without a result if it is absent."""
    src = ROOT / "src"
    if not (src / "latalloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/latalloc under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    import latalloc
    if Path(latalloc.__file__).resolve().parent != (src / "latalloc").resolve():
        sys.exit(f"perfbench: imported latalloc from {latalloc.__file__}, not from {src}")
    import latalloc.bnb, latalloc.cli  # noqa: E401,F401  (called as module attributes)
    return latalloc


latalloc = _import_latalloc()
import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402


def calibrate():
    """Time a fixed mix of interpreter and small-numpy work that does not touch latalloc.

    The machine is shared and its speed drifts by 20% and more within a
    minute; this loop slows down with it, so dividing by its time removes
    the drift from the reported times while leaving any change in latalloc
    in place.
    """
    a = np.linspace(0.0, 1.0, 96)[::-1].copy()
    t0 = time.perf_counter()
    for _ in range(300):
        np.cumsum(a[np.argsort(a, kind="stable")])
        np.flatnonzero(a > 0.5)
        sum([j * 0.5 for j in range(60)])
    return time.perf_counter() - t0


def _library_call(item):
    return latalloc.bnb.solve(item.instance)


def _cli_call(item):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = latalloc.cli.main(["solve", item.path, "--format", "csv"])
    return code, buf.getvalue()


def _signature(result):
    """The deterministic part of a result, which must repeat on every pass."""
    if isinstance(result[0], int):
        row = checks.parse_cli_csv(result[1]) if result[0] == 0 else {}
        return result[0], row.get("optimum"), row.get("nodes")
    alloc, stats = result
    return alloc.value, stats.nodes, stats.status


class SpeedClock:
    """Calibration times in the order they were taken.

    A calibration runs before and after every timed call.  A measurement is
    scaled by the median of the CALIBRATION_WINDOW calibrations on each side
    of it, so one calibration disturbed by a short hiccup does not skew it.
    """

    def __init__(self):
        self.calibs = []

    def tick(self):
        """Calibrate now; returns the index of this calibration."""
        self.calibs.append(calibrate())
        return len(self.calibs) - 1

    def scale(self, dt, before):
        """``dt`` seconds, measured right after calibration ``before``, at reference speed."""
        w = CALIBRATION_WINDOW
        return dt * CALIBRATION_REF_S / statistics.median(self.calibs[max(0, before + 1 - w):
                                                                      before + 1 + w])


class Runs:
    """Per-item timings and results over all passes of one kind (traced or not)."""

    def __init__(self, n_items, clock):
        self.clock = clock
        self.raw = [[] for _ in range(n_items)]      # measured seconds
        self.before = [[] for _ in range(n_items)]   # calibration index before each
        self.last = [None] * n_items
        self.errors = [[] for _ in range(n_items)]
        self.passes = 0

    def times(self):
        """Per-item solve times scaled to the reference machine speed."""
        return [[self.clock.scale(dt, b) for dt, b in zip(raw, before)]
                for raw, before in zip(self.raw, self.before)]

    def corpus_s(self, raw=False):
        """Time of one pass: the sum over items of each item's median solve time."""
        return sum(statistics.median(t) for t in (self.raw if raw else self.times()))


def run_pass(items, call, runs, tracer=None, root_name=None):
    t_pass = time.perf_counter()
    before = runs.clock.tick()
    for k, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            result = call(item) if tracer is None else tracer.root(root_name, k, call, item)
            sig = _signature(result)
        except Exception as err:  # a failing solve is counted, never fatal
            result, sig = None, None
            runs.errors[k].append(f"pass {runs.passes}: {err!r}")
        runs.raw[k].append(time.perf_counter() - t0)
        runs.before[k].append(before)
        before = runs.clock.tick()
        if sig is not None and runs.last[k] is not None and _signature(runs.last[k]) != sig:
            runs.errors[k].append(f"pass {runs.passes}: result differs from the previous pass")
        if result is not None:
            runs.last[k] = result
    runs.passes += 1
    return time.perf_counter() - t_pass


def set_up(workload, seed, size, workdir, clock):
    """Build the corpus repeatedly.

    Returns (items, generate times, set-up times as (seconds, calibration
    index before)).
    """
    gen, setups = [], []
    before = clock.tick()
    while len(setups) < SETUP_MAX_REPS and (len(setups) < SETUP_MIN_REPS
                                             or sum(dt for dt, _ in setups) < SETUP_MIN_S):
        t0 = time.perf_counter()
        items, g = corpus.build(workload, seed, size, workdir)
        setups.append((time.perf_counter() - t0, before))
        gen.append(g)
        before = clock.tick()
    return items, gen, setups


def check_answers(items, runs, answer_fn):
    """Answers per item (None where unusable) and failed-solve count, with reasons."""
    answers, failed, notes = [], 0, []
    for k, item in enumerate(items):
        probs = list(runs.errors[k])
        ans = None
        if runs.last[k] is not None:
            try:
                ans = answer_fn(item, runs.last[k])
                probs += checks.problems(item, ans)
            except Exception as err:  # a wrong or unreadable answer is a failed check
                probs.append(repr(err))
        if probs:
            # a wrong answer fails every solve of the instance, an error only its own pass
            failed += runs.passes if len(probs) > len(runs.errors[k]) else len(runs.errors[k])
            notes += [f"{item.name}: {p}" for p in probs]
        answers.append(ans)
    return answers, failed, notes


def percentile(values, pct):
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1]) \
        if len(values) > 1 else float(values[0])


def end_to_end(items, runs, answers, setups):
    good = [a for a in answers if a is not None]
    samples = [t for ts in runs.times() for t in ts]
    setup_times = [runs.clock.scale(dt, before) for dt, before in setups]
    ratio = (lambda f: statistics.fmean(f(a) for a in good)) if good else (lambda f: 0.0)
    metrics = {
        "corpus_s": (runs.corpus_s(), "s"),
        "solve_ms.p50": (percentile(samples, 50) * 1e3, "ms"),
        "solve_ms.p90": (percentile(samples, 90) * 1e3, "ms"),
        "nodes": (sum(a.nodes for a in good), "count"),
        "bound_evals": (sum(a.bound_evals for a in good), "count"),
        "root_ratio": (ratio(lambda a: a.root / a.value), "ratio"),
        "heuristic_ratio": (ratio(lambda a: a.heuristic / a.value), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (f"{len(items)} instances x {runs.passes} passes = {len(samples)} solves; "
            f"solve_ms percentiles over {len(samples)} samples; "
            f"setup_s median of {len(setup_times)} set-ups; measured before scaling: "
            f"corpus_s={runs.corpus_s(raw=True):.4f} "
            f"setup_s={statistics.median(dt for dt, _ in setups):.4f}")
    return metrics, note


def round_trip(items, workdir):
    """Write and read back every single-exponent instance; returns (write_s, read_s, notes)."""
    write_s = read_s = 0.0
    notes = []
    for k, item in enumerate(items):
        if item.instance.shared_exponent is None:
            continue
        path = os.path.join(workdir, f"roundtrip-{k}.txt")
        t0 = time.perf_counter()
        latalloc.write_instance(item.instance, path)
        t1 = time.perf_counter()
        back = latalloc.read_instance(path)
        read_s += time.perf_counter() - t1
        write_s += t1 - t0
        if back != item.instance:
            notes.append(f"{item.name}: instance changed in a write/read round trip")
    return write_s, read_s, notes


def per_layer(workload, items, untraced, traced, tracer, answers, gen_times, workdir):
    """Per-layer metrics from the traced passes and the replay.

    Returns (metrics, unmeasured, problems): a metric whose layer could not
    be measured reads 0 and is named in ``unmeasured`` with the reason;
    ``problems`` are failed consistency checks of the replay and round trip.
    """
    metrics, unmeasured, problems = {}, [], []
    good = [a for a in answers if a is not None]
    cli = workload == "cli-files"
    root_name = ROOT_SPAN[cli]

    def put(name, value, unit, why_missing=None):
        if value is None:
            unmeasured.append(f"{name} ({why_missing})")
            value = 0.0
        metrics[name] = (float(value), unit)

    spans = [s for s in tracer.spans if s is not None]
    dur = {}
    for _, sid, parent, name, t0, t1 in spans:
        dur.setdefault(name, []).append(t1 - t0)
    by_id = {s[1]: s for s in spans}
    solve_name = tracing.CLI_SOLVE if cli else root_name
    solve_ids = {s[1] for s in spans if s[3] == solve_name}
    solve_total = sum(dur.get(solve_name, [])) or None
    p_t = traced.passes
    nodes_pass = sum(a.nodes for a in good)
    evals_pass = sum(a.bound_evals for a in good)

    def missing(name):
        return f"{name} not found" if name in tracer.missing else "no calls recorded"

    # relax and kkt, replayed on recorded nodes
    bound_fn = getattr(getattr(latalloc, "relax", None), "continuous_relaxation_bound", None)
    restricted_fn = getattr(getattr(latalloc, "kkt", None), "solve_restricted", None)
    if bound_fn is None or restricted_fn is None:
        why = why_kkt = "continuous_relaxation_bound or solve_restricted not found"
        root_us, relax_us, kkt_us = [], [], {"single": [], "mixed": []}
        relax_est = None
    else:
        why, why_kkt = missing(tracing.BRANCH), "no such support among the replayed ones"
        root_us, node_us, kkt_us, mism = tracing.replay(items, tracer.nodes,
                                                        bound_fn, restricted_fn)
        problems += [f"{name}: replayed bound differs from the solver's node bound"
                     for name in mism]
        relax_us = [t for ts in node_us for t in ts]
        # every evaluation of an instance priced at the mean of its replays, root included
        relax_est = sum(a.bound_evals * statistics.fmean([root_us[k]] + node_us[k]) * 1e-6
                        for k, a in enumerate(answers) if a is not None)
    put("relax.eval_us.p50", statistics.median(relax_us) if relax_us else None, "us", why)
    put("relax.root_us", statistics.median(root_us) if root_us else None, "us", why)
    put("relax.share", relax_est * p_t / solve_total if relax_us and solve_total else None,
        "ratio", why)
    put("kkt.restricted_us.p50",
        statistics.median(kkt_us["single"]) if kkt_us["single"] else None, "us", why_kkt)
    put("kkt.restricted_mixed_us.p50",
        statistics.median(kkt_us["mixed"]) if kkt_us["mixed"] else None, "us", why_kkt)

    # heuristic
    heur = [d for n in tracing.HEURISTICS for d in dur.get(n, [])]
    n_roots = len(dur.get(root_name, []))
    put("heuristic.run_ms.p50", statistics.median(heur) * 1e3 if heur else None, "ms",
        "primal_heuristic not found or never called")
    put("heuristic.calls", len(heur) / n_roots if heur and n_roots else None, "calls/solve",
        "primal_heuristic not found or never called")
    put("heuristic.share", sum(heur) / sum(dur[root_name]) if heur and n_roots else None,
        "ratio", "primal_heuristic not found or never called")
    hits = [a.heuristic <= a.value + checks.RTOL * max(1.0, abs(a.value)) for a in good]
    put("heuristic.hit_rate", sum(hits) / len(hits) if hits else None, "ratio", "no answers")

    # bnb
    branch = dur.get(tracing.BRANCH, [])
    put("bnb.branch_us.p50", statistics.median(branch) * 1e6 if branch else None, "us",
        missing(tracing.BRANCH))
    put("bnb.branch_calls", len(branch) / p_t if branch else None, "count",
        missing(tracing.BRANCH))
    put("bnb.node_us", solve_total / p_t / nodes_pass * 1e6 if solve_total and nodes_pass
        else None, "us", missing(solve_name))
    put("bnb.eval_ratio", evals_pass / nodes_pass if nodes_pass else None, "ratio", "no answers")
    put("bnb.incumbent_updates", sum(a.incumbent_updates - 1 for a in good) if good else None,
        "count", "no answers")
    # self time of the solve spans: minus the wrapped children, so it includes
    # the relax and kkt calls that bnb makes privately
    in_solve = sum(t1 - t0 for _, _, parent, name, t0, t1 in spans
                   if parent in solve_ids and (name in tracing.HEURISTICS or name == tracing.BRANCH))
    put("bnb.self_share", (solve_total - in_solve) / solve_total if solve_total else None,
        "ratio", missing(solve_name))

    # instances
    write_s, read_s, rt_problems = round_trip(items, workdir)
    problems += rt_problems
    put("instances.generate_ms", statistics.median(gen_times) * 1e3, "ms")
    writable = any(item.instance.shared_exponent is not None for item in items)
    put("instances.write_ms", write_s * 1e3 if writable else None, "ms", "no writable instance")
    put("instances.read_ms", read_s * 1e3 if writable else None, "ms", "no writable instance")

    # cli
    if cli and dur.get(root_name) and dur.get(tracing.CLI_SOLVE):
        mains = {s[1]: s[5] - s[4] for s in spans if s[3] == root_name}
        overhead = [mains[by_id[sid][2]] - (by_id[sid][5] - by_id[sid][4]) for sid in solve_ids]
        put("cli.solve_ms.p50", statistics.median(mains.values()) * 1e3, "ms")
        put("cli.overhead_ms", statistics.median(overhead) * 1e3, "ms")
    else:
        why_cli = "not a cli workload" if not cli else missing(tracing.CLI_SOLVE)
        put("cli.solve_ms.p50", None, "ms", why_cli)
        put("cli.overhead_ms", None, "ms", why_cli)

    put("tracing.overhead", traced.corpus_s() / untraced.corpus_s() - 1.0, "ratio")
    return metrics, unmeasured, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corpus", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    cli = args.workload == "cli-files"
    call = _cli_call if cli else _library_call
    clock = SpeedClock()
    items, gen_times, setups = set_up(args.workload, args.seed, args.corpus, workdir, clock)

    untraced = Runs(len(items), clock)
    traced = Runs(len(items), clock)
    tracer = tracing.Tracer()
    t_start = time.perf_counter()
    while True:
        step = run_pass(items, call, untraced)
        if args.trace:
            tracer.record_nodes = traced.passes == 0
            tracer.install()
            try:
                step += run_pass(items, call, traced, tracer, ROOT_SPAN[cli])
            finally:
                tracer.uninstall()
            done = traced.passes >= MIN_TRACED_PAIRS
        else:
            done = untraced.passes >= MIN_PASSES
        if done and time.perf_counter() - t_start + step > args.seconds:
            break

    if args.trace:
        # a traced solve must give the untraced answer; only the untraced one is checked
        for k in range(len(items)):
            if traced.last[k] is not None and untraced.last[k] is not None \
                    and _signature(traced.last[k]) != _signature(untraced.last[k]):
                traced.errors[k].append("traced result differs from the untraced one")
    answer_fn = checks.cli_answer if cli else checks.library_answer
    answers, failed, notes = check_answers(items, untraced, answer_fn)
    runs = [untraced, traced] if args.trace else [untraced]
    attempted = sum(len(t) for r in runs for t in r.raw)
    if args.trace:
        failed += sum(len(e) for e in traced.errors)
        notes += [f"{items[k].name}: {e}" for k, es in enumerate(traced.errors) for e in es]
        metrics, unmeasured, problems = per_layer(args.workload, items, untraced, traced,
                                                  tracer, answers, gen_times, workdir)
        failed += len(problems)
        notes += problems
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        print(f"# {args.workload} seed={args.seed}: {len(tracer.spans)} spans over "
              f"{traced.passes} traced passes -> {spans_path.relative_to(ROOT)}")
        for u in unmeasured:
            print(f"# unmeasured: {u}")
    else:
        metrics, note = end_to_end(items, untraced, answers, setups)
        print(f"# {args.workload} seed={args.seed}: {note}")
    for n in notes:
        print(f"perfbench: {n}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
