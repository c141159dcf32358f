"""Benchmark of the strathom CLI verbs: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The run sets up the workload's inputs (five times, for a median), then runs
whole rounds of its job list until the next round would end after S
seconds (at least one round), then checks every output.  Times are reported
in reference seconds, wall time corrected for the machine's speed as
sampled during the run (see `pace`).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1` (a
separate run with spans recorded around each layer's functions; see
`tracer`).  Raw wall times go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 5
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
              "hit_ms": "ms"}
PER_LAYER = {
    "cli.load_s": "s", "cli.render_s": "s",
    "cli.cache_hits": "count", "cli.cache_misses": "count",
    "fincat.validate_s": "s", "fincat.validate_triples": "count",
    "cyclo.free_monoid_build_s": "s", "cyclo.psi_s": "s",
    "cyclo.compose_entries": "count",
    "facthom.trace_table_s": "s", "facthom.set_value_s": "s",
    "facthom.complex_build_s": "s", "facthom.total_complex_s": "s",
    "facthom.complex_dim_sum": "count", "facthom.boundary_nnz_sum": "count",
    "enrich.validate_linear_s": "s",
    "exactla.rank_s": "s", "exactla.rank_calls": "count",
    "exactla.rank_nnz_in": "count",
    "exactla.smith_s": "s", "exactla.smith_calls": "count",
    "exactla.smith_nnz_in": "count",
    "enrich.pushforward_s": "s", "enrich.index_check_s": "s",
    "enrich.pushforward_elements": "count",
    "manifold.compose_spans_s": "s", "checks.span_pairs_s": "s",
    "checks.suite_self_s": "s", "checks.span_pairs": "count",
}


class SetupError(Exception):
    pass


def import_program():
    """Import strathom afresh from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "strathom" or m.startswith("strathom.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        cli = importlib.import_module("strathom.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import strathom from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"strathom was imported from {cli.__file__}, not {src}")
    return cli


def set_up(workload, seed, small, directory):
    """Import the program, build the inputs and write their JSON files.
    Returns the wall interval (ns), the CLI module and the job list."""
    t0 = perf_counter_ns()
    cli = import_program()
    os.makedirs(directory)
    jobs = workloads.WORKLOADS[workload](directory, seed, small)
    return (t0, perf_counter_ns()), cli, jobs


class Op:
    """The outcome of every call of one job."""

    def __init__(self, job):
        self.job = job
        self.first = None    # first output: stdout text or returned value
        self.first_ok = False
        self.calls = 0
        self.errors = 0      # nonzero exit codes and exceptions
        self.differing = 0   # outputs that differ from the first


def call(cli, job, cache_dir, op):
    """Run one job, record its outcome in `op`, return its wall interval
    (ns)."""
    ok, out = False, None
    t0 = perf_counter_ns()
    try:
        if isinstance(job, workloads.LibJob):
            out = job.run()
            ok = True
        else:
            argv = list(job.argv) + (["--cache", cache_dir] if job.cache else [])
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out, ok = buf.getvalue(), code == 0
    except Exception as exc:  # an operation that raises is a failed operation
        out = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:  # argparse rejects an argv
        out = f"exit {exc.code}"
    t1 = perf_counter_ns()
    op.calls += 1
    if not ok:
        op.errors += 1
    if op.calls == 1:
        op.first, op.first_ok = out, ok
    elif out != op.first:
        op.differing += 1
    return t0, t1


def measure(cli, jobs, seconds, tmp, tracer=None, min_rounds=1):
    """Whole rounds of the job list and its cache hits: at least
    `min_rounds`, then more until the next round would likely end after
    `seconds`.  Returns the rounds' wall intervals (ns), the hits' wall
    intervals, and the outcomes keyed by job."""
    ops = {}
    for job in jobs:
        ops.setdefault(_key(job), Op(job))
    plan = workloads.round_plan(jobs)
    rounds, hits = [], []
    start = perf_counter_ns()
    while True:
        cache_dir = os.path.join(tmp, f"cache{len(rounds)}")
        gc.collect()
        if tracer:
            tracer.begin_round()
        t0 = perf_counter_ns()
        for job, is_hit in plan:
            interval = call(cli, job, cache_dir, ops[_key(job)])
            if is_hit:
                hits.append(interval)
        rounds.append((t0, perf_counter_ns()))
        if tracer:
            tracer.end_round()
        shutil.rmtree(cache_dir, ignore_errors=True)
        typical = statistics.median(t1 - t0 for t0, t1 in rounds)
        if (len(rounds) >= min_rounds
                and perf_counter_ns() - start + typical > seconds * 1e9):
            return rounds, hits, ops


def _key(job):
    return job.argv if isinstance(job, workloads.CliJob) else job.label


def verify(ops):
    """Check each job's first output.  Returns (correct, failed calls,
    problems).  Every call of a job whose output is wrong fails; so does a
    call that errs or whose output differs from the job's first."""
    correct, failed, problems = True, 0, []
    for op in ops.values():
        wrong = op.differing > 0
        if op.first_ok:
            try:
                parsed = (json.loads(op.first)
                          if isinstance(op.job, workloads.CliJob) else op.first)
                found = op.job.check(parsed)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                found = [f"unreadable output ({type(exc).__name__}: {exc})"]
            problems += [f"{op.job.label}: {p}" for p in found]
            wrong = wrong or bool(found)
        else:
            problems.append(f"{op.job.label}: {str(op.first)[:300]}")
        if op.differing:
            problems.append(f"{op.job.label}: {op.differing} outputs differ "
                            "from the first")
        correct = correct and not wrong
        failed += op.calls if (wrong or not op.first_ok) else op.errors
    return correct, failed, problems


def run(workload, seed, seconds, trace, tmp, small=False, trace_path=None):
    """One run: set-up, rounds, checks.  Returns the result object."""
    tracer = Tracer() if trace else None
    with Pace() as pace:
        setups = []
        for k in range(SETUPS):
            interval, cli, jobs = set_up(workload, seed, small,
                                         os.path.join(tmp, f"inputs{k}"))
            setups.append(interval)
        if tracer:
            tracer.install()
            for name in tracer.missing:
                print(f"perfbench: traced function {name} is missing",
                      file=sys.stderr)
        try:
            rounds, hits, ops = measure(
                cli, jobs, seconds, tmp, tracer,
                1 if small else workloads.MIN_ROUNDS.get(workload, 1))
        finally:
            if tracer:
                tracer.uninstall()
    correct, failed, problems = verify(ops)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    scales = [pace.scale(t0, t1) for t0, t1 in rounds]
    solve = statistics.median(pace.seconds(t0, t1, k)
                              for (t0, t1), k in zip(rounds, scales))
    wall = statistics.median((t1 - t0) / 1e9 for t0, t1 in rounds)
    hit_wall = statistics.median((t1 - t0) / 1e6 for t0, t1 in hits)
    print(f"perfbench: {workload} seed {seed}: {len(rounds)} rounds, solve_s "
          f"{solve:.4f}{' traced' if trace else ''} (wall {wall:.4f}, speed "
          + " ".join(f"{k:.3f}" for k in scales)
          + f"), hit wall ms {hit_wall:.4f}", file=sys.stderr)
    if trace:
        metrics = per_layer(tracer, scales)
        if trace_path:
            tracer.write(trace_path)
    else:
        setup_scale = pace.scale(setups[0][0], setups[-1][1])
        metrics = {
            "setup_s": statistics.median(pace.seconds(t0, t1, setup_scale)
                                         for t0, t1 in setups),
            "solve_s": solve,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # a hit takes about a millisecond: its speed is that of the
            # probes nearest to it
            "hit_ms": 1000 * statistics.median(pace.seconds(t0, t1)
                                               for t0, t1 in hits),
        }
    units = PER_LAYER if trace else END_TO_END
    attempted = sum(op.calls for op in ops.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def per_layer(tracer, scales):
    """Each per-layer metric as the median over rounds of its per-round
    value: self time of a span name in reference seconds, or a count."""
    times = tracer.self_times()
    out = {}
    for name in PER_LAYER:
        if PER_LAYER[name] == "s":
            per_round = [t.get(name, 0) * k for t, k in zip(times, scales)]
        else:
            per_round = [c.get(name, 0) for c in tracer.round_counts]
        out[name] = statistics.median(per_round)
    return out


def main(argv=None):
    # a user's cache directory would turn every timed verb into a cache hit
    os.environ.pop("FH_CACHE", None)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strathom").is_dir():
        print(f"perfbench: no strathom sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    # on SIGTERM, unwind so that the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    tempfile.tempdir = tmp
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, tmp,
                     trace_path=trace_path)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
