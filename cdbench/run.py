"""couplingdirac benchmark: one closed-loop caller, one workload per process.

    python3 cdbench/run.py --deadline-s 30 --workload corpus --seed 271828 \\
        --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout, never from an installed copy.  Untraced (``--trace 0``), the
op list of one pass is repeated until ``--seconds`` have passed, with a
fixed calibration kernel timed between ops, and the end-to-end metrics are
printed one per line, then as the JSON last line.
Traced (``--trace 1``), set-up and one pass run under the tracer, the
tracer is removed, untraced passes fill ``--seconds``, and the per-layer
metrics plus the tracing overhead are printed.  Any wrong answer exits 1.
See cdbench/README.md.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "out"
SETUP_REPEATS = 7

import tracer  # noqa: E402  (sibling module; the script's directory is on sys.path)
import workloads  # noqa: E402

# gated metrics, reported on every workload (see BENCHMARK.json); "cal" is
# the calibration kernel's time around the same op execution
END_TO_END = (("setup_s", "s"), ("ops_per_cal", "1/cal"),
              ("op_p50_cal", "cal"), ("op_p90_cal", "cal"),
              ("peak_rss_mb", "MB"))
# latency of one op kind, printed where the workload has that kind
KIND_METRICS = {"check": "check_p50_ms", "verify": "verify_p50_ms",
                "extract": "extract_p50_ms", "decompose": "decompose_p50_ms",
                "fat": "fat_check_p50_ms"}


class DeadlineMissed(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineMissed


_KERNEL_TERMS = [((i, j), Fraction(i + 1, j + 2))
                 for i in range(6) for j in range(5)]


def calibration_kernel():
    """Seconds for one fixed product of two 30-term sparse polynomials with
    Fraction coefficients: dict and Fraction work like the package's ring,
    but in code the package cannot change."""
    start = perf_counter()
    out = {}
    for (i, j), c in _KERNEL_TERMS:
        for (k, m), d in _KERNEL_TERMS:
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d
    return perf_counter() - start


def _purge():
    for name in list(sys.modules):
        if (name == "corpus_util" or name == tracer.PACKAGE
                or name.startswith(tracer.PACKAGE + ".")):
            del sys.modules[name]


def _check_source():
    module = sys.modules[tracer.PACKAGE]
    if Path(module.__file__).resolve().parent != ROOT / "src" / tracer.PACKAGE:
        raise SystemExit(f"imported {module.__file__}, not this checkout")


def _import_all():
    for name in ("", ".cli", ".coupling", ".constructions", ".fibered",
                 ".fractionfield", ".symexpr", ".tensorcalc"):
        importlib.import_module(tracer.PACKAGE + name)
    importlib.import_module("corpus_util")
    _check_source()


def set_up(workload, seed, workdir):
    """Fresh import plus input generation, timed; returns (seconds, ops)."""
    _purge()
    start = perf_counter()
    ops = workloads.build(workload, seed, workdir)
    elapsed = perf_counter() - start
    _check_source()
    return elapsed, ops


class Results:
    """Every execution of the ops of one pass list.

    The calibration kernel runs between consecutive ops, and an
    execution's time in ``cal`` is its wall time over the mean of the
    kernel times just before and just after it.  An op's latency is the
    median of its executions in ``cal``; its wall-clock latency is its
    fastest execution.  An op that ever failed has an infinite latency.
    """

    def __init__(self, ops):
        self.ops = ops
        self.in_cal = [[] for _ in ops]
        self.fastest = [math.inf] * len(ops)
        self.failed_op = [False] * len(ops)
        self.kernel = []     # every calibration kernel time
        self.attempted = 0
        self.failed = 0
        self.wrong = []      # wrong answers and exceptions
        self.missed = []     # ids of ops interrupted by the deadline

    def record(self, i, elapsed, problem=None, missed=False):
        self.attempted += 1
        if problem or missed:
            self.failed += 1
            self.failed_op[i] = True
            if problem:
                self.wrong.append(problem)
        else:
            self.fastest[i] = min(self.fastest[i], elapsed)

    def latencies(self):
        """(per op in cal, per op in seconds); inf for failed ops."""
        cal, wall = [], []
        for samples, fastest, bad in zip(self.in_cal, self.fastest,
                                         self.failed_op):
            cal.append(math.inf if bad else statistics.median(samples))
            wall.append(math.inf if bad else fastest)
        return cal, wall


def run_pass(ops, deadline, results, trace=None):
    """One pass over ``ops``; returns the summed op time of the pass in
    ``cal``.  Under ``trace``, op ``i`` records its spans with op id
    ``i + 1``; the kernel runs outside every span."""
    total = 0.0
    before = calibration_kernel()
    for i, op in enumerate(ops):
        if trace is not None:
            trace.op_id = i + 1
        signal.setitimer(signal.ITIMER_REAL, deadline)
        start = perf_counter()
        try:
            result = op.call()
            elapsed = perf_counter() - start
        except DeadlineMissed:
            elapsed = perf_counter() - start
            results.record(i, elapsed, missed=True)
            results.missed.append(i + 1)
            continue
        except Exception as exc:  # an op that raises is a failed op
            elapsed = perf_counter() - start
            results.record(i, elapsed, f"{op.name}: {op.kind} raised "
                                       f"{type(exc).__name__}: {exc}")
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if trace is not None:
                trace.op_id = -1
        after = calibration_kernel()
        results.kernel.append(after)
        results.in_cal[i].append(elapsed * 2 / (before + after))
        total += results.in_cal[i][-1]
        before = after
        results.record(i, elapsed, op.check(result))
    return total


def run_for(ops, seconds, deadline, results):
    """Whole passes until ``seconds`` have passed; the op time of each
    pass in ``cal``."""
    passes = []
    end = perf_counter() + seconds
    while not passes or perf_counter() < end:
        passes.append(run_pass(ops, deadline, results))
    return passes


def percentile(values, q):
    """Nearest-rank percentile (an observed value)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(results, setup_times):
    """Gated metrics, and the printed-only ones as (value, unit)."""
    cal, wall = results.latencies()
    out = {
        "setup_s": statistics.median(setup_times),
        "ops_per_cal": _rate(cal),
        "op_p50_cal": percentile(cal, 0.5),
        "op_p90_cal": percentile(cal, 0.9),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"cal_ms": (statistics.median(results.kernel) * 1e3, "ms"),
             "ops_per_s": (_rate(wall), "1/s"),
             "op_p50_ms": (percentile(wall, 0.5) * 1e3, "ms"),
             "op_p90_ms": (percentile(wall, 0.9) * 1e3, "ms"),
             "failed_share": (results.failed / results.attempted, "1")}
    for kind, name in KIND_METRICS.items():
        picked = [t for t, op in zip(wall, results.ops) if op.kind == kind]
        if picked:
            extra[name] = (percentile(picked, 0.5) * 1e3, "ms")
    return out, extra


def _rate(latencies):
    """Decided ops per unit of their summed latency."""
    decided = [t for t in latencies if math.isfinite(t)]
    return len(decided) / sum(decided) if decided else 0.0


def bypass_problems(workload, m):
    """The traffic each workload is meant to have, or to bypass."""
    problems = []
    fraction_calls = sum(v for k, v in m.items()
                         if k.startswith("fractionfield.")
                         and k.endswith(".calls"))
    if workload in ("corpus", "scaled") and fraction_calls:
        problems.append(f"{fraction_calls} fractionfield calls")
    if workload == "roundtrip" and m["tensorcalc.courant_bracket.calls"]:
        problems.append("courant_bracket was called")
    for name in ("cli.run.calls", "symexpr.parse.calls"):
        if (m[name] > 0) != (workload == "corpus"):
            problems.append(f"{name} = {m[name]}")
    return [f"{workload}: {p}" for p in problems]


def traced(workload, seed, seconds, deadline, workdir):
    """Per-layer metrics from one traced set-up and pass, and the overhead
    against untraced passes of the same ops."""
    _purge()
    _import_all()
    trace = tracer.Tracer()
    extra = [sys.modules["corpus_util"]]
    trace.install(extra)
    try:
        trace.op_id = 0  # set-up
        ops = workloads.build(workload, seed, workdir)
        trace.op_id = -1
        results = Results(ops)
        traced_cal = run_pass(ops, deadline, results, trace)
    finally:
        trace.uninstall()
    left = tracer.leftover_wrappers(extra)
    if left:
        raise SystemExit(f"tracing wrappers left installed: {left}")
    spans = len(trace.layer)
    untraced_cal = run_for(ops, seconds, deadline, results)
    if len(trace.layer) != spans:
        raise SystemExit("spans were recorded during untraced timing")
    trace.write(WORK / f"spans-{workload}")
    metrics = trace.metrics(results.missed,
                            traced_cal / statistics.median(untraced_cal))
    return results, metrics, bypass_problems(workload, metrics)


def untraced(workload, seed, seconds, deadline, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, ops = set_up(workload, seed, workdir)
        setup_times.append(elapsed)
    results = Results(ops)
    passes = run_for(ops, seconds, deadline, results)
    metrics, extra = end_to_end(results, setup_times)
    print(f"# {workload} seed {seed}: {len(passes)} passes of {len(ops)} "
          f"ops, {results.attempted} attempted, {results.failed} failed")
    for name, unit in END_TO_END:
        print(f"{name} = {metrics[name]!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value!r} {unit}")
    return results, {name: metrics[name] for name, _ in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline-s", type=float, required=True,
                        help="per-op limit; an op still running is "
                             "interrupted and counted as failed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / tracer.PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"no {tracer.PACKAGE} sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK / f"manifests-{args.workload}"

    if args.trace:
        results, metrics, problems = traced(
            args.workload, args.seed, args.seconds, args.deadline_s, workdir)
        units = dict(tracer.metric_names())
        for name, unit in tracer.metric_names():
            print(f"{name} = {metrics[name]!r} {unit}")
    else:
        results, metrics = untraced(
            args.workload, args.seed, args.seconds, args.deadline_s, workdir)
        units = dict(END_TO_END)
        problems = []
    problems = results.wrong + problems
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
