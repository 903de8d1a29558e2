"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest -q cdbench/selftest.py

(The file is not named test_*.py, so the package's test suite does not
collect it.)  About a minute: it runs each workload traced twice.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE = ["--deadline-s", "30"]


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "cdbench" / "run.py"), *DEADLINE,
         *args], capture_output=True, text=True, cwd=cwd, timeout=300,
        env=env)


def _traced(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = _bench("--workload", workload, "--seconds", "0", "--trace", "1",
                 env=env)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    return {k: v["value"] for k, v in doc["metrics"].items()}


def _exact(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", "_ratio", ".peak_terms",
                           ".pairings_per_call", ".witnesses"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_hash_seeds(workload):
    # the traced run itself exits 1 when a bypass assertion fails
    first = _traced(workload, 1)
    second = _traced(workload, 2)
    assert set(first) == {name for name, _ in tracer.metric_names()}
    assert _exact(first) == _exact(second)
    assert first["coupling.witnesses"] == second["coupling.witnesses"]


def test_bypass_assertions_catch_unexpected_traffic():
    metrics = {name: 0 for name, _ in tracer.metric_names()}
    metrics["fractionfield.divide_exact.calls"] = 3
    assert run.bypass_problems("scaled", metrics)
    metrics["cli.run.calls"] = metrics["symexpr.parse.calls"] = 1
    assert run.bypass_problems("corpus", metrics)
    metrics["fractionfield.divide_exact.calls"] = 0
    assert not run.bypass_problems("corpus", metrics)


def test_wrappers_cover_every_binding_and_are_removed():
    run._purge()
    run._import_all()
    import couplingdirac
    from couplingdirac import coupling, symexpr

    originals = (coupling.rat_inverse, symexpr.ScalarExpr.__radd__,
                 couplingdirac.check_integrability)
    trace = tracer.Tracer()
    extra = [sys.modules["corpus_util"]]
    trace.install(extra)
    try:
        # bound by name in coupling, aliased as __radd__, re-exported
        assert hasattr(coupling.rat_inverse, "traced_layer")
        assert hasattr(symexpr.ScalarExpr.__radd__, "traced_layer")
        assert hasattr(couplingdirac.check_integrability, "traced_layer")
        assert hasattr(sys.modules["corpus_util"].cartan_data,
                       "traced_layer")
        assert tracer.leftover_wrappers(extra)
    finally:
        trace.uninstall()
    assert tracer.leftover_wrappers(extra) == []
    assert (coupling.rat_inverse, symexpr.ScalarExpr.__radd__,
            couplingdirac.check_integrability) == originals


def test_deadline_interrupts_a_long_decompose():
    run._purge()
    run._import_all()
    import signal
    import time

    from couplingdirac import (BaseForm, Connection, FiberedPatch,
                               GeometricData, Multivector, coupling)

    # every 2-form entry non-constant: decompose(extract(d)) does not finish
    # within a minute on this input (extract takes 0.05 s)
    patch = FiberedPatch.build("x1 x2 x3 x4", "q p")
    P = patch.parse
    data = GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("1 + x3*q"), ("x1", "x3"): P("x2 + p"),
            ("x1", "x4"): P("q*p"), ("x2", "x3"): P("2 + x1*x4"),
            ("x2", "x4"): P("x3 - q"), ("x3", "x4"): P("1 + p^2")}))
    Pi = coupling.extract_poisson(data)
    slow = workloads.Op("decompose", "dense-4x2",
                        lambda: coupling.decompose_coupling(Pi, patch),
                        lambda _: None)
    quick = workloads.Op("check", "flat", lambda: 0, lambda _: None)
    ops = [slow, quick]
    results = run.Results(ops)
    old = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        run.run_pass(ops, 1.0, results)
        elapsed = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, old)
    assert 1.0 <= elapsed < 2.0
    assert results.missed == [1] and results.failed == 1
    assert results.wrong == []
    assert results.fastest[1] < 1.0  # the next op runs normally


def test_wrong_answer_exits_nonzero(monkeypatch, capsys):
    # an answer that disagrees with the known one, as a broken oracle's would
    real = workloads._fixed_answer
    monkeypatch.setattr(workloads, "_expected", lambda *args: {})
    monkeypatch.setattr(workloads, "_fixed_answer", lambda name: (
        ("jacobi",) if name == "flat0" else real(name)))
    code = run.main(DEADLINE + ["--workload", "corpus", "--seconds", "0"])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and doc["correct"] is False and doc["failed"] == 2


def test_fails_without_the_package_sources():
    lone = BENCH / "out" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    shutil.copytree(BENCH, lone / "cdbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        out = _bench("--workload", "corpus", "--seconds", "1", "--trace", "0",
                     cwd=lone)
    finally:
        shutil.rmtree(lone)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
