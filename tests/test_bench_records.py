"""Committed benchmark records agree with the benchmark they record.

Each ``BENCH_*.json`` at the repository root holds sets of runs of
``cdbench/run.py``, one final JSON line per run marked ``parent`` or
``change``, and per end-to-end metric each side's median and quartiles.
This checks that every set names a workload of ``BENCHMARK.json``, that
every run answered correctly with no failed op and reports every
end-to-end metric, and that each recorded median is the median of the
recorded runs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["sets"]
    for s in record["sets"]:
        assert s["workload"] in WORKLOADS, s["workload"]
        assert s["runs"]
        for run in s["runs"]:
            assert run["side"] in ("parent", "change")
            result = run["result"]
            assert result["correct"] is True, (s["workload"], run)
            assert result["failed"] == 0, (s["workload"], run)
            assert set(END_TO_END) <= set(result["metrics"]), run
        for name, summary in s["summary"].items():
            assert name in END_TO_END, name
            for side in ("parent", "change"):
                values = [run["result"]["metrics"][name]["value"]
                          for run in s["runs"] if run["side"] == side]
                assert summary[side]["median"] == statistics.median(values), \
                    (s["workload"], name, side)
    for workload in record.get("traced", {}).get("workloads", {}):
        assert workload in WORKLOADS, workload
