"""Tests for the perf-trajectory ledger (:mod:`benchmarks.trajectory`)."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.trajectory import (  # noqa: E402
    FIELDS,
    LATE_FIELDS,
    append_result,
    load_rows,
)


def make_result(tmp_path, value=1000.0):
    payload = {
        "schema": "repro-bench/1",
        "benchmark": "ci_bench",
        "metrics": {
            "construction_s": {"value": 0.01, "unit": "seconds",
                               "direction": "lower"},
            "enumeration_paths_per_s": {"value": value, "unit": "paths/s",
                                        "direction": "higher"},
            "update_throughput_per_s": {"value": 500.0, "unit": "updates/s",
                                        "direction": "higher"},
            "cold_query_paths_per_s.heavy": {"value": 4.0e5,
                                             "unit": "paths/s",
                                             "direction": "higher"},
        },
    }
    target = tmp_path / "result.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    return target


def test_append_creates_ledger_with_header(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    row = append_result(make_result(tmp_path), csv_path=csv_path,
                        date="2026-08-09", commit="abc1234")
    assert row["date"] == "2026-08-09"
    assert row["commit"] == "abc1234"
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(FIELDS)
    assert load_rows(csv_path) == [row]


def test_append_is_idempotent_per_date_and_commit(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    append_result(make_result(tmp_path, 1000.0), csv_path=csv_path,
                  date="2026-08-09", commit="abc1234")
    append_result(make_result(tmp_path, 2000.0), csv_path=csv_path,
                  date="2026-08-09", commit="abc1234")
    rows = load_rows(csv_path)
    assert len(rows) == 1
    assert float(rows[0]["enumeration_paths_per_s"]) == 2000.0


def test_append_accumulates_distinct_runs(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    append_result(make_result(tmp_path), csv_path=csv_path,
                  date="2026-08-08", commit="abc1234")
    append_result(make_result(tmp_path), csv_path=csv_path,
                  date="2026-08-09", commit="abc1234")
    append_result(make_result(tmp_path), csv_path=csv_path,
                  date="2026-08-09", commit="def5678")
    assert len(load_rows(csv_path)) == 3


def test_append_rejects_non_bench_payload(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other"}), encoding="utf-8")
    with pytest.raises(ValueError, match="repro-bench/1"):
        append_result(bad, csv_path=tmp_path / "trajectory.csv")


def test_append_rejects_missing_metric(tmp_path):
    payload = {"schema": "repro-bench/1", "metrics": {}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="missing metric"):
        append_result(bad, csv_path=tmp_path / "trajectory.csv")


def test_load_rejects_foreign_header(tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected trajectory header"):
        load_rows(csv_path)


def test_committed_ledger_is_well_formed():
    rows = load_rows(ROOT / "benchmarks" / "results" / "trajectory.csv")
    assert rows, "the committed trajectory ledger must have a seed row"
    for row in rows:
        assert row["date"] and row["commit"]
        for name in FIELDS[2:]:
            if name in LATE_FIELDS and row[name] == "":
                continue  # recorded before the column existed
            assert float(row[name]) >= 0.0
