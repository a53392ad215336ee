"""Perf-trajectory ledger: one CSV row per scheduled benchmark run.

The scheduled CI job runs :mod:`benchmarks.ci_bench`, gates it with
:mod:`benchmarks.check_regression`, then appends the run's metrics to
``benchmarks/results/trajectory.csv`` — a committed, append-only ledger
of how the throughput axes move over time.  The CSV is plain and
diff-friendly: one header line, ISO dates, raw metric values.

Usage::

    python benchmarks/trajectory.py append RESULT.json [--csv FILE]
                                    [--date YYYY-MM-DD] [--commit SHA]
    python benchmarks/trajectory.py show [--csv FILE] [--last N]

``append`` is idempotent per ``(date, commit)``: re-running the job for
the same commit on the same day replaces the previous row instead of
stacking duplicates.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_CSV = ROOT / "benchmarks" / "results" / "trajectory.csv"

#: CSV schema; ``append`` refuses a ledger whose header disagrees.
FIELDS = [
    "date",
    "commit",
    "construction_s",
    "enumeration_paths_per_s",
    "update_throughput_per_s",
    "cold_query_paths_per_s.heavy",
]

#: Columns added after the ledger's first row.  Rows recorded before a
#: column existed leave its cell blank; every new row must fill it.
LATE_FIELDS = frozenset({"cold_query_paths_per_s.heavy"})


def _current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def load_rows(csv_path: Path) -> List[dict]:
    """The ledger's rows as dicts (empty list if the file is missing)."""
    if not csv_path.exists():
        return []
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is not None and list(reader.fieldnames) != FIELDS:
            raise ValueError(
                f"unexpected trajectory header {reader.fieldnames!r}"
            )
        return list(reader)


def _write_rows(csv_path: Path, rows: List[dict]) -> None:
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def append_result(
    result_path: Path,
    csv_path: Path = DEFAULT_CSV,
    date: str | None = None,
    commit: str | None = None,
) -> dict:
    """Append one benchmark result to the ledger; returns the new row.

    The result file must be a ``repro-bench/1`` payload carrying every
    metric in :data:`FIELDS`.  An existing row with the same
    ``(date, commit)`` is replaced in place.
    """
    payload = json.loads(result_path.read_text(encoding="utf-8"))
    if payload.get("schema") != "repro-bench/1":
        raise ValueError(f"not a repro-bench/1 payload: {result_path}")
    metrics = payload.get("metrics", {})
    row = {
        "date": date or time.strftime("%Y-%m-%d"),
        "commit": commit or _current_commit(),
    }
    for name in FIELDS[2:]:
        if name not in metrics:
            raise ValueError(f"result is missing metric {name!r}")
        row[name] = repr(float(metrics[name]["value"]))
    rows = [
        r
        for r in load_rows(csv_path)
        if (r["date"], r["commit"]) != (row["date"], row["commit"])
    ]
    rows.append(row)
    _write_rows(csv_path, rows)
    return row


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_append = sub.add_parser("append", help="append one result to the CSV")
    p_append.add_argument("result", help="repro-bench/1 JSON result file")
    p_append.add_argument("--csv", default=str(DEFAULT_CSV))
    p_append.add_argument("--date", default=None, help="override the date")
    p_append.add_argument("--commit", default=None, help="override the sha")
    p_show = sub.add_parser("show", help="print the most recent rows")
    p_show.add_argument("--csv", default=str(DEFAULT_CSV))
    p_show.add_argument("--last", type=int, default=10)
    args = parser.parse_args(argv)

    if args.cmd == "append":
        row = append_result(
            Path(args.result),
            csv_path=Path(args.csv),
            date=args.date,
            commit=args.commit,
        )
        print(",".join(row[f] for f in FIELDS))
        return 0
    rows = load_rows(Path(args.csv))
    for row in rows[-args.last:]:
        print(",".join(row[f] for f in FIELDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "FIELDS",
    "LATE_FIELDS",
    "load_rows",
    "append_result",
    "main",
]
