"""Perf-regression guard over the committed ``BENCH_*.json`` floors.

Each tracked benchmark suite commits a JSON record at the repo root
(``BENCH_service.json`` — EXP-SERVICE, ``BENCH_mutations.json`` —
EXP-LIVE, ``BENCH_wal.json`` — EXP-WAL, ``BENCH_semantics.json`` —
EXP-SEM, ``BENCH_serve.json`` — EXP-CONC, ``BENCH_obs.json`` —
EXP-OBS) whose ``speedup_target`` field is the suite's acceptance
floor (SERVICE ≥2×, LIVE ≥5×, WAL ≥0.5× — i.e. group-commit
durability within 2× of no WAL — SEM ≥1.5× — any-walk beats the full
shortest pipeline — CONC ≥2× — the multi-process serving tier beats
the single-process service at 4 workers — and OBS ≥0.95× — full
instrumentation within 5% of disabled).

This script compares a **fresh re-run** of those suites (their
``BENCH_*_JSON`` env hooks pointed at ``--fresh-dir``) against the
committed floors and fails when any *asserted* row drops below its
floor.  A committed row is "asserted" when its own recorded value
clears the floor — contrast rows a suite deliberately ships below
the bar are not held to it.

Shared CI runners are noisy, so the bench-smoke job applies a
``--slack`` factor to the wall-clock floors (a fresh speedup may be as
low as ``floor × slack`` before the job fails): the guard then catches
integer-factor regressions — a cache that stopped hitting, an index
build re-running per query — without flaking on scheduler jitter.

Usage::

    python benchmarks/check_floors.py --fresh-dir /tmp/bench-json \
        [--committed-dir .] [--slack 0.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

#: Committed file → experiment name (documentation; the files carry
#: their floors in-band as ``speedup_target``).
TRACKED = {
    "BENCH_service.json": "EXP-SERVICE",
    "BENCH_mutations.json": "EXP-LIVE",
    "BENCH_wal.json": "EXP-WAL",
    "BENCH_semantics.json": "EXP-SEM",
    "BENCH_serve.json": "EXP-CONC",
    "BENCH_obs.json": "EXP-OBS",
}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_file(committed_path: str, fresh_path: str, slack: float) -> List[str]:
    """Failures for one (committed, fresh) benchmark pair."""
    committed = _load(committed_path)
    name = os.path.basename(committed_path)
    if not os.path.exists(fresh_path):
        return [f"{name}: fresh run produced no JSON at {fresh_path}"]
    fresh = _load(fresh_path)
    failures: List[str] = []

    floor = committed.get("speedup_target")
    fresh_rows = {row["workload"]: row for row in fresh.get("rows", [])}

    for row in committed.get("rows", []):
        workload = row["workload"]
        got = fresh_rows.get(workload)
        if got is None:
            failures.append(f"{name}: fresh run lost row {workload!r}")
            continue
        if floor is not None and row.get("speedup", 0.0) >= floor:
            bar = floor * slack
            if got.get("speedup", 0.0) < bar:
                failures.append(
                    f"{name}: {workload!r} speedup {got.get('speedup')}x "
                    f"below floor {floor}x (slack-adjusted bar {bar:.2f}x; "
                    f"committed {row.get('speedup')}x)"
                )
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir", required=True,
        help="directory holding the freshly re-run BENCH_*.json files",
    )
    parser.add_argument(
        "--committed-dir", default=".",
        help="repo root holding the committed BENCH_*.json floors",
    )
    parser.add_argument(
        "--slack", type=float, default=1.0,
        help="wall-clock floor multiplier for noisy runners (e.g. 0.5)",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    checked = 0
    for filename in sorted(TRACKED):
        committed_path = os.path.join(args.committed_dir, filename)
        if not os.path.exists(committed_path):
            failures.append(f"{filename}: committed floor file missing")
            continue
        checked += 1
        failures.extend(
            check_file(
                committed_path,
                os.path.join(args.fresh_dir, filename),
                args.slack,
            )
        )

    if failures:
        print("perf-regression guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"perf-regression guard OK: {checked} committed benchmark files, "
        f"slack {args.slack}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
