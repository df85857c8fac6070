"""Tier-1 smoke of the benchmark spine: ``run.py --smoke`` must emit
every metric ``BENCHMARK.json`` declares, for every workload, with its
unit — and leave no process behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import hygiene

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_emits_every_declared_metric_and_leaves_no_process(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    out = tmp_path / "smoke.json"
    before = set(hygiene.descendants())
    # As subreaper this process adopts whatever the run orphans, so a
    # leftover shows up among its descendants instead of under init.
    hygiene.become_subreaper()
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=120,
        )
        left = set(hygiene.descendants()) - before
    finally:
        hygiene.become_subreaper(False)
    assert done.returncode == 0, done.stdout[-4000:]
    assert not left, f"processes left behind: {sorted(left)}"

    results = json.loads(out.read_text())["results"]
    seen = {(r["workload"], r["trace"]) for r in results}
    assert seen == {(w["name"], t) for w in bench["workloads"] for t in (0, 1)}
    for result in results:
        where = f"{result['workload']} trace={result['trace']}"
        assert result["correct"] and result["failed"] == 0, where
        assert result["attempted"] >= 1, where
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared[result["trace"]], where
        if not result["trace"]:
            zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
            assert not zero, f"{where}: end-to-end metrics must never be 0: {zero}"
