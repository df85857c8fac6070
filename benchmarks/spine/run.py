"""The benchmark spine: one command, every tier, absolute numbers.

    python3 benchmarks/spine/run.py                  # every workload, end to end
    python3 benchmarks/spine/run.py --trace          # ... plus the per-layer run
    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/spine/run.py --smoke          # tiny sizes, both runs
    python3 benchmarks/spine/run.py --runs 10 --out A.json
    python3 benchmarks/spine/run.py --compare A.json B.json

With ``--workload`` the workload runs in this interpreter and the last
line of standard output is the result object ``BENCHMARK.json``
describes.  Without it every workload runs in a fresh child
interpreter (so ``peak_rss_mb`` is the workload's own) and the results
are tabulated.  README.md says why each workload exists and which
layer should move which number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
_CHILD_TIMEOUT_S = 170


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload, in this interpreter ---------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"spine: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hygiene

    hygiene.exit_on_signals()
    hygiene.become_subreaper()
    import layers
    import measure
    from workloads import SPECS, WrongAnswer

    spec = SPECS[args.workload]
    bench = declared()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    print(
        f"spine workload={spec.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={int(args.smoke)}"
    )
    correct = True
    sink = measure.Samples()
    prefixes: List[str] = []
    metrics: Dict[str, Any] = {}
    try:
        try:
            if args.trace:
                sink, prefixes, metrics, rec = layers.run_traced(
                    spec, args.seed, args.seconds, args.smoke, workdir
                )
                os.makedirs(OUT, exist_ok=True)
                rec.dump(
                    os.path.join(OUT, f"trace_{spec.name}.json"),
                    {"workload": spec.name, "seed": args.seed},
                )
            else:
                sink, prefixes, metrics = measure.run_untraced(
                    spec, args.seed, args.seconds, args.smoke, workdir
                )
        except WrongAnswer as exc:
            correct = False
            print(f"WRONG ANSWER: {exc}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        hygiene.assert_clean(prefixes)
        for module in ("repro.serve.server", "multiprocessing.shared_memory"):
            if module in sys.modules:
                raise hygiene.HygieneError(f"{module} was imported")
    except hygiene.HygieneError as exc:
        print(f"HYGIENE: {exc}", file=sys.stderr)
        return 3
    for error in sink.errors:
        print(f"FAILED OP: {error}")
    result = {}
    detail = {}
    for name, unit in units.items():
        # A layer the workload leaves idle reports 0; an end-to-end
        # metric with no sample means the run broke off.
        values = metrics.get(name, [0.0] if args.trace and metrics else [])
        if not values:
            correct = False
            print(f"NO SAMPLE: {name}")
            continue
        stats = measure.summary(values)
        detail[name] = stats
        result[name] = {"value": stats["value"], "unit": unit}
        print(
            f"{name:28s} {stats['value']:14.4f} {unit:6s} "
            f"[q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}]"
        )
    if "speed_factor" in metrics:
        stats = measure.summary(metrics["speed_factor"])
        print(
            f"speed_factor {stats['value']:.4f} [q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  "
            f"n={stats['n']}] — times above are scaled to the reference CPU speed"
        )
    print(f"ops_attempted={sink.attempted} ops_failed={sink.failed}")
    print("detail " + json.dumps({"seed": args.seed, "workload": spec.name, "metrics": detail}))
    print(
        json.dumps(
            {
                "correct": correct and sink.failed == 0,
                "attempted": max(1, sink.attempted),
                "failed": sink.failed,
                "metrics": result,
            }
        )
    )
    return 0


# -- every workload, each in a fresh interpreter -----------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=_CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"spine: {workload} exited {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(("WRONG ANSWER", "FAILED OP", "NO SAMPLE")):
            print(f"  {workload}: {line}")
        if line.startswith("detail "):
            result["detail"] = json.loads(line[len("detail "):])["metrics"]
    result.update(workload=workload, seed=seed, trace=trace, wall_s=time.perf_counter() - started)
    return result


def run_all(args: argparse.Namespace) -> int:
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    traces = [0, 1] if (args.trace or args.smoke) else [0]
    jobs = [
        (name, args.seed + run, args.seconds, trace, args.smoke)
        for run in range(args.runs)
        for name in names
        for trace in traces
    ]
    # Timings are the point of a real run, so its children run one at a
    # time; the smoke run only checks shape and may overlap them.
    results = []
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for result in pool.map(lambda job: run_child(*job), jobs):
            results.append(result)
            print(
                f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
                f"correct={result['correct']} ops={result['attempted']} "
                f"failed={result['failed']} ({result['wall_s']:.1f} s)"
            )
            for metric, entry in result["metrics"].items():
                d = result["detail"][metric]
                print(
                    f"   {metric:28s} {entry['value']:14.4f} {entry['unit']:6s} "
                    f"[q1 {d['q1']:.4f}  q3 {d['q3']:.4f}  n={d['n']}]",
                    flush=True,
                )
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "runs": args.runs, "results": results}, fh, indent=1)
            fh.write("\n")
    bad = [r for r in results if not r["correct"] or r["failed"]]
    return 1 if bad else 0


# -- comparing two sets of runs ----------------------------------------------


def medians(path: str) -> Dict[Any, List[float]]:
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    values: Dict[Any, List[float]] = {}
    for result in results:
        if result["trace"]:
            continue
        for metric, entry in result["metrics"].items():
            values.setdefault((result["workload"], metric), []).append(entry["value"])
    return values


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    bench = declared()
    rules = {m["name"]: m for m in bench["end_to_end"]}
    a, b = medians(path_a), medians(path_b)
    print(
        f"{'workload':18s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'B vs A':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    worst = 0
    for key in sorted(a):
        if key not in b:
            continue
        workload, metric = key
        rule = rules[metric]
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        change = (med_b - med_a) / med_a
        worse = -change if rule["better"] == "higher" else change
        wide = max(spread(a[key]), spread(b[key]))
        if wide > rule["bound"] and metric != "setup_s":
            verdict = "unresolved"
        elif worse > rule["bound"]:
            verdict = "regressed"
        else:
            verdict = "ok"
        worst = max(worst, ("ok", "unresolved", "regressed").index(verdict))
        print(
            f"{workload:18s} {metric:18s} {med_a:12.4f} {med_b:12.4f} "
            f"{change:+8.1%} {rule['bound']:6.0%} {wide:7.1%}  {verdict}"
        )
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload here and print its result object")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, both runs, < 10 s")
    parser.add_argument("--runs", type=int, default=1, help="repeat with seeds seed..seed+runs-1")
    parser.add_argument("--out", help="write every result to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(declared()["run_seconds"])
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
