"""Run every workload over a range of seeds and write a BENCH_*.json record.

    python3 bench/sweep.py --seeds 1-10 --out bench/results/BENCH_<name>.json

A workload's seeded runs are consecutive, then one traced run per
workload (first seed) records the per-layer metrics.

The record holds each run's full output (provenance, summary, metrics)
and, per workload and end-to-end metric, the values, median, quartiles
and spread (interquartile range over median) next to the metric's bound
from BENCHMARK.json.  A sweep of the parent commit and one of a change,
on the same machine, are the before/after pair a performance claim cites.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(scratch)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr[-2000:]}")
    record = json.loads(scratch.read_text())
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    scratch.unlink()
    return record


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = list(WORKLOADS)
    seeds = seed_range(args.seeds)
    scratch = ROOT / ".bench_work" / "sweep-run.json"
    scratch.parent.mkdir(exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs: dict[str, list] = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            record = run_once(w, seed, bench["run_seconds"], 0, scratch)
            runs[w].append(record)
            result = record["result"]
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    traced = {}
    for w in workloads:
        traced[w] = run_once(w, seeds[0], bench["run_seconds"], 1, scratch)
        print(f"{w} traced: correct={traced[w]['result']['correct']} "
              f"predictions={traced[w]['summary'].get('predictions')} "
              f"missing={traced[w]['summary'].get('missing')}", flush=True)

    summary = {}
    print(f"{'workload':18} {'metric':14} {'median':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for metric, bound in bounds.items():
            s = stats([r["result"]["metrics"][metric]["value"] for r in runs[w]])
            s["bound"] = bound
            summary[w][metric] = s
            print(f"{w:18} {metric:14} {s['median']:10.4g} {s['spread']:7.3f} {bound:6.2f}")
    first = runs[workloads[0]][0]["provenance"]
    record = {
        "provenance": {k: first[k] for k in ("nproc", "python", "executable", "platform", "commit")},
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "all_correct": all(r["result"]["correct"] for rs in runs.values() for r in rs)
        and all(t["result"]["correct"] for t in traced.values()),
        "end_to_end": summary,
        "traced": traced,
        "runs": runs,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
