"""Benchmark driver: runs one workload in fresh processes and prints the
metrics as one JSON object on the last line of stdout.

    python3 bench/run.py --workload girth_sweep --seed 1 --seconds 20 --trace 0 [--out FILE]

With ``--trace 0`` it runs at least two passes (one fresh process each,
tracing off, a few set-up-only processes before each) and more until the
next pass would end after ``--seconds``, and reports the end-to-end
metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  ``--out`` writes the full record, with provenance,
to a JSON file.  See bench/README.md for the metrics.

Runs from a checkout of the repository: the program is imported from
``src/`` and renders are compared with ``tests/golden/``.  Everything it
writes goes under its own directory in ``.bench_work/`` in the checkout,
which is removed at the end.  Exit codes: 0 with a result line, 2 when the checkout is
incomplete (no result line).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import METRICS, PREDICTIONS, layer_metrics  # noqa: E402

# Why each workload was chosen; recorded in every results file.
WORKLOADS = {
    "girth_sweep": (
        "girth-sweep over five (m, bound) pairs, 76,048 words: dihedral.normal_form and the "
        "classifier do the work; m and bound vary the depth and branching of the product tree"
    ),
    "oracle_crosscheck": (
        "normal form vs identity ball on criterion 2's short independent words, plus a BFS draw: "
        "the closure sets time and memory, and a gain that only helps sweeps shows no change"
    ),
    "flat_certificates": (
        "seeded stratified draw of family, Klein and prove/replay CLI calls: proof search does "
        "the work, short and long searches give a real latency tail, one op exhausts the budget"
    ),
    "tiling_pipeline": (
        "direction enumeration, read-off, polarisations with rigidity at scales 1-5 and golden "
        "renders: backtracking, rigidity and exact cover, with no prover and little dihedral work"
    ),
}
# Set-up-only processes started before each pass: set-up takes about
# 0.1 s, and spreading its samples over the run lets the median ride out
# the machine's slower spells.
SETUP_PROBES = 4
# Every run reports the median of at least two passes: passes a few
# seconds apart differ by several per cent on a noisy machine.  On
# flat_certificates two passes also pool about 100 op samples, so that
# ten lie beyond p90.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


class PassFailed(Exception):
    pass


def run_child(workload: str, seed: int, workdir: Path, mode: str) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} process exceeded {CHILD_TIMEOUT_S} s")
    ended = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    # Set-up in reference seconds, at the loop speed measured around it.
    result["setup_s"] = (result["setup_end"] - spawned) * result["setup_speed"]
    result["process_s"] = ended - spawned
    return result


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def end_to_end(passes: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p["op_s"]]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes + probes), "s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }
    notes = {"op_samples": len(samples), "op_samples_beyond_p90": sum(s > p90 for s in samples)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(untraced: dict, traced: dict, workload: str) -> tuple[dict, dict]:
    values, calls, missing = layer_metrics(traced["trace"])
    metrics = {name: {"value": values[name], "unit": spec[0]} for name, spec in METRICS.items()}
    metrics["cert_moves"] = {"value": traced["cert_moves"], "unit": "moves"}
    metrics["trace_overhead_s"] = {"value": traced["wall_raw_s"] - untraced["wall_raw_s"], "unit": "s"}
    predictions = {
        f"{metric} == 0": values[metric] == 0
        for metric, where in PREDICTIONS if workload in where
    }
    notes = {"missing": missing, "predictions": predictions, "calls": calls,
             "spans": traced["trace"]["spans"]}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "artinflats" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} is not a checkout of artinflats (need src/artinflats and tests/golden)",
              file=sys.stderr)
        return 2

    provenance = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "executable": Path(sys.executable).name,
        "python_build": sys.version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": loadavg(),
    }
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    children = itertools.count(1)

    def spawn(mode: str) -> dict:
        return run_child(args.workload, args.seed, work / f"{mode}{next(children)}", mode)

    passes, probes, metrics, notes, errors = [], [], {}, {}, []
    begin = time.perf_counter()
    try:
        if args.trace:
            passes.append(spawn("pass"))
            passes.append(spawn("trace"))
            metrics, notes = per_layer(passes[0], passes[1], args.workload)
        else:
            while True:
                probes += [spawn("setup") for _ in range(SETUP_PROBES)]
                passes.append(spawn("pass"))
                elapsed = time.perf_counter() - begin
                if elapsed + passes[-1]["process_s"] > args.seconds and len(passes) >= MIN_PASSES:
                    break
            metrics, notes = end_to_end(passes, probes)
    except PassFailed as exc:
        errors.append(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    moves = [p["cert_moves"] for p in passes]
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    failures = errors + [f for p in passes for f in p["failures"]]
    if len(set(moves)) > 1:
        failures.append(f"cert_moves differs between passes: {moves}")
    correct = not failures and bool(metrics)
    provenance["passes"] = len(passes)
    provenance["loadavg_end"] = loadavg()

    summary = {
        "passes": len(passes),
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "wall_raw_s_per_pass": [p["wall_raw_s"] for p in passes],
        "speed_per_pass": [p["speed"] for p in passes],
        "setup_s_per_process": [p["setup_s"] for p in probes + passes],
        "cert_moves_per_pass": moves,
        "fail_ratio": failed / max(attempted, 1),
        "failures": failures[:20],
        **{k: v for k, v in notes.items() if k not in ("spans", "calls")},
    }
    print("provenance " + json.dumps(provenance))
    print("summary " + json.dumps(summary))
    if args.out:
        record = {"provenance": provenance, "summary": summary, "metrics": metrics, **notes}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
