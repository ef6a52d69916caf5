"""Self-test of the outside-in tracer.

Runs ``run.py --trace 1`` once per workload and checks that

* every per-layer metric records at least one call on its home workload
  (the workload named for it in ``tracer.METRICS``);
* no metric is missing (a wrapped function moved without updating
  ``tracer.GROUPS``);
* the bypass predictions in ``tracer.PREDICTIONS`` hold;
* the traced run's verdicts pass.

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise.  Takes a few minutes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, WORKLOADS  # noqa: E402
from sweep import run_once  # noqa: E402
from tracer import METRICS  # noqa: E402


def main() -> int:
    problems = []
    out = ROOT / ".bench_work" / f"selftest-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        record = run_once(workload, 1, 1, 1, out)
        if not record["result"]["correct"]:
            problems.append(f"{workload}: verdicts failed: {record['summary']['failures']}")
            continue
        for name in record["missing"]:
            problems.append(f"{workload}: metric {name} is missing")
        for prediction, holds in record["predictions"].items():
            if not holds:
                problems.append(f"{workload}: prediction {prediction} does not hold")
        for name, (_, home, _) in METRICS.items():
            if home == workload and not record["calls"][name]:
                problems.append(f"{workload}: metric {name} recorded no call")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
