"""One benchmark pass, run by ``run.py`` in a fresh Python process.

A fresh process per pass matters: every ``artinflats`` run and every
pytest session starts with cold ``lru_cache``s, and a warm-cache number
would reward work moved across runs.

Modes:
  setup  import the package, generate the inputs, report and exit;
  pass   also run the timed phase with tracing off, then the verdict gate;
  trace  the same with the outside-in tracer installed.

Prints one JSON object on stdout.  Times are ``time.perf_counter``
readings; on Linux that clock is system-wide, so the parent can subtract
its own reading taken just before starting this process.  In ``pass``
mode the timed phase runs under ``speed.SpeedProbe`` and its times are
reported in reference seconds (``wall_raw_s`` keeps the wall-clock time);
``setup_speed`` is the probe loops' speed over set-up (the geometric mean
of their speed before the imports and after the inputs are built), by
which the parent scales the set-up time; ``setup_end`` leaves out the
time those probe loops took.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe, loop_speed

ROOT = Path(__file__).resolve().parent.parent


def timed_phase(ops, tracer=None, probe=None):
    """Run every op, timing each one.  Returns (records, spans, begin,
    end); a record is (op, [(item, result), ...]) and a span is (start,
    end, units) in clock readings.  The spans are the batch items' when
    the workload has batch ops, else the ops' with their units of work:
    items and units are the workload's repeated unit of work (a word, an
    assignment), and quantiles over heterogeneous calls a few
    milliseconds apart would jump with every reordering."""
    records, op_spans, item_spans = [], [], []
    clock = time.perf_counter
    if tracer is not None:
        tracer.start()
    if probe is not None:
        probe.start()
    begin = clock()
    for op in ops:
        start = clock()
        if op.items is None:
            try:
                results = [(None, op.run())]
            except Exception as exc:  # a traceback is a failed op, not a dead pass
                results = [(None, exc)]
            op_spans.append((start, clock(), op.units))
        else:
            results = []
            for item in op.items:
                t0 = clock()
                try:
                    results.append((item, op.run(item)))
                except Exception as exc:
                    results.append((item, exc))
                item_spans.append((t0, clock(), 1))
        if tracer is not None:
            tracer.span(op.name, start, clock(), "pass")
        records.append((op, results))
    end = clock()
    if probe is not None:
        probe.stop()
    if tracer is not None:
        tracer.stop()
    return records, item_spans or op_spans, begin, end


def gate(records) -> tuple[int, int, list[str], int]:
    """Check every verdict: (attempted, failed, first failures, moves)."""
    attempted = failed = moves = 0
    failures = []
    for op, results in records:
        for item, result in results:
            attempted += 1
            if isinstance(result, Exception):
                err, n = f"raised {type(result).__name__}: {result}", 0
            else:
                try:
                    err, n = op.check(result) if op.items is None else op.check(item, result)
                except Exception as exc:
                    err, n = f"verdict check raised {type(exc).__name__}: {exc}", 0
            moves += n
            if err:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.name}: {err}")
    return attempted, failed, failures, moves


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = parser.parse_args()
    probed = time.perf_counter()
    speed_before = loop_speed()
    probed = time.perf_counter() - probed

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ops = workloads.build(args.workload, args.seed, Path(args.workdir))
    setup_end = time.perf_counter() - probed
    setup_speed = (speed_before * loop_speed()) ** 0.5
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end, "setup_speed": setup_speed}))
        return 0

    tracer = probe = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
    records, spans, begin, end = timed_phase(ops, tracer, probe)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe is None:
        wall_raw = end - begin
        measure = lambda a, b: b - a  # noqa: E731
    else:
        wall_raw = end - begin - probe.probe_seconds(begin, end)
        measure = probe.ref_seconds
    attempted, failed, failures, moves = gate(records)
    print(json.dumps({
        "setup_end": setup_end,
        "setup_speed": setup_speed,
        "wall_s": measure(begin, end),
        "wall_raw_s": wall_raw,
        "speed": probe.speed if probe else None,
        "op_s": [measure(a, b) / units for a, b, units in spans],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cert_moves": moves,
        "peak_rss_mib": peak_rss_mib,
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
