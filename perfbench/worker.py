"""One pass of a zmckit benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload classify --seed 7 [--trace 1] [--size small]
    python3 perfbench/worker.py --record-hashes

The worker prints `ready`, the perf_counter() reading at which it began to
import zmckit, the calibrated import time and the median slowness of the
calibration kernel (see calibrate.py) as soon as `zmckit.cli` is imported,
which is where set-up ends.  With --probe it stops there.  Otherwise it
builds the workload's steps from the seed (untimed), runs them in one closed loop (timed), checks
every output (untimed) and prints one JSON line with the pass result.  With
--trace 1 the span tracer is installed after the inputs are built and the
spans are written to perfbench/out/<workload>-<seed>.trace.jsonl.
`perfbench/run.py` starts the workers; run it rather than this file.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import calibrate  # noqa: E402

# Set-up ends once `import zmckit.cli` returns.  The import runs under the
# calibrated clock; run.py scales the interpreter start before it by the
# same speed.  The clock has no numpy part here: importing numpy is part of
# importing zmckit.cli.
_import_started = perf_counter()
with calibrate.SpeedClock() as _clock:
    import zmckit.cli  # noqa: E402
    _imported = perf_counter()
print(f"ready {_import_started!r} {_clock.calibrated(_imported)!r} {_clock.median_slowness()!r}",
      flush=True)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")


def run_pass(workload: str, seed: int, small: bool, trace: bool) -> dict:
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        steps = workloads.build(workload, seed, small, workdir)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()

        # Timed closed loop: each step starts when the previous one returned.
        outcomes = []
        stamps = []
        with calibrate.SpeedClock(arrays=workload in workloads.FLOAT_WORKLOADS) as clock:
            for index, step in enumerate(steps):
                if tracer is not None:
                    tracer.begin("bench.op" if step.is_op else "bench.prepare", index)
                t0 = perf_counter()
                try:
                    outcomes.append((True, step.run()))
                except Exception as exc:  # every failure is counted, then the loop goes on
                    outcomes.append((False, exc))
                t1 = perf_counter()
                if tracer is not None:
                    tracer.end()
                stamps.append((t0, t1))
        op_stamps = [t for step, t in zip(steps, stamps) if step.is_op]
        start, end = stamps[0][0], stamps[-1][1]

        kinds: dict[str, int] = {}
        unexpected = []
        summaries = []
        for step, (ok, value) in zip(steps, outcomes):
            if not step.is_op:
                continue
            kind = step.check(value) if ok else workloads.failure_kind(workload, value)
            if kind is None:
                summaries.append(step.summary(value))
                continue
            summaries.append(kind if ok else f"{kind}: {value}")
            kinds[kind] = kinds.get(kind, 0) + 1
            if not workloads.tolerated(workload, kind):
                unexpected.append(f"{step.label}: {kind}")

        result = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "wall_s": clock.calibrated(end) - clock.calibrated(start),
            "raw_wall_s": clock.raw(end) - clock.raw(start),
            "slowness": clock.median_slowness(),
            "op_seconds": [clock.calibrated(b) - clock.calibrated(a) for a, b in op_stamps],
            "attempted": len(op_stamps),
            "not_ok": sum(kinds.values()),
            "failure_kinds": kinds,
            "unexpected": unexpected,
            "summaries_sha256": hashlib.sha256("\n".join(summaries).encode()).hexdigest(),
            "summaries": summaries,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "zmckit_file": zmckit.cli.__file__,
        }
        if tracer is not None:
            tracer.calibrate(clock)
            trace_path = os.path.join(OUT, f"{workload}-{seed}.trace.jsonl")
            tracer.write_jsonl(trace_path)
            result["layers"] = tracing.layer_totals(tracer.spans)
            result["trace_file"] = os.path.relpath(trace_path, os.path.dirname(HERE))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--record-hashes", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if args.probe:
        return 0
    os.makedirs(OUT, exist_ok=True)
    if args.record_hashes:
        workdir = os.path.join(OUT, "work-hashes")
        os.makedirs(workdir, exist_ok=True)
        hashes = workloads.record_certify_hashes(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(os.path.dirname(workloads.EXPECTED_HASHES), exist_ok=True)
        with open(workloads.EXPECTED_HASHES, "w", encoding="utf-8") as handle:
            json.dump(hashes, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0
    result = run_pass(args.workload, args.seed, args.size == "small", bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
