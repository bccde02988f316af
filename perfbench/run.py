"""zmckit benchmark: one workload at one seed, measured for --seconds.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 30 --trace 0

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py), so module caches start cold as in a CLI
run.  Passes run until --seconds have gone by; pass k builds its inputs from
its own seed, pass_seed(--seed, k), so that a run averages over several input
sets and, apart from certify's fixed family members, no op repeats.  The
run is a single closed loop: one process, no threads, one op at a time.

--trace 0 measures the end-to-end metrics: set-up time (median of several
interpreter starts up to `import zmckit.cli`), the median pass wall time, op
latency percentiles over all passes' ops, the share of ops that pass every
check and peak RSS.  Times are in calibrated seconds (calibrate.py), which
cancel the machine's speed drift; the raw times are printed beside them.

Every op that misses a check counts against ok_ratio and is printed by kind.
The result's `failed` counts only the ops whose outcome is wrong (see
workloads.tolerated).  The numerical breakdowns and gate misses the float
pipeline reports for itself on `spectrum`, its known defects, stay in the
op list and show in ok_ratio, but are not wrong results.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones plus the tracing overhead.  Each traced pass
runs the inputs of the untraced pass before it; the counts are those of the
first traced pass, whose inputs are built from --seed.

Every worker runs with one BLAS thread, PYTHONHASHSEED=0 and ZMC_THREADS
unset.  The environment is printed before the metrics; the last line of
stdout is the JSON result.  Full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("certify", "classify", "spectrum")
SETUP_PROBES_PER_PASS = 3
PASS_SEED_STRIDE = 1_000_003
PASS_TIMEOUT_S = 150
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

_LAYER_FIELDS = (
    ("scalars.mul", ("calls", "self_s")),
    ("scalars.add", ("calls", "self_s")),
    ("scalars.div", ("calls", "self_s")),
    ("poly.divide", ("calls", "self_s")),
    ("poly.mul", ("calls", "self_s")),
    ("poly.diff", ("calls", "self_s")),
    ("poly.substitute", ("calls", "self_s")),
    ("poly.eval_float", ("calls", "self_s")),
    ("zmc.conjecture_check", ("calls", "self_s")),
    ("zmc.zmc_residual", ("self_s",)),
    ("zmc.w_poly", ("calls",)),
    ("zmc.laplacian_sig", ("calls",)),
    ("isometry.apply_to_poly", ("calls", "self_s")),
    ("quadform.classify_candidate", ("calls", "self_s")),
    ("quadform.exact_rank", ("calls", "self_s")),
    ("quadform.char_poly_exact", ("calls", "self_s")),
    ("parser.parse_poly", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("families.make_poly", ("calls", "self_s")),
    ("families.sample_points", ("self_s",)),
    ("families.spectrum_oracle", ("self_s",)),
    ("eigen.eigvals", ("calls", "self_s", "failures")),
    ("geometry.newton_project", ("calls", "self_s", "failures")),
    ("geometry.curvature_spectrum", ("calls", "self_s")),
)
# metric name -> (span name, field of tracer.layer_totals, unit)
PER_LAYER = {
    f"{span}.{field}": (span, field, "s" if field == "self_s" else "count")
    for span, fields in _LAYER_FIELDS
    for field in fields
}
PER_LAYER["poly.divide.steps"] = ("poly.divide", "count", "count")
PER_LAYER["zmc.residual.terms"] = ("zmc.zmc_residual", "count", "count")
OVERHEAD = ("trace.overhead_ratio", "ratio")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ZMC_THREADS"}
    env.update(BLAS_ENV, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    return env


def _start_worker(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )


def _finish(proc: subprocess.Popen, what: str) -> str:
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} did not finish within {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return out


def setup_probe() -> tuple[float, float]:
    """(calibrated, raw) seconds from starting an interpreter until
    `import zmckit.cli` returns.  The worker times the import on its
    calibrated clock; the interpreter start before it is scaled by the speed
    the worker measured."""
    started = perf_counter()
    proc = _start_worker(["--probe"])
    line = proc.stdout.readline()
    raw = perf_counter() - started
    _finish(proc, "set-up probe")
    word, *fields = line.split()
    if word != "ready" or len(fields) != 3:
        raise BenchError("set-up probe did not import zmckit.cli")
    import_started, import_s, slowness = map(float, fields)
    start_s = (import_started - started) / slowness
    return start_s + import_s, raw


def run_pass(workload: str, seed: int, trace: bool, size: str) -> dict:
    proc = _start_worker([
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--size", size,
    ])
    out = _finish(proc, f"{workload} pass")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"{workload} pass printed no result") from exc
    if not os.path.abspath(result["zmckit_file"]).startswith(SRC + os.sep):
        raise BenchError(f"zmckit was imported from {result['zmckit_file']}, not {SRC}")
    return result


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref[5:]:
                    return sha
    return None


def _source_sha256() -> str:
    """Digest of the zmckit sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "zmckit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def environment(seed: int, first_pass: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": first_pass["python"],
        "numpy": first_pass["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": BLAS_ENV,
        "zmc_threads": "unset",
        "pythonhashseed": "0",
    }


def pass_seed(seed: int, index: int) -> int:
    """Seed of the inputs of pass `index`; pass 0 uses --seed itself."""
    return seed + PASS_SEED_STRIDE * index


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def end_to_end(setups: list[tuple[float, float]], passes: list[dict]) -> dict[str, float]:
    ops = [s for p in passes for s in p["op_seconds"]]
    attempted = sum(p["attempted"] for p in passes)
    not_ok = sum(p["not_ok"] for p in passes)
    return {
        "setup_s": statistics.median(cal for cal, _ in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_p95_ms": 1e3 * _quantile(ops, 95),
        "ok_ratio": 1.0 - not_ok / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Counts of the first traced pass; self times and the overhead (traced
    over untraced wall time of the same inputs) as medians over passes."""
    values: dict[str, float] = {}
    for metric, (span, field, _) in PER_LAYER.items():
        if field == "self_s":
            values[metric] = statistics.median(
                p["layers"].get(span, {}).get(field, 0.0) for p in traced
            )
        else:
            values[metric] = traced[0]["layers"].get(span, {}).get(field, 0)
    values[OVERHEAD[0]] = statistics.median(
        t["wall_s"] / u["wall_s"] for t, u in zip(traced, untraced)
    )
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    started = perf_counter()
    if not trace:
        setup_probe()  # the first start in a checkout also compiles bytecode
    setups, untraced, traced = [], [], []
    while True:
        pass_started = perf_counter()
        inputs_seed = pass_seed(seed, len(untraced))
        if not trace:
            setups += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        untraced.append(run_pass(workload, inputs_seed, False, size))
        if trace:
            traced.append(run_pass(workload, inputs_seed, True, size))
        # Stop when another pass would end more than half a pass past the budget.
        now = perf_counter()
        if now - started + 0.5 * (now - pass_started) >= seconds:
            break

    problems = [msg for p in untraced + traced for msg in p["unexpected"]]
    for u, t in zip(untraced, traced):
        if u["summaries_sha256"] != t["summaries_sha256"]:
            problems.append(f"tracing changed op results at seed {u['seed']}")
    if trace:
        units = {m: u for m, (_, _, u) in PER_LAYER.items()}
        units[OVERHEAD[0]] = OVERHEAD[1]
        values = per_layer(untraced, traced)
    else:
        units = END_TO_END
        values = end_to_end(setups, untraced)
    passes = untraced + traced
    return {
        "env": environment(seed, untraced[0]),
        "workload": workload,
        "size": size,
        "passes": [
            {k: v for k, v in p.items() if k != "summaries"}
            for p in passes
        ],
        "setup_samples_s": setups,
        "failure_kinds": dict(sum((Counter(p["failure_kinds"]) for p in passes), Counter())),
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(len(p["unexpected"]) for p in passes),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs a reduced op list (used by selftest.py)")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "zmckit", "__init__.py")):
            raise BenchError(f"no zmckit sources under {SRC}")
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print("env " + json.dumps(report["env"], sort_keys=True))
    result = report["result"]
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']!r} {entry['unit']}")
    ops = result["attempted"]
    untraced = [p for p in report["passes"] if not p["trace"]]
    raw_setup = [raw for _, raw in report["setup_samples_s"]]
    print(f"{args.workload} raw_setup_s {statistics.median(raw_setup) if raw_setup else None!r} "
          f"raw_wall_s {statistics.median(p['raw_wall_s'] for p in untraced)!r} "
          f"slowness {statistics.median(p['slowness'] for p in untraced)!r} "
          f"(calibration kernel time over nominal)")
    not_ok = sum(p["not_ok"] for p in report["passes"])
    print(f"{args.workload} passes {len(report['passes'])} op_samples {ops} "
          f"failed {result['failed']} not_ok {not_ok} fail_ratio {not_ok / ops!r} "
          f"kinds {json.dumps(report['failure_kinds'])}")
    first = untraced[0]
    print(f"{args.workload} first pass (seed {first['seed']}) attempted {first['attempted']} "
          f"not_ok {first['not_ok']} kinds {json.dumps(first['failure_kinds'])}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
