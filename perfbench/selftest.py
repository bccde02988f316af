"""Self-test of the zmckit benchmark, on reduced op lists.

    python3 perfbench/selftest.py

For each workload it checks that
  * run.py prints every metric that BENCHMARK.json names, with the unit
    named there, for --trace 0 and for --trace 1;
  * the counts of two traced passes at one seed (calls, division steps,
    residual terms, failures) are equal;
  * tracing changes no op's result: a traced and an untraced pass give the
    same result for every op.
It exits 1 at the first check that fails.
"""

import json
import os
import subprocess
import sys

import run

COUNT_FIELDS = ("calls", "count", "failures")
SEED = 7


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def declared_units() -> tuple[dict, dict]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_metrics(workload: str, trace: int, declared: dict) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} --trace {trace}: result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"{workload} --trace {trace}: outputs are not correct\n{proc.stdout}")
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != declared:
        fail(f"{workload} --trace {trace}: emitted {emitted}, declared {declared}")


def check_tracing(workload: str) -> None:
    first = run.run_pass(workload, SEED, True, "small")
    second = run.run_pass(workload, SEED, True, "small")
    plain = run.run_pass(workload, SEED, False, "small")
    for span in sorted(set(first["layers"]) | set(second["layers"])):
        a = first["layers"].get(span, {})
        b = second["layers"].get(span, {})
        for field in COUNT_FIELDS:
            if a.get(field) != b.get(field):
                fail(f"{workload}: {span}.{field} is {a.get(field)} then {b.get(field)}")
    for index, (traced, untraced) in enumerate(zip(first["summaries"], plain["summaries"])):
        if traced != untraced:
            fail(f"{workload} op {index}: traced {traced!r}, untraced {untraced!r}")
    if len(first["summaries"]) != len(plain["summaries"]):
        fail(f"{workload}: traced and untraced passes ran different op lists")


def main() -> int:
    end_to_end, per_layer = declared_units()
    if end_to_end != run.END_TO_END:
        fail(f"BENCHMARK.json end_to_end {end_to_end} != run.py {run.END_TO_END}")
    for workload in run.WORKLOADS:
        check_metrics(workload, 0, end_to_end)
        check_metrics(workload, 1, per_layer)
        check_tracing(workload)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
