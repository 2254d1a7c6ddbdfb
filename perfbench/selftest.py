#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

Runs every workload of BENCHMARK.json at a tiny size (--smoke), untraced and
traced, through run.py, and checks that each run passes all its output
checks and prints exactly the metrics BENCHMARK.json names, each with its
unit. Run from the repository root:

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{where}: output checks failed "
                      f"({result['failed']} of {result['attempted']})")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: missing "
                      f"{sorted(names - set(metrics))}, extra "
                      f"{sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got['unit']!r}, "
                          f"want {m['unit']!r}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {m['name']} is {value}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run_errors = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not run_errors else 'FAILED'}")
            errors += run_errors
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
