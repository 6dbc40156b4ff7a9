#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py        # from the repository root

Runs every workload of BENCHMARK.json at --size tiny, untraced and
traced, and asserts that each run is correct with no failed operation or
check, and that it prints every metric BENCHMARK.json names for its mode
with that metric's unit. It also asserts that run.py refuses unknown
flags, malformed numbers and out-of-range values without printing a
result. Exits 0 when everything holds.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run(["--workload", workload, "--seed", "7", "--seconds",
                        "1", "--trace", str(trace), "--size", "tiny"])
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                record = json.loads(lines[-2])["record"]
                problems.append(f"{label}: checks failed: "
                                f"{record['failures']}")
            if result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            print(f"selftest: {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} "
                  f"failed")

    base = ["--workload", "batch-mem", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "tiny"]
    bad = {
        "unknown flag": base + ["--threads", "4"],
        "malformed seed": ["--workload", "batch-mem", "--seed", "abc",
                           "--seconds", "1", "--trace", "0"],
        "negative seconds": ["--workload", "batch-mem", "--seed", "1",
                             "--seconds", "-5", "--trace", "0"],
        "trace out of range": ["--workload", "batch-mem", "--seed", "1",
                               "--seconds", "1", "--trace", "2"],
        "workload typo": ["--workload", "batch-men", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
        "duplicate flag": base + ["--seed", "2"],
        "missing flag": ["--workload", "batch-mem", "--seed", "1"],
    }
    for label, args in bad.items():
        proc = run(args)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bad flags ({label}) accepted: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}")
    print(f"selftest: {len(bad)} malformed command lines refused")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: OK" if not problems else
          f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
