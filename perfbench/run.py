#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload batch-mem --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench_bin from the sources
in the checkout (CMake, Release, into .bench_build/), generates the
workload's input files from --seed, runs the workload for --seconds, checks
its outputs, and prints two JSON lines: the run's provenance record, then
the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer ones, and writes a Chrome trace to
.bench_build/traces/<workload>-<seed>.json. --size tiny shrinks every input
for the self-test (perfbench/selftest.py). Workloads and metrics are
described in perfbench/README.md.

Flags are parsed strictly: an unknown flag, a malformed number or an
out-of-range value exits with code 2 and prints no result.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("batch-mem", "batch-stream", "serve-fraud")
SIZES = ("full", "tiny")
FLAGS = ("workload", "seed", "seconds", "trace", "size")
USAGE = ("usage: run.py --workload {batch-mem|batch-stream|serve-fraud} "
         "--seed N --seconds S --trace {0|1} [--size {full|tiny}]")
DEADLINE_S = 175.0
SOURCE_DIRS = ("src", "tools", "cmake", "perfbench")


def usage_error(message):
    print(f"run.py: {message}", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_int(name, text, lo, hi):
    if not re.fullmatch(r"[0-9]{1,10}", text) or not lo <= int(text) <= hi:
        usage_error(f"--{name} must be an integer in [{lo}, {hi}], "
                    f"got {text!r}")
    return int(text)


def parse_args(argv):
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--") or len(arg) == 2:
            usage_error(f"unexpected argument {arg!r}")
        if "=" in arg:
            name, value = arg[2:].split("=", 1)
        else:
            name = arg[2:]
            if i + 1 >= len(argv):
                usage_error(f"--{name} needs a value")
            i += 1
            value = argv[i]
        if name not in FLAGS:
            usage_error(f"unknown flag --{name}")
        if name in values:
            usage_error(f"duplicate flag --{name}")
        values[name] = value
        i += 1
    for name in ("workload", "seed", "seconds", "trace"):
        if name not in values:
            usage_error(f"missing --{name}")
    if values["workload"] not in WORKLOADS:
        usage_error(f"unknown workload {values['workload']!r}")
    size = values.get("size", "full")
    if size not in SIZES:
        usage_error(f"unknown size {size!r}")
    return {
        "workload": values["workload"],
        "seed": parse_int("seed", values["seed"], 0, 2147483647),
        "seconds": parse_int("seconds", values["seconds"], 1, 600),
        "trace": parse_int("trace", values["trace"], 0, 1),
        "size": size,
    }


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds perfbench_bin; build output goes to
    stderr so stdout carries only the records."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench_bin", "-j4"],
        stdout=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench_bin")


def source_digest(root):
    """SHA-256 over the library and benchmark sources, for records made
    where no git metadata exists."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def select_metrics(spec, measured, trace):
    """The metrics BENCHMARK.json names for this mode, plus the problems
    that make the run incorrect (missing, wrong unit, not a number)."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    problems = []
    for metric in wanted:
        name = metric["name"]
        got = measured.get(name)
        if got is None:
            problems.append(f"metric {name} was not measured")
            continue
        value = got["value"]
        if got["unit"] != metric["unit"]:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"BENCHMARK.json says {metric['unit']}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {name} is {value}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, problems


def main(argv):
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(root, build_dir)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    common = [f"--workload={args['workload']}", f"--seed={args['seed']}",
              f"--size={args['size']}"]
    work_root = os.path.join(build_dir, "work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        gen = subprocess.run([binary, "gen", f"--dir={work}"] + common,
                             stdout=sys.stderr)
        if gen.returncode != 0:
            fail("input generation failed")
        command = [binary, "run", f"--dir={work}",
                   f"--seconds={args['seconds']}",
                   f"--trace={args['trace']}"] + common
        if args["trace"]:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command.append("--trace-out=" + os.path.join(
                traces, f"{args['workload']}-{args['seed']}.json"))
        budget = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            fail("workload run exceeded the time limit")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload run exited with code {proc.returncode}")
    record = json.loads(lines[-1])

    metrics, problems = select_metrics(spec, record["metrics"],
                                       args["trace"])
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    # Each metric BENCHMARK.json names is one more check of the run.
    attempted = (record["attempted"] +
                 len(spec["per_layer" if args["trace"] else "end_to_end"]))
    failed = record["failed"] + len(problems)
    provenance = dict(record["provenance"])
    provenance.update({
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "failures": record["failures"] + problems,
    })
    print(json.dumps({"record": provenance}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
