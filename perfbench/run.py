#!/usr/bin/env python3
"""Update-path benchmark for the RuleTris reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload parallel-4k --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the RuleTris libraries from src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints the driver's report. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
--trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Result files and Chrome traces go to .bench_out/.

Exit status: 0 on a correct run, 1 when a correctness check failed, 2 when
the checkout cannot be built or the output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over every file under src/ and perfbench/src (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(root, build_dir):
    """Configures once, then builds incrementally. Output goes to a log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {' '.join(cmd)} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(cmd)} exited {rc} (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def check_result(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if not NAME_RE.match(name) or m.get("unit") != want[name]:
            fail(f"metric {name}: bad name or unit {m.get('unit')} (want {want[name]})")
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name}: value {m.get('value')!r} is not a number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no RuleTris sources (src/CMakeLists.txt) here; run from the repo root")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repo root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    exe = build(root, build_dir)
    provenance = {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": "Release",
    }
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_out",
           "--provenance", json.dumps(provenance)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result line")
    check_result(result, spec, args.trace == 1)
    if proc.returncode not in (0, 1) or (proc.returncode == 0) != result["correct"]:
        fail(f"perfbench exited {proc.returncode} with correct={result['correct']}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
