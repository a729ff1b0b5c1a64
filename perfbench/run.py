#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Workloads: serve_hit, serve_bank, serve_cold, paper_fig10 (perfbench/README.md
says why each exists).  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a separately traced run.  --size tiny shrinks the inputs
for the self-test (perfbench/test_smoke.py).

The build goes to .bench_build/ (CMake, Release only) and run records to
.bench_out/.  The last line of standard output is the JSON result; the exit
code is 0 only when every output was checked correct.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
REFERENCE = "results/fig10_coarse_grain.txt"
WORKLOADS = ("serve_hit", "serve_bank", "serve_cold", "paper_fig10")
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once) and builds the daemon and the harness, in Release."""
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    with open(log, "w") as out:
        if cache_value("CMAKE_HOME_DIRECTORY") != str(ROOT / "perfbench"):
            shutil.rmtree(BUILD, ignore_errors=True)
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"cmake configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "lamps", "lamps_perfbench"]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed; see {log}")
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"refusing to measure a '{build_type}' build tree in {BUILD}; remove it to rebuild")


def source_digest():
    """sha256 over the sources the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "cmake", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools", REFERENCE):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a full checkout of the repository")

    t0 = time.monotonic()
    build()
    stamp = {"nproc": len(os.sched_getaffinity(0)),
             "build_type": cache_value("CMAKE_BUILD_TYPE"),
             "git_commit": git_commit(),
             "source_digest": source_digest(),
             "build_s": round(time.monotonic() - t0, 3)}

    cmd = [str(BUILD / "lamps_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--lamps", str(BUILD / "lamps" / "tools" / "lamps"),
           "--fig10-reference", str(ROOT / REFERENCE), "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, end="")
        fail(f"harness exited {proc.returncode} without a result line", proc.returncode or 2)
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp.update(json.loads(line[len("stamp "):]))
    print("stamp " + json.dumps(stamp))
    for line in lines[:-1]:
        if not line.startswith("stamp "):
            print(line)
    with open(OUT / "runs.jsonl", "a") as runs:
        runs.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
