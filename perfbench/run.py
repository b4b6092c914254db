#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_sram|serve_bulk|serve_routed \
        --seed N --seconds S --trace 0|1

Configures perfbench/ as a Release CMake project under $CARGO_TARGET_DIR
(default .bench_build), builds the bmf_perfbench executable, and runs it.
The executable prints a report line (context, per-op counts, sample counts,
the workload-specific metrics) and, last, one JSON summary line:
{"correct", "attempted", "failed", "metrics"}. Exit status is non-zero when
the sources are missing, the build is not Release (the executable refuses
itself), a run outlives RUN_TIMEOUT_S (it is killed), or an output was wrong.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("fit_sram", "serve_bulk", "serve_routed")
# Well inside the 180 s a run may take, build check included: a wedged
# daemon must not hang the caller. The daemons are threads of the one
# process, so killing it stops them all.
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in is not necessarily a git repository, so this names the code)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    generated = any(os.path.isfile(os.path.join(build_dir, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        configure = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    build = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bmf_perfbench", "-j4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(build_dir, "bmf_perfbench")
    # Relative, so UNIX socket paths under it stay short.
    run_dir = os.path.relpath(os.path.join(build_root, "perfbench-runs"), root)
    os.makedirs(run_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir,
               "--commit", git_commit(root),
               "--source-digest", source_digest(root)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
