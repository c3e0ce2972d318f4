#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

    python3 pipebench/run.py --workload giant-pairs --seed 1 --seconds 24 --trace 0

Run it from the root of a source tree. It configures and builds
pipebench/CMakeLists.txt (which compiles the library from ../src) into
$CARGO_TARGET_DIR/pipebench, default .bench_build/pipebench, then runs the
binary. The binary's last line of standard output is the JSON result; this
script prints nothing after it and exits with the binary's exit code.
Extra arguments (for example --smoke or --print-oracle) are passed through.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pipebench")


def source_digest():
    """SHA-256 over the library and benchmark sources, as provenance that
    survives a checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_step(command, timeout):
    """Runs a build step with its output on stderr; returns True on success."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return process.wait(timeout=timeout) == 0
    except BaseException:
        process.kill()
        process.wait()
        raise


def configured_for_this_tree(out):
    """True when the build directory was configured from this source tree
    (a copied tree may carry a build directory that points elsewhere)."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as cache:
            return f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in cache.read()
    except OSError:
        return False


def build(out):
    """Configures and builds once per tree; a lock keeps concurrent runs
    from building over each other."""
    os.makedirs(out, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_for_this_tree(out):
            for name in os.listdir(out):
                if name != ".lock":
                    path = os.path.join(out, name)
                    if os.path.isdir(path) and not os.path.islink(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            if not run_step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                            600):
                return False
        return run_step(["cmake", "--build", out, "-j", jobs], 900)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(ROOT, 'src')}; run from a full source tree")
        return 2
    out = build_dir()
    if not build(out):
        log("build failed")
        return 3

    command = [os.path.join(out, "pipebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", os.path.join(out, "work"),
               "--git-sha", git_sha(), "--src-digest", source_digest()] + extra
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        return process.wait()
    except BaseException:
        process.kill()
        process.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
