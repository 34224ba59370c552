#!/usr/bin/env python3
"""Build and run the pinned Hermes serving benchmark.

    python3 perfbench/run.py --workload broker-small --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
hermes libraries and the hermes_perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. Build output goes to stderr; the binary's progress lines,
run stamp and, as the last line, its JSON result go to stdout. The exit
code is the binary's: not 0 when an output check failed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """Git commit when there is one, plus a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"git:{sha} src:{digest.hexdigest()[:12]}"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hermes sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "hermes_perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hermes_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    workdir = os.path.join(target, "work")
    os.makedirs(workdir, exist_ok=True)

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", workdir,
               "--stamp", source_stamp()]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hermes_perfbench did not finish within {TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
