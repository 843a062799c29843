#!/usr/bin/env python3
"""Builds the Zeus serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first run configures and builds `zbench` and the zeus
library under .bench_build/perfbench; later runs only rebuild what changed.
The last line of standard output is the run's JSON result; build output
and progress go to standard error. Result and span files are written to
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("serve-warm", "serve-routed", "stream-ingest", "plan-cold")
# A run must finish within 180 s; the benchmark's own share of that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "zbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "zbench")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=17,
                        help="seed the datasets are generated from")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in [1, 60]")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("no Zeus sources next to perfbench/ (expected "
                    "CMakeLists.txt and src/ in %s)" % ROOT)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=BUILD_ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus-seed", str(args.corpus_seed), "--work-dir", work,
           "--out-dir", results, "--commit", source_id()]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("%s did not finish within %d s" %
                    (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
