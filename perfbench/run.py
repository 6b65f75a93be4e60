#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of the repository. The build goes to the directory named
by CARGO_TARGET_DIR, or to .bench_build when that is unset; per-run results
and Chrome traces land in its out/ subdirectory. The last line of standard
output is the runner's JSON result. Exit status is the runner's: 0 success,
1 a failed correctness check, anything else no result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configure once, then build `target`; output goes to build.log."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as again:
                    sys.stderr.write(again.read()[-4000:])
                fail("build failed: " + " ".join(cmd) + " (log: " + log_path + ")")
    return out


def commit_id():
    """HEAD of the repository at ROOT, or "unknown" when ROOT is not one."""
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def without_aslr(cmd):
    """`cmd` run with address-space randomization off, where setarch allows it.

    A randomized heap and stack layout moves this program's slot times by
    several percent from one process to the next; a fixed layout keeps runs
    of the same code comparable.
    """
    probe = ["setarch", os.uname().machine, "-R"]
    try:
        ok = subprocess.run(probe + ["true"], capture_output=True, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return probe + cmd if ok else cmd


def source_digest():
    """SHA-256 over the program's sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program sources beside perfbench/ (missing " + needed + ")")

    if args.selftest:
        out = build("perfbench_tests")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)

    if args.workload is None or args.seed is None or args.seed < 0 or args.seconds is None:
        fail("--workload, a non-negative --seed and --seconds are required")
    out = build("perfbench_runner")
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    sys.stdout.flush()
    cmd = [os.path.join(out, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", results, "--commit", commit_id(),
           "--source-digest", source_digest()]
    sys.exit(subprocess.run(without_aslr(cmd)).returncode)


if __name__ == "__main__":
    main()
