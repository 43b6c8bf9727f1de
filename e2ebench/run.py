#!/usr/bin/env python3
"""Builds the live end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The program's src/ libraries and the
benchmark are compiled in an optimised build under .bench_build/ (or under
$CARGO_TARGET_DIR when set); the repository's own build files are not used.
The last line of standard output is the JSON result of the run.

--selftest runs the checker's self-test (planted faults must fail the check)
and then every workload end to end in its short mode.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fanout", "mixed", "tcp", "move_covering"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures and builds; exits non-zero without a result on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "e2ebench", "e2ebench_selftest",
         "-j", "3"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return out


def selftest(out):
    if subprocess.run([os.path.join(out, "e2ebench_selftest")]).returncode:
        log("checker self-test failed")
        return 1
    bad = 0
    for w in WORKLOADS:
        cmd = [os.path.join(out, "e2ebench"), "--workload", w, "--seed", "7",
               "--seconds", "1", "--trace", "0", "--short"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = done.returncode == 0 and result.get("correct") is True
        log(f"short run of {w}: {'ok' if ok else 'FAILED'} {lines[-1] if lines else ''}")
        bad += not ok
    return 1 if bad else 0


def main():
    args = sys.argv[1:]
    out = build()
    if args == ["--selftest"]:
        sys.exit(selftest(out))
    done = subprocess.run([os.path.join(out, "e2ebench")] + args, timeout=175)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
