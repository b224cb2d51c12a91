#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory; a traced run also
writes its span dump there (spans/<workload>-seed<n>.json). Build output
goes to standard error, so the last line of standard output is the
driver's JSON result. Exits non-zero, printing no result, when the build
or any correctness check fails.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from an FTA checkout" % ROOT)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "fta_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "fta_perfbench")


def main(argv):
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.json" % (_value(args, "--workload"),
                                   _value(args, "--seed"))
        args += ["--spans", os.path.join(spans_dir, name)]
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def _value(args, flag):
    """The flag's value, reduced to a safe file-name fragment."""
    i = args.index(flag) if flag in args else -1
    raw = args[i + 1] if 0 <= i < len(args) - 1 else "unknown"
    return re.sub(r"[^A-Za-z0-9_.-]", "_", raw).lstrip(".") or "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
