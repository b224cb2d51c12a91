#!/usr/bin/env python3
"""Toy-size self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  - every workload prints, in both modes, exactly the metric names and
    units BENCHMARK.json lists, and the end-to-end values are positive;
  - equal seeds give identical inputs and different seeds different ones;
  - a wrong expected reference (digest or pooled fairness) fails the run
    with a non-zero exit and no result line;
  - metric_map.json maps every per-layer metric and names only known
    end-to-end metrics and workloads;
  - run.py, in a directory holding only BENCHMARK.json and perfbench/,
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def drive(binary, workload, *extra, seed=5):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--toy"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170)
    return proc.returncode, proc.stdout.decode()


def last_json(out):
    lines = [l for l in out.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mmap = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = run.build(build_root)

    for w in workloads:
        for trace, want in (("0", e2e), ("1", layer)):
            code, out = drive(binary, w, "--trace", trace)
            res = last_json(out)
            good = (code == 0 and res is not None and
                    set(res) == {"correct", "attempted", "failed", "metrics"})
            check(good, "%s --trace %s prints one result line" % (w, trace))
            if not good:
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want,
                  "%s --trace %s prints every metric with its unit" % (w, trace))
            check(res["correct"] is True and res["attempted"] >= 1,
                  "%s --trace %s is correct with attempted >= 1" % (w, trace))
            if trace == "0":
                vals = [v["value"] for v in res["metrics"].values()]
                check(all(math.isfinite(v) and v > 0 for v in vals),
                      "%s end-to-end values are positive" % w)

        digests = []
        for seed in (5, 5, 6):
            code, out = drive(binary, w, "--trace", "0", "--input-digest",
                              seed=seed)
            digests.append(out.strip() if code == 0 else None)
        check(digests[0] is not None and digests[0] == digests[1],
              "%s: equal seeds give identical inputs" % w)
        check(digests[2] is not None and digests[2] != digests[0],
              "%s: different seeds give different inputs" % w)

        code, out = drive(binary, w, "--trace", "0", "--corrupt-reference")
        check(code != 0 and last_json(out) is None,
              "%s: a wrong expected reference fails the run" % w)

    mapped = [m for group in mmap["layer_map"] for m in group["metrics"]]
    check(sorted(mapped) == sorted(layer),
          "metric_map.json maps every per-layer metric exactly once")
    named = {m for group in mmap["layer_map"] for m in group["moves"]}
    check(named <= set(e2e), "metric_map.json names only end-to-end metrics")
    places = {x for group in mmap["layer_map"]
              for x in group["on"] + group["no_change_on"]}
    check(places <= set(workloads) and set(mmap["seeds"]) == set(workloads),
          "metric_map.json names only known workloads, with seeds for each")

    # A directory with only the benchmark's own files cannot build it.
    bare = os.path.join(build_root, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workloads[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=170)
    check(proc.returncode != 0 and last_json(proc.stdout.decode()) is None,
          "run.py outside a checkout exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
