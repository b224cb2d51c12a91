#!/usr/bin/env python3
"""serve_wait — where a serve request's wait goes, read from a span dump.

Reads the span dump of a traced benchmark run, for example

    python3 perfbench/run.py --workload serve-rush --seed 2 --seconds 15 \\
        --trace 1
    python3 tools/serve_wait/serve_wait.py \\
        $CARGO_TARGET_DIR/spans/serve-rush-seed2.json

The dump is Chrome trace-event JSON. Each measured batch has a
`serve.batch` span from its seal to its response, with a `stream.tick`
child for the tick a runner spent on it, and each request a
`serve.submit` span starting at its submit. A batch's spans and its
requests' spans share `key = center * ticks + tick`.

For each latency window (the measured ticks cut into equal windows of
about WINDOW_TICKS ticks, as the benchmark cuts them) it prints:

  - the request p99, a request's latency running from its submit to its
    batch's response;
  - for the slowest 1% of requests (latency at or above that p99), the
    mean split of their batch's wait (seal to tick start) into own-shard
    backlog, until the center's previous batch was answered, and runner
    wait, the rest; and their mean tick;
  - the centers of those requests, busiest first;
  - the runners' busy fraction in each BIN_MS wall bin of the window
    (stream.tick time inside the bin over RUNNERS x the bin), with the
    count of saturated bins (>= 0.95) and the longest run of them.

The dump fixes the benchmark's shape, so the tool takes no options:
RUNNERS, BIN_MS and WINDOW_TICKS below are perfbench's values, and keys
are decoded by finding the centers' tick ranges, which the warm-up gap
(always present in a perfbench dump) separates. Exit codes: 0 ok, 2
unreadable or malformed dump. Standard library only, like
tools/bench_track.
"""

import argparse
import collections
import json
import math
import sys

# perfbench's serve shape: kThreads in perfbench/src/workloads.h, and
# ServeShape::wall_tick_ms and ServeShape::window_ticks in
# perfbench/src/serve_workload.cc.
RUNNERS = 3
BIN_MS = 20.0
WINDOW_TICKS = 75

SATURATED = 0.95
BINS_PER_ROW = 25


class DumpError(Exception):
    pass


def quantile(values, q):
    """The benchmark's rank rule: the ceil(q * n)-th smallest value."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def load_spans(path):
    """{name: [(key, start_ms, end_ms)]} from a trace-event dump."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise DumpError("cannot read %s: %s" % (path, e))
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise DumpError("%s has no traceEvents list" % path)
    spans = collections.defaultdict(list)
    for ev in events:
        try:
            start = float(ev["ts"]) / 1e3
            spans[ev["name"]].append(
                (int(ev["args"]["key"]), start,
                 start + float(ev["dur"]) / 1e3))
        except (KeyError, TypeError, ValueError):
            raise DumpError("malformed trace event: %r" % (ev,))
    return spans


def infer_ticks(keys):
    """Ticks per center, from the centers' key runs (center * ticks +
    tick over the measured ticks, separated by the warm-up gap)."""
    ordered = sorted(set(keys))
    if not ordered:
        raise DumpError("the dump has no serve.batch spans")
    ends = [a for a, b in zip(ordered, ordered[1:]) if b != a + 1]
    ends.append(ordered[-1])
    ticks, rem = divmod(ordered[-1] + 1, len(ends))
    if rem or any(end % ticks != ticks - 1 for end in ends):
        raise DumpError("cannot infer ticks per center from the keys")
    return ticks


def analyse(spans, runners=RUNNERS, bin_ms=BIN_MS, window_ticks=WINDOW_TICKS,
            ticks=None):
    batches = {key: (start, end) for key, start, end in spans["serve.batch"]}
    tick_span = {key: (start, end) for key, start, end in spans["stream.tick"]}
    if ticks is None:
        ticks = infer_ticks(batches)
    if set(tick_span) != set(batches):
        raise DumpError("serve.batch and stream.tick keys differ")
    measured_ticks = sorted({key % ticks for key in batches})
    first, last = measured_ticks[0], measured_ticks[-1]
    measured = last - first + 1
    windows = max(1, measured // window_ticks)

    # Per batch: wait from seal to tick start, split at the moment the
    # center's previous batch was answered.
    split = {}
    for key, (seal, end) in batches.items():
        wait = max(0.0, tick_span[key][0] - seal)
        prev = batches.get(key - 1) if key % ticks > first else None
        backlog = min(wait, max(0.0, prev[1] - seal)) if prev else 0.0
        tick = tick_span[key][1] - tick_span[key][0]
        split[key] = (backlog, wait - backlog, tick)

    per_window = [[] for _ in range(windows)]
    for key, submit, _ in spans["serve.submit"]:
        if key not in batches:
            raise DumpError("serve.submit key %d has no batch" % key)
        w = (key % ticks - first) * windows // measured
        per_window[w].append((batches[key][1] - submit, key, submit))

    # Runner busy fraction per wall bin, from the first submit on.
    t0 = min(submit for _, submit, _ in spans["serve.submit"])
    t_end = max(end for _, end in batches.values())
    busy = [0.0] * max(1, math.ceil((t_end - t0) / bin_ms))
    for start, end in tick_span.values():
        b = max(0, int((start - t0) // bin_ms))
        while b < len(busy) and t0 + b * bin_ms < end:
            lo = t0 + b * bin_ms
            busy[b] += max(0.0, min(end, lo + bin_ms) - max(start, lo))
            b += 1
    busy = [v / (runners * bin_ms) for v in busy]

    window_starts = [min(s for _, _, s in reqs) if reqs else t_end
                     for reqs in per_window]
    out = []
    for w, reqs in enumerate(per_window):
        lat = [l for l, _, _ in reqs]
        p99 = quantile(lat, 0.99)
        slow = [key for l, key, _ in reqs if l >= p99]
        backlog, runner_wait, tick = (
            sum(split[k][i] for k in slow) / max(1, len(slow))
            for i in range(3))
        centers = collections.Counter(key // ticks for key in slow)
        lo = int((window_starts[w] - t0) // bin_ms)
        hi = (int((window_starts[w + 1] - t0) // bin_ms)
              if w + 1 < windows else len(busy))
        bins = busy[lo:hi]
        run = longest = 0
        for v in bins:
            run = run + 1 if v >= SATURATED else 0
            longest = max(longest, run)
        out.append({
            "first_tick": first + -(-w * measured // windows),
            "last_tick": first + -(-(w + 1) * measured // windows) - 1,
            "requests": len(reqs),
            "p99_ms": p99,
            "slow": len(slow),
            "backlog_ms": backlog,
            "runner_wait_ms": runner_wait,
            "tick_ms": tick,
            "busiest": sorted(centers.items(), key=lambda kv: (-kv[1], kv[0])),
            "bins": bins,
            "saturated_bins": sum(1 for v in bins if v >= SATURATED),
            "longest_saturated": longest,
        })
    return {"ticks": ticks, "centers": len({k // ticks for k in batches}),
            "runners": runners, "bin_ms": bin_ms, "windows": out}


def format_report(result, top=4):
    lines = ["%d centers, %d ticks per center, %d runners, %g ms bins" %
             (result["centers"], result["ticks"], result["runners"],
              result["bin_ms"])]
    for w, win in enumerate(result["windows"]):
        busiest = " ".join("c%d:%d" % kv for kv in win["busiest"][:top])
        lines.append(
            "window %d (ticks %d-%d, %d requests): p99 %.2f ms; slowest %d: "
            "wait = own-shard backlog %.2f + runner wait %.2f ms, tick "
            "%.2f ms; centers %s" %
            (w, win["first_tick"], win["last_tick"], win["requests"],
             win["p99_ms"], win["slow"], win["backlog_ms"],
             win["runner_wait_ms"], win["tick_ms"], busiest))
        lines.append("  runner busy: %d of %d bins saturated, longest run "
                     "%d" % (win["saturated_bins"], len(win["bins"]),
                             win["longest_saturated"]))
        for i in range(0, len(win["bins"]), BINS_PER_ROW):
            lines.append("    " + " ".join(
                "%.2f" % v for v in win["bins"][i:i + BINS_PER_ROW]))
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dump")
    args = parser.parse_args(argv)
    try:
        result = analyse(load_spans(args.dump))
    except DumpError as e:
        print("serve_wait: error: %s" % e, file=sys.stderr)
        return 2
    print(format_report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
