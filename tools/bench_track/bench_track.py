#!/usr/bin/env python3
"""bench_track — the bench-trajectory regression tracker.

Folds the repo's BENCH_*.json gate outputs (each stamped with git SHA,
CPU model, build flags, and date by bench/common.h's BenchMeta) into an
append-only history file, BENCH_history.jsonl, one JSON object per line:

    {"schema": "fta-bench-history-v1", "sha": "...", "date": "...",
     "cpu": "...", "threads": N, "build": "release",
     "benches": {"obs": {...full BENCH_obs.json...}, "game": {...}, ...}}

Subcommands:

    collect --bench-dir DIR --history FILE
        Fold every BENCH_*.json under DIR into one history entry and
        append it (an entry with the same SHA as the current last line is
        replaced, so re-runs do not duplicate).

    report --history FILE [--window N]
        Print the tracked metrics' trajectories (and the raw wall-clock
        numbers beside their tracked ratios) with deltas vs the previous
        entry.

    check --history FILE [--bench-dir DIR] [--threshold F] [--window N]
          [--report-only]
        Compare the current BENCH_*.json values (or, without --bench-dir,
        the newest history entry) against the median of up to N previous
        history entries from the same host — the same `cpu` and `threads`
        stamps — and fail on regressions beyond the threshold. Entries
        from other hosts are never compared: their wall times measure the
        host as much as the code.

Exit codes: 0 clean, 1 regression detected (suppressed by --report-only),
2 malformed history or bench files. Dependency-free by design, like
tools/fta_lint: standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SCHEMA = "fta-bench-history-v1"

# Tracked metrics: (bench stem, dotted path, direction). Direction says
# which way is better; a change beyond the threshold in the *worse*
# direction is a regression. Benches absent from a run are skipped, so the
# tracker keeps working as gates come and go.
#
# A gate is tracked through a number timed against a reference in the same
# run, so a slower host moves both sides of the ratio: the span and
# per-tick telemetry costs as fractions of their uninstrumented work, the
# ledger as its speedup over the rebuild path, serve8 throughput over the
# sequential reference, and serve8's p99 latency over the sequential
# reference's mean time per batch.
TRACKED = [
    ("obs", "overhead_fraction", "lower"),
    ("obs", "stream_telemetry.overhead_fraction", "lower"),
    ("game", "speedup", "higher"),
    ("simd", "speedup", "higher"),
    ("stream", "warm_cold_ratio", "lower"),
    ("serve", "serve8.speedup_vs_sequential", "higher"),
    ("serve", "serve8.p99_vs_sequential", "lower"),
]

# Printed by `report`, never checked: the raw wall-clock numbers behind the
# tracked ratios. On one shared host they swing about 2x between entries
# (obs.disabled_span_ns read 3.43, 6.78 and 2.25 ns).
REPORTED = TRACKED + [
    ("obs", "disabled_span_ns", "lower"),
    ("obs", "stream_telemetry.ontick_ns", "lower"),
    ("game", "ledger.ns_per_evaluate", "lower"),
    ("serve", "serve8.throughput_assignments_per_s", "higher"),
    ("serve", "serve8.p99_latency_ms", "lower"),
]


def fail(message):
    print("bench_track: error: %s" % message, file=sys.stderr)
    return 2


def lookup(obj, dotted):
    """Resolves a dotted path into nested dicts; None when absent."""
    node = obj
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def load_benches(bench_dir):
    """{stem: parsed json} for every BENCH_*.json in bench_dir."""
    benches = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
        if stem == "history":
            continue
        with open(path, "r", encoding="utf-8") as f:
            try:
                benches[stem] = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError("%s: %s" % (path, e))
    return benches


def build_entry(benches):
    """One history line from the collected bench documents. Provenance
    comes from the first bench carrying a BenchMeta stamp."""
    meta = {}
    for stem in sorted(benches):
        if isinstance(benches[stem].get("meta"), dict):
            meta = benches[stem]["meta"]
            break
    return {
        "schema": SCHEMA,
        "sha": meta.get("git_sha", "unknown"),
        "date": meta.get("date", "unknown"),
        "cpu": meta.get("cpu", "unknown"),
        "threads": meta.get("threads", 0),
        "build": meta.get("build", "unknown"),
        "benches": benches,
    }


def load_history(path):
    """Parses the history file; raises ValueError on any malformed or
    wrong-schema line (a corrupt trajectory must fail loudly, not skew
    the baseline silently)."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError("%s:%d: %s" % (path, lineno, e))
            if entry.get("schema") != SCHEMA:
                raise ValueError(
                    "%s:%d: schema %r, want %r"
                    % (path, lineno, entry.get("schema"), SCHEMA))
            if not isinstance(entry.get("benches"), dict):
                raise ValueError("%s:%d: missing benches object"
                                 % (path, lineno))
            entries.append(entry)
    return entries


def write_history(path, entries):
    with open(path, "w", encoding="utf-8") as f:
        for entry in entries:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


def cmd_collect(args):
    try:
        benches = load_benches(args.bench_dir)
        entries = load_history(args.history)
    except ValueError as e:
        return fail(str(e))
    if not benches:
        return fail("no BENCH_*.json files under %s" % args.bench_dir)
    entry = build_entry(benches)
    action = "appended"
    if entries and entries[-1]["sha"] == entry["sha"] != "unknown":
        entries[-1] = entry
        action = "replaced"
    else:
        entries.append(entry)
    write_history(args.history, entries)
    print("bench_track: %s entry sha=%s date=%s benches=[%s] -> %s (%d entries)"
          % (action, entry["sha"], entry["date"],
             " ".join(sorted(benches)), args.history, len(entries)))
    return 0


def metric_series(entries, bench, path):
    """[(sha, value)] over the entries holding this metric."""
    series = []
    for entry in entries:
        value = lookup(entry["benches"].get(bench, {}), path)
        if value is not None:
            series.append((entry["sha"], float(value)))
    return series


def cmd_report(args):
    try:
        entries = load_history(args.history)
    except ValueError as e:
        return fail(str(e))
    if not entries:
        print("bench_track: empty history %s" % args.history)
        return 0
    window = entries[-args.window:] if args.window > 0 else entries
    print("bench_track report: %d entries (showing %d), newest sha=%s"
          % (len(entries), len(window), entries[-1]["sha"]))
    for bench, path, direction in REPORTED:
        series = metric_series(window, bench, path)
        if not series:
            continue
        sha, value = series[-1]
        delta = ""
        if len(series) > 1:
            prev = series[-2][1]
            if prev != 0:
                pct = (value - prev) / prev * 100.0
                delta = " (%+.1f%% vs prev)" % pct
        trail = " ".join("%.6g" % v for _, v in series)
        print("  %s.%s [%s-is-better]: %.6g%s | trail: %s"
              % (bench, path, direction, value, delta, trail))
    return 0


def cmd_check(args):
    try:
        entries = load_history(args.history)
        if args.bench_dir:
            benches = load_benches(args.bench_dir)
            if not benches:
                return fail("no BENCH_*.json files under %s" % args.bench_dir)
            candidate = build_entry(benches)
            baseline_entries = entries
        else:
            if not entries:
                return fail("empty history %s and no --bench-dir"
                            % args.history)
            candidate = entries[-1]
            baseline_entries = entries[:-1]
    except ValueError as e:
        return fail(str(e))
    host = (candidate.get("cpu"), candidate.get("threads"))
    baseline_entries = [e for e in baseline_entries
                        if (e.get("cpu"), e.get("threads")) == host]
    if not baseline_entries:
        print("bench_track check: no baseline entries from this host "
              "(cpu=%r, threads=%s); nothing to compare (sha=%s)"
              % (host[0], host[1], candidate["sha"]))
        return 0

    regressions = []
    compared = 0
    for bench, path, direction in TRACKED:
        value = lookup(candidate["benches"].get(bench, {}), path)
        if value is None:
            continue
        history_values = [
            v for _, v in
            metric_series(baseline_entries[-args.window:], bench, path)
        ]
        if not history_values:
            continue
        baseline = statistics.median(history_values)
        compared += 1
        if baseline == 0:
            continue
        change = (float(value) - baseline) / abs(baseline)
        worse = change > args.threshold if direction == "lower" \
            else change < -args.threshold
        marker = "REGRESSION" if worse else "ok"
        print("  %s.%s: %.6g vs median %.6g (%+.1f%%, %s-is-better) %s"
              % (bench, path, value, baseline, change * 100.0, direction,
                 marker))
        if worse:
            regressions.append((bench, path, value, baseline))

    print("bench_track check: sha=%s, %d metrics compared against up to %d "
          "previous same-host entries, threshold %.0f%%: %d regression(s)"
          % (candidate["sha"], compared, args.window,
             args.threshold * 100.0, len(regressions)))
    if regressions and not args.report_only:
        return 1
    if regressions:
        print("bench_track check: report-only mode, not failing")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench_track",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="fold BENCH_*.json into the history")
    p.add_argument("--bench-dir", default=".",
                   help="directory holding BENCH_*.json (default .)")
    p.add_argument("--history", default="BENCH_history.jsonl")

    p = sub.add_parser("report", help="print tracked-metric trajectories")
    p.add_argument("--history", default="BENCH_history.jsonl")
    p.add_argument("--window", type=int, default=10,
                   help="entries to show (0 = all)")

    p = sub.add_parser("check", help="flag regressions vs the history")
    p.add_argument("--history", default="BENCH_history.jsonl")
    p.add_argument("--bench-dir", default="",
                   help="compare these BENCH_*.json files; without it the "
                        "newest history entry is the candidate")
    p.add_argument("--threshold", type=float, default=0.15,
                   help="relative regression threshold (default 0.15)")
    p.add_argument("--window", type=int, default=5,
                   help="previous entries in the baseline median")
    p.add_argument("--report-only", action="store_true",
                   help="print regressions but exit 0")

    args = parser.parse_args(argv)
    if args.command == "collect":
        return cmd_collect(args)
    if args.command == "report":
        return cmd_report(args)
    return cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
