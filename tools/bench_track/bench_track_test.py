#!/usr/bin/env python3
"""Self-test for bench_track: history folding, replacement semantics,
regression detection (including an injected synthetic regression),
same-host baselines, report-only mode, and malformed-history failure."""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_track  # noqa: E402


def meta(sha, cpu="test-cpu", threads=4):
    return {"git_sha": sha, "cpu": cpu, "date": "2026-08-08",
            "compiler": "g++", "build": "release", "threads": threads}


def obs_bench(sha, overhead=0.002, stream_overhead=0.004, span_ns=2.0,
              ontick_ns=400.0, **host):
    return {
        "bench": "obs_overhead", "meta": meta(sha, **host),
        "disabled_span_ns": span_ns, "overhead_fraction": overhead,
        "stream_telemetry": {"overhead_fraction": stream_overhead,
                             "ontick_ns": ontick_ns, "digest_match": True},
        "pass": True,
    }


def game_bench(sha, ns_per_evaluate=200.0, speedup=6.0, **host):
    return {
        "bench": "game_ledger", "meta": meta(sha, **host),
        "ledger": {"ns_per_evaluate": ns_per_evaluate},
        "speedup": speedup, "pass": True,
    }


def serve_bench(sha, throughput=33000.0, p99=60.0, p99_vs_seq=4.0,
                speedup=3.2, **host):
    return {
        "bench": "serve", "meta": meta(sha, **host),
        "serve8": {"throughput_assignments_per_s": throughput,
                   "p99_latency_ms": p99, "p99_vs_sequential": p99_vs_seq,
                   "speedup_vs_sequential": speedup},
        "digest_identity": True, "pass": True,
    }


def host_benches(sha, slowdown=1.0, **host):
    """Every bench of one run on a host `slowdown` times slower: wall
    times scale up, throughput down; ratios timed within the run stay."""
    return {
        "obs": obs_bench(sha, span_ns=2.0 * slowdown,
                         ontick_ns=400.0 * slowdown, **host),
        "game": game_bench(sha, ns_per_evaluate=200.0 * slowdown, **host),
        "serve": serve_bench(sha, throughput=33000.0 / slowdown,
                             p99=60.0 * slowdown, **host),
    }


class BenchTrackTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.history = os.path.join(self.dir, "BENCH_history.jsonl")

    def tearDown(self):
        self.tmp.cleanup()

    def write_benches(self, sha, **overrides):
        docs = {"obs": obs_bench(sha), "game": game_bench(sha),
                "serve": serve_bench(sha)}
        for stem, patch in overrides.items():
            docs[stem] = patch
        for stem, doc in docs.items():
            path = os.path.join(self.dir, "BENCH_%s.json" % stem)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)

    def collect(self, sha, **overrides):
        self.write_benches(sha, **overrides)
        return bench_track.main(
            ["collect", "--bench-dir", self.dir, "--history", self.history])

    def check(self, extra=()):
        return bench_track.main(
            ["check", "--history", self.history, "--bench-dir", self.dir]
            + list(extra))

    def test_collect_builds_consistent_history(self):
        self.assertEqual(self.collect("aaa111"), 0)
        self.assertEqual(self.collect("bbb222"), 0)
        entries = bench_track.load_history(self.history)
        self.assertEqual(len(entries), 2)
        self.assertEqual([e["sha"] for e in entries], ["aaa111", "bbb222"])
        for entry in entries:
            self.assertEqual(entry["schema"], bench_track.SCHEMA)
            self.assertEqual(entry["cpu"], "test-cpu")
            self.assertEqual(entry["build"], "release")
            self.assertEqual(sorted(entry["benches"]),
                             ["game", "obs", "serve"])
        # Every tracked obs/game/serve metric is resolvable in every entry.
        for bench, path, _ in bench_track.TRACKED:
            if bench in ("obs", "game", "serve"):
                for entry in entries:
                    self.assertIsNotNone(
                        bench_track.lookup(entry["benches"][bench], path),
                        "%s.%s" % (bench, path))

    def test_collect_replaces_same_sha(self):
        self.assertEqual(self.collect("aaa111"), 0)
        self.assertEqual(self.collect("aaa111"), 0)
        self.assertEqual(len(bench_track.load_history(self.history)), 1)

    def test_collect_unknown_sha_appends_never_replaces(self):
        # Outside a git checkout GetBenchMeta stamps "unknown"; two such
        # runs are distinct measurements, not a re-run of one commit, so
        # same-sha replacement must not collapse them.
        self.assertEqual(self.collect("unknown"), 0)
        self.assertEqual(self.collect("unknown"), 0)
        entries = bench_track.load_history(self.history)
        self.assertEqual([e["sha"] for e in entries], ["unknown", "unknown"])

    def test_build_entry_without_meta_degrades_to_unknown(self):
        entry = bench_track.build_entry({"obs": {"bench": "obs_overhead"}})
        self.assertEqual(entry["sha"], "unknown")
        self.assertEqual(entry["date"], "unknown")
        self.assertEqual(entry["cpu"], "unknown")
        self.assertEqual(entry["build"], "unknown")
        self.assertEqual(entry["threads"], 0)

    def test_check_clean_run_passes(self):
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha), 0)
        self.write_benches("s4")
        self.assertEqual(self.check(), 0)

    def test_check_flags_injected_regression(self):
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha), 0)
        # Synthetic regression: span overhead grows 50% (lower-is-better
        # metric rises well beyond the 15% default threshold).
        self.write_benches("s4", obs=obs_bench("s4", overhead=0.003))
        self.assertEqual(self.check(), 1)
        # Report-only mode surfaces it but exits 0 (the CI default).
        self.assertEqual(self.check(["--report-only"]), 0)

    def test_check_flags_higher_is_better_drop(self):
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha), 0)
        self.write_benches("s4", game=game_bench("s4", speedup=3.0))
        self.assertEqual(self.check(), 1)

    def test_check_flags_serve_throughput_drop(self):
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha), 0)
        # serve8's speedup over the sequential reference (higher-is-better)
        # drops by 30% against same-host entries.
        self.write_benches("s4", serve=serve_bench("s4", speedup=2.24))
        self.assertEqual(self.check(), 1)
        # p99 over the reference's time per batch (lower-is-better)
        # doubling is likewise a regression.
        self.write_benches("s4", serve=serve_bench("s4", p99_vs_seq=8.0))
        self.assertEqual(self.check(), 1)
        # Raw throughput and raw p99 are reported, not checked: a slower
        # host moves them together with the sequential reference the
        # ratios divide by.
        self.write_benches(
            "s4", serve=serve_bench("s4", throughput=20000.0))
        self.assertEqual(self.check(), 0)
        self.write_benches("s4", serve=serve_bench("s4", p99=120.0))
        self.assertEqual(self.check(), 0)

    def test_check_gates_only_host_normalised_numbers(self):
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha), 0)
        # The same host, uniformly 2x slower: the raw span, telemetry,
        # Evaluate and serve p99 times double and serve throughput halves;
        # the ratios timed within the run do not move.
        slow = host_benches("s4", slowdown=2.0)
        self.write_benches("s4", **slow)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.check(), 0)
        for raw in ("obs.disabled_span_ns", "obs.stream_telemetry.ontick_ns",
                    "game.ledger.ns_per_evaluate",
                    "serve.serve8.p99_latency_ms",
                    "serve.serve8.throughput_assignments_per_s"):
            self.assertNotIn(raw, out.getvalue())
            self.assertIn(raw.split(".", 1)[1],
                          [p for _, p, _ in bench_track.REPORTED])
        # A 30% drop in the ledger's speedup over its in-run rebuild
        # reference still flags on the same slow host.
        slow["game"]["speedup"] = 6.0 * 0.7
        self.write_benches("s4", **slow)
        self.assertEqual(self.check(), 1)
        # So does a 30% rise in serve8's p99 over the in-run sequential
        # reference's time per batch.
        slow = host_benches("s4", slowdown=2.0)
        slow["serve"]["serve8"]["p99_vs_sequential"] = 4.0 * 1.3
        self.write_benches("s4", **slow)
        self.assertEqual(self.check(), 1)

    def test_check_ignores_other_hosts(self):
        # History from a faster 1-thread host; the candidate runs
        # uniformly 1.5x slower on a 4-thread host.
        other = {"cpu": "fast-cpu", "threads": 1}
        for sha in ("s1", "s2", "s3"):
            self.assertEqual(self.collect(sha, **host_benches(sha, **other)),
                             0)
        self.write_benches("s4", **host_benches("s4", slowdown=1.5))
        self.assertEqual(self.check(), 0)
        # Once same-host entries exist, only they form the baseline: the
        # same slow numbers pass, and a 30% speedup drop still flags.
        for sha in ("s4", "s5"):
            self.assertEqual(
                self.collect(sha, **host_benches(sha, slowdown=1.5)), 0)
        self.write_benches("s6", **host_benches("s6", slowdown=1.5))
        self.assertEqual(self.check(), 0)
        slow = host_benches("s6", slowdown=1.5)
        slow["serve"]["serve8"]["speedup_vs_sequential"] = 3.2 * 0.7
        self.write_benches("s6", **slow)
        self.assertEqual(self.check(), 1)

    def test_check_within_threshold_passes(self):
        for sha in ("s1", "s2"):
            self.assertEqual(self.collect(sha), 0)
        self.write_benches("s3", game=game_bench("s3", speedup=5.4))  # -10%
        self.assertEqual(self.check(), 0)

    def test_check_newest_history_entry_without_bench_dir(self):
        for sha in ("s1", "s2"):
            self.assertEqual(self.collect(sha), 0)
        self.assertEqual(self.collect(
            "s3", obs=obs_bench("s3", overhead=0.003)), 0)
        self.assertEqual(bench_track.main(
            ["check", "--history", self.history]), 1)

    def test_malformed_history_exits_2(self):
        with open(self.history, "w", encoding="utf-8") as f:
            f.write('{"schema": "fta-bench-history-v1"\n')  # truncated
        self.write_benches("s1")
        self.assertEqual(self.check(), 2)
        self.assertEqual(bench_track.main(
            ["report", "--history", self.history]), 2)

    def test_wrong_schema_exits_2(self):
        with open(self.history, "w", encoding="utf-8") as f:
            f.write(json.dumps({"schema": "v0", "benches": {}}) + "\n")
        self.write_benches("s1")
        self.assertEqual(self.check(), 2)

    def test_report_runs_on_real_shapes(self):
        for sha in ("s1", "s2"):
            self.assertEqual(self.collect(sha), 0)
        self.assertEqual(bench_track.main(
            ["report", "--history", self.history]), 0)

    def test_first_entry_has_no_baseline(self):
        self.write_benches("s1")
        self.assertEqual(self.check(), 0)

    def test_repo_history_is_consistent(self):
        """The committed BENCH_history.jsonl (when present) parses and
        passes a report-only check against the committed BENCH files."""
        repo = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        history = os.path.join(repo, "BENCH_history.jsonl")
        if not os.path.exists(history):
            self.skipTest("no committed BENCH_history.jsonl")
        entries = bench_track.load_history(history)
        self.assertGreaterEqual(len(entries), 1)
        self.assertEqual(bench_track.main(
            ["check", "--history", history, "--report-only"]), 0)


if __name__ == "__main__":
    unittest.main()
