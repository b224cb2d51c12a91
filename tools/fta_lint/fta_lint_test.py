#!/usr/bin/env python3
"""Fixture tests for fta_lint: every rule fires with the exact diagnostic,
escapes (NOLINT, allowlist) suppress, and stale allowlist entries fail."""

import io
import os
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fta_lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def run_lint(root, extra_args=None):
    argv = ["--root", os.path.join(TESTDATA, root)] + (extra_args or []) + ["src"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fta_lint.main(argv)
    return code, out.getvalue().splitlines(), err.getvalue()


class ViolationFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.lines, cls.err = run_lint("violations")

    def test_exit_code_signals_violations(self):
        self.assertEqual(self.code, 1)

    def test_exact_diagnostics(self):
        expected = [
            "src/banned.cc:6: [banned-token] 'time(nullptr)' — wall-clock "
            "seeding breaks reproducibility; thread timestamps in explicitly",
            "src/banned.cc:9: [banned-token] 'time(NULL)' — wall-clock "
            "seeding breaks reproducibility; thread timestamps in explicitly",
            "src/banned.cc:11: [banned-token] 'rand(' — libc rand() is "
            "nondeterministic across runs; use fta::Rng",
            "src/banned.cc:14: [banned-token] 'std::random_device' — "
            "std::random_device is nondeterministic; seed fta::Rng explicitly",
            "src/banned.cc:19: [banned-token] 'this_thread::sleep' — sleeps "
            "encode scheduling assumptions; use condition variables",
            "src/game/best_response_hot.cc:21: [hot-path-allocation] "
            "'std::make_unique' allocates inside steady-state hot region "
            "'scan'; hoist the allocation out of the region or reuse a "
            "pre-sized buffer (// NOLINT(fta-alloc) with a reason if "
            "amortized by design)",
            "src/game/best_response_hot.cc:22: [hot-path-allocation] "
            "'new' allocates inside steady-state hot region "
            "'scan'; hoist the allocation out of the region or reuse a "
            "pre-sized buffer (// NOLINT(fta-alloc) with a reason if "
            "amortized by design)",
            "src/game/best_response_hot.cc:23: [hot-path-allocation] "
            "'winners.push_back' in hot region 'scan' may reallocate — no "
            "'winners.reserve(' anywhere in this file; size the container "
            "up front or reuse a caller-owned buffer (// NOLINT(fta-alloc) "
            "with a reason if amortized by design)",
            "src/game/best_response_hot.cc:25: [hot-path-allocation] "
            "'winners.emplace_back' in hot region 'scan' may reallocate — no "
            "'winners.reserve(' anywhere in this file; size the container "
            "up front or reuse a caller-owned buffer (// NOLINT(fta-alloc) "
            "with a reason if amortized by design)",
            "src/game/best_response_sized.cc:17: [hot-path-allocation] "
            "'std::vector<Candidate> winners' constructs a sized container "
            "inside steady-state hot region 'fan-out'; size it once outside "
            "the region (e.g. a member sized in the constructor) and reuse "
            "it (// NOLINT(fta-alloc) with a reason if amortized by design)",
            "src/game/best_response_sized.cc:18: [hot-path-allocation] "
            "'std::vector<int> counts' constructs a sized container "
            "inside steady-state hot region 'fan-out'; size it once outside "
            "the region (e.g. a member sized in the constructor) and reuse "
            "it (// NOLINT(fta-alloc) with a reason if amortized by design)",
            "src/game/best_response_sized.cc:19: [hot-path-allocation] "
            "'std::vector<double>' constructs a sized container "
            "inside steady-state hot region 'fan-out'; size it once outside "
            "the region (e.g. a member sized in the constructor) and reuse "
            "it (// NOLINT(fta-alloc) with a reason if amortized by design)",
            "src/game/metric_rebuild.cc:12: [sorted-metric-rebuild] "
            "'MeanAbsolutePairwiseDifference(' copies and re-sorts payoffs "
            "the engine's ledger already keeps sorted; read "
            "PayoffLedger::PayoffDifference()/Gini() or pass a sorted view "
            "to a *Sorted overload (DESIGN.md §9)",
            "src/game/metric_rebuild.cc:16: [sorted-metric-rebuild] "
            "'Gini(' copies and re-sorts payoffs "
            "the engine's ledger already keeps sorted; read "
            "PayoffLedger::PayoffDifference()/Gini() or pass a sorted view "
            "to a *Sorted overload (DESIGN.md §9)",
            "src/obs/wall_clock.cc:10: [wall-clock-read] "
            "'std::chrono::steady_clock::now' — direct clock read in the "
            "replay-deterministic obs/stream layers; take durations as "
            "caller-measured values (util/stopwatch.h at the call site) "
            "and advance windows on caller-driven ticks; the only "
            "sanctioned clock is src/obs/trace.cc",
            "src/obs/wall_clock.cc:13: [wall-clock-read] "
            "'clock_gettime(' — direct clock read in the "
            "replay-deterministic obs/stream layers; take durations as "
            "caller-measured values (util/stopwatch.h at the call site) "
            "and advance windows on caller-driven ticks; the only "
            "sanctioned clock is src/obs/trace.cc",
            "src/obs/wall_clock.cc:15: [wall-clock-read] "
            "'gettimeofday(' — direct clock read in the "
            "replay-deterministic obs/stream layers; take durations as "
            "caller-measured values (util/stopwatch.h at the call site) "
            "and advance windows on caller-driven ticks; the only "
            "sanctioned clock is src/obs/trace.cc",
            "src/obs/wall_clock.cc:18: [wall-clock-read] "
            "'gmtime_r(' — direct clock read in the "
            "replay-deterministic obs/stream layers; take durations as "
            "caller-measured values (util/stopwatch.h at the call site) "
            "and advance windows on caller-driven ticks; the only "
            "sanctioned clock is src/obs/trace.cc",
            "src/parallel_reduce.cc:20: [parallel-float-reduce] float "
            "accumulation 'total +=' inside a ThreadPool fan-out lambda; "
            "scheduling order would change the sum — fold per-shard results "
            "in a fixed order instead",
            "src/parallel_reduce.cc:21: [parallel-float-reduce] float "
            "accumulation 't.wall_ms +=' inside a ThreadPool fan-out lambda; "
            "scheduling order would change the sum — fold per-shard results "
            "in a fixed order instead",
            "src/raw_mutex.cc:3: [raw-mutex] '#include <mutex>' — raw "
            "standard-library locking outside src/util/mutex.h; use "
            "fta::Mutex / fta::MutexLock / fta::CondVar (util/mutex.h) so "
            "Clang thread-safety analysis can check the lock against "
            "FTA_GUARDED_BY state (DESIGN.md §13)",
            "src/raw_mutex.cc:4: [raw-mutex] '#include <shared_mutex>' — raw "
            "standard-library locking outside src/util/mutex.h; use "
            "fta::Mutex / fta::MutexLock / fta::CondVar (util/mutex.h) so "
            "Clang thread-safety analysis can check the lock against "
            "FTA_GUARDED_BY state (DESIGN.md §13)",
            "src/raw_mutex.cc:9: [raw-mutex] 'std::mutex' — raw "
            "standard-library locking outside src/util/mutex.h; use "
            "fta::Mutex / fta::MutexLock / fta::CondVar (util/mutex.h) so "
            "Clang thread-safety analysis can check the lock against "
            "FTA_GUARDED_BY state (DESIGN.md §13)",
            "src/raw_mutex.cc:10: [raw-mutex] 'std::condition_variable' — "
            "raw standard-library locking outside src/util/mutex.h; use "
            "fta::Mutex / fta::MutexLock / fta::CondVar (util/mutex.h) so "
            "Clang thread-safety analysis can check the lock against "
            "FTA_GUARDED_BY state (DESIGN.md §13)",
            "src/raw_mutex.cc:15: [raw-mutex] 'std::unique_lock' — raw "
            "standard-library locking outside src/util/mutex.h; use "
            "fta::Mutex / fta::MutexLock / fta::CondVar (util/mutex.h) so "
            "Clang thread-safety analysis can check the lock against "
            "FTA_GUARDED_BY state (DESIGN.md §13)",
            "src/simd_leak.cc:2: [raw-simd-intrinsics] "
            "'#include <immintrin.h>' outside a sanctioned kernel TU; raw "
            "SIMD belongs in src/util/simd_avx2.cc / "
            "src/game/iau_kernels_avx2.cc behind the util/simd.h dispatch "
            "layer (DESIGN.md §11)",
            "src/simd_leak.cc:7: [raw-simd-intrinsics] '_mm256_loadu_pd' "
            "outside a sanctioned kernel TU; raw SIMD belongs in "
            "src/util/simd_avx2.cc / src/game/iau_kernels_avx2.cc behind "
            "the util/simd.h dispatch layer (DESIGN.md §11)",
            "src/simd_leak.cc:9: [raw-simd-intrinsics] '_mm256_storeu_pd' "
            "outside a sanctioned kernel TU; raw SIMD belongs in "
            "src/util/simd_avx2.cc / src/game/iau_kernels_avx2.cc behind "
            "the util/simd.h dispatch layer (DESIGN.md §11)",
            "src/unordered_leak.cc:16: [unordered-iteration] range-for over "
            "an unordered container feeds a result container without a "
            "subsequent sort or an order-invariant fold; bucket order will "
            "leak into the output",
            "src/unordered_leak.cc:45: [unordered-iteration] range-for over "
            "an unordered container feeds a result container without a "
            "subsequent sort or an order-invariant fold; bucket order will "
            "leak into the output",
            "src/vdps/delta_hot.cc:22: [hot-path-allocation] "
            "'route.push_back' in hot region 'delta-strategy-patch' may "
            "reallocate — no 'route.reserve(' anywhere in this file; size "
            "the container up front or reuse a caller-owned buffer "
            "(// NOLINT(fta-alloc) with a reason if amortized by design)",
        ]
        self.assertEqual(self.lines, expected)

    def test_near_misses_stay_clean(self):
        text = "\n".join(self.lines)
        # srand(, operand(, string literals, comments: not reported.
        for line in (24, 25, 27):
            self.assertNotIn(f"src/banned.cc:{line}:", text)
        # Integer accumulator, outside-lambda +=, NOLINT'd reduce: clean.
        for line in (22, 25, 32):
            self.assertNotIn(f"src/parallel_reduce.cc:{line}:", text)
        # Sorted-after loop and NOLINTNEXTLINE'd loop: clean.
        for line in (25, 36):
            self.assertNotIn(f"src/unordered_leak.cc:{line}:", text)
        # Wrapper declarations, the *Sorted overload, and the
        # NOLINTNEXTLINE'd sanctioned rebuild: clean.
        for line in (7, 8, 9, 21, 27):
            self.assertNotIn(f"src/game/metric_rebuild.cc:{line}:", text)
        # NOLINT'd intrinsics, commented/string-literal intrinsic names:
        # clean; the sanctioned kernel-TU path produces no diagnostics at
        # all.
        for line in (15, 17, 24):
            self.assertNotIn(f"src/simd_leak.cc:{line}:", text)
        self.assertNotIn("src/util/simd_avx2.cc:", text)
        # Clock names in strings/comments and NOLINT'd reads: clean; the
        # sanctioned trace clock produces no diagnostics at all.
        for line in (25, 28, 30):
            self.assertNotIn(f"src/obs/wall_clock.cc:{line}:", text)
        self.assertNotIn("src/obs/trace.cc:", text)
        # Comment/string mentions of std::mutex and the NOLINTNEXTLINE'd
        # migration shim: clean.
        for line in (2, 21, 23):
            self.assertNotIn(f"src/raw_mutex.cc:{line}:", text)
        # Outside-region growth, reserve-backed push_back inside the
        # region, and the NOLINT(fta-alloc) escape: clean.
        for line in (16, 24, 27):
            self.assertNotIn(f"src/game/best_response_hot.cc:{line}:", text)
        # Container parameters and references, default construction, the
        # NOLINT(fta-alloc) escape, and a sized temporary outside the
        # region: clean.
        for line in (16, 20, 21, 22, 28):
            self.assertNotIn(f"src/game/best_response_sized.cc:{line}:", text)
        # The delta patch's reserved strategy buffer and the merge after
        # the region: clean.
        for line in (23, 26):
            self.assertNotIn(f"src/vdps/delta_hot.cc:{line}:", text)


class JsonFormat(unittest.TestCase):
    def test_json_matches_text_findings(self):
        import json as json_mod
        code, lines, _ = run_lint("violations", ["--format", "json"])
        self.assertEqual(code, 1)
        doc = json_mod.loads("\n".join(lines))
        self.assertEqual(doc["schema"], "fta-lint-v1")
        self.assertGreater(doc["files_scanned"], 0)
        text_code, text_lines, _ = run_lint("violations")
        self.assertEqual(len(doc["violations"]), len(text_lines))
        for v, rendered in zip(doc["violations"], text_lines):
            self.assertEqual(
                f"{v['file']}:{v['line']}: [{v['rule']}] {v['message']}",
                rendered)
        del text_code

    def test_json_clean_tree_is_empty_and_exit_zero(self):
        import json as json_mod
        code, lines, _ = run_lint("clean", ["--format", "json"])
        self.assertEqual(code, 0)
        doc = json_mod.loads("\n".join(lines))
        self.assertEqual(doc["violations"], [])
        self.assertEqual(doc["files_scanned"], 1)


class CleanFixture(unittest.TestCase):
    def test_clean_tree_passes(self):
        code, lines, _ = run_lint("clean")
        self.assertEqual(code, 0)
        self.assertEqual(lines, ["fta_lint: 1 files clean"])


class AllowlistFixtures(unittest.TestCase):
    def test_allowlist_suppresses_matching_violation(self):
        allow = os.path.join(TESTDATA, "allowlisted", "allow.txt")
        code, lines, _ = run_lint("allowlisted", ["--allowlist", allow])
        self.assertEqual(code, 0, msg=lines)

    def test_without_allowlist_the_violation_fires(self):
        code, lines, _ = run_lint("allowlisted")
        self.assertEqual(code, 1)
        self.assertTrue(
            any("src/suppressed.cc:8: [unordered-iteration]" in l
                for l in lines),
            msg=lines)

    def test_stale_entry_fails_the_lint(self):
        allow = os.path.join(TESTDATA, "stale", "allow.txt")
        code, lines, _ = run_lint("stale", ["--allowlist", allow])
        self.assertEqual(code, 1)
        self.assertTrue(
            any("[stale-allowlist]" in l and "banned-token:src/ok.cc:rand("
                in l for l in lines),
            msg=lines)


class RepoTree(unittest.TestCase):
    def test_repo_src_is_clean(self):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fta_lint.main(["--root", repo_root, "src"])
        self.assertEqual(code, 0, msg=out.getvalue())


if __name__ == "__main__":
    unittest.main()
